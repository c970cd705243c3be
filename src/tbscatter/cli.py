"""Command-line front door.

Subcommands: solve one momentum, sweep a spectrum to CSV, run the seeded
verification suites, evaluate the 4-site example, fold a parity-symmetric
graph spec into a network spec, and run the wavepacket oracle. Exit codes:
0 success, 1 validation/parse error, 2 a verification suite failed.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import ScatterError
from .four_site import (
    FourSiteParams,
    closed_form_deficit,
    closed_form_rt,
    four_site_center,
    transmission_T,
    zeta,
)
from .model import LeadAttachment, parse_network_spec, serialize_network_spec
from .ptgraph import (
    PTGraphSpec,
    assemble_hpt,
    check_pt_symmetry,
    fold_generalized,
    parity_matrix,
    parse_pt_spec,
)
from .scattering import dispersion, solve_rt_direct, solve_rt_formula, spectrum
from .verify import SUITE_NAMES, run_suites
from .wavepacket import WavepacketConfig, run_experiment

CSV_HEADER = "k,T,R,deficit,status"


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _digest(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()[:16]


def _print_solution(label: str, sol) -> None:
    print(f"[{label}] r = {sol.r!r}")
    print(f"[{label}] t = {sol.t!r}")
    print(f"[{label}] T = {abs(sol.t) ** 2!r}  R = {abs(sol.r) ** 2!r}")
    print(f"[{label}] deficit 1 - |r|^2 - |t|^2 = {sol.deficit!r}")


def _write_spectrum_csv(path: str, result) -> None:
    lines = [CSV_HEADER]
    for p in result.entries:
        lines.append(f"{p.k!r},{p.transmission!r},{p.reflection!r},{p.deficit!r},{p.status}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_solve(args) -> int:
    text = _read_text(args.spec)
    center, lead = parse_network_spec(text)
    energy = dispersion(args.k, lead.kappa)
    print(f"spec sha256={_digest(text)}  k={args.k!r}  E={energy!r}")
    methods = ("formula", "direct") if args.method == "both" else (args.method,)
    solutions = []
    for method in methods:
        solver = solve_rt_formula if method == "formula" else solve_rt_direct
        sol = solver(center, lead, args.k)
        _print_solution(method, sol)
        solutions.append(sol)
    if len(solutions) == 2:
        gap = max(abs(solutions[0].r - solutions[1].r), abs(solutions[0].t - solutions[1].t))
        print(f"[both] max |formula - direct| in (r, t) = {gap!r}")
    return 0


def _cmd_spectrum(args) -> int:
    text = _read_text(args.spec)
    center, lead = parse_network_spec(text)
    result = spectrum(center, lead, args.k_min, args.k_max, args.steps)
    _write_spectrum_csv(args.out, result)
    flagged = sum(1 for p in result.entries if p.status != "ok")
    print(f"spec sha256={_digest(text)}  wrote {len(result.entries)} points to {args.out}"
          f" ({flagged} flagged; min pivot ratio {result.min_pivot_ratio:.3e},"
          f" min |eta| {result.min_abs_eta:.3e}, {result.reference_points} by reference routes)")
    return 0


@dataclass
class RunReport:
    """Echo of a verify invocation: every numeric claim names its tolerance."""

    command: str
    input_digest: str
    suites: list
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(suite.passed for suite in self.suites)

    def render(self) -> str:
        lines = [self.command, f"input sha256={self.input_digest}"]
        for suite in self.suites:
            lines.append(
                f"suite {suite.suite}: trials={suite.trials} seed={suite.seed} "
                f"elapsed={suite.elapsed:.2f}s"
            )
            for check in suite.checks:
                mark = "PASS" if check.passed else "FAIL"
                line = (
                    f"  [{mark}] {check.name}: measured {check.measured:.6e} "
                    f"(required {check.comparison} {check.tolerance:.6e})"
                )
                if check.detail:
                    line += f"  {check.detail}"
                lines.append(line)
        lines.append(f"total wall time {self.wall_time:.2f}s")
        return "\n".join(lines)


def _cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    start = time.perf_counter()
    reports = run_suites(names, trials=args.trials, seed=args.seed)
    run_report = RunReport(
        command=f"verify trials={args.trials} seed={args.seed} suites={','.join(names)}",
        input_digest=_digest(f"{args.trials}:{args.seed}:{args.suite}"),
        suites=reports,
        wall_time=time.perf_counter() - start,
    )
    print(run_report.render())
    return 0 if run_report.passed else 2


def _cmd_example_four_site(args) -> int:
    params = FourSiteParams(args.gamma1, args.gamma2)
    matrix, lead = four_site_center(params)
    k = args.k
    print(f"four-site ring gamma1={params.gamma1!r} gamma2={params.gamma2!r} k={k!r}")
    z = zeta(k, params)
    print(f"zeta = {z!r}")
    r, t = closed_form_rt(k, params)
    print(f"[closed] r = {r!r}")
    print(f"[closed] t = {t!r}")
    print(f"[closed] T = {abs(t) ** 2!r}  deficit = {closed_form_deficit(k, params)!r}")
    if params.gamma1 == params.gamma2:
        print(f"[closed] balanced T(k) formula = {transmission_T(k, params.gamma1)!r}")
    sol = solve_rt_direct(matrix, lead, k)
    _print_solution("direct", sol)
    if args.spectrum:
        result = spectrum(matrix, lead, args.k_min, args.k_max, args.steps)
        _write_spectrum_csv(args.spectrum, result)
        print(f"wrote {args.steps} points to {args.spectrum}")
    return 0


def _cmd_pt_fold(args) -> int:
    text = _read_text(args.spec)
    spec = parse_pt_spec(text)
    lead = LeadAttachment(
        kappa=args.kappa,
        g_left=complex(args.g_left),
        g_right=complex(args.g_right),
        joint_left=args.joint_left,
        joint_right=args.joint_right if args.joint_right is not None else spec.n1,
    )
    h = assemble_hpt(spec)
    defect = check_pt_symmetry(h, parity_matrix(spec))
    flavor = "plain" if isinstance(spec, PTGraphSpec) else "generalized"
    print(f"spec sha256={_digest(text)}  {flavor} graph n1={spec.n1} n2={spec.n2}")
    print(f"parity-time defect of assembled matrix = {defect!r}"
          + ("" if flavor == "plain" else "  (reported only)"))
    center = fold_generalized(spec, lead)
    out_text = serialize_network_spec(center, lead)
    Path(args.out).write_text(out_text, encoding="utf-8")
    print(f"wrote folded network spec to {args.out} "
          f"(n_a={center.n_a}, n_b={center.n_b})")
    return 0


def _cmd_wavepacket(args) -> int:
    text = _read_text(args.spec)
    center, lead = parse_network_spec(text)
    n = args.length
    x0 = args.x0 if args.x0 is not None else -n / 2.0
    config = WavepacketConfig(
        chain_half_length=n, x0=x0, sigma=args.sigma, k0=args.k0, t_final=args.t_final,
    )
    rows = ["time,p_left,p_center,p_right,total_norm"]

    def probe(t, p_l, p_c, p_r, norm):
        rows.append(f"{t!r},{p_l!r},{p_c!r},{p_r!r},{norm!r}")

    start = time.perf_counter()
    result = run_experiment(center, lead, config, probe=probe)
    print(f"spec sha256={_digest(text)}  n={n} x0={x0!r} sigma={args.sigma!r} "
          f"k0={args.k0!r} t_final={result['t_final']!r} dt={result['dt']!r}")
    Path(args.out).write_text("\n".join(rows) + "\n", encoding="utf-8")
    sol = solve_rt_direct(center, lead, args.k0)
    print(f"wrote {len(rows) - 1} probe rows to {args.out} "
          f"in {time.perf_counter() - start:.2f}s")
    print(f"final p_left = {result['p_left']!r}  plane-wave R = {abs(sol.r) ** 2!r}")
    print(f"final p_right = {result['p_right']!r}  plane-wave T = {abs(sol.t) ** 2!r}")
    print(f"final total norm = {result['norm']!r}")
    if abs(result["norm"] - 1.0) > 0.1:
        print(
            "warning: total norm is far from 1; growing eigenmodes of the finite "
            "non-Hermitian system likely dominate this run (increase |x0| and the "
            "chain length, or shorten t_final)"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbscatter",
        description="Scattering coefficients for anti-Hermitian-coupled tight-binding centers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one momentum for a network spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--method", choices=("formula", "direct", "both"), default="both")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("spectrum", help="sweep momenta and write CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--k-min", type=float, required=True)
    p.add_argument("--k-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("verify", help="run the seeded verification suites")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("example", help="built-in exactly solvable models")
    ex_sub = p.add_subparsers(dest="example", required=True)
    p4 = ex_sub.add_parser("four-site", help="the 4-site gain/loss ring")
    p4.add_argument("--gamma1", type=float, required=True)
    p4.add_argument("--gamma2", type=float, required=True)
    p4.add_argument("--k", type=float, default=math.pi / 3.0)
    p4.add_argument("--spectrum", help="write a k,T,R,deficit,status CSV here")
    p4.add_argument("--k-min", type=float, default=0.1)
    p4.add_argument("--k-max", type=float, default=math.pi - 0.1)
    p4.add_argument("--steps", type=int, default=101)
    p4.set_defaults(func=_cmd_example_four_site)

    p = sub.add_parser("pt", help="parity-symmetric graph operations")
    pt_sub = p.add_subparsers(dest="pt_command", required=True)
    pf = pt_sub.add_parser("fold", help="fold a PT graph spec into a network spec")
    pf.add_argument("--spec", required=True)
    pf.add_argument("--out", required=True)
    pf.add_argument("--kappa", type=float, default=1.0)
    pf.add_argument("--g-left", type=complex, default=1.0 + 0j, help="complex, e.g. '0.5+0.2j'")
    pf.add_argument("--g-right", type=complex, default=1.0 + 0j, help="complex, e.g. '0.5+0.2j'")
    pf.add_argument("--joint-left", type=int, default=1)
    pf.add_argument("--joint-right", type=int, default=None)
    pf.set_defaults(func=_cmd_pt_fold)

    p = sub.add_parser("wavepacket", help="finite-chain wavepacket oracle")
    p.add_argument("--spec", required=True)
    p.add_argument("--k0", type=float, required=True)
    p.add_argument("--sigma", type=float, default=15.0)
    p.add_argument("--length", type=int, default=600)
    p.add_argument("--out", required=True)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--t-final", type=float, default=None)
    p.set_defaults(func=_cmd_wavepacket)

    return parser


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScatterError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
