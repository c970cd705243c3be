"""Command-line front door.

Subcommands: solve one momentum, sweep a spectrum to CSV, run the seeded
verification suites, evaluate the 4-site example, fold a parity-symmetric
graph spec into a network spec, and run the wavepacket oracle. Exit codes:
0 success, 1 validation/parse error, 2 a verification suite failed.
Only ``run`` prints; a command that exits 1 leaves stdout empty and no file.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
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


def _digest(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()[:16]


def _solution_lines(label: str, sol) -> list[str]:
    return [
        f"[{label}] r = {sol.r!r}",
        f"[{label}] t = {sol.t!r}",
        f"[{label}] T = {abs(sol.t) ** 2!r}  R = {abs(sol.r) ** 2!r}",
        f"[{label}] deficit 1 - |r|^2 - |t|^2 = {sol.deficit!r}",
    ]


def _write_spectrum_csv(path: str, result) -> None:
    rows = [f"{p.k!r},{p.transmission!r},{p.reflection!r},{p.deficit!r},{p.status}"
            for p in result.entries]
    Path(path).write_text("\n".join([CSV_HEADER, *rows]) + "\n", encoding="utf-8")


def _cmd_solve(args) -> tuple[int, list[str]]:
    text = Path(args.spec).read_text(encoding="utf-8")
    center, lead = parse_network_spec(text)
    energy = dispersion(args.k, lead.kappa)
    lines = [f"spec sha256={_digest(text)}  k={args.k!r}  E={energy!r}"]
    methods = ("formula", "direct") if args.method == "both" else (args.method,)
    solutions = []
    for method in methods:
        solver = solve_rt_formula if method == "formula" else solve_rt_direct
        sol = solver(center, lead, args.k)
        lines += _solution_lines(method, sol)
        solutions.append(sol)
    if len(solutions) == 2:
        gap = max(abs(solutions[0].r - solutions[1].r), abs(solutions[0].t - solutions[1].t))
        lines.append(f"[both] max |formula - direct| in (r, t) = {gap!r}")
    return 0, lines


def _cmd_spectrum(args) -> tuple[int, list[str]]:
    text = Path(args.spec).read_text(encoding="utf-8")
    center, lead = parse_network_spec(text)
    result = spectrum(center, lead, args.k_min, args.k_max, args.steps)
    _write_spectrum_csv(args.out, result)
    flagged = sum(1 for p in result.entries if p.status != "ok")
    return 0, [f"spec sha256={_digest(text)}  wrote {len(result.entries)} points to {args.out}"
               f" ({flagged} flagged; min pivot ratio {result.min_pivot_ratio:.3e},"
               f" min |eta| {result.min_abs_eta:.3e},"
               f" {result.reference_points} by reference routes)"]


def _cmd_verify(args) -> tuple[int, list[str]]:
    """One line per check with its measured value and tolerance; the
    benchmark's checks parse these lines, so their format is fixed."""
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    start = time.perf_counter()
    reports = run_suites(names, trials=args.trials, seed=args.seed)
    lines = [f"verify trials={args.trials} seed={args.seed} suites={','.join(names)}",
             f"input sha256={_digest(f'{args.trials}:{args.seed}:{args.suite}')}"]
    for suite in reports:
        lines.append(f"suite {suite.suite}: trials={suite.trials} seed={suite.seed} "
                     f"elapsed={suite.elapsed:.2f}s")
        for check in suite.checks:
            line = (f"  [{'PASS' if check.passed else 'FAIL'}] {check.name}: measured "
                    f"{check.measured:.6e} (required {check.comparison} {check.tolerance:.6e})")
            lines.append(f"{line}  {check.detail}" if check.detail else line)
    lines.append(f"total wall time {time.perf_counter() - start:.2f}s")
    return (0 if all(suite.passed for suite in reports) else 2), lines


def _cmd_example_four_site(args) -> tuple[int, list[str]]:
    params = FourSiteParams(args.gamma1, args.gamma2)
    matrix, lead = four_site_center(params)
    sol = solve_rt_direct(matrix, lead, args.k)
    r, t = closed_form_rt(args.k, params)
    lines = [
        f"four-site ring gamma1={params.gamma1!r} gamma2={params.gamma2!r} k={args.k!r}",
        f"zeta = {zeta(args.k, params)!r}",
        f"[closed] r = {r!r}",
        f"[closed] t = {t!r}",
        f"[closed] T = {abs(t) ** 2!r}  deficit = {closed_form_deficit(args.k, params)!r}",
    ]
    if params.gamma1 == params.gamma2:
        lines.append(f"[closed] balanced T(k) formula = {transmission_T(args.k, params.gamma1)!r}")
    lines += _solution_lines("direct", sol)
    if args.spectrum:
        result = spectrum(matrix, lead, args.k_min, args.k_max, args.steps)
        _write_spectrum_csv(args.spectrum, result)
        lines.append(f"wrote {args.steps} points to {args.spectrum}")
    return 0, lines


def _cmd_pt_fold(args) -> tuple[int, list[str]]:
    text = Path(args.spec).read_text(encoding="utf-8")
    spec = parse_pt_spec(text)
    lead = LeadAttachment(
        kappa=args.kappa,
        g_left=complex(args.g_left),
        g_right=complex(args.g_right),
        joint_left=args.joint_left,
        joint_right=args.joint_right if args.joint_right is not None else spec.n1,
    )
    defect = check_pt_symmetry(assemble_hpt(spec), parity_matrix(spec))
    flavor = "plain" if spec.is_real else "generalized"
    center = fold_generalized(spec, lead)
    Path(args.out).write_text(serialize_network_spec(center, lead), encoding="utf-8")
    return 0, [
        f"spec sha256={_digest(text)}  {flavor} graph n1={spec.n1} n2={spec.n2}",
        f"parity-time defect of assembled matrix = {defect!r}"
        + ("" if flavor == "plain" else "  (reported only)"),
        f"wrote folded network spec to {args.out} (n_a={center.n_a}, n_b={center.n_b})",
    ]


def _cmd_wavepacket(args) -> tuple[int, list[str]]:
    text = Path(args.spec).read_text(encoding="utf-8")
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
    sol = solve_rt_direct(center, lead, args.k0)
    Path(args.out).write_text("\n".join(rows) + "\n", encoding="utf-8")
    lines = [
        f"spec sha256={_digest(text)}  n={n} x0={x0!r} sigma={args.sigma!r} "
        f"k0={args.k0!r} t_final={result['t_final']!r} dt={result['dt']!r}",
        f"wrote {len(rows) - 1} probe rows to {args.out} in {time.perf_counter() - start:.2f}s",
        f"final p_left = {result['p_left']!r}  plane-wave R = {abs(sol.r) ** 2!r}",
        f"final p_right = {result['p_right']!r}  plane-wave T = {abs(sol.t) ** 2!r}",
        f"final total norm = {result['norm']!r}",
    ]
    if abs(result["norm"] - 1.0) > 0.1:
        lines.append(
            "warning: total norm is far from 1; a growing mode of the non-Hermitian "
            "center dominates this run (a longer chain does not remove it; a shorter "
            "--t-final does help)"
        )
    return 0, lines


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
        code, lines = args.func(args)
    except ScatterError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
