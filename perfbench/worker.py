"""One workload in one fresh process: warm-up, timed units, then checks.

Started by ``run.py`` with BLAS threads pinned and ``src`` on the path. Each
unit is one in-process call of ``tbscatter.cli.run(argv)``; only that call is
timed. Correctness checks and the sweep's repeat run happen after the timed
loop, with tracing off, and the result goes to a JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import checks
import inputs
import tracing


def run_unit(cli, argv: list[str]) -> tuple[int, float, str]:
    """Exit code (-1 when it raised), wall seconds, captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = -1
            traceback.print_exc()
        elapsed = perf_counter() - t0
    if code != 0:
        sys.stderr.write(err.getvalue())
    return code, elapsed, out.getvalue()


def _with_out(unit: dict, path: Path) -> dict:
    """The unit with its --out argument, if any, pointed at ``path``."""
    if "--out" not in unit["argv"]:
        return unit
    argv = list(unit["argv"])
    argv[argv.index("--out") + 1] = str(path)
    return {**unit, "argv": argv, "out": str(path)}


def _read(path: str) -> bytes | None:
    p = Path(path)
    return p.read_bytes() if p.exists() else None


class Checker:
    """Checks one finished unit against its workload's oracle."""

    def __init__(self, workload: str):
        self.workload = workload
        self._centers: dict[str, tuple] = {}

    def _solver(self, spec: str):
        """(r, t) of the formula route at k, for the center in ``spec``."""
        from tbscatter.model import LeadAttachment, build_center
        from tbscatter.scattering import solve_rt_formula

        if spec not in self._centers:
            d = inputs.read_spec(spec)
            self._centers[spec] = (
                build_center(d["H_A"], d["H_B"], d["H_AB"]),
                LeadAttachment(d["kappa"], d["g_left"], d["g_right"],
                               d["joint_left"], d["joint_right"]),
            )
        center, lead = self._centers[spec]

        def solve(k):
            sol = solve_rt_formula(center, lead, k)
            return sol.r, sol.t

        return solve

    def __call__(self, unit: dict, code: int, output: str) -> list[str]:
        try:
            return self._check(unit, code, output)
        except Exception as exc:  # an oracle that raises fails the unit, not the run
            return [f"check raised {exc!r}"]

    def _check(self, unit: dict, code: int, output: str) -> list[str]:
        if self.workload == "ensemble":
            return checks.check_verify(code, output)
        out = Path(unit["out"])
        text = out.read_text(encoding="utf-8") if out.exists() else None
        if self.workload == "sweep":
            problems = checks.check_spectrum(code, text, inputs.SWEEP_STEPS)
            if not problems:
                rows = checks.parse_spectrum_csv(text)
                problems = checks.check_formula_agreement(
                    rows, unit["formula_picks"], self._solver(unit["spec"]))
            return problems
        return checks.check_wavepacket(code, output, text, unit["kind"], unit["k0"],
                                       inputs.WAVE_SIGMA, self._solver(unit["spec"]))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(tracing.REQUIRED))
    p.add_argument("--manifest", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="gzipped CSV of every span (traced runs)")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    workdir = Path(args.manifest).parent
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    import tbscatter.cli as cli

    warmup = _with_out(manifest["warmup"], workdir / "out-warmup")
    code, warm_s, warm_output = run_unit(cli, warmup["argv"])
    done = [(warmup, code, warm_output)]

    units = manifest["units"]
    times, work = [], 0
    est = warm_s
    while not times or sum(times) + 0.5 * est < args.seconds:
        i = len(times)
        unit = _with_out(units[i % len(units)], workdir / f"out-{i}")
        if tracer is not None:
            tracer.unit_id = i
            tracer.active = True
        code, elapsed, output = run_unit(cli, unit["argv"])
        if tracer is not None:
            tracer.active = False
        times.append(elapsed)
        work += unit["work"]
        done.append((unit, code, output))
        est = statistics.median(times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    repeat = None
    if args.workload == "sweep":
        # Determinism: the warm-up spec again must give a byte-identical CSV.
        repeat = _with_out(manifest["warmup"], workdir / "out-repeat")
        code, _, output = run_unit(cli, repeat["argv"])
        done.append((repeat, code, output))
    checker = Checker(args.workload)
    problems = []
    failed = 0
    for unit, code, output in done:
        found = checker(unit, code, output)
        if unit is repeat and _read(repeat["out"]) != _read(warmup["out"]):
            found.append("CSV differs from the warm-up run of the same spec")
        if found:
            failed += 1
            problems.extend(f"{unit['name']}: {msg}" for msg in found)

    result = {
        "unit_s": times,
        "work": work,
        "attempted": len(done),
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        layer = tracing.layer_metrics(tracer)
        result["layer"] = layer
        result["missing_calls"] = tracing.missing_calls(layer, args.workload)
        if args.spans:
            result["spans"] = tracer.write_spans(args.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
