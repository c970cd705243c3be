"""Run ``tbscatter verify --suite all`` over many seeds in one process and
judge every output with the benchmark's own ``check_verify``. Each seed runs
the benchmark's ``ensemble`` unit: 20 trials (``inputs.ENSEMBLE_TRIALS``).

Two ways to choose the seeds:

    python tools/seed_scan.py --first 100000 --count 6000
    python tools/seed_scan.py --bench-seed 1 --count 400

The first scans seeds N, N+1, ..., N+M-1. The second scans the seeds that
``perfbench/inputs.build_units("ensemble", S, M, ...)`` draws: its warm-up
and its M timed units, which is exactly the pool of an ``ensemble`` benchmark
run at seed S when M is the pool size (400). Both modules are loaded by path,
as the benchmark loads them, so the scan judges each output as a benchmark
run would.

Every failing seed is printed with its problems and its place in the scan.
In a drawn pool #0 is the warm-up and #i the i-th timed unit, which a
benchmark run reaches only when it runs that many units. Every near-singular
skip is printed with its detail, and at the end the slowest seed and its
time. The exit code is 1 when any seed fails its check or raises, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import re
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

_SKIP = re.compile(r"near-singular (momenta skipped|energies): (\d+) of \d+")
_CHECK_NAME = re.compile(r"^\s+\[\w+\] (.+?): measured")


def load_perfbench(name: str):
    """A benchmark module loaded by path, as the benchmark runs it."""
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_argvs(bench_seed: int, count: int) -> list[list[str]]:
    """The argv of the warm-up and of every timed unit of one ensemble pool."""
    inputs = load_perfbench("inputs")
    with tempfile.TemporaryDirectory() as workdir:
        plan = inputs.build_units("ensemble", bench_seed, count, Path(workdir))
    return [unit["argv"] for unit in [plan["warmup"], *plan["units"]]]


def run_verify(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """Exit code (-1 when it raised), stdout, stderr and wall seconds of one
    in-process call of ``cli.run``."""
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
    return code, out.getvalue(), err.getvalue(), elapsed


def skip_details(output: str) -> tuple[dict[str, int], list[str]]:
    """Skips by kind ('momenta skipped' or 'energies'), and 'check name:
    detail' for every check line that skipped something. A momentum is
    skipped from several checks at once, so each kind counts its largest."""
    counts, details = {}, []
    for line in output.splitlines():
        m = _SKIP.search(line)
        if m and int(m.group(2)) > 0:
            counts[m.group(1)] = max(counts.get(m.group(1), 0), int(m.group(2)))
            name = _CHECK_NAME.match(line)
            details.append(f"{name.group(1) if name else '?'}: {line[m.start():]}")
    return counts, details


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--first", type=int, help="first seed of a consecutive range")
    source.add_argument("--bench-seed", type=int, help="ensemble benchmark seed to draw from")
    p.add_argument("--count", type=int, required=True,
                   help="seeds in the range, or the ensemble pool size to draw")
    args = p.parse_args(argv)
    if args.count < 1:
        p.error("--count must be at least 1")

    sys.path.insert(0, str(ROOT / "src"))
    from tbscatter import cli

    check_verify = load_perfbench("checks").check_verify
    if args.first is not None:
        trials = str(load_perfbench("inputs").ENSEMBLE_TRIALS)
        argvs = [["verify", "--suite", "all", "--trials", trials, "--seed", str(args.first + i)]
                 for i in range(args.count)]
    else:
        argvs = bench_argvs(args.bench_seed, args.count)

    failures = 0
    skips = {"momenta skipped": 0, "energies": 0}
    slowest = (-1.0, None)
    t0 = perf_counter()
    for i, argv in enumerate(argvs):
        seed = argv[argv.index("--seed") + 1]
        code, output, errors, elapsed = run_verify(cli, argv)
        slowest = max(slowest, (elapsed, seed))
        problems = check_verify(code, output)
        if problems:
            failures += 1
            print(f"FAIL seed {seed} (#{i} of {len(argvs)}): " + "; ".join(problems))
            for line in errors.splitlines():
                print(f"  {line}")
        counts, details = skip_details(output)
        for kind, n in counts.items():
            skips[kind] += n
        for detail in details:
            print(f"skip seed {seed}: {detail}")
    print(f"scanned {len(argvs)} seeds in {perf_counter() - t0:.1f}s: {failures} failed; "
          f"near-singular: {skips['momenta skipped']} momenta skipped (conservation), "
          f"{skips['energies']} energies (appendix)")
    print(f"slowest: seed {slowest[1]} in {slowest[0]:.3f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    # One BLAS thread, as in the benchmark; set before numpy is first imported.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.exit(main())
