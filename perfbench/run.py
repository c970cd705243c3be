"""tbscatter benchmark: one workload per call, end to end or traced per layer.

    python3 perfbench/run.py --workload {ensemble,sweep,wavepacket} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. Inputs are generated from the seed into
``.perfbench/`` before any timing, and the workload runs in a fresh
single-threaded process (``worker.py``) that calls ``tbscatter.cli.run``
in-process. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the workload once untraced and once traced and reports the per-layer
metrics. The last line of stdout is one JSON object: correct, attempted,
failed, metrics. A run record (revision, versions, machine) is written next
to it under ``.perfbench/``. Exit code 0 only when every unit passed its
correctness check.
"""

from __future__ import annotations

import os

# Pinned before numpy loads here or in any child: unpinned OpenBLAS threads
# make a 128x128 solve ~75x slower on a small machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("ensemble", "sweep", "wavepacket")
SETUP_REPEATS = 5
# Every process this run starts must end within this many seconds of its start.
RUN_BUDGET_S = 170
TAIL_MIN_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(env: dict, deadline: float) -> list[float]:
    """Seconds from spawning a fresh interpreter until ``import tbscatter``
    returns, read off the shared monotonic clock; one unrecorded run first
    fills the bytecode and file caches."""
    code = "import tbscatter, time; print(repr(time.monotonic()))"
    samples = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if i:
            samples.append(float(done.stdout.strip()) - t0)
    return samples


def tail(values_ms: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least TAIL_MIN_BEYOND samples beyond it,
    as (percentile, value); None when the run has too few units."""
    n = len(values_ms)
    if n <= TAIL_MIN_BEYOND:
        return None
    ordered = sorted(values_ms)
    rank = n - TAIL_MIN_BEYOND  # 1-based rank of the tail sample
    return 100.0 * rank / n, ordered[rank - 1]


def git_revision() -> str:
    """HEAD of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_info() -> dict:
    import numpy
    import scipy

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_env": BLAS_ENV,
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        info["cpu"] = "unknown"
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    info["caches"] = caches
    return info


def run_worker(workload: str, seed: int, manifest: Path, seconds: int, traced: bool,
               env: dict, deadline: float) -> dict:
    workdir = manifest.parent
    result = workdir / f"result-{int(traced)}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--manifest", str(manifest), "--seconds", str(seconds),
           "--trace", str(int(traced)), "--result", str(result)]
    if traced:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.csv.gz")]
    subprocess.run(cmd, env=env, stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(result.read_text(encoding="utf-8"))


def pool_size(workload: str, seconds: int) -> int:
    """Distinct timed inputs to generate; a faster program cycles through
    them. Sweep centers are 3.6 MB each, so only what a run at today's speed
    (2.8 to 4.6 s a unit) can use is generated."""
    if workload == "sweep":
        return max(2, math.ceil(seconds / 2.5))
    return 400


def throughput(res: dict) -> float:
    return res["work"] / sum(res["unit_s"])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "tbscatter" / "__init__.py").is_file():
        print(f"error: no tbscatter package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    env = child_env()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup = [] if args.trace else measure_setup(env, deadline)
        plan = inputs.build_units(args.workload, args.seed,
                                  pool_size(args.workload, args.seconds), workdir)
        manifest = workdir / "manifest.json"
        manifest.write_text(json.dumps(plan), encoding="utf-8")
        runs = [run_worker(args.workload, args.seed, manifest, args.seconds, False, env, deadline)]
        if args.trace:
            runs.append(run_worker(args.workload, args.seed, manifest, args.seconds, True, env,
                                   deadline))
    except subprocess.CalledProcessError as exc:
        print(f"error: workload process failed with exit code {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {RUN_BUDGET_S}s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = runs[0]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [msg for r in runs for msg in r["problems"]]
    unit_ms = [1e3 * s for s in plain["unit_s"]]
    if args.trace:
        traced = runs[1]
        problems += [f"traced run: {q} was never called" for q in traced["missing_calls"]]
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["layer"].items()}
        metrics["trace.overhead"] = {"value": throughput(traced) / throughput(plain),
                                     "unit": "ratio"}
    else:
        metrics = {
            "throughput": {"value": throughput(plain), "unit": "1/s"},
            "unit_p50_ms": {"value": statistics.median(unit_ms), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": plain["peak_rss_mb"], "unit": "MB"},
        }
    correct = not problems

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "revision": git_revision(),
        "machine": machine_info(),
        "units": len(unit_ms),
        "unit_ms": unit_ms,
        "setup_s": setup,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "metrics": metrics,
    }
    record_path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for msg in problems:
        print(f"FAIL {msg}")
    print(f"workload {args.workload} seed {args.seed}: {len(unit_ms)} timed units, "
          f"revision {record['revision']}, record {record_path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    t = tail(unit_ms)
    if t is None:
        print(f"  unit_tail_ms: omitted, {len(unit_ms)} units leave fewer than "
              f"{TAIL_MIN_BEYOND} beyond any percentile")
    else:
        print(f"  unit_tail_ms = {t[1]:.6g} ms (p{t[0]:.1f} of {len(unit_ms)} units, "
              f"{TAIL_MIN_BEYOND} beyond)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
