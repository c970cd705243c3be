"""The benchmark's tracer wraps functions by name and skips a name the package
no longer has without a word; these tests catch a rename, or a call that
bypasses the tracer's rebinding, before a traced run does.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import tbscatter

REPO_ROOT = Path(__file__).resolve().parent.parent
TRACING = REPO_ROOT / "perfbench" / "tracing.py"
SPECS = REPO_ROOT / "specs"
SRC = Path(tbscatter.__file__).resolve().parents[1]


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_is_a_package_callable():
    traced = _traced()
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"tbscatter.{module}"), name, None))
    ]
    assert sum(len(names) for names in traced.values()) > 0
    assert missing == []



def test_each_workload_reaches_its_required_functions(tmp_path):
    # Tracer.install rebinds module attributes, so a traced function that the
    # package binds early (say, into a dict built at import time) reads zero
    # calls. One tiny unit per workload, in a fresh interpreter.
    argv = {
        "ensemble": ["verify", "--trials", "2", "--suite", "all"],
        "sweep": ["spectrum", "--spec", str(SPECS / "four_site_folded.json"), "--k-min", "0.2",
                  "--k-max", "2.9", "--steps", "3", "--out", str(tmp_path / "out.csv")],
        "wavepacket": ["wavepacket", "--spec", str(SPECS / "uniform_chain.json"), "--k0", "1.0",
                       "--length", "200", "--out", str(tmp_path / "probe.csv")],
    }
    code = f"""
import contextlib, importlib.util, io
spec = importlib.util.spec_from_file_location("perfbench_tracing", {str(TRACING)!r})
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
for workload, argv in {argv!r}.items():
    tracer = tracing.Tracer()
    tracer.install()  # wraps the previous tracer's wrappers, which stay inactive
    import tbscatter.cli as cli
    tracer.active = True
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(argv) == 0, workload
    tracer.active = False
    print(workload, tracing.missing_calls(tracing.layer_metrics(tracer), workload))
"""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [f"{w} []" for w in argv]
