import importlib.util

import tbscatter.cli
from conftest import REPO_ROOT


def load_seed_scan():
    path = REPO_ROOT / "tools" / "seed_scan.py"
    spec = importlib.util.spec_from_file_location("seed_scan", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reports_skips_and_the_slowest_seed(capsys):
    assert load_seed_scan().main(["--first", "101336", "--count", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("skip seed 101336: max cross-solver") == 2
    assert "scanned 1 seeds" in out and "0 failed; near-singular: 1 momenta skipped" in out
    assert "slowest: seed 101336 in " in out


def test_bench_pool_is_the_benchmarks_draw():
    scan = load_seed_scan()
    argvs = scan.bench_argvs(1, 2)
    inputs = scan.load_perfbench("inputs")
    assert len(argvs) == 3
    assert argvs[0][:5] == ["verify", "--suite", "all", "--trials", str(inputs.ENSEMBLE_TRIALS)]


def test_a_failing_or_raising_seed_exits_1(capsys, monkeypatch):
    scan = load_seed_scan()

    def broken(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(tbscatter.cli, "run", broken)
    assert scan.main(["--first", "7", "--count", "2"]) == 1
    out = capsys.readouterr().out
    assert "FAIL seed 7 (#0 of 2): exit code -1" in out and "FAIL seed 8 (#1 of 2):" in out
    assert "RuntimeError: boom" in out
    assert "2 failed" in out
