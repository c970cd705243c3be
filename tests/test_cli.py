import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tbscatter
from tbscatter import (
    FourSiteParams,
    LeadAttachment,
    build_center,
    folded_four_site,
    parse_network_spec,
    serialize_network_spec,
)
from tbscatter.cli import run
from tbscatter.verify import CheckResult, SuiteReport, random_hermitian

PACKAGE_PARENT = str(Path(tbscatter.__file__).resolve().parents[1])


def extract(pattern: str, text: str) -> float:
    match = re.search(pattern, text)
    assert match, f"pattern {pattern!r} not found in:\n{text}"
    return float(match.group(1))


def run_fresh(code: str, blas_threads: int = 1) -> str:
    """Run ``code`` in a new interpreter on this package, with OpenBLAS
    pinned to ``blas_threads`` before numpy loads; returns its stdout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_PARENT, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def write_random_spec(path: Path, n_a: int, n_b: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    h_ab = rng.standard_normal((n_a, n_b)) + 1j * rng.standard_normal((n_a, n_b))
    center = build_center(random_hermitian(rng, n_a), random_hermitian(rng, n_b), h_ab)
    lead = LeadAttachment(kappa=1.0, g_left=0.8, g_right=0.6 + 0.2j, joint_left=3, joint_right=17)
    path.write_text(serialize_network_spec(center, lead), encoding="utf-8")


class TestSolve:
    def test_uniform_chain_transmits(self, specs_dir, capsys):
        code = run(["solve", "--spec", str(specs_dir / "uniform_chain.json"), "--k", "1.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert extract(r"\[formula\] T = ([0-9.e+-]+)", out) == pytest.approx(1.0, abs=1e-12)
        assert extract(r"\[direct\] T = ([0-9.e+-]+)", out) == pytest.approx(1.0, abs=1e-12)
        assert extract(r"max \|formula - direct\| in \(r, t\) = ([0-9.e+-]+)", out) <= 1e-10

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code = run(["solve", "--spec", str(tmp_path / "nope.json"), "--k", "1.0"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_spec_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kappa": 1.0}', encoding="utf-8")
        code = run(["solve", "--spec", str(bad), "--k", "1.0"])
        assert code == 1
        assert "missing fields" in capsys.readouterr().err

    def test_out_of_band_momentum_exits_one(self, specs_dir, capsys):
        code = run(["solve", "--spec", str(specs_dir / "uniform_chain.json"), "--k", "3.2"])
        assert code == 1
        assert "MomentumOutOfBand" in capsys.readouterr().err


class TestSpectrum:
    def test_csv_schema_and_determinism(self, specs_dir, tmp_path, capsys):
        args = [
            "spectrum", "--spec", str(specs_dir / "four_site_folded.json"),
            "--k-min", "0.1", "--k-max", "3.0", "--steps", "40",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        data1 = out1.read_bytes()
        assert data1 == out2.read_bytes()
        lines = data1.decode().splitlines()
        assert lines[0] == "k,T,R,deficit,status"
        assert len(lines) == 41
        for line in lines[1:]:
            k, T, R, deficit, status = line.split(",")
            assert status in ("ok", "pole", "singular")
            assert abs(float(deficit)) <= 1e-10

    def test_csv_repeats_at_a_fixed_blas_thread_count(self, tmp_path):
        # At 256 sites OpenBLAS splits the LU's largest matrix products
        # between two threads, which changes their rounding, so the output is
        # promised identical only for a fixed BLAS thread count.
        spec = tmp_path / "center.json"
        write_random_spec(spec, 128, 128, seed=130)
        for threads in (1, 2):
            outputs = []
            for rep in range(2):
                out = tmp_path / f"threads{threads}-{rep}.csv"
                argv = ["spectrum", "--spec", str(spec), "--k-min", "0.2", "--k-max", "2.9",
                        "--steps", "6", "--out", str(out)]
                run_fresh(f"from tbscatter.cli import run; raise SystemExit(run({argv!r}))",
                          threads)
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], f"{threads} BLAS threads"
            assert len(outputs[0].splitlines()) == 7


def test_verify_and_spectrum_do_not_import_scipy_linalg(tmp_path):
    # scipy.linalg adds about 8 MB resident; the dense kernel is numpy only.
    spec = tmp_path / "center.json"
    write_random_spec(spec, 40, 8, seed=3)
    spectrum = ["spectrum", "--spec", str(spec), "--k-min", "0.2", "--k-max", "2.9",
                "--steps", "3", "--out", str(tmp_path / "out.csv")]
    out = run_fresh(
        "import sys\n"
        "from tbscatter.cli import run\n"
        "assert run(['verify', '--trials', '3', '--seed', '1', '--suite', 'all']) == 0\n"
        f"assert run({spectrum!r}) == 0\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    assert out.splitlines()[-1] == "False"


class TestVerifyCommand:
    def test_small_conservation_run_passes(self, capsys):
        code = run(["verify", "--trials", "20", "--seed", "7", "--suite", "conservation"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out and "[FAIL]" not in out
        assert "tolerance" not in out  # tolerances appear inline as 'required <='
        assert "required <=" in out

    @pytest.mark.parametrize("suite", ["appendix", "ptfold", "all"])
    def test_each_suite_runs_clean(self, suite, capsys):
        code = run(["verify", "--trials", "5", "--seed", "11", "--suite", suite])
        out = capsys.readouterr().out
        assert code == 0
        assert "[FAIL]" not in out

    def test_near_singular_energy_is_reported_not_failed(self, capsys):
        # Trial 7 of this seed has cond_inf(D) = 2.6e6: its inverse carries
        # rounding of about 8.8e-8, above the absolute 1e-9 symmetry bound.
        code = run(["verify", "--trials", "20", "--seed", "724262123", "--suite", "appendix"])
        out = capsys.readouterr().out
        assert code == 0
        assert "[FAIL]" not in out
        schur = next(line for line in out.splitlines() if "(Schur complement)" in line)
        assert "near-singular energies: 1 of 20" in schur
        assert re.search(r"worst cond_inf\(D\) 2\.6\de\+06 at trial 7, E=-0\.296929", schur)
        lu_route = next(line for line in out.splitlines() if "(LU route)" in line)
        assert "trial 7," not in lu_route

    def test_failing_suite_exits_two(self, capsys, monkeypatch):
        failing = SuiteReport(
            suite="conservation", trials=1, seed=1,
            checks=[CheckResult(name="max deficit", passed=False, measured=1.0, tolerance=1e-10)],
        )
        monkeypatch.setattr("tbscatter.cli.run_suites", lambda *a, **k: [failing])
        code = run(["verify", "--trials", "1", "--seed", "1", "--suite", "conservation"])
        out = capsys.readouterr().out
        assert code == 2
        assert "[FAIL]" in out


class TestExampleCommand:
    def test_resonance_transmission(self, capsys):
        code = run(["example", "four-site", "--gamma1", "1", "--gamma2", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert extract(r"\[direct\] T = ([0-9.e+-]+)", out) == pytest.approx(1.0, abs=1e-10)
        assert extract(r"balanced T\(k\) formula = ([0-9.e+-]+)", out) == 1.0

    def test_unbalanced_deficit_reported(self, capsys, tmp_path):
        csv = tmp_path / "ring.csv"
        code = run([
            "example", "four-site", "--gamma1", "2", "--gamma2", "0",
            "--k", "1.0", "--spectrum", str(csv), "--steps", "11",
        ])
        out = capsys.readouterr().out
        assert code == 0
        deficit = extract(r"\[direct\] deficit 1 - \|r\|\^2 - \|t\|\^2 = (-?[0-9.e+-]+)", out)
        assert deficit < -0.1  # net gain
        lines = csv.read_text().splitlines()
        assert lines[0] == "k,T,R,deficit,status"
        assert len(lines) == 12


class TestPtFoldCommand:
    def test_fold_emits_valid_network_spec(self, specs_dir, tmp_path, capsys):
        out_file = tmp_path / "folded.json"
        code = run([
            "pt", "fold", "--spec", str(specs_dir / "four_site_pt.json"),
            "--out", str(out_file), "--joint-left", "1", "--joint-right", "2",
        ])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "parity-time defect" in stdout
        center, lead = parse_network_spec(out_file.read_text(encoding="utf-8"))
        expected, _ = folded_four_site(FourSiteParams(1.0, 1.0))
        assert center == expected
        assert (lead.joint_left, lead.joint_right) == (1, 2)

    def test_mirror_joint_is_rejected(self, specs_dir, tmp_path, capsys):
        code = run([
            "pt", "fold", "--spec", str(specs_dir / "four_site_pt.json"),
            "--out", str(tmp_path / "x.json"), "--joint-left", "1", "--joint-right", "3",
        ])
        assert code == 1
        assert "JointOutsideAxis" in capsys.readouterr().err

    def test_generalized_spec_folds_and_conserves(self, tmp_path, capsys):
        import numpy as np

        from tbscatter import parse_pt_spec, serialize_pt_spec, solve_rt_direct
        from tbscatter.verify import random_general_pt_spec

        spec = random_general_pt_spec(np.random.default_rng(23))
        in_file = tmp_path / "general.json"
        in_file.write_text(serialize_pt_spec(spec), encoding="utf-8")
        out_file = tmp_path / "folded.json"
        code = run([
            "pt", "fold", "--spec", str(in_file), "--out", str(out_file),
            "--g-left", "0.5+0.2j",
        ])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "(reported only)" in stdout  # no symmetry asserted for this flavor
        center, lead = parse_network_spec(out_file.read_text(encoding="utf-8"))
        assert lead.g_left == 0.5 + 0.2j
        sol = solve_rt_direct(center, lead, 1.1)
        assert abs(sol.deficit) <= 1e-10


class TestWavepacketCommand:
    def test_uniform_chain_probe(self, specs_dir, tmp_path, capsys):
        csv = tmp_path / "probe.csv"
        code = run([
            "wavepacket", "--spec", str(specs_dir / "uniform_chain.json"),
            "--k0", str(math.pi / 3), "--length", "300", "--out", str(csv),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert extract(r"final p_right = ([0-9.e+-]+)", out) == pytest.approx(1.0, abs=2e-2)
        assert extract(r"final total norm = ([0-9.e+-]+)", out) == pytest.approx(1.0, abs=1e-6)
        lines = csv.read_text().splitlines()
        assert lines[0] == "time,p_left,p_center,p_right,total_norm"
        assert len(lines) > 100

    def test_criterion_7_header_line(self, specs_dir, tmp_path, capsys):
        # The step comes from run_experiment: 0.04 / norm_inf of the finite system.
        code = run([
            "wavepacket", "--spec", str(specs_dir / "four_site_folded.json"),
            "--k0", repr(math.pi / 3), "--length", "600", "--out", str(tmp_path / "probe.csv"),
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "spec sha256=5ea46e8372e3bdef  n=600 x0=-300.0 sigma=15.0 k0=1.0471975511965976 "
            "t_final=212.1762239271875 dt=0.010448154998549657"
        )

    @staticmethod
    def uniform_chain_with_kappa(specs_dir, tmp_path, kappa: float) -> Path:
        doc = json.loads((specs_dir / "uniform_chain.json").read_text(encoding="utf-8"))
        doc["kappa"] = kappa
        spec = tmp_path / "chain.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        return spec

    @pytest.mark.parametrize("kappa,k0", [(0.25, 1.0), (2.0, 1.5)])
    def test_default_stop_follows_the_lead_velocity(self, specs_dir, tmp_path, capsys, kappa, k0):
        # The packet moves at 2 kappa sin k0, so the default stop depends on kappa.
        spec = self.uniform_chain_with_kappa(specs_dir, tmp_path, kappa)
        code = run([
            "wavepacket", "--spec", str(spec), "--k0", repr(k0), "--length", "200",
            "--out", str(tmp_path / "probe.csv"),
        ])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        out = captured.out
        reflection = extract(r"plane-wave R = ([0-9.e+-]+)", out)
        transmission = extract(r"plane-wave T = ([0-9.e+-]+)", out)
        assert extract(r"final p_left = ([0-9.e+-]+)", out) == pytest.approx(reflection, abs=2e-2)
        assert extract(r"final p_right = ([0-9.e+-]+)", out) == pytest.approx(transmission, abs=2e-2)

    def test_negative_kappa_exits_one(self, specs_dir, tmp_path, capsys):
        # exp(i k0 x) then moves away from the center.
        spec = self.uniform_chain_with_kappa(specs_dir, tmp_path, -1.0)
        code = run([
            "wavepacket", "--spec", str(spec), "--k0", "1.0", "--length", "200",
            "--out", str(tmp_path / "probe.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidConfig:") and "kappa" in err

    def test_zero_carrier_momentum_exits_one(self, specs_dir, tmp_path, capsys):
        code = run([
            "wavepacket", "--spec", str(specs_dir / "uniform_chain.json"),
            "--k0", "0", "--out", str(tmp_path / "probe.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: InvalidConfig: carrier momentum must lie in (0, pi)\n"
        )
