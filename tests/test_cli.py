import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
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
from tbscatter.errors import NotHermitian
from tbscatter.scattering import solve_rt_formula
from tbscatter.verify import CheckResult, SuiteReport, random_hermitian

from conftest import load_perfbench

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

    @pytest.mark.parametrize("k", ["inf", "-inf", "nan"])
    def test_non_finite_momentum_exits_one_before_output(self, specs_dir, capsys, k):
        code = run(["solve", "--spec", str(specs_dir / "uniform_chain.json"), f"--k={k}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: MomentumOutOfBand: momentum ")

    def test_header_energy_is_the_dispersion(self, specs_dir, capsys):
        spec = specs_dir / "uniform_chain.json"
        _, lead = parse_network_spec(spec.read_text(encoding="utf-8"))
        assert run(["solve", "--spec", str(spec), "--k", "1.2", "--method", "direct"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.endswith(f"  k=1.2  E={-2.0 * lead.kappa * math.cos(1.2)!r}")


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

    def test_summary_reports_threshold_margins(self, specs_dir, tmp_path, capsys):
        argv = ["spectrum", "--spec", str(specs_dir / "four_site_folded.json"), "--k-min", "0.1",
                "--k-max", "3.0", "--steps", "40", "--out", str(tmp_path / "out.csv")]
        assert run(argv) == 0
        line = capsys.readouterr().out.strip()
        m = re.search(r"\((\d+) flagged; min pivot ratio (\S+), min \|eta\| (\S+), "
                      r"(\d+) by reference routes\)$", line)
        assert m, line
        assert float(m.group(2)) > 0 and float(m.group(3)) > 0
        assert 1 <= int(m.group(4)) <= 40

    def test_momentum_at_band_edge_exits_one(self, specs_dir, tmp_path, capsys):
        # sin k <= SIN_K_MIN at the last grid point
        argv = ["spectrum", "--spec", str(specs_dir / "uniform_chain.json"), "--k-min", "0.5",
                "--k-max", repr(math.pi - 1e-9), "--steps", "5", "--out", str(tmp_path / "o.csv")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert "MomentumOutOfBand: momentum" in err and "is not inside the open band" in err
        assert not (tmp_path / "o.csv").exists()

    def test_csv_repeats_at_a_fixed_blas_thread_count(self, tmp_path):
        # At 256 sites OpenBLAS splits the reference point's LU products
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


def test_import_and_commands_do_not_load_scipy(specs_dir, tmp_path):
    # The package runs on numpy alone; scipy is only the tests' reference.
    # Importing it loads nothing but the standard library and numpy, which
    # keeps its start-up time down.
    spec = tmp_path / "center.json"
    write_random_spec(spec, 40, 8, seed=3)
    spectrum = ["spectrum", "--spec", str(spec), "--k-min", "0.2", "--k-max", "2.9",
                "--steps", "3", "--out", str(tmp_path / "out.csv")]
    wavepacket = ["wavepacket", "--spec", str(specs_dir / "uniform_chain.json"), "--k0", "1.0",
                  "--length", "200", "--out", str(tmp_path / "probe.csv")]
    out = run_fresh(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import tbscatter\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'numpy', 'tbscatter'}))\n"
        "print('scipy' in sys.modules)\n"
        "from tbscatter.cli import run\n"
        "assert run(['verify', '--trials', '3', '--seed', '1', '--suite', 'all']) == 0\n"
        f"assert run({spectrum!r}) == 0\n"
        f"assert run({wavepacket!r}) == 0\n"
        "print('scipy' in sys.modules)\n"
    )
    lines = out.splitlines()
    assert (lines[0], lines[1], lines[-1]) == ("[]", "False", "False")


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

    @pytest.mark.parametrize(
        "seed,where",
        [(101336, "trial 16, k=2.347681"), (102809, "trial 1, k=0.857622"),
         (1589801112, "trial 10, k=2.142368")],
    )
    def test_near_singular_momentum_is_named_not_failed(self, capsys, seed, where):
        # cond_inf(D) is 2.5e8, 4.0e7 and 1.2e7 at these momenta: the formula
        # route's rounding, u * cond, is above the cross-solver bound.
        code = run(["verify", "--trials", "20", "--seed", str(seed), "--suite", "all"])
        out = capsys.readouterr().out
        assert code == 0
        cross = [line for line in out.splitlines() if "cross-solver" in line]
        assert len(cross) == 2
        for line in cross:
            assert re.search(
                rf"near-singular momenta skipped: 1 of 200, worst cond_inf\(D\) "
                rf"\S+ at {where}, largest skipped gap ", line
            )
            assert f"worst at {where};" not in line

    @pytest.mark.parametrize("seed", [1, 724262123])
    def test_well_conditioned_seeds_skip_nothing(self, capsys, seed):
        code = run(["verify", "--trials", "20", "--seed", str(seed), "--suite", "conservation"])
        out = capsys.readouterr().out
        assert code == 0
        cross = [line for line in out.splitlines() if "cross-solver" in line]
        assert len(cross) == 2
        assert all(line.endswith("; near-singular momenta skipped: 0 of 200") for line in cross)

    def test_perturbed_formula_route_still_fails(self, capsys, monkeypatch):
        # A 1e-9 error in r is far above any momentum's rounding estimate at
        # this seed, so the skip rule must not hide it.
        formula = tbscatter.verify.solve_rt_formula

        def perturbed(*args, **kwargs):
            sol = formula(*args, **kwargs)
            return dataclasses.replace(sol, r=sol.r + 1e-9)

        monkeypatch.setattr(tbscatter.verify, "solve_rt_formula", perturbed)
        code = run(["verify", "--trials", "20", "--seed", "1", "--suite", "conservation"])
        out = capsys.readouterr().out
        assert code == 2
        line = next(line for line in out.splitlines() if "cross-solver |dr|" in line)
        assert line.startswith("  [FAIL]")
        assert "near-singular momenta skipped: 0 of 200" in line

    def test_negative_seed_exits_one(self, capsys):
        code = run(["verify", "--trials", "2", "--seed", "-1", "--suite", "all"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("trials,suite", [("0", "all"), ("-3", "ptfold")])
    def test_trials_below_one_exit_one(self, capsys, trials, suite):
        code = run(["verify", "--trials", trials, "--seed", "1", "--suite", suite])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: trials must be at least 1, got {trials}\n"

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

    def test_fold_that_fails_validation_fails_its_check(self, capsys, monkeypatch):
        # The suite counts a fold that raises instead of letting the error
        # end the run, so the structural-validation check can read FAIL.
        fold = tbscatter.verify.fold
        calls = []

        def fails_once(spec, *args):
            calls.append(spec)
            if len(calls) == 1:
                raise NotHermitian("H_A", 1.0)
            return fold(spec, *args)

        monkeypatch.setattr(tbscatter.verify, "fold", fails_once)
        code = run(["verify", "--trials", "3", "--seed", "1", "--suite", "ptfold"])
        out = capsys.readouterr().out
        assert code == 2
        assert len(calls) == 3
        line = next(line for line in out.splitlines() if "structural validation" in line)
        assert line == (
            "  [FAIL] all folded centers pass structural validation: measured 5.000000e+00 "
            "(required == 6.000000e+00)  first failure at plain trial 0: NotHermitian"
        )


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

    def test_generalized_document_with_real_entries_is_plain(self, specs_dir, tmp_path, capsys):
        # Realness comes from the entries, not from the document's flag.
        doc = json.loads((specs_dir / "four_site_pt.json").read_text(encoding="utf-8"))
        for name in ("H_gamma", "H_alpha", "H_alpha_beta", "H_gamma_alpha"):
            doc[name] = [[[x, 0.0] for x in row] for row in doc[name]]
        doc["generalized"] = True
        in_file = tmp_path / "general.json"
        in_file.write_text(json.dumps(doc), encoding="utf-8")
        code = run(["pt", "fold", "--spec", str(in_file), "--out", str(tmp_path / "folded.json")])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0].endswith("  plain graph n1=2 n2=1")
        assert lines[1] == "parity-time defect of assembled matrix = 0.0"

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
        # The probe interval comes from run_experiment: t_final / 200.
        code = run([
            "wavepacket", "--spec", str(specs_dir / "four_site_folded.json"),
            "--k0", repr(math.pi / 3), "--length", "600", "--out", str(tmp_path / "probe.csv"),
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "spec sha256=5ea46e8372e3bdef  n=600 x0=-300.0 sigma=15.0 k0=1.0471975511965976 "
            "t_final=212.1762239271875 dt=1.0608811196359376"
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

    def test_right_lead_launch_exits_one(self, specs_dir, tmp_path, capsys):
        # exp(i k0 x) moves right, so a packet at x0 > 0 never meets the center.
        code = run([
            "wavepacket", "--spec", str(specs_dir / "uniform_chain.json"), "--k0", "1.0",
            "--length", "300", "--x0", "80", "--out", str(tmp_path / "probe.csv"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidConfig:") and "x0" in err

    @pytest.mark.parametrize("entry", [1e308, 1e6])
    def test_unbounded_propagator_work_exits_one(self, specs_dir, tmp_path, capsys, entry):
        # 1e308 overflows t_final * ||H||_1; 1e6 asks for about 1e7 Taylor
        # substeps. Both are refused before the first interval.
        doc = json.loads((specs_dir / "uniform_chain.json").read_text(encoding="utf-8"))
        doc["H_A"][0][0] = [entry, 0.0]
        spec = tmp_path / "chain.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        code = run([
            "wavepacket", "--spec", str(spec), "--k0", "1.0", "--length", "200",
            "--out", str(tmp_path / "probe.csv"),
        ])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: InvalidConfig:") and "Taylor substeps" in captured.err
        assert "Traceback" not in captured.err
        assert elapsed < 1.0

    def test_overflowing_state_exits_one(self, specs_dir, tmp_path, capsys):
        # The balanced ring at gamma = 2 has a bound state at E = 1.1547i; by
        # t = 1472 of the length-5000 run the state's norm passes the float
        # range, and the run stops there instead of printing nan masses.
        doc = json.loads((specs_dir / "four_site_folded.json").read_text(encoding="utf-8"))
        doc["H_AB"][2][0] = [0.0, 2.0]
        spec = tmp_path / "ring.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "probe.csv"
        code = run(["wavepacket", "--spec", str(spec), "--k0", "1.0", "--length", "5000",
                    "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: NonFiniteState:") and "at t = 1472.2" in captured.err
        assert "nan" not in (captured.out + captured.err).lower()
        assert not out.exists()

    def test_growing_mode_warning_points_at_the_center(self, specs_dir, tmp_path, capsys):
        # At length 600 the gamma = 2 ring's bound state at E = 1.1547i has
        # grown the norm to 5.8e130 by the default stop; it is a mode of the
        # center, so the advice is a shorter run, not a longer chain.
        doc = json.loads((specs_dir / "four_site_folded.json").read_text(encoding="utf-8"))
        doc["H_AB"][2][0] = [0.0, 2.0]
        spec = tmp_path / "ring.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        code = run(["wavepacket", "--spec", str(spec), "--k0", "1.0", "--length", "600",
                    "--out", str(tmp_path / "probe.csv")])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert [line.split(" =")[0] for line in lines[2:5]] == [
            "final p_left", "final p_right", "final total norm"]
        assert extract(r"final total norm = ([0-9.e+-]+)", lines[4]) > 1e100
        assert lines[5:] == [
            "warning: total norm is far from 1; a growing mode of the non-Hermitian center "
            "dominates this run (a longer chain does not remove it; a shorter --t-final "
            "does help)"
        ]

    def test_absurd_length_is_refused_before_allocation(self, specs_dir, tmp_path, capsys):
        # 10^12 sites per lead would need 32 TB per state array.
        out = tmp_path / "probe.csv"
        code = run(["wavepacket", "--spec", str(specs_dir / "uniform_chain.json"),
                    "--k0", "1.0", "--length", str(10**12), "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (
            "error: InvalidConfig: chain_half_length must be at most 1000000, "
            "got 1000000000000\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--sigma", "nan"), ("--x0", "nan"), ("--t-final", "nan"), ("--t-final", "inf"),
        ("--sigma", "inf"),
    ])
    def test_non_finite_geometry_is_named(self, specs_dir, tmp_path, capsys, flag, value):
        # Named by its flag, not by the final packet position or the wall
        # check that it would otherwise fail.
        out = tmp_path / "probe.csv"
        code = run(["wavepacket", "--spec", str(specs_dir / "four_site_folded.json"),
                    "--k0", "1.0", f"{flag}={value}", "--out", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        field = flag[2:].replace("-", "_")
        assert captured.err == f"error: InvalidConfig: {field} must be finite, got {value}\n"
        assert not out.exists()

    def test_zero_carrier_momentum_exits_one(self, specs_dir, tmp_path, capsys):
        code = run([
            "wavepacket", "--spec", str(specs_dir / "uniform_chain.json"),
            "--k0", "0", "--out", str(tmp_path / "probe.csv"),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: InvalidConfig: carrier momentum must lie in (0, pi)\n"
        )


class TestNonFiniteLeadValues:
    # json reads NaN and Infinity; the lead must reject them before any
    # command computes with them.
    @pytest.mark.parametrize("field,value", [
        ("g_left", [math.inf, 0.0]), ("g_right", [0.5, -math.inf]), ("kappa", math.nan),
    ])
    @pytest.mark.parametrize("command", [
        ["solve", "--k", "1.0"],
        ["spectrum", "--k-min", "0.2", "--k-max", "2.9", "--steps", "5"],
        ["wavepacket", "--k0", "1.0", "--length", "200"],
    ])
    def test_exits_one_without_nan_or_warning(self, specs_dir, tmp_path, capsys, field, value,
                                              command):
        doc = json.loads((specs_dir / "uniform_chain.json").read_text(encoding="utf-8"))
        doc[field] = value
        spec = tmp_path / "chain.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        argv = [command[0], "--spec", str(spec), *command[1:]]
        if command[0] != "solve":
            argv += ["--out", str(tmp_path / "out.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert "nan" not in captured.out.lower()
        assert "must be finite" in captured.err
        assert caught == []


class TestFailedCommandWritesNothing:
    """A command that exits 1 leaves stdout empty and writes no output file.

    ``solve --k inf``, ``verify --trials 0`` and non-finite wavepacket
    geometry are held to the same contract in their commands' classes.
    """

    @pytest.mark.parametrize("argv,error", [
        pytest.param(["spectrum", "--spec", "{specs}/uniform_chain.json", "--k-min", "nan",
                      "--k-max", "2.0", "--steps", "5", "--out", "{out}"], "InvalidRange",
                     id="spectrum-k-min-nan"),
        pytest.param(["example", "four-site", "--gamma1", "1", "--gamma2", "1", "--k", "nan"],
                     "MomentumOutOfBand", id="four-site-k-nan"),
        pytest.param(["example", "four-site", "--gamma1", "1", "--gamma2", "1", "--k", "inf"],
                     "MomentumOutOfBand", id="four-site-k-inf"),
        pytest.param(["example", "four-site", "--gamma1", "1", "--gamma2", "1", "--k", "0"],
                     "MomentumOutOfBand", id="four-site-k-0"),
        pytest.param(["example", "four-site", "--gamma1", "1", "--gamma2", "1",
                      "--spectrum", "{out}", "--k-min", "nan"], "InvalidRange",
                     id="four-site-spectrum-k-min-nan"),
        pytest.param(["pt", "fold", "--spec", "{specs}/four_site_pt.json", "--out", "{out}",
                      "--joint-right", "3"], "JointOutsideAxis", id="pt-fold-joint-right-3"),
        # Step counts past the limit are refused before the grid is allocated.
        pytest.param(["spectrum", "--spec", "{specs}/uniform_chain.json", "--k-min", "0.1",
                      "--k-max", "3.0", "--steps", "1000000000000", "--out", "{out}"],
                     "InvalidRange", id="spectrum-steps-1e12"),
        pytest.param(["example", "four-site", "--gamma1", "1", "--gamma2", "1",
                      "--spectrum", "{out}", "--steps", "1000000000000"], "InvalidRange",
                     id="four-site-spectrum-steps-1e12"),
    ])
    def test_exits_one_with_a_named_error_only(self, specs_dir, tmp_path, capsys, argv, error):
        out = tmp_path / "out.file"
        code = run([arg.format(specs=specs_dir, out=out) for arg in argv])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.startswith(f"error: {error}: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()


class TestBenchmarkChecksReadCliOutput:
    """The benchmark's own checks accept what the CLI prints and writes, so
    a change to a parsed format shows in tier-1 before a benchmark run."""

    checks = load_perfbench("checks")
    inputs = load_perfbench("inputs")

    def test_verify_report(self, capsys):
        code = run(["verify", "--trials", "3", "--suite", "all"])
        assert self.checks.check_verify(code, capsys.readouterr().out) == []

    def test_spectrum_csv(self, specs_dir, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run(["spectrum", "--spec", str(specs_dir / "four_site_folded.json"),
                    *self.inputs.SWEEP_ARGS, "--out", str(out)])
        capsys.readouterr()
        text = out.read_text(encoding="utf-8") if out.exists() else None
        assert self.checks.check_spectrum(code, text, self.inputs.SWEEP_STEPS) == []

    def test_criterion_7_wavepacket(self, specs_dir, tmp_path, capsys):
        spec = specs_dir / "four_site_folded.json"
        center, lead = parse_network_spec(spec.read_text(encoding="utf-8"))
        k0, sigma = self.inputs.CRITERION7_K0, self.inputs.WAVE_SIGMA
        out = tmp_path / "probe.csv"
        code = run(["wavepacket", "--spec", str(spec), "--k0", repr(k0),
                    "--length", str(self.inputs.WAVE_LENGTH), "--sigma", repr(sigma),
                    "--out", str(out)])

        def solve_formula(k):
            sol = solve_rt_formula(center, lead, k)
            return sol.r, sol.t

        text = out.read_text(encoding="utf-8") if out.exists() else None
        problems = self.checks.check_wavepacket(code, capsys.readouterr().out, text,
                                                "criterion7", k0, sigma, solve_formula)
        assert problems == []
