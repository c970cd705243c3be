"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all;
failures always surface the line). The random-ensemble criteria share one
seeded run via session fixtures, so the conservation, appendix, and
cross-solver criteria all refer to the identical 500-center ensemble.
"""

import math
import time

import numpy as np
import pytest

from tbscatter import (
    FourSiteParams,
    WavepacketConfig,
    closed_form_deficit,
    closed_form_rt,
    folded_four_site,
    four_site_center,
    run_experiment,
    solve_rt_direct,
    solve_rt_formula,
    transmission_T,
    transmission_Tprime,
)
from tbscatter.verify import appendix_suite, conservation_suite, ptfold_suite

SEED = 1
TRIALS = 500


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def by_name(suite, fragment: str):
    for check in suite.checks:
        if fragment in check.name:
            return check
    raise KeyError(fragment)


@pytest.fixture(scope="module")
def conservation_report():
    return conservation_suite(trials=TRIALS, seed=SEED)


@pytest.fixture(scope="module")
def appendix_report():
    return appendix_suite(trials=TRIALS, seed=SEED)


def test_criterion_1_conservation(conservation_report):
    check = by_name(conservation_report, "1 - |r|^2 - |t|^2")
    passed = check.passed and conservation_report.elapsed <= 30.0
    report(
        1,
        passed,
        f"conservation over {TRIALS} random centers x 10 momenta: "
        f"max |1 - |r|^2 - |t|^2| = {check.measured:.3e} (tol 1e-10), "
        f"elapsed {conservation_report.elapsed:.1f}s (budget 30s)",
    )


def test_criterion_2_appendix_identities(appendix_report):
    det_check = by_name(appendix_report, "Im det")
    lu_check = by_name(appendix_report, "LU route")
    cof_check = by_name(appendix_report, "cofactor route")
    gap_check = by_name(appendix_report, "cofactor-vs-LU")
    passed = all(c.passed for c in (det_check, lu_check, cof_check, gap_check))
    report(
        2,
        passed,
        f"det reality {det_check.measured:.3e} (tol 1e-10 rel); inverse symmetry "
        f"LU {lu_check.measured:.3e}, cofactor {cof_check.measured:.3e} (tol 1e-9); "
        f"route agreement {gap_check.measured:.3e} (tol 1e-9)",
    )


def test_criterion_3_joint_coefficients_real(appendix_report):
    check = by_name(appendix_report, "reality defect")
    report(
        3,
        check.passed,
        f"a, c real and b~ = conj(b): max relative defect {check.measured:.3e} (tol 1e-10)",
    )


def test_criterion_4_four_site_closed_forms():
    rng = np.random.default_rng(SEED)
    grid = np.linspace(0.1, math.pi - 0.1, 201)
    worst_rt = 0.0
    worst_deficit = 0.0
    for _ in range(20):
        params = FourSiteParams(float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.0, 4.0)))
        raw, lead = four_site_center(params)
        for k in grid:
            r, t = closed_form_rt(float(k), params)
            sol = solve_rt_direct(raw, lead, float(k))
            worst_rt = max(worst_rt, abs(r - sol.r), abs(t - sol.t))
            worst_deficit = max(
                worst_deficit, abs(sol.deficit - closed_form_deficit(float(k), params))
            )
    total_reflection = transmission_T(math.pi / 2, 1.0)
    resonance = transmission_T(math.pi / 3, 1.0)
    tprime_max = max(transmission_Tprime(float(k), 1.0) for k in grid)
    passed = (
        worst_rt <= 1e-10
        and worst_deficit <= 1e-10
        and total_reflection <= 1e-10
        and resonance == 1.0
        and tprime_max < 1.0
    )
    report(
        4,
        passed,
        f"closed forms vs numeric on 201-point grid x 20 gamma pairs: max |dr|,|dt| = "
        f"{worst_rt:.3e}, max deficit gap = {worst_deficit:.3e} (tol 1e-10); "
        f"T(pi/2) = {total_reflection:.1e}; T(pi/3, gamma=1) = {resonance!r} (== 1.0); "
        f"max T'(k, 1) = {tprime_max:.6f} (< 1)",
    )


def test_criterion_5_pt_folds():
    suite = ptfold_suite(trials=100, seed=SEED)
    similarity = by_name(suite, "U H U^T")
    pt_defect = by_name(suite, "parity-time defect of assembled")
    deficit = by_name(suite, "end-to-end")
    structural = by_name(suite, "structural validation")
    passed = all(c.passed for c in (similarity, pt_defect, deficit, structural))
    report(
        5,
        passed,
        f"100 plain + 100 generalized folds: similarity {similarity.measured:.3e} "
        f"(tol 1e-12); parity-time defect {pt_defect.measured:.3e} (tol 1e-12); "
        f"end-to-end deficit {deficit.measured:.3e} (tol 1e-10); "
        f"{structural.measured:.0f}/{structural.tolerance:.0f} centers validated",
    )


def test_criterion_6_cross_solver(conservation_report):
    check = by_name(conservation_report, "cross-solver |dr|")
    interior = by_name(conservation_report, "interior")
    passed = check.passed and interior.passed
    report(
        6,
        passed,
        f"formula vs direct paths over the full ensemble: max |dr|, |dt| = "
        f"{check.measured:.3e}, interior gap {interior.measured:.3e} (tol 1e-10)",
    )


def test_criterion_7_wavepacket_oracle():
    start = time.perf_counter()
    center, lead = folded_four_site(FourSiteParams(1.0, 1.0))
    n, sigma, k0 = 600, 15.0, math.pi / 3
    config = WavepacketConfig(
        chain_half_length=n,
        x0=-n / 2.0,
        sigma=sigma,
        k0=k0,
        t_final=(n / 2.0 + 4.5 * sigma) / (2.0 * math.sin(k0)),
    )
    result = run_experiment(center, lead, config)
    sol = solve_rt_formula(center, lead, k0)
    transmitted_gap = abs(result["p_right"] - abs(sol.t) ** 2)
    reflected_gap = abs(result["p_left"] - abs(sol.r) ** 2)

    raw, raw_lead = four_site_center(FourSiteParams(2.0, 0.0))
    gain_config = WavepacketConfig(
        chain_half_length=300,
        x0=-150.0,
        sigma=sigma,
        k0=k0,
        t_final=(150.0 + 4.5 * sigma) / (2.0 * math.sin(k0)),
    )
    gain_result = run_experiment(raw, raw_lead, gain_config)
    elapsed = time.perf_counter() - start
    passed = (
        transmitted_gap <= 2e-2
        and reflected_gap <= 2e-2
        and gain_result["norm"] > 1.0
        and elapsed <= 120.0
    )
    report(
        7,
        passed,
        f"wavepacket vs plane wave (n=600, sigma=15, k0=pi/3): |p_right - T| = "
        f"{transmitted_gap:.3e}, |p_left - R| = {reflected_gap:.3e} (tol 2e-2); "
        f"gain ring final norm = {gain_result['norm']:.3e} (> 1); "
        f"elapsed {elapsed:.1f}s (budget 120s)",
    )


def test_criterion_8_negative_control(conservation_report):
    formula = by_name(conservation_report, "ring deficit vs closed form")
    nonzero = by_name(conservation_report, "ring deficit is nonzero")
    mutants = by_name(conservation_report, "mutants show nonzero deficit")
    passed = all(c.passed for c in (formula, nonzero, mutants))
    report(
        8,
        passed,
        f"detector reads nonzero on broken centers: unbalanced ring max |deficit| = "
        f"{nonzero.measured:.3f} (> 1e-2), matching the closed form to "
        f"{formula.measured:.1e}; Hermitian-coupling mutants max |deficit| = "
        f"{mutants.measured:.3f} (> 1e-6)",
    )
