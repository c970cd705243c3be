"""Seeded random-ensemble verification suites.

Three suites back the CLI ``verify`` command and the acceptance tests:

* ``conservation``: the central identity 1 - |r|^2 - |t|^2 = 0 over random
  valid centers at arbitrary coupling strength, cross-agreement of the two
  solver paths, substitute-back residuals, and a negative control proving the
  detector reads nonzero on deliberately broken centers.
* ``appendix``: reality of det(D), conjugate symmetry of the inverse elements
  on the joint-bearing block through two independent routes, Hermiticity of
  the Schur complement S_A(E) behind that symmetry, and reality of the scaled
  joint coefficients. Energies where D is too ill-conditioned for an
  absolute symmetry bound are named near-singular and reported.
* ``ptfold``: fold similarity, structural validity, parity-time defect, and
  end-to-end conservation for folded graphs (plain and generalized).

All randomness flows from one explicit integer seed so any failure is
replayable from the reported trial.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import linalg
from .errors import PoleAtK, ScatterError, SingularDelta, SingularSystem, ZetaPole
from .four_site import FourSiteParams, closed_form_deficit, four_site_center
from .model import (
    LeadAttachment,
    ScatteringCenter,
    assemble_delta,
    assemble_full_center_matrix,
    build_center,
    effective_hamiltonian,
)
from .ptgraph import (
    GeneralPTGraphSpec,
    PTGraphSpec,
    assemble_hpt,
    check_pt_symmetry,
    fold,
    fold_generalized,
    fold_unitary,
    parity_matrix,
)
from .scattering import (
    coefficients_abc,
    schrodinger_residual,
    solve_rt_direct,
    solve_rt_formula,
)

DEFICIT_TOL = 1e-10
CROSS_SOLVER_TOL = 1e-10
RESIDUAL_TOL = 1e-10
DET_REALITY_RTOL = 1e-10
INVERSE_SYMMETRY_TOL = 1e-9
ROUTE_AGREEMENT_TOL = 1e-9
SCHUR_HERMITICITY_RTOL = 1e-13
JOINT_COEFF_RTOL = 1e-10
SIMILARITY_TOL = 1e-12
PT_DEFECT_TOL = 1e-12
NEGATIVE_CONTROL_FLOOR = 1e-2
MUTANT_DEFICIT_FLOOR = 1e-6

# A backward-stable inverse of D carries errors up to about
# cond_inf(D) * max|inv(D)| * UNIT_ROUNDOFF. Where that estimate exceeds
# NEAR_SINGULAR_FRACTION of INVERSE_SYMMETRY_TOL, the absolute symmetry bound
# would measure rounding rather than the identity, so the energy is named
# near-singular and held to the route-agreement and S_A checks only.
UNIT_ROUNDOFF = 2.0**-53
NEAR_SINGULAR_FRACTION = 0.1

K_MARGIN = 0.05
MAX_REDRAWS = 64

__all__ = [
    "CheckResult",
    "SuiteReport",
    "random_hermitian",
    "random_valid_center",
    "random_pt_spec",
    "random_general_pt_spec",
    "conservation_suite",
    "appendix_suite",
    "ptfold_suite",
    "run_suites",
    "SUITE_NAMES",
]


@dataclass(frozen=True)
class CheckResult:
    """One verified bound: measured value against its named tolerance."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    comparison: str = "<="
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    trials: int
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


class _Worst:
    """Track the largest value of a defect together with where it happened."""

    def __init__(self):
        self.value = -np.inf
        self.where = ""

    def update(self, value: float, where: str) -> None:
        if value > self.value:
            self.value = float(value)
            self.where = where

    def check(self, name: str, tolerance: float, comparison: str = "<=") -> CheckResult:
        if comparison == "<=":
            passed = self.value <= tolerance
        else:
            passed = self.value > tolerance
        return CheckResult(
            name=name,
            passed=bool(passed),
            measured=self.value,
            tolerance=tolerance,
            comparison=comparison,
            detail=f"worst at {self.where}" if self.where else "",
        )


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def _random_nonzero_complex(rng: np.random.Generator) -> complex:
    while True:
        z = complex(rng.standard_normal(), rng.standard_normal())
        if abs(z) >= 0.05:
            return z


def random_valid_center(
    rng: np.random.Generator,
    na_max: int = 8,
    nb_max: int = 8,
    coupling_max: float = 10.0,
) -> tuple[ScatteringCenter, LeadAttachment]:
    """Random Hermitian clusters, unrestricted complex coupling, random lead.

    The coupling magnitude is drawn up to ``coupling_max`` times the infinity
    norm of the A cluster, so the ensemble probes arbitrarily strong
    non-Hermiticity.
    """
    n_a = int(rng.integers(2, na_max + 1))
    n_b = int(rng.integers(0, nb_max + 1))
    h_a = random_hermitian(rng, n_a)
    h_b = random_hermitian(rng, n_b)
    if n_b:
        g = rng.standard_normal((n_a, n_b)) + 1j * rng.standard_normal((n_a, n_b))
        target = rng.uniform(0.0, coupling_max) * max(linalg.norm_inf(h_a), 1e-2)
        g_norm = linalg.norm_inf(g)
        h_ab = g * (target / g_norm) if g_norm > 0 else g
    else:
        h_ab = np.zeros((n_a, 0), dtype=np.complex128)
    center = build_center(h_a, h_b, h_ab)
    joints = rng.choice(n_a, size=2, replace=False) + 1
    lead = LeadAttachment(
        kappa=float(rng.uniform(0.3, 2.0)) * float(rng.choice([-1.0, 1.0])),
        g_left=_random_nonzero_complex(rng),
        g_right=_random_nonzero_complex(rng),
        joint_left=int(joints[0]),
        joint_right=int(joints[1]),
    )
    return center, lead


def _ensemble_rngs(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    """One stream for the centers, one for momenta and controls.

    Keeping the center stream separate makes the conservation and appendix
    suites exercise the identical 500-center ensemble for the same seed.
    """
    return np.random.default_rng(seed), np.random.default_rng((seed, 1))


def _random_momentum(rng: np.random.Generator) -> float:
    return float(rng.uniform(K_MARGIN, np.pi - K_MARGIN))


def _solve_both(center, lead, rng):
    """Draw momenta until both solver paths succeed; poles are redrawn."""
    for _ in range(MAX_REDRAWS):
        k = _random_momentum(rng)
        try:
            return k, solve_rt_formula(center, lead, k), solve_rt_direct(center, lead, k)
        except (PoleAtK, SingularDelta, SingularSystem):
            continue
    raise ScatterError("could not find a solvable momentum after redraws")


def _vector_gap(x: np.ndarray, y: np.ndarray) -> float:
    scale = max(1.0, float(np.abs(x).max(initial=0.0)))
    return float(np.abs(x - y).max(initial=0.0)) / scale


def conservation_suite(trials: int = 500, seed: int = 1) -> SuiteReport:
    """Current conservation, cross-solver agreement, substitute-back, control."""
    start = time.perf_counter()
    center_rng, aux_rng = _ensemble_rngs(seed)
    deficit = _Worst()
    cross_rt = _Worst()
    cross_interior = _Worst()
    residual = _Worst()
    for trial in range(trials):
        center, lead = random_valid_center(center_rng)
        for _ in range(10):  # momenta per center
            k, sol_f, sol_d = _solve_both(center, lead, aux_rng)
            where = f"trial {trial}, k={k:.6f}"
            deficit.update(abs(sol_f.deficit), where)
            deficit.update(abs(sol_d.deficit), where)
            cross_rt.update(abs(sol_f.r - sol_d.r), where)
            cross_rt.update(abs(sol_f.t - sol_d.t), where)
            cross_interior.update(_vector_gap(sol_f.alpha, sol_d.alpha), where)
            cross_interior.update(_vector_gap(sol_f.beta, sol_d.beta), where)
            residual.update(schrodinger_residual(center, lead, sol_f), where)
            residual.update(schrodinger_residual(center, lead, sol_d), where)
    report = SuiteReport(suite="conservation", trials=trials, seed=seed)
    report.checks.append(deficit.check("max |1 - |r|^2 - |t|^2|", DEFICIT_TOL))
    report.checks.append(cross_rt.check("max cross-solver |dr|, |dt|", CROSS_SOLVER_TOL))
    report.checks.append(
        cross_interior.check("max cross-solver interior gap (scaled)", CROSS_SOLVER_TOL)
    )
    report.checks.append(residual.check("max substitute-back residual (scaled)", RESIDUAL_TOL))
    report.checks.extend(_negative_control_checks(aux_rng))
    report.elapsed = time.perf_counter() - start
    return report


def _negative_control_checks(rng: np.random.Generator) -> list[CheckResult]:
    """Deliberately broken centers must read a clearly nonzero deficit."""
    formula_gap = _Worst()
    ring_deficit = _Worst()
    for g1, g2 in ((2.0, 0.0), (0.0, 2.0), (1.5, 0.5)):
        params = FourSiteParams(g1, g2)
        matrix, lead = four_site_center(params)
        for k in np.linspace(0.3, np.pi - 0.3, 21):
            try:
                expected = closed_form_deficit(float(k), params)
            except ZetaPole:
                # gamma2 = 0 puts a genuine zeta pole at k = pi/2.
                continue
            sol = solve_rt_direct(matrix, lead, float(k))
            formula_gap.update(abs(sol.deficit - expected), f"gammas ({g1}, {g2}), k={k:.4f}")
            ring_deficit.update(abs(sol.deficit), f"gammas ({g1}, {g2}), k={k:.4f}")
    mutant_deficit = _Worst()
    for trial in range(50):
        center, lead = random_valid_center(rng, na_max=5, nb_max=5, coupling_max=3.0)
        if center.n_b == 0:
            continue
        n = center.n_a + center.n_b
        mutant = assemble_full_center_matrix(center)
        # Hermitian coupling instead of anti-Hermitian, plus unbalanced
        # imaginary on-site terms: the class the theorem does not cover.
        mutant[center.n_a :, : center.n_a] = center.h_ab.conj().T
        mutant[0, 0] += 1j * rng.uniform(0.5, 2.0)
        mutant[n - 1, n - 1] -= 1j * rng.uniform(0.1, 0.4)
        try:
            sol = solve_rt_direct(mutant, lead, _random_momentum(rng))
        except SingularSystem:
            continue
        mutant_deficit.update(abs(sol.deficit), f"mutant trial {trial}")
    return [
        formula_gap.check("negative control: ring deficit vs closed form", DEFICIT_TOL),
        ring_deficit.check(
            "negative control: unbalanced ring deficit is nonzero",
            NEGATIVE_CONTROL_FLOOR,
            comparison=">",
        ),
        mutant_deficit.check(
            "negative control: Hermitian-coupling mutants show nonzero deficit",
            MUTANT_DEFICIT_FLOOR,
            comparison=">",
        ),
    ]


def appendix_suite(trials: int = 500, seed: int = 1) -> SuiteReport:
    """Determinant reality, inverse-element symmetry via two routes, S_A
    Hermiticity, Eq-of-joints reality."""
    start = time.perf_counter()
    center_rng, aux_rng = _ensemble_rngs(seed)
    det_imag = _Worst()
    lu_symmetry = _Worst()
    cof_symmetry = _Worst()
    route_gap = _Worst()
    schur_defect = _Worst()
    cond = _Worst()
    near_singular = 0
    energies = 0
    coeff_reality = _Worst()
    for trial in range(trials):
        center, lead = random_valid_center(center_rng)
        delta = None
        for _ in range(MAX_REDRAWS):
            energy = -2.0 * lead.kappa * np.cos(_random_momentum(aux_rng))
            d = assemble_delta(center, energy)
            det_val = linalg.det(d)
            if abs(det_val) > 0:
                delta = d
                break
        if delta is None:
            continue
        where = f"trial {trial}, E={energy:.6f}"
        det_imag.update(abs(det_val.imag) / abs(det_val), where)
        inv = linalg.inverse(delta)
        n_a = center.n_a
        lu = inv[:n_a, :n_a]
        cof = np.array([
            [linalg.inverse_element_cofactor(delta, i, j, det_a=det_val)
             for j in range(1, n_a + 1)]
            for i in range(1, n_a + 1)
        ])
        energies += 1
        cond_d = linalg.norm_inf(delta) * linalg.norm_inf(inv)
        cond.update(cond_d, where)
        rounding = cond_d * float(np.abs(inv).max()) * UNIT_ROUNDOFF
        if rounding > NEAR_SINGULAR_FRACTION * INVERSE_SYMMETRY_TOL:
            near_singular += 1
        else:
            lu_symmetry.update(linalg.hermiticity_defect(lu), where)
            cof_symmetry.update(linalg.hermiticity_defect(cof), where)
        gap = np.abs(cof - lu) / np.maximum(np.maximum(np.abs(cof), np.abs(lu)), 1.0)
        route_gap.update(float(gap.max()), where)
        s_a = effective_hamiltonian(center, energy)
        scale = float(np.abs(s_a).max())
        schur_defect.update(linalg.hermiticity_defect(s_a) / scale if scale else 0.0, where)
        try:
            abc = coefficients_abc(center, lead, _random_momentum(aux_rng))
        except (SingularDelta, PoleAtK):
            continue
        for value in (abc.a, abc.c):
            if abs(value) > 0:
                coeff_reality.update(abs(value.imag) / abs(value), where)
        if abs(abc.b) > 0:
            coeff_reality.update(abs(abc.b_tilde - abc.b.conjugate()) / abs(abc.b), where)
    report = SuiteReport(suite="appendix", trials=trials, seed=seed)
    report.checks.append(det_imag.check("max |Im det D| / |det D|", DET_REALITY_RTOL))
    report.checks.append(
        lu_symmetry.check("max |invD_ij - conj(invD_ji)| (LU route)", INVERSE_SYMMETRY_TOL)
    )
    report.checks.append(
        cof_symmetry.check("max |invD_ij - conj(invD_ji)| (cofactor route)", INVERSE_SYMMETRY_TOL)
    )
    report.checks.append(
        route_gap.check("max cofactor-vs-LU gap (relative, floor 1)", ROUTE_AGREEMENT_TOL)
    )
    schur = schur_defect.check(
        "max |S_A - S_A^dag| / max |S_A| (Schur complement)", SCHUR_HERMITICITY_RTOL
    )
    report.checks.append(
        replace(
            schur,
            detail=f"{schur.detail}; near-singular energies: {near_singular} of {energies}, "
            f"worst cond_inf(D) {cond.value:.2e} at {cond.where}",
        )
    )
    report.checks.append(
        coeff_reality.check("max joint-coefficient reality defect (relative)", JOINT_COEFF_RTOL)
    )
    report.elapsed = time.perf_counter() - start
    return report


def _random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return 0.5 * (g + g.T)


def random_pt_spec(rng: np.random.Generator) -> PTGraphSpec:
    n1 = int(rng.integers(2, 5))  # 2..4 axis sites, 1..4 mirror pairs
    n2 = int(rng.integers(1, 5))
    return PTGraphSpec(
        h_gamma=_random_symmetric(rng, n1),
        h_alpha=_random_symmetric(rng, n2),
        h_gamma_alpha=rng.standard_normal((n1, n2)),
        h_alpha_beta=_random_symmetric(rng, n2),
        v=rng.standard_normal(n2) + 1j * rng.uniform(-3.0, 3.0, n2),
    )


def random_general_pt_spec(rng: np.random.Generator) -> GeneralPTGraphSpec:
    n1 = int(rng.integers(2, 5))  # 2..4 axis sites, 1..4 mirror pairs
    n2 = int(rng.integers(1, 5))
    return GeneralPTGraphSpec(
        h_gamma=random_hermitian(rng, n1),
        h_alpha=random_hermitian(rng, n2),
        h_gamma_alpha=rng.standard_normal((n1, n2)) + 1j * rng.standard_normal((n1, n2)),
        h_alpha_beta=random_hermitian(rng, n2),
        v=rng.standard_normal(n2) + 1j * rng.uniform(-3.0, 3.0, n2),
    )


def _random_axis_lead(rng: np.random.Generator, n1: int) -> LeadAttachment:
    joints = rng.choice(n1, size=2, replace=False) + 1
    return LeadAttachment(
        kappa=float(rng.uniform(0.3, 2.0)),
        g_left=_random_nonzero_complex(rng),
        g_right=_random_nonzero_complex(rng),
        joint_left=int(joints[0]),
        joint_right=int(joints[1]),
    )


def ptfold_suite(trials: int = 100, seed: int = 1) -> SuiteReport:
    """Fold similarity, structure, parity-time defect, end-to-end conservation."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    similarity = _Worst()
    pt_defect = _Worst()
    coupling_structure = _Worst()
    deficit = _Worst()
    folded_valid = 0
    for trial in range(trials):
        for flavor, make, do_fold in (
            ("plain", random_pt_spec, fold),
            ("general", random_general_pt_spec, fold_generalized),
        ):
            spec = make(rng)
            h = assemble_hpt(spec)
            where = f"{flavor} trial {trial}"
            if flavor == "plain":
                pt_defect.update(check_pt_symmetry(h, parity_matrix(spec)), where)
            center = do_fold(spec)
            folded_valid += 1
            u = fold_unitary(spec)
            similarity.update(
                float(np.abs(u @ h @ u.T - assemble_full_center_matrix(center)).max()), where
            )
            if flavor == "plain":
                top = float(np.abs(center.h_ab[: spec.n1, :]).max(initial=0.0))
                bottom = center.h_ab[spec.n1 :, :]
                off = float(np.abs(bottom - np.diag(np.diag(bottom))).max(initial=0.0))
                coupling_structure.update(max(top, off), where)
            lead = _random_axis_lead(rng, spec.n1)
            for _ in range(MAX_REDRAWS):
                try:
                    sol = solve_rt_direct(center, lead, _random_momentum(rng))
                    break
                except SingularSystem:
                    continue
            else:
                continue
            deficit.update(abs(sol.deficit), where)
    report = SuiteReport(suite="ptfold", trials=trials, seed=seed)
    report.checks.append(similarity.check("max |U H U^T - folded blocks|", SIMILARITY_TOL))
    report.checks.append(pt_defect.check("max parity-time defect of assembled graph", PT_DEFECT_TOL))
    report.checks.append(
        coupling_structure.check("max folded-coupling entry outside gain/loss diagonal", 0.0)
    )
    report.checks.append(deficit.check("max end-to-end |1 - |r|^2 - |t|^2|", DEFICIT_TOL))
    report.checks.append(
        CheckResult(
            name="all folded centers pass structural validation",
            passed=folded_valid == 2 * trials,
            measured=float(folded_valid),
            tolerance=float(2 * trials),
            comparison="==",
        )
    )
    # The detector itself must flag asymmetry: unbalanced ring, parity 2<->4.
    matrix, _ = four_site_center(FourSiteParams(2.0, 0.0))
    p = np.eye(4)[:, [0, 3, 2, 1]]
    asym = check_pt_symmetry(matrix, p.astype(complex))
    report.checks.append(
        CheckResult(
            name="parity-time defect detects an asymmetric ring",
            passed=asym > 0.1,
            measured=asym,
            tolerance=0.1,
            comparison=">",
        )
    )
    report.elapsed = time.perf_counter() - start
    return report


SUITE_NAMES = ("conservation", "appendix", "ptfold")


def run_suites(names, trials: int, seed: int) -> list[SuiteReport]:
    reports = []
    for name in names:
        if name == "conservation":
            reports.append(conservation_suite(trials=trials, seed=seed))
        elif name == "appendix":
            reports.append(appendix_suite(trials=trials, seed=seed))
        elif name == "ptfold":
            reports.append(ptfold_suite(trials=trials, seed=seed))
        else:
            raise ValueError(f"unknown suite {name!r}")
    return reports
