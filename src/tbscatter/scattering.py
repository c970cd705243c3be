"""Plane-wave scattering off a finite tight-binding center on an infinite chain.

The incident wave comes from the left with unit amplitude, lattice momentum
k in (0, pi) and energy E = -2 kappa cos k. On the leads the wavefunction is

    f_j = exp(ikj) + r exp(-ikj)   (j <= -1)
    f_j = t exp(ikj)               (j >= +1)

Two independent solvers are provided and cross-checked by the verification
suites. ``solve_rt_formula`` goes through four elements of the inverted
energy-shifted center matrix D:

    a  = inv(D)_LL |g_L|^2 / kappa      b  = inv(D)_LR conj(g_L) g_R / kappa
    c  = inv(D)_RR |g_R|^2 / kappa      bt = inv(D)_RL g_L conj(g_R) / kappa
    eta = (b bt - a c) e^{2ik} + (a + c) e^{ik} - 1
    r  = (-b bt + a c - a e^{-ik} - c e^{ik} + 1) / eta
    t  = 2i bt sin(k) / eta

``solve_rt_direct`` assembles one augmented linear system in the unknowns
(interior amplitudes, r, t): the center rows D x = g_L f_-1 e_L + g_R f_+1 e_R
with r, t moved to the unknown side, plus the two lead-site rows

    -kappa f_-2 - conj(g_L) x_L = E f_-1
    -kappa f_+2 - conj(g_R) x_R = E f_+1.

It never inverts D and still works when D alone is singular.

Both solvers accept either a validated ScatteringCenter (joints must lie in
cluster A) or a raw square complex matrix (joints anywhere), so deliberately
non-conserving centers can be driven through the same machinery.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    InvalidRange,
    InvalidSite,
    MomentumOutOfBand,
    PoleAtK,
    SingularDelta,
    SingularMatrix,
    SingularSystem,
)
from .model import LeadAttachment, _center_matrix

SIN_K_MIN = 1e-8
ETA_MIN = 1e-12

__all__ = [
    "SIN_K_MIN",
    "ETA_MIN",
    "AbcCoefficients",
    "ScatteringSolution",
    "SpectrumPoint",
    "SpectrumResult",
    "dispersion",
    "coefficients_abc",
    "solve_rt_formula",
    "solve_rt_direct",
    "reconstruct_wavefunction",
    "spectrum",
]


def dispersion(k: float, kappa: float) -> float:
    """Band energy -2 kappa cos k; k must be a propagating in-band momentum."""
    k = float(k)
    if not (0.0 < k < math.pi) or math.sin(k) <= SIN_K_MIN:
        raise MomentumOutOfBand(f"momentum {k} is not inside the open band (0, pi)")
    return -2.0 * float(kappa) * math.cos(k)


@dataclass(frozen=True)
class AbcCoefficients:
    """Joint-site inverse elements scaled by the couplings, plus eta."""

    a: complex
    b: complex
    b_tilde: complex
    c: complex
    eta: complex


@dataclass(frozen=True, eq=False)
class ScatteringSolution:
    """One solved momentum: coefficients, interior amplitudes, deficit."""

    k: float
    energy: float
    r: complex
    t: complex
    alpha: np.ndarray
    beta: np.ndarray

    @property
    def deficit(self) -> float:
        """1 - |r|^2 - |t|^2; zero (to 1e-10) for every valid center."""
        return 1.0 - abs(self.r) ** 2 - abs(self.t) ** 2


@dataclass(frozen=True)
class SpectrumPoint:
    k: float
    transmission: float
    reflection: float
    deficit: float
    status: str  # ok | pole | singular


@dataclass(frozen=True)
class SpectrumResult:
    entries: list[SpectrumPoint]


def _delta_lu(center, lead: LeadAttachment, k: float):
    hc, n_joint = _center_matrix(center)
    lead.check_joints(n_joint)
    energy = dispersion(k, lead.kappa)
    delta = hc - energy * np.eye(hc.shape[0])
    try:
        lu, perm, _ = linalg.lu_factor(delta)
    except SingularMatrix as exc:
        raise SingularDelta(f"center matrix is singular at k={k}: {exc}") from exc
    return lu, perm, n_joint, energy


def _joint_abc(lu, perm, lead: LeadAttachment, k: float) -> AbcCoefficients:
    """Solve for the two joint columns of inv(D) on an existing factorization."""
    jl = lead.joint_left - 1
    jr = lead.joint_right - 1
    rhs = np.zeros((lu.shape[0], 2), dtype=np.complex128)
    rhs[jl, 0] = 1.0
    rhs[jr, 1] = 1.0
    cols = linalg.lu_solve_factored(lu, perm, rhs)
    kappa = lead.kappa
    g_l, g_r = lead.g_left, lead.g_right
    a = cols[jl, 0] * abs(g_l) ** 2 / kappa
    c = cols[jr, 1] * abs(g_r) ** 2 / kappa
    b = cols[jl, 1] * g_l.conjugate() * g_r / kappa
    b_tilde = cols[jr, 0] * g_l * g_r.conjugate() / kappa
    eik = cmath.exp(1j * k)
    eta = (b * b_tilde - a * c) * eik * eik + (a + c) * eik - 1.0
    return AbcCoefficients(a=a, b=b, b_tilde=b_tilde, c=c, eta=eta)


def coefficients_abc(center, lead: LeadAttachment, k: float) -> AbcCoefficients:
    """The scaled inverse elements at the joints and the denominator eta."""
    lu, perm, _, _ = _delta_lu(center, lead, k)
    return _joint_abc(lu, perm, lead, k)


def solve_rt_formula(center, lead: LeadAttachment, k: float) -> ScatteringSolution:
    """Closed-form r, t through the inverse-element coefficients.

    Interior amplitudes are then recovered by solving the center rows with the
    known r, t on the source side. Raises PoleAtK when |eta| <= ETA_MIN and
    SingularDelta when the shifted center matrix cannot be factorized.
    """
    lu, perm, n_joint, energy = _delta_lu(center, lead, k)
    n = lu.shape[0]
    abc = _joint_abc(lu, perm, lead, k)
    if abs(abc.eta) <= ETA_MIN:
        raise PoleAtK(f"|eta| = {abs(abc.eta):.3e} at k={k}")
    eik = cmath.exp(1j * k)
    emik = cmath.exp(-1j * k)
    a, b, bt, c = abc.a, abc.b, abc.b_tilde, abc.c
    r = (-b * bt + a * c - a * emik - c * eik + 1.0) / abc.eta
    t = 2j * bt * math.sin(k) / abc.eta
    source = np.zeros(n, dtype=np.complex128)
    source[lead.joint_left - 1] += lead.g_left * (emik + r * eik)
    source[lead.joint_right - 1] += lead.g_right * (t * eik)
    x = linalg.lu_solve_factored(lu, perm, source)
    return ScatteringSolution(
        k=float(k),
        energy=energy,
        r=complex(r),
        t=complex(t),
        alpha=x[:n_joint],
        beta=x[n_joint:],
    )


def solve_rt_direct(center, lead: LeadAttachment, k: float) -> ScatteringSolution:
    """Solve the augmented system for (alpha, beta, r, t) simultaneously.

    Unknown order: the interior amplitudes, then r, then t. The two lead rows
    are written with f_{-2}, f_{+2} expanded in r and t; no inverse of the
    shifted center matrix is ever formed.
    """
    hc, n_joint = _center_matrix(center)
    lead.check_joints(n_joint)
    energy = dispersion(k, lead.kappa)
    n = hc.shape[0]
    jl = lead.joint_left - 1
    jr = lead.joint_right - 1
    eik = cmath.exp(1j * k)
    emik = cmath.exp(-1j * k)
    kappa = lead.kappa

    m = np.zeros((n + 2, n + 2), dtype=np.complex128)
    rhs = np.zeros(n + 2, dtype=np.complex128)
    m[:n, :n] = hc - energy * np.eye(n)
    # Center rows: D x = g_L (e^{-ik} + r e^{ik}) e_L + g_R (t e^{ik}) e_R.
    m[jl, n] -= lead.g_left * eik
    m[jr, n + 1] -= lead.g_right * eik
    rhs[jl] += lead.g_left * emik
    # Lead rows at j = -1 and j = +1 with f_{+-2} expanded.
    lead_coeff = -(kappa * eik * eik + energy * eik)
    m[n, jl] = -lead.g_left.conjugate()
    m[n, n] = lead_coeff
    rhs[n] = energy * emik + kappa * emik * emik
    m[n + 1, jr] = -lead.g_right.conjugate()
    m[n + 1, n + 1] = lead_coeff
    try:
        x = linalg.lu_solve(m, rhs)
    except SingularMatrix as exc:
        raise SingularSystem(f"augmented system singular at k={k}: {exc}") from exc
    return ScatteringSolution(
        k=float(k),
        energy=energy,
        r=complex(x[n]),
        t=complex(x[n + 1]),
        alpha=x[:n_joint],
        beta=x[n_joint:n],
    )


def reconstruct_wavefunction(solution: ScatteringSolution, site: int) -> complex:
    """Lead wavefunction f_j; j <= -1 is the left lead, j >= +1 the right."""
    j = int(site)
    if j == 0:
        raise InvalidSite("lead sites are j <= -1 and j >= +1")
    k = solution.k
    if j <= -1:
        return cmath.exp(1j * k * j) + solution.r * cmath.exp(-1j * k * j)
    return solution.t * cmath.exp(1j * k * j)


def schrodinger_residual(center, lead: LeadAttachment, solution: ScatteringSolution) -> float:
    """Substitute a solution back into all defining rows.

    Returns the largest residual of the center rows and the two lead-site
    rows, normalized by the natural scale of the system (matrix norm times
    amplitude scale, floored at 1).
    """
    hc, n_joint = _center_matrix(center)
    lead.check_joints(n_joint)
    n = hc.shape[0]
    energy = solution.energy
    delta = hc - energy * np.eye(n)
    x = np.concatenate([solution.alpha, solution.beta])
    if x.shape != (n,):
        raise SingularSystem(f"solution has {x.shape[0]} amplitudes, center has {n}")
    f_m1 = reconstruct_wavefunction(solution, -1)
    f_m2 = reconstruct_wavefunction(solution, -2)
    f_p1 = reconstruct_wavefunction(solution, 1)
    f_p2 = reconstruct_wavefunction(solution, 2)
    source = np.zeros(n, dtype=np.complex128)
    source[lead.joint_left - 1] += lead.g_left * f_m1
    source[lead.joint_right - 1] += lead.g_right * f_p1
    res = float(np.abs(delta @ x - source).max())
    kappa = lead.kappa
    res_left = abs(-kappa * f_m2 - lead.g_left.conjugate() * x[lead.joint_left - 1] - energy * f_m1)
    res_right = abs(-kappa * f_p2 - lead.g_right.conjugate() * x[lead.joint_right - 1] - energy * f_p1)
    scale = max(1.0, linalg.norm_inf(delta) * float(np.abs(x).max(initial=0.0)))
    return max(res, res_left, res_right) / scale


def spectrum(center, lead: LeadAttachment, k_min: float, k_max: float, steps: int) -> SpectrumResult:
    """Uniform momentum sweep.

    Values come from ``solve_rt_direct``. Status marks points where the
    two-path cross-check is unavailable: 'singular' when the augmented system
    is singular (values NaN), 'pole' when the direct solve succeeded but the
    formula path has no answer there (eta below threshold or singular shifted
    matrix), 'ok' otherwise. No point is ever dropped.
    """
    k_min = float(k_min)
    k_max = float(k_max)
    steps = int(steps)
    if not (0.0 < k_min < k_max < math.pi) or steps < 2:
        raise InvalidRange(
            f"need 0 < k_min < k_max < pi and steps >= 2, got ({k_min}, {k_max}, {steps})"
        )
    entries = []
    for k in np.linspace(k_min, k_max, steps):
        k = float(k)
        try:
            sol = solve_rt_direct(center, lead, k)
        except SingularSystem:
            entries.append(
                SpectrumPoint(k=k, transmission=math.nan, reflection=math.nan,
                              deficit=math.nan, status="singular")
            )
            continue
        status = "ok"
        try:
            abc = coefficients_abc(center, lead, k)
            if abs(abc.eta) <= ETA_MIN:
                status = "pole"
        except SingularDelta:
            status = "pole"
        entries.append(
            SpectrumPoint(
                k=k,
                transmission=abs(sol.t) ** 2,
                reflection=abs(sol.r) ** 2,
                deficit=sol.deficit,
                status=status,
            )
        )
    return SpectrumResult(entries=entries)
