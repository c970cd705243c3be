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
from .model import LeadAttachment, _center_matrix, _integer, _shifted_center

SIN_K_MIN = 1e-8
ETA_MIN = 1e-12

# Momenta the sweep kernel eliminates together: each column is one Python
# step for the whole batch, and its two buffers take about 1 MB each at 256
# sites whatever the number of steps.
_BATCH = 64
# A kernel point whose smallest pivot ratio lies below _HANDOFF * PIVOT_RTOL,
# or whose |eta| below _HANDOFF * ETA_MIN, is recomputed by the reference
# routes, which decide its status.
_HANDOFF = 1e4
# A sweep point takes about 0.86 ms on a 256-site center and an 80-byte CSV
# row, so 10^6 points are some 15 minutes and an 80 MB file. A larger count is
# a mistyped one, and spectrum refuses it before anything is allocated.
_MAX_SPECTRUM_STEPS = 1_000_000

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
    """The sweep's points and how close its kernel came to each threshold:
    the smallest pivot ratio, the smallest |eta|, and the number of points
    recomputed by the reference routes."""

    entries: list[SpectrumPoint]
    min_pivot_ratio: float
    min_abs_eta: float
    reference_points: int


def _delta_lu(center, lead: LeadAttachment, k: float):
    energy = dispersion(k, lead.kappa)
    delta, n_joint = _shifted_center(center, energy, lead)
    try:
        lu, perm, _ = linalg.lu_factor(delta)
    except SingularMatrix as exc:
        raise SingularDelta(f"center matrix is singular at k={k}: {exc}") from exc
    return lu, perm, n_joint, energy


def _abc_from_joint_block(g_ll, g_lr, g_rl, g_rr, lead: LeadAttachment, eik) -> AbcCoefficients:
    """a, b, b~, c and eta from the joint block of inv(D), g_xy = inv(D)_xy,
    at e^{ik} = ``eik``; scalars, or arrays over momenta."""
    kappa = lead.kappa
    g_l, g_r = lead.g_left, lead.g_right
    a = g_ll * abs(g_l) ** 2 / kappa
    c = g_rr * abs(g_r) ** 2 / kappa
    b = g_lr * g_l.conjugate() * g_r / kappa
    b_tilde = g_rl * g_l * g_r.conjugate() / kappa
    eta = (b * b_tilde - a * c) * eik * eik + (a + c) * eik - 1.0
    return AbcCoefficients(a=a, b=b, b_tilde=b_tilde, c=c, eta=eta)


def _joint_abc(lu, perm, lead: LeadAttachment, k: float) -> tuple[AbcCoefficients, np.ndarray]:
    """Solve for the two joint columns of inv(D) on an existing factorization;
    returns the coefficients and the columns, shape (n, 2)."""
    jl = lead.joint_left - 1
    jr = lead.joint_right - 1
    rhs = np.zeros((lu.shape[0], 2), dtype=np.complex128)
    rhs[jl, 0] = 1.0
    rhs[jr, 1] = 1.0
    cols = linalg.lu_solve_factored(lu, perm, rhs)
    abc = _abc_from_joint_block(cols[jl, 0], cols[jl, 1], cols[jr, 0], cols[jr, 1],
                                lead, cmath.exp(1j * k))
    return abc, cols


def coefficients_abc(center, lead: LeadAttachment, k: float) -> AbcCoefficients:
    """The scaled inverse elements at the joints and the denominator eta."""
    lu, perm, _, _ = _delta_lu(center, lead, k)
    return _joint_abc(lu, perm, lead, k)[0]


def solve_rt_formula(center, lead: LeadAttachment, k: float) -> ScatteringSolution:
    """Closed-form r, t through the inverse-element coefficients.

    The center rows read D x = g_L (e^{-ik} + r e^{ik}) e_L + g_R t e^{ik} e_R,
    so the interior amplitudes x are the same two joint columns of inv(D)
    combined with the known r, t: one factorization and one two-column solve
    give everything. Raises PoleAtK when |eta| <= ETA_MIN and SingularDelta
    when the shifted center matrix cannot be factorized.
    """
    lu, perm, n_joint, energy = _delta_lu(center, lead, k)
    abc, cols = _joint_abc(lu, perm, lead, k)
    if abs(abc.eta) <= ETA_MIN:
        raise PoleAtK(f"|eta| = {abs(abc.eta):.3e} at k={k}")
    eik = cmath.exp(1j * k)
    emik = cmath.exp(-1j * k)
    a, b, bt, c = abc.a, abc.b, abc.b_tilde, abc.c
    r = (-b * bt + a * c - a * emik - c * eik + 1.0) / abc.eta
    t = 2j * bt * math.sin(k) / abc.eta
    x = cols @ np.array([lead.g_left * (emik + r * eik), lead.g_right * (t * eik)])
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
    energy = dispersion(k, lead.kappa)
    delta, n_joint = _shifted_center(center, energy, lead)
    n = delta.shape[0]
    jl = lead.joint_left - 1
    jr = lead.joint_right - 1
    eik = cmath.exp(1j * k)
    emik = cmath.exp(-1j * k)
    kappa = lead.kappa

    m = np.zeros((n + 2, n + 2), dtype=np.complex128)
    rhs = np.zeros(n + 2, dtype=np.complex128)
    m[:n, :n] = delta
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
    j = _integer(site, "site", InvalidSite)
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
    energy = solution.energy
    delta, _ = _shifted_center(center, energy, lead)
    n = delta.shape[0]
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


class _CenterKernel:
    """One center and lead, reduced once to Hessenberg form for many energies.

    H_C = Q H Q* (``linalg.hessenberg``), keeping only the joint rows q_L and
    q_R of Q. At each energy the direct route's augmented system becomes, in
    the basis Q* x,

        [[H - E, -g_L q_L*, -g_R q_R*], [-conj(g_L) q_L, c, 0],
         [-conj(g_R) q_R, 0, c]] (y, r', t') = (g_L q_L*, E + kappa e^{-ik}, 0)

    with c = -(kappa e^{ik} + E), y = e^{ik} Q* x and (r', t') = e^{2ik}
    (r, t): unit phases on the unknowns and the right-hand side keep H's
    rows free of k, and leave every pivot's magnitude as it is. The joint
    block of inv(D) is -1 times the Schur complement of H - E in
    [[H - E, [q_L*, q_R*]], [[q_L; q_R], 0]]. Each is one forward
    elimination of Hessenberg rows plus two border rows, O(n^2) per energy.
    """

    def __init__(self, center, lead: LeadAttachment):
        hc, _ = _center_matrix(center, lead)
        jl, jr = lead.joint_left - 1, lead.joint_right - 1
        h, q = linalg.hessenberg(hc, (jl, jr))
        n = h.shape[0]
        self.n = n
        self.lead = lead
        self.q = q
        qbar = q.conj().T
        self.diag = hc.diagonal().copy()
        self.offdiag = np.abs(hc).sum(axis=1) - np.abs(self.diag)
        # |entries| the lead columns add to the joint rows of the augmented system
        self.joint_coupling = np.zeros(n)
        self.joint_coupling[jl] = abs(lead.g_left)
        self.joint_coupling[jr] = abs(lead.g_right)
        self.values_rows = np.concatenate(
            [h, -lead.g_left * qbar[:, :1], -lead.g_right * qbar[:, 1:], lead.g_left * qbar[:, :1]],
            axis=1,
        )
        self.status_rows = np.concatenate([h, qbar], axis=1)

    def solve(self, ks: np.ndarray, energies: np.ndarray):
        """r, t, the smallest pivot ratio and |eta| at each momentum.

        A ratio is |pivot| over norm_inf of the original-basis matrix it
        belongs to, the augmented system or D; the smaller of the two is
        returned. Where the elimination broke down (a non-finite result) the
        ratio and |eta| read 0.
        """
        r, t = np.empty(len(ks), dtype=np.complex128), np.empty(len(ks), dtype=np.complex128)
        ratio, eta = np.empty(len(ks)), np.empty(len(ks))
        with np.errstate(all="ignore"):
            for lo in range(0, len(ks), _BATCH):
                sl = slice(lo, lo + _BATCH)
                r[sl], t[sl], ratio[sl], eta[sl] = self._batch(ks[sl], energies[sl])
        ratio[~np.isfinite(ratio)] = 0.0
        eta[~np.isfinite(eta)] = 0.0
        return r, t, ratio, eta

    def _batch(self, ks, energies):
        n, lead = self.n, self.lead
        kappa, g_l, g_r = lead.kappa, lead.g_left, lead.g_right
        eik = np.exp(1j * ks)
        shift = np.abs(self.diag - energies[:, None])
        norm_d = (self.offdiag + shift).max(axis=1)
        coeff = -(kappa * eik + energies)
        norm_m = np.maximum((self.offdiag + shift + self.joint_coupling).max(axis=1),
                            max(abs(g_l), abs(g_r)) + np.abs(coeff))

        lead_rows = np.zeros((n + 3, 2, len(ks)), dtype=np.complex128)
        lead_rows[:n, 0] = -g_l.conjugate() * self.q[0, :, None]
        lead_rows[:n, 1] = -g_r.conjugate() * self.q[1, :, None]
        lead_rows[n, 0] = coeff
        lead_rows[n + 1, 1] = coeff
        lead_rows[n + 2, 0] = energies + kappa / eik
        ((a0, a1), (b0, b1), (c0, c1)), piv = self._eliminate(
            self.values_rows, lead_rows, energies, 4)
        swap = np.abs(a1) > np.abs(a0)
        a0, a1 = np.where(swap, a1, a0), np.where(swap, a0, a1)
        b0, b1 = np.where(swap, b1, b0), np.where(swap, b0, b1)
        c0, c1 = np.where(swap, c1, c0), np.where(swap, c0, c1)
        m = a1 / a0
        p2 = b1 - m * b0
        t2 = (c1 - m * c0) / p2
        r2 = (c0 - b0 * t2) / a0
        piv = np.minimum(piv, np.minimum(np.abs(a0), np.abs(p2)))
        phase = eik * eik
        r, t = r2 / phase, t2 / phase
        ratio = piv / norm_m

        border_rows = np.zeros((n + 2, 2, len(ks)), dtype=np.complex128)
        border_rows[:n] = self.q.T[:, :, None]
        ((g_ll, g_rl), (g_lr, g_rr)), piv = self._eliminate(
            self.status_rows, border_rows, energies, 2)
        ratio = np.minimum(ratio, piv / norm_d)
        abc = _abc_from_joint_block(-g_ll, -g_lr, -g_rl, -g_rr, lead, eik)
        return r, t, ratio, np.abs(abc.eta)

    def _eliminate(self, rows, border, energies, pivot_slots):
        """Forward elimination of the rows of H - E (``rows`` with the energy
        subtracted on H's diagonal) together with the two ``border`` rows.

        The buffer is (column, row slot, energy), so the columns still live
        form one contiguous block. Four rows are live at each column: the two
        candidate Hessenberg rows and the two border rows. The pivot is the
        largest of the first ``pivot_slots`` (4: partial pivoting on the
        whole system; 2: on H - E alone, with the border rows eliminated
        alongside), and the next Hessenberg row takes the pivot's slot.
        The center has n >= 2 sites, since the lead's joints are distinct.
        Returns the two surviving rows' entries past column n, as
        (column, row, energy), and the smallest pivot magnitude per energy.
        """
        n = self.n
        width = rows.shape[1]
        b = len(energies)
        at = np.arange(b)
        buf = np.empty((width, 4, b), dtype=np.complex128)
        tmp = np.empty_like(buf)
        buf[:, 0] = rows[0, :, None]
        buf[0, 0] -= energies
        buf[:, 1] = rows[1, :, None]
        buf[1, 1] -= energies
        buf[:, 2:] = border
        smallest = np.full(b, np.inf)
        for j in range(n):
            col = buf[j]
            mag = np.abs(col[:pivot_slots])
            if j == n - 1:
                mag[dead, at] = -1.0
            p = mag.argmax(axis=0)
            np.minimum(smallest, mag[p, at], out=smallest)
            mult = col / col[p, at]
            mult[p, at] = 0.0
            live = tmp[j + 1:]
            np.multiply(buf[j + 1:, p, at][:, None, :], mult, out=live)
            buf[j + 1:] -= live
            if j + 2 < n:
                buf[j + 1:, p, at] = rows[j + 2, j + 1:, None]
                buf[j + 2, p, at] -= energies
            elif j + 2 == n:
                buf[:, p, at] = 0.0
                dead = p
        done = np.zeros((4, b), dtype=bool)
        done[dead, at] = True
        done[p, at] = True
        survivors = np.argsort(done, axis=0, kind="stable")[:2]
        return buf[n:, survivors, at], smallest


def _reference_point(center, lead: LeadAttachment, k: float) -> SpectrumPoint:
    """One sweep point by the two reference routes, each with its own LU."""
    try:
        sol = solve_rt_direct(center, lead, k)
    except SingularSystem:
        return SpectrumPoint(k=k, transmission=math.nan, reflection=math.nan,
                             deficit=math.nan, status="singular")
    status = "ok"
    try:
        abc = coefficients_abc(center, lead, k)
        if abs(abc.eta) <= ETA_MIN:
            status = "pole"
    except SingularDelta:
        status = "pole"
    return SpectrumPoint(k=k, transmission=abs(sol.t) ** 2, reflection=abs(sol.r) ** 2,
                         deficit=sol.deficit, status=status)


def spectrum(center, lead: LeadAttachment, k_min: float, k_max: float, steps: int) -> SpectrumResult:
    """Uniform momentum sweep.

    Status marks points where the two-path cross-check is unavailable:
    'singular' when the augmented system of ``solve_rt_direct`` is singular
    (values NaN), 'pole' when the direct solve succeeded but the formula path
    has no answer there (eta below threshold or singular shifted matrix),
    'ok' otherwise. No point is ever dropped.

    H_C is reduced once to Hessenberg form, and every momentum is then solved
    in O(n^2) by the direct route in that basis, with |eta| from the joint
    block of inv(D) (see ``_CenterKernel``). Every pivot is measured against
    norm_inf of its original-basis matrix. A point whose smallest pivot ratio
    is below _HANDOFF * PIVOT_RTOL or whose |eta| is below _HANDOFF * ETA_MIN,
    and the sweep's one point with the smallest of those two margins, are
    recomputed by ``solve_rt_direct`` and ``coefficients_abc``, which set
    their values and status exactly as a per-point loop would. So every
    flagged point comes from the reference routes.
    """
    k_min = float(k_min)
    k_max = float(k_max)
    steps = _integer(steps, "steps", InvalidRange)
    if not (0.0 < k_min < k_max < math.pi) or steps < 2:
        raise InvalidRange(
            f"need 0 < k_min < k_max < pi and steps >= 2, got ({k_min}, {k_max}, {steps})"
        )
    if steps > _MAX_SPECTRUM_STEPS:
        raise InvalidRange(f"steps must be at most {_MAX_SPECTRUM_STEPS}, got {steps}")
    ks = np.linspace(k_min, k_max, steps)
    energies = np.array([dispersion(k, lead.kappa) for k in ks])
    r, t, ratio, eta = _CenterKernel(center, lead).solve(ks, energies)
    margin = np.minimum(ratio / linalg.PIVOT_RTOL, eta / ETA_MIN)
    handed = margin < _HANDOFF
    handed[margin.argmin()] = True
    entries = []
    for i, k in enumerate(ks.tolist()):
        if handed[i]:
            entries.append(_reference_point(center, lead, k))
            continue
        ri, ti = complex(r[i]), complex(t[i])
        entries.append(SpectrumPoint(k=k, transmission=abs(ti) ** 2, reflection=abs(ri) ** 2,
                                     deficit=1.0 - abs(ri) ** 2 - abs(ti) ** 2, status="ok"))
    return SpectrumResult(entries=entries, min_pivot_ratio=float(ratio.min()),
                          min_abs_eta=float(eta.min()), reference_points=int(handed.sum()))
