"""Wavepacket oracle: finite-chain time evolution as an independent check.

A Gaussian packet launched on a long but finite lead scatters off the
embedded center; the asymptotic left/right probability masses must reproduce
|r(k0)|^2 and |t(k0)|^2 from the plane-wave solvers up to the packet's
momentum spread (width ~ 1/(2 sigma), hence the 2e-2 tolerances used by the
verification suites).

Geometry of the finite system, dimension 2 n + n_center:

    index 0 .. n-1            left lead, lattice coordinates -n .. -1
    index n .. n+n_center-1   center sites (cluster A then B)
    index n+n_center ..       right lead, lattice coordinates +1 .. +n

Lead bonds are -kappa; the joints couple with -g_L, -g_R exactly as in the
infinite model. Integration is classical fixed-step RK4 on i dpsi/dt = H psi.
Because H does not depend on time, one RK4 step of size s is exactly
psi <- R(-i s H) psi with the method's stability polynomial
R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, so that polynomial is built once as a
sparse propagator and each step is one sparse matvec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import linalg
from .errors import DimensionMismatch, InvalidConfig, StepTooLarge
from .model import LeadAttachment, _center_matrix

# Stability/accuracy bound for the RK4 step relative to the matrix scale.
DT_MAX_FACTOR = 0.05

__all__ = [
    "DT_MAX_FACTOR",
    "WavepacketConfig",
    "build_finite_system",
    "gaussian_packet",
    "evolve",
    "measure_partition",
    "run_experiment",
]


@dataclass(frozen=True)
class WavepacketConfig:
    """Validated geometry and integration parameters for one experiment."""

    chain_half_length: int
    x0: float
    sigma: float
    k0: float
    t_final: float
    dt: float

    def __post_init__(self):
        n = int(self.chain_half_length)
        x0 = float(self.x0)
        sigma = float(self.sigma)
        k0 = float(self.k0)
        t_final = float(self.t_final)
        dt = float(self.dt)
        if n < 200:
            raise InvalidConfig("chain_half_length must be at least 200")
        if sigma < 5.0:
            raise InvalidConfig("sigma must be at least 5 sites")
        if abs(x0) + 4.0 * sigma >= n:
            raise InvalidConfig("packet must start at least 4 sigma from the wall")
        if abs(x0) < 4.0 * sigma:
            raise InvalidConfig("packet must start at least 4 sigma from the center")
        if not (0.0 < k0 < math.pi):
            raise InvalidConfig("carrier momentum must lie in (0, pi)")
        if t_final <= 0.0 or dt <= 0.0:
            raise InvalidConfig("t_final and dt must be positive")
        # After t_final the packet must have cleared the center without
        # touching the far wall (velocity 2 kappa sin k0, kappa = 1 scale).
        x_final = x0 + 2.0 * math.sin(k0) * t_final
        if not (4.0 * sigma <= x_final <= n - 4.0 * sigma):
            raise InvalidConfig(
                f"final packet position {x_final:.1f} not clear of center and wall"
            )
        object.__setattr__(self, "chain_half_length", n)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "t_final", t_final)
        object.__setattr__(self, "dt", dt)


def build_finite_system(center, lead: LeadAttachment, n: int) -> np.ndarray:
    """Dense matrix of two n-site leads around the embedded center."""
    hc, n_joint = _center_matrix(center)
    nc = hc.shape[0]
    lead.check_joints(n_joint)
    n = int(n)
    if n < 1:
        raise DimensionMismatch("each lead needs at least one site")
    dim = 2 * n + nc
    m = np.zeros((dim, dim), dtype=np.complex128)
    kappa = lead.kappa
    for i in range(n - 1):
        m[i, i + 1] = -kappa
        m[i + 1, i] = -kappa
    m[n : n + nc, n : n + nc] = hc
    right0 = n + nc
    for i in range(right0, dim - 1):
        m[i, i + 1] = -kappa
        m[i + 1, i] = -kappa
    jl = n + lead.joint_left - 1
    jr = n + lead.joint_right - 1
    m[jl, n - 1] = -lead.g_left
    m[n - 1, jl] = -lead.g_left.conjugate()
    m[jr, right0] = -lead.g_right
    m[right0, jr] = -lead.g_right.conjugate()
    return m


def gaussian_packet(n: int, n_center: int, x0: float, sigma: float, k0: float) -> np.ndarray:
    """Normalized Gaussian carrier packet on one lead, zero on the center.

    ``n`` is the per-lead length, ``n_center`` the number of center slots;
    the packet sits on the left lead for x0 < 0, on the right for x0 > 0.
    """
    n = int(n)
    n_center = int(n_center)
    x0 = float(x0)
    sigma = float(sigma)
    if sigma < 5.0:
        raise InvalidConfig("sigma must be at least 5 sites")
    if x0 == 0.0:
        raise InvalidConfig("x0 must lie on a lead (nonzero)")
    if abs(x0) + 4.0 * sigma >= n:
        raise InvalidConfig("packet must start at least 4 sigma from the wall")
    if abs(x0) < 4.0 * sigma:
        raise InvalidConfig("packet must start at least 4 sigma from the center")
    psi = np.zeros(2 * n + n_center, dtype=np.complex128)
    if x0 < 0:
        coords = np.arange(-n, 0, dtype=np.float64)
        sl = slice(0, n)
    else:
        coords = np.arange(1, n + 1, dtype=np.float64)
        sl = slice(n + n_center, 2 * n + n_center)
    envelope = np.exp(-((coords - x0) ** 2) / (4.0 * sigma * sigma))
    psi[sl] = envelope * np.exp(1j * k0 * coords)
    psi /= np.linalg.norm(psi)
    return psi


def _rk4_propagator(a, step: float):
    """R(step * a) in Horner form, as a sparse matrix: one classical RK4
    step of dpsi/dt = a psi."""
    b = a * step
    eye = sparse.identity(a.shape[0], dtype=np.complex128, format="csr")
    p = eye + b / 4.0
    for divisor in (3.0, 2.0, 1.0):
        p = eye + (b @ p) / divisor
    return p


def evolve(h, psi0, t_final: float, dt: float, probe=None) -> np.ndarray:
    """Fixed-step RK4 integration of i dpsi/dt = H psi.

    Each step applies the RK4 stability polynomial of -i step H, precomputed
    as a sparse propagator: one for dt and, when t_final is not a multiple
    of dt, one for the trailing partial step. ``probe(t, psi)``, when given,
    is called at t=0, after every step, and at t_final. Raises StepTooLarge
    when dt exceeds DT_MAX_FACTOR / norm_inf(H).
    """
    h = linalg.as_square_matrix(h)
    psi = np.asarray(psi0, dtype=np.complex128).copy()
    if psi.shape != (h.shape[0],):
        raise DimensionMismatch(f"state length {psi.shape} does not match {h.shape}")
    t_final = float(t_final)
    dt = float(dt)
    if t_final < 0 or dt <= 0:
        raise ValueError("t_final must be >= 0 and dt > 0")
    scale = linalg.norm_inf(h)
    if scale > 0 and dt > DT_MAX_FACTOR / scale:
        raise StepTooLarge(f"dt={dt} exceeds {DT_MAX_FACTOR / scale:.3e} for this matrix")
    a = sparse.csr_matrix(h) * -1j
    full_step = _rk4_propagator(a, dt)
    t = 0.0
    if probe is not None:
        probe(t, psi)
    remaining = t_final
    while remaining > 1e-15:
        step = min(dt, remaining)
        # Only the last step can be shorter than dt, so its propagator is
        # built at most once.
        psi = (full_step if step == dt else _rk4_propagator(a, step)) @ psi
        remaining -= step
        t = t_final - remaining
        if probe is not None:
            probe(t, psi)
    return psi


def measure_partition(psi, boundaries: tuple[int, int]) -> tuple[float, float, float]:
    """Squared-norm mass in (left lead, center, right lead)."""
    psi = np.asarray(psi)
    i0, i1 = int(boundaries[0]), int(boundaries[1])
    if not (0 <= i0 <= i1 <= psi.shape[0]):
        raise DimensionMismatch(f"boundaries {boundaries} outside state of length {psi.shape[0]}")
    left, center, right = (float(np.vdot(x, x).real) for x in (psi[:i0], psi[i0:i1], psi[i1:]))
    return left, center, right


def run_experiment(center, lead: LeadAttachment, config: WavepacketConfig, probe=None) -> dict:
    """Build, launch, evolve, and measure one scattering experiment.

    Returns final left/center/right masses, the total norm, and the system
    boundaries. ``probe(t, p_left, p_center, p_right, norm)`` is called per
    step when given.
    """
    h = build_finite_system(center, lead, config.chain_half_length)
    nc = h.shape[0] - 2 * config.chain_half_length
    psi0 = gaussian_packet(config.chain_half_length, nc, config.x0, config.sigma, config.k0)
    boundaries = (config.chain_half_length, config.chain_half_length + nc)

    callback = None
    if probe is not None:
        def callback(t, psi):
            p_l, p_c, p_r = measure_partition(psi, boundaries)
            probe(t, p_l, p_c, p_r, p_l + p_c + p_r)

    psi = evolve(h, psi0, config.t_final, config.dt, probe=callback)
    p_left, p_center, p_right = measure_partition(psi, boundaries)
    return {
        "p_left": p_left,
        "p_center": p_center,
        "p_right": p_right,
        "norm": p_left + p_center + p_right,
        "boundaries": boundaries,
    }
