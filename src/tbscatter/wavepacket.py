"""Wavepacket oracle: finite-chain time evolution as an independent check.

A Gaussian packet launched on a long but finite lead scatters off the
embedded center; the asymptotic left/right probability masses must reproduce
|r(k0)|^2 and |t(k0)|^2 from the plane-wave solvers up to the packet's
momentum spread (width ~ 1/(2 sigma)). ``tests/test_acceptance.py`` and
``perfbench/checks.py`` allow 2e-2 for that spread; no ``verify`` suite runs
a wavepacket.

Geometry of the finite system, dimension 2 n + n_center:

    index 0 .. n-1            left lead, lattice coordinates -n .. -1
    index n .. n+n_center-1   center sites (cluster A then B)
    index n+n_center ..       right lead, lattice coordinates +1 .. +n

Lead bonds are -kappa; the joints couple with -g_L, -g_R exactly as in the
infinite model. H is kept by that structure (``FiniteSystem``): the lead
bonds plus one dense block over the center and the two lead ends. Because H
does not depend on time, i dpsi/dt = H psi is solved exactly by
psi(t) = exp(-i t H) psi(0). Each output interval applies that exponential
with a truncated Taylor series and scaling (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33, 488 (2011), Algorithm 3.2): substeps short enough that
tau ||H||_1 <= 9.9, each summed to degree 55 at most, for a backward error
of 2^-53 in exact arithmetic. The series needs only products with H and its
1-norm, so it serves non-Hermitian centers as well. Each product is written
into one of two reused buffers, and the series' stopping test is evaluated
exactly only when a cheap bound cannot rule it out. The state (bit for bit)
and the number of products are those of the plain loop, which allocates
every term and evaluates the test at every term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidConfig, NonFiniteState
from .model import LeadAttachment, _center_matrix, _integer

# run_experiment probes the packet at t_final / _PROBE_INTERVALS spacing.
_PROBE_INTERVALS = 200
# Target backward error of each Taylor evaluation: the unit roundoff.
_TAYLOR_TOL = 2.0**-53
# The degree-55 Taylor polynomial of exp(X) meets _TAYLOR_TOL whenever
# ||X||_1 <= 9.9 (Al-Mohy & Higham 2011, Table 3.1).
_TAYLOR_DEGREE = 55
_THETA = 9.9
# A run takes at least t_final ||H||_1 / _THETA substeps of up to 55 products
# with H; criterion 7 and the benchmark's units take about 200. Past 10^5 (tens
# of seconds even on criterion 7's 1,204 sites) a center entry is orders of
# magnitude off, as in a mistyped spec, so evolve refuses the run up front.
_MAX_SUBSTEPS = 100_000
# Each state array holds 2 n + n_c complex values, 32 MB at n = 10^6 sites per
# lead. With the default x0 = -n/2 the packet crosses n/2 sites at speed at
# most 2 kappa while ||H||_1 >= 2 kappa, so such a run takes at least
# n / 19.8 = 5 * 10^4 substeps of up to 55 products over 2 * 10^6 sites: hours
# of work. A longer chain is a mistyped length, so WavepacketConfig refuses it
# before anything is allocated.
_MAX_CHAIN_HALF_LENGTH = 1_000_000

__all__ = [
    "WavepacketConfig",
    "FiniteSystem",
    "build_finite_system",
    "gaussian_packet",
    "evolve",
    "measure_partition",
    "run_experiment",
]


def _check_packet_geometry(n: int, x0: float, sigma: float) -> None:
    """A packet needs sigma >= 5 sites and 4 sigma to the wall and the center.

    Each test is written so that a NaN fails it.
    """
    if not sigma >= 5.0:
        raise InvalidConfig("sigma must be at least 5 sites")
    if not abs(x0) + 4.0 * sigma < n:
        raise InvalidConfig("packet must start at least 4 sigma from the wall")
    if not abs(x0) >= 4.0 * sigma:
        raise InvalidConfig("packet must start at least 4 sigma from the center")


@dataclass(frozen=True)
class WavepacketConfig:
    """Validated packet geometry and duration; t_final None takes run_experiment's default."""

    chain_half_length: int
    x0: float
    sigma: float
    k0: float
    t_final: float | None = None

    def __post_init__(self):
        n = _integer(self.chain_half_length, "chain_half_length", InvalidConfig)
        x0 = float(self.x0)
        sigma = float(self.sigma)
        k0 = float(self.k0)
        t_final = None if self.t_final is None else float(self.t_final)
        if n < 200:
            raise InvalidConfig("chain_half_length must be at least 200")
        if n > _MAX_CHAIN_HALF_LENGTH:
            raise InvalidConfig(f"chain_half_length must be at most {_MAX_CHAIN_HALF_LENGTH}, "
                                f"got {n}")
        for name, value in (("x0", x0), ("sigma", sigma), ("t_final", t_final)):
            if value is not None and not math.isfinite(value):
                raise InvalidConfig(f"{name} must be finite, got {value!r}")
        _check_packet_geometry(n, x0, sigma)
        if not (0.0 < k0 < math.pi):
            raise InvalidConfig("carrier momentum must lie in (0, pi)")
        if t_final is not None and t_final <= 0.0:
            raise InvalidConfig("t_final must be positive")
        object.__setattr__(self, "chain_half_length", n)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "t_final", t_final)


class FiniteSystem:
    """The finite system's H, kept by its structure.

    ``bonds[i]`` is the hopping between sites i and i + 1: -kappa along
    each lead, zero from the left lead's end to the right lead's start.
    ``block`` is H over the n_c + 2 sites from ``start``: the left lead's
    end, the center and the right lead's start, so H_C and the four joint
    couplings.
    """

    def __init__(self, bonds: np.ndarray, block: np.ndarray, start: int):
        self.bonds = bonds
        self.block = block
        self._window = slice(start, start + block.shape[0])
        self.shape = (bonds.shape[0] + 1,) * 2
        self._bond_term = np.empty_like(bonds)

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        y = np.empty_like(x)
        self._product(x, y)
        return y

    def _product(self, x: np.ndarray, out: np.ndarray) -> None:
        """out = H x for complex x, with the second bond product in this
        system's work array; out must not overlap x."""
        np.multiply(self.bonds, x[1:], out=out[:-1])
        out[-1] = 0.0
        np.multiply(self.bonds, x[:-1], out=self._bond_term)
        out[1:] += self._bond_term
        out[self._window] += self.block @ x[self._window]

    def norm1(self) -> float:
        """Max absolute column sum of H."""
        return self._max_abs_sum(axis=0)

    def _max_abs_sum(self, axis: int) -> float:
        """Max absolute column (axis 0) or row (axis 1) sum of H."""
        sums = np.zeros(self.shape[0])
        bonds = np.abs(self.bonds)
        sums[1:] += bonds
        sums[:-1] += bonds
        sums[self._window] += np.abs(self.block).sum(axis=axis)
        return float(sums.max())

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The dense H."""
        m = np.zeros(self.shape, dtype=np.complex128)
        i = np.arange(self.bonds.shape[0])
        m[i, i + 1] = m[i + 1, i] = self.bonds
        m[self._window, self._window] = self.block
        return m if dtype is None else m.astype(dtype, copy=False)


def build_finite_system(center, lead: LeadAttachment, n: int) -> FiniteSystem:
    """H of two n-site leads around the embedded center."""
    hc, _ = _center_matrix(center, lead)
    nc = hc.shape[0]
    n = _integer(n, "n", DimensionMismatch)
    if n < 1:
        raise DimensionMismatch("each lead needs at least one site")
    bonds = np.full(2 * n + nc - 1, -lead.kappa, dtype=np.complex128)
    bonds[n - 1 : n + nc] = 0.0
    block = np.zeros((nc + 2, nc + 2), dtype=np.complex128)
    block[1:-1, 1:-1] = hc
    # Joint j (1-based in the center) is row j of the block.
    jl, jr = lead.joint_left, lead.joint_right
    block[jl, 0] = -lead.g_left
    block[0, jl] = -lead.g_left.conjugate()
    block[jr, -1] = -lead.g_right
    block[-1, jr] = -lead.g_right.conjugate()
    return FiniteSystem(bonds, block, n - 1)


def gaussian_packet(n: int, n_center: int, x0: float, sigma: float, k0: float) -> np.ndarray:
    """Normalized Gaussian carrier packet on one lead, zero on the center.

    ``n`` is the per-lead length, ``n_center`` the number of center slots;
    the packet sits on the left lead for x0 < 0, on the right for x0 > 0.
    """
    n = _integer(n, "n", InvalidConfig)
    n_center = _integer(n_center, "n_center", InvalidConfig)
    x0 = float(x0)
    sigma = float(sigma)
    k0 = float(k0)
    _check_packet_geometry(n, x0, sigma)
    if not math.isfinite(k0):
        raise InvalidConfig(f"k0 must be finite, got {k0!r}")
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


def _expm_multiply(product, psi, t: float, norm1: float, norm_inf: float) -> np.ndarray:
    """exp(-i t H) psi, where ``product(x, out)`` writes H x into ``out`` and
    norm1 and norm_inf are ||H||_1 and ||H||_inf (Al-Mohy & Higham 2011,
    Algorithm 3.2 without the shift): s = ceil(t norm1 / _THETA) substeps of
    the Taylor series, each cut off once two successive terms fall below
    _TAYLOR_TOL * ||F||_inf, or at degree _TAYLOR_DEGREE.

    Each term is formed in one of two reused buffers, and the cutoff test is
    evaluated exactly only when a cheap bound cannot rule it out. The state
    (bit for bit) and the number of products are those of the plain loop,
    which forms term_k = (H @ term_{k-1}) * (-1j * tau_k) and evaluates
    c_{k-1} + c_k <= _TAYLOR_TOL * max|F| with c_k = max|term_k| at every k.
    """
    f = psi.copy()
    s = math.ceil(t * norm1 / _THETA)
    buffers = (np.empty_like(f), np.empty_like(f))
    # Why a skipped test would have failed. The exact test is c_{k-1} + c_k
    # <= _TAYLOR_TOL * max|F| with c_k = max|term_k|; it is skipped only when
    # lo_prev + lo > _TAYLOR_TOL * f_hi, where
    #  - lo = max(|Re|, |Im|) of term_k at j, the index where |F| peaked at the
    #    substep start. It is exact, and numpy's |z| (libm hypot, or the SIMD
    #    form max * sqrt(1 + r^2)) is never below it, so lo <= c_k. lo_prev is
    #    the same bound on c_{k-1}, or c_{k-1} itself.
    #  - hi >= c_k, from |(H x)_i| <= ||H||_inf max|x| and the bound on c_{k-1},
    #    and f_hi >= max|F| after F += term_k, by the triangle inequality. Both
    #    restart from exact values. ``grow`` covers the rounding of the product
    #    (rows of at most n terms, about (3n + 14) u relative), of the scaling,
    #    the sum and |.|, and of the bounds' own arithmetic; 2^-1000 covers the
    #    absolute error of underflow.
    # Rounding is monotone, so fl(c_{k-1} + c_k) >= fl(lo_prev + lo) >
    # fl(_TAYLOR_TOL * f_hi) >= fl(_TAYLOR_TOL * max|F|): the exact test fails.
    # nan and inf take the exact path, because every comparison with nan is
    # false and so is x > inf. hi takes the factor norm_inf before tau, so an
    # overflow in H x, in the scaled term or in F overflows hi or f_hi as well
    # (they bound the overflowing value with room to spare). A nan in the
    # state comes from an earlier inf, or it was there at the substep start
    # and makes both bounds nan.
    grow = 1.0 + 1e-12 + f.size * 2.0**-51
    for _ in range(s):
        mag = np.abs(f)
        j = int(mag.argmax())
        c1 = lo_prev = hi = f_hi = float(mag[j])
        prev = f
        for k in range(1, _TAYLOR_DEGREE + 1):
            tau = t / (s * k)
            term = buffers[k & 1]
            product(prev, term)
            term *= -1j * tau
            f += term
            z = term.item(j)
            lo = max(abs(z.real), abs(z.imag))
            hi = hi * norm_inf * grow * tau
            f_hi = (f_hi + hi) * grow + 2.0**-1000
            if lo_prev + lo > _TAYLOR_TOL * f_hi:
                c1 = None
            else:
                if c1 is None:
                    c1 = float(np.abs(prev).max())
                c2 = float(np.abs(term).max())
                f_max = float(np.abs(f).max())
                if c1 + c2 <= _TAYLOR_TOL * f_max:
                    break
                c1 = lo = hi = c2
                f_hi = f_max
            lo_prev = lo
            prev = term
    return f


def evolve(h, psi0, t_final: float, dt: float, probe=None) -> np.ndarray:
    """psi(t_final) = exp(-i t_final H) psi0, the solution of i dpsi/dt = H psi.

    ``h`` is a ``FiniteSystem``; a square array h is
    ``FiniteSystem(np.zeros(n - 1, complex), h, 0)``. ``dt`` is the output
    interval, not an integrator step: each interval is one truncated-Taylor
    evaluation of exp(-i dt H) psi on products with H, accurate to a backward
    error of 2^-53 (the unit roundoff) in exact arithmetic, whatever
    dt * norm(H). ``probe(t, psi)``, when given, is called at t=0, after
    every dt, and at t_final; when t_final is not a multiple of dt, the last
    interval is shorter. Raises ``InvalidConfig`` up front when t_final *
    ||H||_1 is not finite or needs more than _MAX_SUBSTEPS substeps, and
    ``NonFiniteState`` at the end of the first interval whose state has a
    norm that is not finite (a growing mode has overflowed), before probing it.
    """
    if not isinstance(h, FiniteSystem):
        raise TypeError(f"evolve takes a FiniteSystem, got {type(h).__name__}")
    norm1, norm_inf = h.norm1(), h._max_abs_sum(axis=1)
    psi = np.asarray(psi0, dtype=np.complex128).copy()
    if psi.shape != (h.shape[0],):
        raise DimensionMismatch(f"state length {psi.shape} does not match {h.shape}")
    t_final = float(t_final)
    dt = float(dt)
    if not (t_final >= 0 and dt > 0):
        raise ValueError("t_final must be >= 0 and dt > 0")
    if not t_final * norm1 <= _THETA * _MAX_SUBSTEPS:  # also when inf or nan
        raise InvalidConfig(f"t_final * ||H||_1 = {t_final * norm1:.3g} needs more than "
                            f"{_MAX_SUBSTEPS} Taylor substeps")
    # A remainder below 1e-9 dt is rounding in t_final / dt, not an interval
    # of its own: it joins the last interval.
    intervals = max(1, math.ceil(t_final / dt - 1e-9)) if t_final > 0 else 0
    t = 0.0
    if probe is not None:
        probe(t, psi)
    for i in range(1, intervals + 1):
        t_next = t_final if i == intervals else i * dt
        # An overflow inside the series is caught below, by the norm it leaves.
        with np.errstate(over="ignore", invalid="ignore"):
            psi = _expm_multiply(h._product, psi, t_next - t, norm1, norm_inf)
        t = t_next
        if not math.isfinite(np.vdot(psi, psi).real):
            raise NonFiniteState(f"the state's norm is not finite at t = {t!r}; a growing "
                                 "mode of the system has overflowed")
        if probe is not None:
            probe(t, psi)
    return psi


def measure_partition(psi, boundaries: tuple[int, int]) -> tuple[float, float, float]:
    """Squared-norm mass in (left lead, center, right lead)."""
    psi = np.asarray(psi)
    i0 = _integer(boundaries[0], "boundaries[0]", DimensionMismatch)
    i1 = _integer(boundaries[1], "boundaries[1]", DimensionMismatch)
    if not (0 <= i0 <= i1 <= psi.shape[0]):
        raise DimensionMismatch(f"boundaries {boundaries} outside state of length {psi.shape[0]}")
    left, center, right = (float(np.vdot(x, x).real) for x in (psi[:i0], psi[i0:i1], psi[i1:]))
    return left, center, right


def run_experiment(center, lead: LeadAttachment, config: WavepacketConfig, probe=None) -> dict:
    """Build, launch, evolve, and measure one scattering experiment.

    The packet moves at v = 2 kappa sin k0, so it reaches the center only
    when kappa > 0 and it starts on the left lead (x0 < 0). When
    ``config.t_final`` is None the run stops with the packet center 4.5 sigma
    past the joint, at (|x0| + 4.5 sigma) / v: later, growing eigenmodes of
    the finite non-Hermitian system contaminate the masses. ``evolve``
    applies exp(-i t H) of the finite system H, to a backward error of 2^-53
    per interval, over dt = t_final / 200 output intervals. Returns final
    left/center/right masses, the total norm, the system boundaries, dt and
    t_final. ``probe(t, p_left, p_center, p_right, norm)`` is called at t = 0
    and after every interval when given.
    """
    if lead.kappa <= 0.0:
        raise InvalidConfig(f"the packet needs kappa > 0 to reach the center, got {lead.kappa!r}")
    if config.x0 >= 0.0:
        raise InvalidConfig(f"the packet must start on the left lead (x0 < 0), got x0={config.x0!r}")
    v = 2.0 * lead.kappa * math.sin(config.k0)
    t_final = config.t_final
    if t_final is None:
        t_final = (abs(config.x0) + 4.5 * config.sigma) / v
    x_final = config.x0 + v * t_final
    if not (4.0 * config.sigma <= x_final <= config.chain_half_length - 4.0 * config.sigma):
        raise InvalidConfig(f"final packet position {x_final:.1f} not clear of center and wall")
    h = build_finite_system(center, lead, config.chain_half_length)
    dt = t_final / _PROBE_INTERVALS
    nc = h.shape[0] - 2 * config.chain_half_length
    psi0 = gaussian_packet(config.chain_half_length, nc, config.x0, config.sigma, config.k0)
    boundaries = (config.chain_half_length, config.chain_half_length + nc)

    callback = None
    if probe is not None:
        def callback(t, psi):
            p_l, p_c, p_r = measure_partition(psi, boundaries)
            probe(t, p_l, p_c, p_r, p_l + p_c + p_r)

    psi = evolve(h, psi0, t_final, dt, probe=callback)
    p_left, p_center, p_right = measure_partition(psi, boundaries)
    return {
        "p_left": p_left,
        "p_center": p_center,
        "p_right": p_right,
        "norm": p_left + p_center + p_right,
        "boundaries": boundaries,
        "dt": dt,
        "t_final": t_final,
    }
