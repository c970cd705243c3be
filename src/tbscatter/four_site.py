"""The exactly solvable 4-site ring with one gain and one loss site.

Sites 1..4 form a ring with hopping -kappa (kappa fixed to 1 here), an
imaginary potential +i gamma1 on site 2 and -i gamma2 on site 4; leads attach
at sites 1 and 3 with g_L = g_R = kappa. Everything scattering-related has a
closed form through

    zeta(k) = 1/(cos k + i gamma1/2) + 1/(cos k - i gamma2/2)
    r = (zeta cos k - 1) e^{ik} / (e^{-ik} - zeta)
    t = -i zeta sin k e^{ik} / (e^{-ik} - zeta)
    |r|^2 + |t|^2 = 1 - 2 Im(zeta) sin k / (1 + |zeta|^2
                       - 2 Re(zeta) cos k + 2 Im(zeta) sin k)

so the current deficit vanishes exactly when zeta is real, i.e. when
gamma1 = gamma2. Rotating sites 2, 4 to their symmetric/antisymmetric
combinations A, B (basis order 1, 3, A, B) turns the ring into a side-coupled
chain: hopping -sqrt(2) kappa from A to both joints, potential
i(gamma1 - gamma2)/2 on A and B, coupling i(gamma1 + gamma2)/2 between them.
Only the balanced case gamma1 = gamma2 admits the Hermitian-block split and
is a validated ScatteringCenter.

Balanced transmission spectra:

    T(k)  = sin^2(2k) / (sin^2(2k) + (cos^2 k - gamma^2/4)^2)
    T'(k) = sin^2(2k) / (sin^2(2k) + (cos^2 k + gamma^2/4)^2)

where T' is the genuinely Hermitian side-coupled comparison obtained by
making the potentials real (+gamma on site 2, -gamma on site 4).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDenominator, NotInConservingClass, PoleAtK, ZetaPole
from .model import LeadAttachment, ScatteringCenter, build_center

KAPPA = 1.0
ZETA_DENOM_MIN = 1e-13
RT_POLE_MIN = 1e-12
DEFICIT_DENOM_MIN = 1e-13

__all__ = [
    "KAPPA",
    "FourSiteParams",
    "four_site_center",
    "four_site_lead",
    "folded_four_site_matrix",
    "folded_four_site",
    "fold_basis_matrix",
    "hermitian_side_coupled_center",
    "zeta",
    "closed_form_rt",
    "closed_form_deficit",
    "transmission_T",
    "transmission_Tprime",
]


@dataclass(frozen=True)
class FourSiteParams:
    """Gain strength gamma1 (site 2) and loss strength gamma2 (site 4)."""

    gamma1: float
    gamma2: float

    def __post_init__(self):
        g1, g2 = float(self.gamma1), float(self.gamma2)
        if not (math.isfinite(g1) and math.isfinite(g2)) or g1 < 0 or g2 < 0:
            raise ValueError("gamma1 and gamma2 must be finite and nonnegative")
        object.__setattr__(self, "gamma1", g1)
        object.__setattr__(self, "gamma2", g2)


def four_site_lead() -> LeadAttachment:
    return LeadAttachment(kappa=KAPPA, g_left=KAPPA, g_right=KAPPA,
                          joint_left=1, joint_right=3)


def _ring(d2: complex, d4: complex) -> np.ndarray:
    """The ring in the site basis (1, 2, 3, 4) with potentials d2, d4 on sites 2, 4."""
    return np.array(
        [
            [0.0, -KAPPA, 0.0, -KAPPA],
            [-KAPPA, d2, -KAPPA, 0.0],
            [0.0, -KAPPA, 0.0, -KAPPA],
            [-KAPPA, 0.0, -KAPPA, d4],
        ],
        dtype=np.complex128,
    )


def four_site_center(params: FourSiteParams) -> tuple[np.ndarray, LeadAttachment]:
    """Raw 4x4 ring matrix in the site basis (1, 2, 3, 4) plus its lead.

    Returned raw because for gamma1 != gamma2 no Hermitian-block split
    exists; feed it to the direct solver as-is.
    """
    return _ring(1j * params.gamma1, -1j * params.gamma2), four_site_lead()


def fold_basis_matrix() -> np.ndarray:
    """Orthogonal map from site basis (1, 2, 3, 4) to (1, 3, A, B)."""
    s = 1.0 / np.sqrt(2.0)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, s, 0.0, s],
            [0.0, s, 0.0, -s],
        ]
    )


def folded_four_site_matrix(params: FourSiteParams) -> np.ndarray:
    """The ring in the (1, 3, A, B) basis, for any gamma1, gamma2."""
    g1, g2 = params.gamma1, params.gamma2
    s2k = -np.sqrt(2.0) * KAPPA
    diag = 0.5j * (g1 - g2)
    coup = 0.5j * (g1 + g2)
    return np.array(
        [
            [0.0, 0.0, s2k, 0.0],
            [0.0, 0.0, s2k, 0.0],
            [s2k, s2k, diag, coup],
            [0.0, 0.0, coup, diag],
        ],
        dtype=np.complex128,
    )


def folded_four_site(params: FourSiteParams) -> tuple[ScatteringCenter, LeadAttachment]:
    """Validated folded center; only the balanced case qualifies.

    Cluster A spans (1, 3, A), cluster B is the single antisymmetric site,
    and the coupling is the purely imaginary i*gamma between A and B. Joints
    1 and 3 become positions 1 and 2.
    """
    if params.gamma1 != params.gamma2:
        raise NotInConservingClass(
            "gamma1 != gamma2 leaves imaginary on-site terms on the folded "
            "diagonal; no Hermitian-block split exists"
        )
    m = folded_four_site_matrix(params)
    return build_center(m[:3, :3], m[3:, 3:], m[:3, 3:]), replace(four_site_lead(), joint_right=2)


def hermitian_side_coupled_center(gamma: float) -> tuple[ScatteringCenter, LeadAttachment]:
    """The ring with real potentials +gamma / -gamma instead of imaginary ones.

    Fully Hermitian (cluster B empty), same leads; its transmission is the
    comparison spectrum T'.
    """
    g = float(gamma)
    return build_center(_ring(g, -g)), four_site_lead()


def zeta(k: float, params: FourSiteParams) -> complex:
    """zeta(k) = 1/(cos k + i gamma1/2) + 1/(cos k - i gamma2/2)."""
    ck = math.cos(float(k))
    d1 = ck + 0.5j * params.gamma1
    d2 = ck - 0.5j * params.gamma2
    if abs(d1) <= ZETA_DENOM_MIN or abs(d2) <= ZETA_DENOM_MIN:
        raise ZetaPole(f"zeta denominator vanishes at k={k}")
    return 1.0 / d1 + 1.0 / d2


def closed_form_rt(k: float, params: FourSiteParams) -> tuple[complex, complex]:
    """Closed-form reflection and transmission amplitudes of the ring."""
    k = float(k)
    z = zeta(k, params)
    emik = cmath.exp(-1j * k)
    denom = emik - z
    if abs(denom) <= RT_POLE_MIN:
        raise PoleAtK(f"|e^(-ik) - zeta| = {abs(denom):.3e} at k={k}")
    eik = cmath.exp(1j * k)
    r = (z * math.cos(k) - 1.0) * eik / denom
    t = -1j * z * math.sin(k) * eik / denom
    return r, t


def closed_form_deficit(k: float, params: FourSiteParams) -> float:
    """1 - |r|^2 - |t|^2 in closed form; zero iff zeta is real."""
    k = float(k)
    z = zeta(k, params)
    sk = math.sin(k)
    ck = math.cos(k)
    denom = 1.0 + abs(z) ** 2 - 2.0 * z.real * ck + 2.0 * z.imag * sk
    if abs(denom) <= DEFICIT_DENOM_MIN:
        raise DegenerateDenominator(f"deficit denominator vanishes at k={k}")
    return 2.0 * z.imag * sk / denom


def _transmission(k: float, shift: float) -> float:
    """sin^2(2k) / (sin^2(2k) + (cos^2 k + shift)^2)."""
    k = float(k)
    num = math.sin(2.0 * k) ** 2
    den = num + (math.cos(k) ** 2 + shift) ** 2
    if den == 0.0:
        # Total-reflection convention at the isolated 0/0 point.
        return 0.0
    return num / den


def transmission_T(k: float, gamma: float) -> float:
    """Balanced-ring transmission probability; T=1 at gamma = 2|cos k|."""
    return _transmission(k, -(gamma * gamma / 4.0))


def transmission_Tprime(k: float, gamma: float) -> float:
    """Hermitian side-coupled comparison spectrum; strictly below 1 for gamma != 0."""
    return _transmission(k, gamma * gamma / 4.0)
