"""Parity-symmetric graphs with balanced gain/loss, and the fold that exposes
their two-cluster anti-Hermitian-coupled structure.

A graph has n1 axis sites (fixed under parity) and n2 mirror pairs; parity
swaps each pair. On-axis potentials live on the diagonal of the axis block;
the pair potentials V_j sit on one member and conj(V_j) on its mirror, which
contributes D = i diag(Im V) to the site-basis Hamiltonian

    [[ G,      W,        W      ],
     [ W^dag,  S + D,    C      ],
     [ W^dag,  conj(C),  S - D  ]]

with axis block G, pair block S, intra-pair block C and axis-pair coupling W.
Real parts of V belong in S's diagonal, like the axis potentials in G. For
the real-symmetric flavor conj(C) = C; the generalized flavor allows G, S, C
complex Hermitian and W complex, at the price of losing the parity-time
symmetry of the assembled matrix whenever hoppings are not real.

Rotating every mirror pair to symmetric/antisymmetric combinations
(u +/- l)/sqrt(2) block-diagonalizes the parity and yields

    [[ G,             sqrt(2) W,       0            ],
     [ sqrt(2) W^dag, S + Re(C),       D - i Im(C)  ],
     [ 0,             D + i Im(C),     S - Re(C)    ]]

For Hermitian C the matrix i Im(C) is itself Hermitian (Im C is real
antisymmetric), so the off-diagonal pair is an anti-Hermitian conjugate pair
and the folded matrix is a valid scattering center:

    h_a  = [[G, sqrt(2) W], [sqrt(2) W^dag, S + Re(C)]]
    h_b  = S - Re(C)
    h_ab = [[0], [D - i Im(C)]]          (zero block is n1 x n2)

Lead joints must be axis sites (1-based index <= n1): only those keep their
identity under the fold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, JointOutsideAxis, NotHermitian, ParseError
from .model import LeadAttachment, ScatteringCenter, build_center
from .model import _complex_pair, _int_field, _load_document, _matrix_field, _number

SYMMETRY_ATOL = 1e-12

__all__ = [
    "SYMMETRY_ATOL",
    "PTGraphSpec",
    "GeneralPTGraphSpec",
    "assemble_hpt",
    "parity_matrix",
    "check_pt_symmetry",
    "fold_unitary",
    "fold",
    "fold_generalized",
    "parse_pt_spec",
    "serialize_pt_spec",
]


def _check_hermitian(m: np.ndarray, name: str) -> None:
    defect = linalg.hermiticity_defect(m)
    if defect > SYMMETRY_ATOL:
        raise NotHermitian(name, defect)


@dataclass(frozen=True, eq=False)
class GeneralPTGraphSpec:
    """Parity graph with complex Hermitian blocks and complex pair potentials ``v``.

    ``h_gamma`` (n1 x n1) carries the axis hoppings and on-axis potentials on
    its diagonal; ``h_alpha`` (n2 x n2) the intra-pair-cluster hoppings with
    Re(v) on its diagonal if needed; ``h_gamma_alpha`` (n1 x n2) the axis-pair
    hoppings; ``h_alpha_beta`` (n2 x n2) the cross-pair hoppings. Only Im(v)
    enters the assembled matrix, as the balanced gain/loss diagonal. Blocks
    are stored as complex128.
    """

    h_gamma: np.ndarray
    h_alpha: np.ndarray
    h_gamma_alpha: np.ndarray
    h_alpha_beta: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        h_gamma = linalg.as_square_matrix(self.h_gamma)
        h_alpha = linalg.as_square_matrix(self.h_alpha)
        h_gamma_alpha = linalg.as_complex_matrix(self.h_gamma_alpha)
        h_alpha_beta = linalg.as_square_matrix(self.h_alpha_beta)
        _check_hermitian(h_gamma, "H_gamma")
        _check_hermitian(h_alpha, "H_alpha")
        _check_hermitian(h_alpha_beta, "H_alpha_beta")
        v = np.asarray(self.v, dtype=np.complex128).reshape(-1)
        n1, n2 = h_gamma.shape[0], h_alpha.shape[0]
        if n1 < 1 or n2 < 1:
            raise DimensionMismatch("need at least one axis site and one mirror pair")
        if h_gamma_alpha.shape != (n1, n2):
            raise DimensionMismatch(
                f"H_gamma_alpha: expected ({n1}, {n2}), got {h_gamma_alpha.shape}"
            )
        if h_alpha_beta.shape != (n2, n2):
            raise DimensionMismatch(
                f"H_alpha_beta: expected ({n2}, {n2}), got {h_alpha_beta.shape}"
            )
        if v.shape != (n2,):
            raise DimensionMismatch(f"V: expected length {n2}, got {v.shape}")
        if not np.isfinite(v).all():
            raise ValueError("V entries must be finite")
        object.__setattr__(self, "h_gamma", h_gamma)
        object.__setattr__(self, "h_alpha", h_alpha)
        object.__setattr__(self, "h_gamma_alpha", h_gamma_alpha)
        object.__setattr__(self, "h_alpha_beta", h_alpha_beta)
        object.__setattr__(self, "v", v)

    @property
    def n1(self) -> int:
        return self.h_gamma.shape[0]

    @property
    def n2(self) -> int:
        return self.h_alpha.shape[0]


class PTGraphSpec(GeneralPTGraphSpec):
    """The real-symmetric case: the four blocks must have real entries.

    Then conj(C) = C and the assembled matrix is parity-time symmetric. The
    pair potentials ``v`` stay complex.
    """

    def __post_init__(self):
        super().__post_init__()
        for name, m in (
            ("H_gamma", self.h_gamma),
            ("H_alpha", self.h_alpha),
            ("H_gamma_alpha", self.h_gamma_alpha),
            ("H_alpha_beta", self.h_alpha_beta),
        ):
            if m.imag.any():
                raise ValueError(f"{name}: entries must be real in a plain spec")


def _gain_loss_diag(spec) -> np.ndarray:
    return np.diag(1j * np.imag(spec.v))


def assemble_hpt(spec) -> np.ndarray:
    """Site-basis matrix of the graph, size n1 + 2 n2.

    Block layout: axis, pair members, mirror members. The mirror-mirror
    cross block is the conjugate of the pair-pair one, which for the
    real-symmetric flavor is the same matrix.
    """
    n1, n2 = spec.n1, spec.n2
    g, s, w, c = spec.h_gamma, spec.h_alpha, spec.h_gamma_alpha, spec.h_alpha_beta
    d = _gain_loss_diag(spec)
    m = np.zeros((n1 + 2 * n2, n1 + 2 * n2), dtype=np.complex128)
    m[:n1, :n1] = g
    m[:n1, n1 : n1 + n2] = w
    m[:n1, n1 + n2 :] = w
    m[n1 : n1 + n2, :n1] = w.conj().T
    m[n1 + n2 :, :n1] = w.conj().T
    m[n1 : n1 + n2, n1 : n1 + n2] = s + d
    m[n1 + n2 :, n1 + n2 :] = s - d
    m[n1 : n1 + n2, n1 + n2 :] = c
    m[n1 + n2 :, n1 : n1 + n2] = c.conj()
    return m


def parity_matrix(spec) -> np.ndarray:
    """Permutation fixing axis sites and swapping each mirror pair; P^2 = I."""
    n1, n2 = spec.n1, spec.n2
    n = n1 + 2 * n2
    p = np.zeros((n, n), dtype=np.complex128)
    for j in range(n1):
        p[j, j] = 1.0
    for j in range(n2):
        p[n1 + j, n1 + n2 + j] = 1.0
        p[n1 + n2 + j, n1 + j] = 1.0
    return p


def check_pt_symmetry(h, p) -> float:
    """Max elementwise |P conj(H) P - H|; zero iff parity-time symmetric.

    Time reversal is complex conjugation in the site basis.
    """
    h = linalg.as_square_matrix(h)
    p = linalg.as_square_matrix(p)
    if h.shape != p.shape:
        raise DimensionMismatch(f"shapes {h.shape} and {p.shape} differ")
    return float(np.abs(p @ h.conj() @ p - h).max())


def fold_unitary(spec) -> np.ndarray:
    """Real orthogonal basis change to (axis, symmetric, antisymmetric).

    Row order: the n1 axis sites, then the n2 symmetric pair combinations
    (u + l)/sqrt(2), then the n2 antisymmetric ones (u - l)/sqrt(2).
    """
    n1, n2 = spec.n1, spec.n2
    n = n1 + 2 * n2
    u = np.zeros((n, n))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for j in range(n1):
        u[j, j] = 1.0
    for j in range(n2):
        u[n1 + j, n1 + j] = inv_sqrt2
        u[n1 + j, n1 + n2 + j] = inv_sqrt2
        u[n1 + n2 + j, n1 + j] = inv_sqrt2
        u[n1 + n2 + j, n1 + n2 + j] = -inv_sqrt2
    return u


def _fold_blocks(spec) -> ScatteringCenter:
    n1, n2 = spec.n1, spec.n2
    g, s, w, c = spec.h_gamma, spec.h_alpha, spec.h_gamma_alpha, spec.h_alpha_beta
    d = _gain_loss_diag(spec)
    sqrt2 = np.sqrt(2.0)
    h_a = np.zeros((n1 + n2, n1 + n2), dtype=np.complex128)
    h_a[:n1, :n1] = g
    h_a[:n1, n1:] = sqrt2 * w
    h_a[n1:, :n1] = sqrt2 * w.conj().T
    h_a[n1:, n1:] = s + c.real
    h_b = s - c.real
    h_ab = np.zeros((n1 + n2, n2), dtype=np.complex128)
    h_ab[n1:, :] = d - 1j * c.imag
    return build_center(h_a, h_b, h_ab)


def _check_fold_joints(spec, lead: LeadAttachment | None) -> None:
    if lead is None:
        return
    if lead.joint_left > spec.n1 or lead.joint_right > spec.n1:
        raise JointOutsideAxis(
            f"joints ({lead.joint_left}, {lead.joint_right}) must be axis sites "
            f"(1..{spec.n1})"
        )


def fold(spec: PTGraphSpec, lead: LeadAttachment | None = None) -> ScatteringCenter:
    """Fold a real-symmetric spec into a validated scattering center.

    The folded coupling is nonzero only on the gain/loss diagonal, so the
    center passes the Hermitian-block validation by construction. When a lead
    is given its joints must be axis sites.
    """
    if not isinstance(spec, PTGraphSpec):
        raise TypeError("fold expects a PTGraphSpec; use fold_generalized otherwise")
    _check_fold_joints(spec, lead)
    return _fold_blocks(spec)


def fold_generalized(
    spec: GeneralPTGraphSpec, lead: LeadAttachment | None = None
) -> ScatteringCenter:
    """Fold a generalized (complex Hermitian) spec.

    The folded coupling D - i Im(C) is anti-Hermitian because i Im(C) is
    Hermitian for Hermitian C; the result passes center validation. A plain
    spec is the real case and folds to the same center as with ``fold``.
    """
    if not isinstance(spec, GeneralPTGraphSpec):
        raise TypeError("fold_generalized expects a GeneralPTGraphSpec")
    _check_fold_joints(spec, lead)
    return _fold_blocks(spec)


_PT_FIELDS = ("n1", "n2", "H_gamma", "H_alpha", "H_alpha_beta", "H_gamma_alpha", "V")


def parse_pt_spec(text: str):
    """Parse a PT graph document; returns PTGraphSpec or GeneralPTGraphSpec.

    Plain documents hold real matrices (numbers); documents with
    ``"generalized": true`` hold complex matrices ([re, im] entries). V is
    always a list of [re, im] pairs. Unknown fields are rejected.
    """
    doc = _load_document(text, _PT_FIELDS, optional=("generalized",))
    generalized = doc.get("generalized", False)
    if not isinstance(generalized, bool):
        raise ParseError("field generalized: expected true or false")
    n1 = _int_field(doc["n1"], "n1")
    n2 = _int_field(doc["n2"], "n2")
    if n1 < 1 or n2 < 1:
        raise ParseError("n1 and n2 must be positive")
    v_raw = doc["V"]
    if not isinstance(v_raw, list) or len(v_raw) != n2:
        raise ParseError(f"field V: expected {n2} [re, im] pairs")
    v = np.array([_complex_pair(z, f"V[{j + 1}]") for j, z in enumerate(v_raw)])
    entry = _complex_pair if generalized else _number
    spec_type = GeneralPTGraphSpec if generalized else PTGraphSpec
    # Document names lowercase to the spec's field names (H_gamma -> h_gamma).
    return spec_type(
        v=v,
        **{
            name.lower(): _matrix_field(doc[name], name, entry, shape)
            for name, shape in (
                ("H_gamma", (n1, n1)),
                ("H_alpha", (n2, n2)),
                ("H_alpha_beta", (n2, n2)),
                ("H_gamma_alpha", (n1, n2)),
            )
        },
    )


def serialize_pt_spec(spec) -> str:
    """Inverse of parse_pt_spec for both flavors."""
    generalized = not isinstance(spec, PTGraphSpec)

    def real_rows(m):
        return [[float(x) for x in row] for row in m.real]

    def complex_rows(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in m]

    rows = complex_rows if generalized else real_rows
    doc = {
        "n1": spec.n1,
        "n2": spec.n2,
        "H_gamma": rows(spec.h_gamma),
        "H_alpha": rows(spec.h_alpha),
        "H_alpha_beta": rows(spec.h_alpha_beta),
        "H_gamma_alpha": rows(spec.h_gamma_alpha),
        "V": [[float(z.real), float(z.imag)] for z in spec.v],
    }
    if generalized:
        doc["generalized"] = True
    return json.dumps(doc, indent=2) + "\n"
