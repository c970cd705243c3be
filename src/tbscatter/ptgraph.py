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
Real parts of V belong in S's diagonal, like the axis potentials in G. G, S
and C are complex Hermitian and W is complex. When all four are real (the
plain case, ``PTGraphSpec.is_real``) conj(C) = C and the assembled matrix is
parity-time symmetric; complex hoppings lose that symmetry.

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
from dataclasses import dataclass, fields

import numpy as np

from . import linalg
from .errors import DimensionMismatch, JointOutsideAxis, ParseError
from .model import LeadAttachment, ScatteringCenter, build_center
from .model import _check_hermitian, _complex_pair, _int_field, _load_document
from .model import _matrix_field, _matrix_to_pairs, _number

__all__ = [
    "PTGraphSpec",
    "assemble_hpt",
    "parity_matrix",
    "check_pt_symmetry",
    "fold_unitary",
    "fold",
    "fold_generalized",
    "parse_pt_spec",
    "serialize_pt_spec",
]


@dataclass(frozen=True, eq=False)
class PTGraphSpec:
    """Parity graph with complex Hermitian blocks and complex pair potentials ``v``.

    ``h_gamma`` (n1 x n1) carries the axis hoppings and on-axis potentials on
    its diagonal; ``h_alpha`` (n2 x n2) the intra-pair-cluster hoppings with
    Re(v) on its diagonal if needed; ``h_gamma_alpha`` (n1 x n2) the axis-pair
    hoppings; ``h_alpha_beta`` (n2 x n2) the cross-pair hoppings. Only Im(v)
    enters the assembled matrix, as the balanced gain/loss diagonal. Blocks
    and ``v`` are stored as read-only complex128 copies; whether the blocks
    are real is ``is_real``.
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
        for f, m in zip(fields(self), (h_gamma, h_alpha, h_gamma_alpha, h_alpha_beta, v)):
            m = m.copy()
            m.flags.writeable = False
            object.__setattr__(self, f.name, m)

    def __reduce__(self):  # pickle and copy keep the arrays read-only
        return PTGraphSpec, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def n1(self) -> int:
        return self.h_gamma.shape[0]

    @property
    def n2(self) -> int:
        return self.h_alpha.shape[0]

    @property
    def is_real(self) -> bool:
        """True when the four blocks have zero imaginary part (the plain case:
        the assembled matrix is parity-time symmetric). ``v`` may be complex."""
        return _first_complex_block(self) is None


def _first_complex_block(spec: PTGraphSpec) -> str | None:
    """Name of the first block with a nonzero imaginary entry, or None."""
    for name, m in (
        ("H_gamma", spec.h_gamma),
        ("H_alpha", spec.h_alpha),
        ("H_gamma_alpha", spec.h_gamma_alpha),
        ("H_alpha_beta", spec.h_alpha_beta),
    ):
        if m.imag.any():
            return name
    return None


def _gain_loss_diag(spec) -> np.ndarray:
    return np.diag(1j * np.imag(spec.v))


def assemble_hpt(spec) -> np.ndarray:
    """Site-basis matrix of the graph, size n1 + 2 n2.

    Block layout: axis, pair members, mirror members. The mirror-mirror
    cross block is the conjugate of the pair-pair one, which for a real spec
    is the same matrix.
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


def _check_fold_input(spec, lead: LeadAttachment | None, caller: str) -> None:
    if not isinstance(spec, PTGraphSpec):
        raise TypeError(f"{caller} expects a PTGraphSpec")
    if lead is None:
        return
    if lead.joint_left > spec.n1 or lead.joint_right > spec.n1:
        raise JointOutsideAxis(
            f"joints ({lead.joint_left}, {lead.joint_right}) must be axis sites "
            f"(1..{spec.n1})"
        )


def fold(spec: PTGraphSpec, lead: LeadAttachment | None = None) -> ScatteringCenter:
    """Fold a plain (real-block) spec into a validated scattering center.

    Raises ValueError naming the first block with a nonzero imaginary entry.
    The folded coupling is nonzero only on the gain/loss diagonal, so the
    center passes the Hermitian-block validation by construction. When a lead
    is given its joints must be axis sites.
    """
    _check_fold_input(spec, lead, "fold")
    name = _first_complex_block(spec)
    if name is not None:
        raise ValueError(f"{name}: entries must be real to fold a plain spec; "
                         "use fold_generalized")
    return _fold_blocks(spec)


def fold_generalized(spec: PTGraphSpec, lead: LeadAttachment | None = None) -> ScatteringCenter:
    """Fold any spec, with complex Hermitian blocks allowed.

    The folded coupling D - i Im(C) is anti-Hermitian because i Im(C) is
    Hermitian for Hermitian C; the result passes center validation. A real
    spec folds to the same center as with ``fold``.
    """
    _check_fold_input(spec, lead, "fold_generalized")
    return _fold_blocks(spec)


_PT_FIELDS = ("n1", "n2", "H_gamma", "H_alpha", "H_alpha_beta", "H_gamma_alpha", "V")


def parse_pt_spec(text: str) -> PTGraphSpec:
    """Parse a PT graph document.

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
    # Document names lowercase to the spec's field names (H_gamma -> h_gamma).
    return PTGraphSpec(
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
    """Inverse of parse_pt_spec: the plain format exactly when ``spec.is_real``."""
    generalized = not spec.is_real

    def real_rows(m):
        return [[float(x) for x in row] for row in m.real]

    rows = _matrix_to_pairs if generalized else real_rows
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
