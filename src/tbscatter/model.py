"""Scattering-center data model and the energy-shifted matrix.

A center is two Hermitian clusters A and B joined by an anti-Hermitian
coupling. The full center matrix is always assembled as

    [[ H_A,        H_AB ],
     [ -H_AB^dag,  H_B  ]]

so the lower-left block is structural, never user data. A
``ScatteringCenter`` is immutable: it assembles H_C once, when it is built,
into a read-only array of its own, and its three blocks are read-only views
into that array, so it never shares memory with the caller's inputs.
``assemble_full_center_matrix`` returns that array; copy it to edit. Leads
(hopping -kappa, joint couplings -g_L, -g_R) attach to two distinct sites of
cluster A.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotHermitian,
    ParseError,
)

HERMITICITY_ATOL = 1e-12

__all__ = [
    "HERMITICITY_ATOL",
    "ScatteringCenter",
    "LeadAttachment",
    "build_center",
    "assemble_full_center_matrix",
    "assemble_delta",
    "effective_hamiltonian",
    "parse_network_spec",
    "serialize_network_spec",
]


def _integer(value, name: str, error: type[Exception]) -> int:
    """``value`` as an int; a value that is not an integer raises ``error``,
    where ``int`` would truncate it."""
    try:
        i = int(value)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != value:
        raise error(f"{name} must be an integer, got {value!r}")
    return i


def _check_hermitian(m: np.ndarray, name: str) -> None:
    defect = linalg.hermiticity_defect(m)
    if defect > HERMITICITY_ATOL:
        raise NotHermitian(name, defect)


@dataclass(frozen=True, eq=False)
class ScatteringCenter:
    """Validated center blocks; construction rejects non-Hermitian clusters.

    ``h_a`` is n_a x n_a Hermitian, ``h_b`` is n_b x n_b Hermitian (n_b may be
    0 for a purely Hermitian center), ``h_ab`` is an arbitrary complex
    n_a x n_b coupling; all three are read-only views into the center's own H_C.
    """

    h_a: np.ndarray
    h_b: np.ndarray
    h_ab: np.ndarray

    def __post_init__(self):
        h_a = linalg.as_square_matrix(self.h_a)
        h_b = linalg.as_square_matrix(self.h_b)
        h_ab = linalg.as_complex_matrix(self.h_ab)
        n_a = h_a.shape[0]
        if n_a < 1:
            raise DimensionMismatch("cluster A needs at least one site")
        if h_ab.shape != (n_a, h_b.shape[0]):
            raise DimensionMismatch(
                f"H_AB shape {h_ab.shape} does not match ({n_a}, {h_b.shape[0]})"
            )
        _check_hermitian(h_a, "H_A")
        _check_hermitian(h_b, "H_B")
        hc = np.concatenate([np.concatenate([h_a, h_ab], axis=1),
                             np.concatenate([-h_ab.conj().T, h_b], axis=1)])
        hc.flags.writeable = False
        object.__setattr__(self, "_hc", hc)
        object.__setattr__(self, "h_a", hc[:n_a, :n_a])
        object.__setattr__(self, "h_b", hc[n_a:, n_a:])
        object.__setattr__(self, "h_ab", hc[:n_a, n_a:])

    @property
    def n_a(self) -> int:
        return self.h_a.shape[0]

    @property
    def n_b(self) -> int:
        return self.h_b.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScatteringCenter):
            return NotImplemented
        return self.n_a == other.n_a and np.array_equal(self._hc, other._hc)

    def __reduce__(self):  # pickle and copy rebuild the one read-only H_C
        return ScatteringCenter, (self.h_a, self.h_b, self.h_ab)


@dataclass(frozen=True)
class LeadAttachment:
    """Waveguide hopping and the two joint couplings on cluster A.

    Joints are 1-based site indices into cluster A and must differ; kappa is
    real, finite and nonzero, the couplings g are finite nonzero complex.
    """

    kappa: float
    g_left: complex
    g_right: complex
    joint_left: int
    joint_right: int

    def __post_init__(self):
        kappa = complex(self.kappa)
        if not cmath.isfinite(kappa):
            raise ValueError("kappa must be finite")
        if kappa.imag != 0.0:
            raise ValueError("kappa must be real")
        if kappa.real == 0.0:
            raise ValueError("kappa must be nonzero")
        g_left = complex(self.g_left)
        g_right = complex(self.g_right)
        if not (cmath.isfinite(g_left) and cmath.isfinite(g_right)):
            raise ValueError("joint couplings must be finite")
        if g_left == 0 or g_right == 0:
            raise ValueError("joint couplings must be nonzero")
        jl = _integer(self.joint_left, "joint_left", IndexOutOfRange)
        jr = _integer(self.joint_right, "joint_right", IndexOutOfRange)
        if jl < 1 or jr < 1:
            raise IndexOutOfRange("joint indices are 1-based")
        if jl == jr:
            raise ValueError("joint_left and joint_right must differ")
        object.__setattr__(self, "kappa", kappa.real)
        object.__setattr__(self, "g_left", g_left)
        object.__setattr__(self, "g_right", g_right)
        object.__setattr__(self, "joint_left", jl)
        object.__setattr__(self, "joint_right", jr)

    def check_joints(self, n_sites: int) -> None:
        """Both joints must index existing sites of the attached cluster."""
        if self.joint_left > n_sites or self.joint_right > n_sites:
            raise IndexOutOfRange(
                f"joints ({self.joint_left}, {self.joint_right}) exceed "
                f"cluster size {n_sites}"
            )


def build_center(h_a, h_b=None, h_ab=None) -> ScatteringCenter:
    """Validated constructor; ``h_b``/``h_ab`` may be omitted or empty."""
    h_a = linalg.as_square_matrix(h_a)
    n_a = h_a.shape[0]
    if h_b is None:
        h_b = np.zeros((0, 0))
    h_b = np.asarray(h_b, dtype=np.complex128)
    if h_b.size == 0:
        h_b = np.zeros((0, 0), dtype=np.complex128)
    n_b = h_b.shape[0]
    if h_ab is None:
        h_ab = np.zeros((n_a, n_b))
    h_ab = np.asarray(h_ab, dtype=np.complex128)
    if h_ab.size == 0:
        h_ab = np.zeros((n_a, n_b), dtype=np.complex128)
    return ScatteringCenter(h_a=h_a, h_b=h_b, h_ab=h_ab)


def assemble_full_center_matrix(center: ScatteringCenter) -> np.ndarray:
    """The center's read-only (n_a + n_b) square H_C, with structural
    lower-left -H_AB^dag; copy it to edit."""
    return center._hc


def _center_matrix(center, lead: LeadAttachment | None = None):
    """H_C and the size of the joint-bearing block.

    ``center`` is a ScatteringCenter, whose joints must lie in cluster A, or a
    raw square matrix, where every site is available. When ``lead`` is given
    its joints are checked against that block.
    """
    if isinstance(center, ScatteringCenter):
        hc, n_joint = assemble_full_center_matrix(center), center.n_a
    else:
        hc = linalg.as_square_matrix(center)
        n_joint = hc.shape[0]
    if lead is not None:
        lead.check_joints(n_joint)
    return hc, n_joint


def _shifted_center(center, energy: float, lead: LeadAttachment | None = None):
    """D = H_C - ``energy`` as a new array, and the size of the joint-bearing block."""
    hc, n_joint = _center_matrix(center, lead)
    return hc - float(energy) * np.eye(hc.shape[0]), n_joint


def assemble_delta(center, energy: float) -> np.ndarray:
    """Full center matrix (or raw square matrix) minus ``energy`` on the diagonal."""
    return _shifted_center(center, energy)[0]


def effective_hamiltonian(center: ScatteringCenter, energy: float) -> np.ndarray:
    """Schur complement of the B block in H_C - E, acting on cluster A:

        S_A(E) = H_A - E + H_AB (H_B - E)^-1 H_AB^dag

    inv(H_C - E) restricted to A is inv(S_A(E)). S_A is Hermitian for real E
    because H_A and H_B are, which is why the joint coefficients are real.
    (H_B - E)^-1 comes from one eigendecomposition of H_B, so S_A diverges
    only at eigenvalues of H_B.
    """
    e = float(energy)
    s = center.h_a - e * np.eye(center.n_a)
    if center.n_b:
        eigvals, eigvecs = np.linalg.eigh(center.h_b)
        w = center.h_ab @ eigvecs
        s = s + (w / (eigvals - e)) @ w.conj().T
    return s


_NETWORK_FIELDS = (
    "kappa",
    "g_left",
    "g_right",
    "joint_left",
    "joint_right",
    "H_A",
    "H_B",
    "H_AB",
)


def _number(value, field: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"field {field}: expected a number, got {value!r}")
    return float(value)


def _complex_pair(value, field: str) -> complex:
    if not (isinstance(value, list) and len(value) == 2):
        raise ParseError(f"field {field}: expected a [re, im] pair, got {value!r}")
    return complex(_number(value[0], field), _number(value[1], field))


def _int_field(value, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"field {field}: expected an integer, got {value!r}")
    return value


def _numeric_matrix(value: list, pairs: bool) -> np.ndarray | None:
    """``value`` as complex128 in one conversion, when it is a rectangular
    array of numbers (of [re, im] pairs if ``pairs``); else None.

    Every leaf must be an int or float: a bool would pass as 1.0 and a string
    like "1.5" would convert, where the entry readers reject both.
    """
    try:
        if pairs:
            leaf_types = {type(x) for row in value for z in row for x in z}
        else:
            leaf_types = {type(z) for row in value for z in row}
        if not leaf_types <= {int, float}:
            return None
        a = np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    if a.ndim != 2 + pairs or (pairs and a.shape[2] != 2):
        return None
    if pairs:
        return a.view(np.complex128).reshape(a.shape[:2])
    return a.astype(np.complex128)


def _matrix_field(value, field: str, entry=_complex_pair, shape=None) -> np.ndarray:
    """Rows of entries read by ``entry`` (``_complex_pair`` or ``_number``), as complex128.

    [] or rows of [] stand for a matrix with no entries; that is accepted only
    where the expected ``shape`` has a zero dimension, and then padded to it.
    A well-formed field converts in one step; anything else is read entry by
    entry, so that the error names the first bad entry.
    """
    if not isinstance(value, list):
        raise ParseError(f"field {field}: expected an array of rows")
    m = _numeric_matrix(value, pairs=entry is _complex_pair)
    if m is None:
        m = _matrix_by_entries(value, field, entry)
    if shape is not None and m.size == 0 and 0 in shape:
        m = np.zeros(shape, dtype=np.complex128)
    if shape is not None and m.shape != shape:
        raise ParseError(f"field {field}: expected shape {shape}, got {m.shape}")
    return m


def _matrix_by_entries(value: list, field: str, entry) -> np.ndarray:
    rows = []
    for r, row in enumerate(value, start=1):
        if not isinstance(row, list):
            raise ParseError(f"field {field}, row {r}: expected an array")
        rows.append([entry(z, f"{field}[{r}][{c}]") for c, z in enumerate(row, start=1)])
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise ParseError(f"field {field}: rows have unequal lengths")
    return np.array(rows, dtype=np.complex128).reshape(len(rows), widths.pop() if widths else 0)


def _load_document(text: str, required: tuple, optional: tuple = ()) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    unknown = sorted(set(doc) - set(required) - set(optional))
    if unknown:
        raise ParseError(f"unknown fields: {', '.join(unknown)}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ParseError(f"missing fields: {', '.join(missing)}")
    return doc


def parse_network_spec(text: str) -> tuple[ScatteringCenter, LeadAttachment]:
    """Parse a UTF-8 JSON network document; rejects unknown fields.

    Returns the validated center and lead. Center validation errors
    (NotHermitian, DimensionMismatch) propagate as such.
    """
    doc = _load_document(text, _NETWORK_FIELDS)
    h_a = _matrix_field(doc["H_A"], "H_A")
    if h_a.shape[0] == 0 or h_a.shape[0] != h_a.shape[1]:
        raise ParseError(f"field H_A: expected a nonempty square matrix, got {h_a.shape}")
    n_a = h_a.shape[0]
    h_b = _matrix_field(doc["H_B"], "H_B")
    if h_b.shape[0] != h_b.shape[1]:
        raise ParseError(f"field H_B: expected a square matrix, got {h_b.shape}")
    n_b = h_b.shape[0]
    h_ab = _matrix_field(doc["H_AB"], "H_AB", shape=(n_a, n_b))
    center = build_center(h_a, h_b, h_ab)
    lead = LeadAttachment(
        kappa=_number(doc["kappa"], "kappa"),
        g_left=_complex_pair(doc["g_left"], "g_left"),
        g_right=_complex_pair(doc["g_right"], "g_right"),
        joint_left=_int_field(doc["joint_left"], "joint_left"),
        joint_right=_int_field(doc["joint_right"], "joint_right"),
    )
    lead.check_joints(center.n_a)
    return center, lead


def _matrix_to_pairs(m: np.ndarray) -> list:
    if m.size == 0:
        return []
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def serialize_network_spec(center: ScatteringCenter, lead: LeadAttachment) -> str:
    """Inverse of parse_network_spec; round-trips exactly."""
    doc = {
        "kappa": lead.kappa,
        "g_left": [lead.g_left.real, lead.g_left.imag],
        "g_right": [lead.g_right.real, lead.g_right.imag],
        "joint_left": lead.joint_left,
        "joint_right": lead.joint_right,
        "H_A": _matrix_to_pairs(center.h_a),
        "H_B": _matrix_to_pairs(center.h_b),
        "H_AB": _matrix_to_pairs(center.h_ab),
    }
    return json.dumps(doc, indent=2) + "\n"
