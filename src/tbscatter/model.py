"""Scattering-center data model and the energy-shifted matrix.

A center is two Hermitian clusters A and B joined by an anti-Hermitian
coupling. The full center matrix is always assembled as

    [[ H_A,        H_AB ],
     [ -H_AB^dag,  H_B  ]]

so the lower-left block is structural, never user data. Leads (hopping
-kappa, joint couplings -g_L, -g_R) attach to two distinct sites of cluster A.
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class ScatteringCenter:
    """Validated center blocks; construction rejects non-Hermitian clusters.

    ``h_a`` is n_a x n_a Hermitian, ``h_b`` is n_b x n_b Hermitian (n_b may be
    0 for a purely Hermitian center), ``h_ab`` is an arbitrary complex
    n_a x n_b coupling.
    """

    h_a: np.ndarray
    h_b: np.ndarray
    h_ab: np.ndarray

    def __post_init__(self):
        h_a = linalg.as_square_matrix(self.h_a)
        h_b = linalg.as_square_matrix(self.h_b)
        h_ab = linalg.as_complex_matrix(self.h_ab)
        if h_a.shape[0] < 1:
            raise DimensionMismatch("cluster A needs at least one site")
        if h_ab.shape != (h_a.shape[0], h_b.shape[0]):
            raise DimensionMismatch(
                f"H_AB shape {h_ab.shape} does not match "
                f"({h_a.shape[0]}, {h_b.shape[0]})"
            )
        defect = linalg.hermiticity_defect(h_a)
        if defect > HERMITICITY_ATOL:
            raise NotHermitian("H_A", defect)
        if h_b.shape[0]:
            defect = linalg.hermiticity_defect(h_b)
            if defect > HERMITICITY_ATOL:
                raise NotHermitian("H_B", defect)
        object.__setattr__(self, "h_a", h_a)
        object.__setattr__(self, "h_b", h_b)
        object.__setattr__(self, "h_ab", h_ab)

    @property
    def n_a(self) -> int:
        return self.h_a.shape[0]

    @property
    def n_b(self) -> int:
        return self.h_b.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScatteringCenter):
            return NotImplemented
        return (
            np.array_equal(self.h_a, other.h_a)
            and np.array_equal(self.h_b, other.h_b)
            and np.array_equal(self.h_ab, other.h_ab)
        )


@dataclass(frozen=True, eq=False)
class LeadAttachment:
    """Waveguide hopping and the two joint couplings on cluster A.

    Joints are 1-based site indices into cluster A and must differ; kappa is
    real and nonzero, the couplings g are nonzero complex.
    """

    kappa: float
    g_left: complex
    g_right: complex
    joint_left: int
    joint_right: int

    def __post_init__(self):
        kappa = complex(self.kappa)
        if kappa.imag != 0.0:
            raise ValueError("kappa must be real")
        if kappa.real == 0.0:
            raise ValueError("kappa must be nonzero")
        g_left = complex(self.g_left)
        g_right = complex(self.g_right)
        if g_left == 0 or g_right == 0:
            raise ValueError("joint couplings must be nonzero")
        jl = int(self.joint_left)
        jr = int(self.joint_right)
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, LeadAttachment):
            return NotImplemented
        return (
            self.kappa == other.kappa
            and self.g_left == other.g_left
            and self.g_right == other.g_right
            and self.joint_left == other.joint_left
            and self.joint_right == other.joint_right
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
    """The (n_a + n_b) square matrix with structural lower-left -H_AB^dag."""
    n_a, n_b = center.n_a, center.n_b
    m = np.zeros((n_a + n_b, n_a + n_b), dtype=np.complex128)
    m[:n_a, :n_a] = center.h_a
    m[:n_a, n_a:] = center.h_ab
    m[n_a:, :n_a] = -center.h_ab.conj().T
    m[n_a:, n_a:] = center.h_b
    return m


def _center_matrix(center) -> tuple[np.ndarray, int]:
    """Full matrix and the size of the joint-bearing block.

    For a ScatteringCenter the joints must lie in cluster A; for a raw square
    matrix every site is available.
    """
    if isinstance(center, ScatteringCenter):
        return assemble_full_center_matrix(center), center.n_a
    m = linalg.as_square_matrix(center)
    return m, m.shape[0]


def assemble_delta(center: ScatteringCenter, energy: float) -> np.ndarray:
    """Full center matrix minus ``energy`` on the diagonal."""
    m = assemble_full_center_matrix(center)
    m -= float(energy) * np.eye(m.shape[0])
    return m


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


def _matrix_field(value, field: str, entry=_complex_pair, shape=None) -> np.ndarray:
    """Rows of entries read by ``entry`` (``_complex_pair`` or ``_number``), as complex128.

    [] or rows of [] stand for a matrix with no entries; that is accepted only
    where the expected ``shape`` has a zero dimension, and then padded to it.
    """
    if not isinstance(value, list):
        raise ParseError(f"field {field}: expected an array of rows")
    rows = []
    for r, row in enumerate(value, start=1):
        if not isinstance(row, list):
            raise ParseError(f"field {field}, row {r}: expected an array")
        rows.append([entry(z, f"{field}[{r}][{c}]") for c, z in enumerate(row, start=1)])
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise ParseError(f"field {field}: rows have unequal lengths")
    m = np.array(rows, dtype=np.complex128).reshape(len(rows), widths.pop() if widths else 0)
    if shape is not None and m.size == 0 and 0 in shape:
        m = np.zeros(shape, dtype=np.complex128)
    if shape is not None and m.shape != shape:
        raise ParseError(f"field {field}: expected shape {shape}, got {m.shape}")
    return m


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
