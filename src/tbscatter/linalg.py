"""Dense complex matrix kernel built on an explicitly pivoted LU factorization.

Matrices are plain numpy arrays of complex128. Two independent routes to the
elements of an inverse are provided: the factorization route (``inverse``) and
the cofactor/minor route (``inverse_element_cofactor``). Verification code
compares them elementwise, so they must stay algorithmically separate.

Row/column arguments of ``minor_det`` and ``inverse_element_cofactor`` are
1-based; the conversion to 0-based storage happens here and nowhere else.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange, SingularMatrix

# A pivot whose magnitude falls below PIVOT_RTOL times the max row sum of the
# input counts as singular. Near-singular centers at resonance must fail
# loudly instead of amplifying noise.
PIVOT_RTOL = 1e-13

__all__ = [
    "PIVOT_RTOL",
    "as_complex_matrix",
    "as_square_matrix",
    "norm_inf",
    "lu_factor",
    "lu_solve",
    "lu_solve_factored",
    "det",
    "inverse",
    "minor_det",
    "inverse_element_cofactor",
    "hermiticity_defect",
]


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def as_square_matrix(a) -> np.ndarray:
    m = as_complex_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    return m


def norm_inf(a) -> float:
    """Max row sum of absolute values."""
    m = as_complex_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.abs(m).sum(axis=1).max())


def lu_factor(a) -> tuple[np.ndarray, np.ndarray, int]:
    """Factor a square matrix with partial pivoting.

    Returns ``(lu, perm, sign)``: the packed L\\U factors of ``a[perm]`` (L has
    an implicit unit diagonal) and the permutation sign. Raises SingularMatrix
    when a pivot magnitude drops below ``PIVOT_RTOL * norm_inf(a)``.
    """
    m = as_square_matrix(a).copy()
    n = m.shape[0]
    perm = np.arange(n)
    sign = 1
    if n == 0:
        return m, perm, sign
    max_row = float(np.abs(m).sum(axis=1).max())
    if max_row == 0.0:
        raise SingularMatrix("zero matrix")
    threshold = PIVOT_RTOL * max_row
    for col in range(n):
        p = col + int(np.argmax(np.abs(m[col:, col])))
        if np.abs(m[p, col]) < threshold:
            raise SingularMatrix(
                f"pivot {abs(m[p, col]):.3e} below threshold {threshold:.3e} "
                f"at column {col + 1}"
            )
        if p != col:
            m[[col, p]] = m[[p, col]]
            perm[[col, p]] = perm[[p, col]]
            sign = -sign
        m[col + 1 :, col] /= m[col, col]
        if col + 1 < n:
            m[col + 1 :, col + 1 :] -= np.outer(m[col + 1 :, col], m[col, col + 1 :])
    return m, perm, sign


def lu_solve_factored(lu: np.ndarray, perm: np.ndarray, b) -> np.ndarray:
    """Solve with an existing factorization; ``b`` may be a vector or matrix."""
    n = lu.shape[0]
    x = np.asarray(b, dtype=np.complex128)
    if x.shape[0] != n:
        raise DimensionMismatch(f"right-hand side has length {x.shape[0]}, expected {n}")
    x = x[perm].copy()
    for i in range(1, n):
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= lu[i, i + 1 :] @ x[i + 1 :]
        x[i] /= lu[i, i]
    return x


def lu_solve(a, b) -> np.ndarray:
    """Solve ``a x = b`` by pivoted LU; raises SingularMatrix."""
    lu, perm, _ = lu_factor(a)
    return lu_solve_factored(lu, perm, b)


def det(a) -> complex:
    """Determinant as the product of LU pivots times the permutation sign.

    Returns 0 for singular input rather than raising.
    """
    m = as_square_matrix(a)
    if m.shape[0] == 0:
        return 1.0 + 0.0j
    try:
        lu, _, sign = lu_factor(m)
    except SingularMatrix:
        return 0.0 + 0.0j
    return complex(sign * np.prod(np.diag(lu)))


def inverse(a) -> np.ndarray:
    """Full inverse via the factorization route; raises SingularMatrix."""
    m = as_square_matrix(a)
    lu, perm, _ = lu_factor(m)
    return lu_solve_factored(lu, perm, np.eye(m.shape[0], dtype=np.complex128))


def _check_indices(n: int, i: int, j: int) -> tuple[int, int]:
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"indices ({i}, {j}) outside [1, {n}]")
    return i - 1, j - 1


def minor_det(a, i: int, j: int) -> complex:
    """Determinant of the submatrix with 1-based row i and column j deleted."""
    m = as_square_matrix(a)
    n = m.shape[0]
    if n < 2:
        raise DimensionMismatch("minor_det needs at least a 2x2 matrix")
    i0, j0 = _check_indices(n, i, j)
    return det(np.delete(np.delete(m, i0, axis=0), j0, axis=1))


def inverse_element_cofactor(a, i: int, j: int, det_a: complex | None = None) -> complex:
    """Element (i, j) of the inverse via the cofactor route.

    Computes ``(-1)**(i+j) * minor_det(a, j, i) / det(a)``. This is the
    deliberate second route to the inverse: O(n^5) for a full matrix, used on
    small matrices for verification only. ``det_a``, when given, is
    ``det(a)`` as already computed by ``det``, so that a caller taking many
    elements of one matrix factors it once.
    """
    m = as_square_matrix(a)
    n = m.shape[0]
    _check_indices(n, i, j)
    d = det(m) if det_a is None else complex(det_a)
    if d == 0:
        raise SingularMatrix("cofactor route needs a nonzero determinant")
    if n == 1:
        return 1.0 / complex(m[0, 0])
    sign = -1.0 if (i + j) % 2 else 1.0
    return sign * minor_det(m, j, i) / d


def hermiticity_defect(a) -> float:
    """Max elementwise magnitude of ``a - a^dagger``; 0 for empty input."""
    m = as_square_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.abs(m - m.conj().T).max())
