"""Dense complex matrix kernel built on an explicitly pivoted LU factorization.

The LU is recursive on columns with partial pivoting: narrow panels are
factored column by column and everything else is matrix products, so the
kernel runs on numpy alone at close to BLAS speed for large matrices.

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

    The factorization is recursive on columns (Toledo 1997; Gustavson 1997):
    factor the left half, apply inv(L11) to the top-right block, update the
    trailing block with one matrix product, then factor the right half. Panels
    of at most ``_LEAF_COLS`` columns run the unblocked pivot step, so almost
    all flops go through matmul while the pivot choice, the singularity test
    at every pivot and the full-row swaps stay those of the unblocked loop.
    """
    m = as_square_matrix(a).copy()
    n = m.shape[0]
    perm = np.arange(n)
    if n == 0:
        return m, perm, 1
    max_row = float(np.abs(m).sum(axis=1).max())
    if max_row == 0.0:
        raise SingularMatrix("zero matrix")
    sign = _factor_columns(m, perm, 0, n, PIVOT_RTOL * max_row)
    return m, perm, sign


# Panels this narrow are factored column by column; wider ones are split.
_LEAF_COLS = 8


def _factor_columns(m: np.ndarray, perm: np.ndarray, c0: int, c1: int, threshold: float) -> int:
    """Factor columns ``c0:c1`` of ``m`` in place (rows ``c0:`` active), given
    that columns ``:c0`` are factored and ``c0:c1`` are updated by them.
    Row swaps run over full rows and are recorded in ``perm``; returns the
    sign of the swaps made."""
    if c1 - c0 > _LEAF_COLS:
        mid = (c0 + c1) // 2
        sign = _factor_columns(m, perm, c0, mid, threshold)
        _unit_lower_solve(m[c0:mid, c0:mid], m[c0:mid, mid:c1])
        m[mid:, mid:c1] -= m[mid:, c0:mid] @ m[c0:mid, mid:c1]
        return sign * _factor_columns(m, perm, mid, c1, threshold)
    sign = 1
    for col in range(c0, c1):
        p = col + int(np.abs(m[col:, col]).argmax())
        pivot = m[p, col]
        if abs(pivot) < threshold:
            raise SingularMatrix(
                f"pivot {abs(pivot):.3e} below threshold {threshold:.3e} "
                f"at column {col + 1}"
            )
        if p != col:
            row = m[p].copy()
            m[p] = m[col]
            m[col] = row
            perm[col], perm[p] = perm[p], perm[col]
            sign = -sign
        below = m[col + 1 :, col]
        below /= pivot
        if col + 1 < c1:
            m[col + 1 :, col + 1 : c1] -= below[:, None] * m[col, col + 1 : c1]
    return sign


def _unit_lower_solve(lower: np.ndarray, b: np.ndarray) -> None:
    """Overwrite ``b`` with inv(L) b, L the unit lower triangle of ``lower``."""
    k = lower.shape[0]
    if k > _LEAF_COLS:
        h = k // 2
        _unit_lower_solve(lower[:h, :h], b[:h])
        b[h:] -= lower[h:, :h] @ b[:h]
        _unit_lower_solve(lower[h:, h:], b[h:])
        return
    for i in range(1, k):
        b[i] -= lower[i, :i] @ b[:i]


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
    try:
        lu, _, sign = lu_factor(a)
    except SingularMatrix:
        return 0.0 + 0.0j
    return complex(sign * np.prod(np.diag(lu)))


def inverse(a) -> np.ndarray:
    """Full inverse via the factorization route; raises SingularMatrix."""
    lu, perm, _ = lu_factor(a)
    return lu_solve_factored(lu, perm, np.eye(lu.shape[0], dtype=np.complex128))


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
