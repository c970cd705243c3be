"""Dense complex matrix kernel built on an explicitly pivoted LU factorization.

The LU is recursive on columns with partial pivoting: panels of up to
``_LEAF_COLS`` columns are factored column by column and everything else is
matrix products, so the kernel runs on numpy alone at close to BLAS speed for
large matrices. Triangular substitutions are flat loops of one row each.

``hessenberg`` reduces a matrix once to upper Hessenberg form, A = Q H Q*,
so that a shifted system H - E costs O(n^2) per energy instead of O(n^3).
Its Householder reflections are blocked in compact-WY panels, so most of its
flops are matrix products as well.

Matrices are plain numpy arrays of complex128. Two independent routes to the
elements of an inverse are provided: the factorization route (``inverse``) and
the cofactor/minor route (``inverse_element_cofactor``). Verification code
compares them elementwise, so they must stay algorithmically separate. The
cofactor route never calls ``lu_factor``: it gathers the submatrices for all
requested minors by index arrays and takes their determinants in one
unblocked Gaussian elimination over the whole stack, with each member's own
pivots and singularity test.

Row/column arguments of ``minor_det`` and ``inverse_element_cofactor`` are
1-based integers or integer arrays; the conversion to 0-based storage happens
here and nowhere else.
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
    "hessenberg",
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
    factor the left half, apply inv(L11) to the top-right block by forward
    substitution, update the trailing block with one matrix product, then
    factor the right half. Panels of at most ``_LEAF_COLS`` columns (which
    covers every system ``verify`` builds) run the unblocked pivot step. So
    the pivot choice, the singularity test at every pivot and the full-row
    swaps are those of the unblocked loop, and large matrices put almost all
    flops through matmul.
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


# Panels this narrow are factored column by column; wider ones are split. The
# largest system verify builds (the direct route's, for an 8 + 8 center) is
# 18 x 18, where the unblocked loop beats a split: 116 against 151 us per
# lu_factor on a 2-vCPU host with one OpenBLAS thread.
_LEAF_COLS = 18


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
        m[col + 1 :, col + 1 : c1] -= below[:, None] * m[col, col + 1 : c1]
    return sign


def _unit_lower_solve(lower: np.ndarray, b: np.ndarray) -> None:
    """Overwrite ``b`` with inv(L) b, L the unit lower triangle of ``lower``."""
    for i in range(1, lower.shape[0]):
        b[i] -= lower[i, :i] @ b[:i]


def lu_solve_factored(lu: np.ndarray, perm: np.ndarray, b) -> np.ndarray:
    """Solve with an existing factorization; ``b`` may be a vector or matrix."""
    n = lu.shape[0]
    x = np.asarray(b, dtype=np.complex128)
    if x.shape[0] != n:
        raise DimensionMismatch(f"right-hand side has length {x.shape[0]}, expected {n}")
    x = x[perm].copy()
    _unit_lower_solve(lu, x)
    for i in range(n - 1, -1, -1):
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


def _check_indices(n: int, i, j) -> tuple[np.ndarray, np.ndarray]:
    """Broadcast 1-based integer indices against each other; return 0-based."""
    i, j = np.broadcast_arrays(np.asarray(i), np.asarray(j))
    if i.dtype.kind not in "iu" or j.dtype.kind not in "iu":
        raise TypeError("row and column indices must be integers")
    outside = (i < 1) | (i > n) | (j < 1) | (j > n)
    if outside.any():
        k = int(np.flatnonzero(outside)[0])
        raise IndexOutOfRange(f"indices ({i.flat[k]}, {j.flat[k]}) outside [1, {n}]")
    return i - 1, j - 1


def _stacked_det(s: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square matrices, shape (m, n, n); overwrites it.

    One Gaussian elimination runs over the whole stack. Each member keeps its
    own argmax pivot and its own singularity test, a pivot below
    ``PIVOT_RTOL`` times the member's own ``norm_inf``. A member that fails
    the test, or is zero, reads 0, as in ``det``; it is zeroed, so later
    columns never divide by its small pivots.
    """
    count, n = s.shape[0], s.shape[1]
    members = np.arange(count)
    max_row = np.abs(s).sum(axis=2).max(axis=1, initial=0.0)
    threshold = PIVOT_RTOL * max_row
    dead = max_row == 0.0
    sign = np.ones(count)
    for col in range(n):
        p = col + np.abs(s[:, col:, col]).argmax(axis=1)
        pivot = s[members, p, col]
        failed = ~dead & (np.abs(pivot) < threshold)
        if failed.any():
            dead |= failed
            s[failed] = 0.0
        swap = np.flatnonzero(p != col)
        if swap.size:
            row = s[swap, p[swap], col:].copy()
            s[swap, p[swap], col:] = s[swap, col, col:]
            s[swap, col, col:] = row
            sign[swap] = -sign[swap]
        below = s[:, col + 1 :, col] / np.where(dead, 1.0, pivot)[:, None]
        s[:, col + 1 :, col + 1 :] -= below[:, :, None] * s[:, col, None, col + 1 :]
    dets = sign * np.prod(np.diagonal(s, axis1=1, axis2=2), axis=1)
    dets[dead] = 0.0
    return dets


def minor_det(a, i, j):
    """Determinant of the submatrix with 1-based row i and column j deleted.

    ``i`` and ``j`` may be integer arrays: they broadcast together, and the
    result is an array of their shape. Plain ints give a complex scalar. The
    submatrices are gathered by index arrays and all their determinants come
    from one stacked elimination (``_stacked_det``), so a singular minor reads
    0, as in ``det``.
    """
    m = as_square_matrix(a)
    n = m.shape[0]
    if n < 2:
        raise DimensionMismatch("minor_det needs at least a 2x2 matrix")
    i0, j0 = _check_indices(n, i, j)
    keep = np.arange(n - 1)
    rows = keep + (keep >= i0[..., None])
    cols = keep + (keep >= j0[..., None])
    sub = m[rows[..., :, None], cols[..., None, :]]
    dets = _stacked_det(sub.reshape(-1, n - 1, n - 1)).reshape(i0.shape)
    return complex(dets) if dets.ndim == 0 else dets


def inverse_element_cofactor(a, i, j, det_a: complex | None = None):
    """Element (i, j) of the inverse via the cofactor route.

    Computes ``(-1)**(i+j) * minor_det(a, j, i) / det(a)``. This is the
    deliberate second route to the inverse: O(n^5) for a full matrix, used on
    small matrices for verification only. ``i`` and ``j`` may be integer
    arrays, as in ``minor_det``, so that one call takes many elements of one
    matrix and factors it at most once. ``det_a``, when given, is ``det(a)``
    as already computed by ``det``; then no ``lu_factor`` runs at all.
    """
    m = as_square_matrix(a)
    n = m.shape[0]
    i0, j0 = _check_indices(n, i, j)
    d = det(m) if det_a is None else complex(det_a)
    if d == 0:
        raise SingularMatrix("cofactor route needs a nonzero determinant")
    if n == 1:
        elements = np.full(i0.shape, 1.0 / complex(m[0, 0]))
    else:
        sign = np.where((i0 + j0) % 2, -1.0, 1.0)
        elements = sign * minor_det(m, j0 + 1, i0 + 1) / d
    return complex(elements) if elements.ndim == 0 else elements


# Columns per compact-WY panel of ``hessenberg``. On 256-site centers (2-vCPU
# Xeon, one OpenBLAS thread) width 16 ran fastest of 8 to 32: 27 ms a call,
# against 32 ms at 8 and 31 ms at 32. Wider panels round a little worse: over
# 4,800 seeded centers the sweep kernel's median gap to the per-point routes
# was 3%, 8% and 19% above the unblocked reduction's at widths 8, 16 and 32.
_HESS_PANEL = 16


def hessenberg(a, rows) -> tuple[np.ndarray, np.ndarray]:
    """Upper Hessenberg form by blocked Householder reflections: ``a = Q H Q*``.

    Returns ``H``, with exact zeros below the subdiagonal, and the rows
    ``rows`` (0-based) of the unitary ``Q``, without forming Q. A column
    already zero below the subdiagonal is skipped (its reflection is the
    identity).

    Reflections come in panels of ``_HESS_PANEL`` columns, each kept in
    compact-WY form: the panel's product is I - V T V*, with T upper
    triangular, and Y = A V T for the matrix A at the panel's start (LAPACK's
    zgehrd/zlahr2; Quintana-Orti & van de Geijn, ACM TOMS 32, 180 (2006)).
    Within a panel each column is brought up to date with the reflections
    before it, from the right through Y and from the left through V and T,
    and its reflection extends V, T and Y by one matrix-vector product with
    A's trailing columns. After the panel, the trailing columns and the rows
    of Q take the whole panel in three matrix products.
    """
    h = as_square_matrix(a).copy()
    n = h.shape[0]
    q = np.zeros((len(rows), n), dtype=np.complex128)
    q[np.arange(len(rows)), list(rows)] = 1.0
    for k in range(0, n - 2, _HESS_PANEL):
        end = min(k + _HESS_PANEL, n - 2)
        # Reflection j acts on rows k+1: and below; V keeps rows k+1: only.
        v = np.zeros((n - k - 1, end - k), dtype=np.complex128)
        t = np.zeros((end - k, end - k), dtype=np.complex128)
        y = np.zeros((n, end - k), dtype=np.complex128)
        m = 0
        for col in range(k, end):
            if m:
                vm = v[:, :m]
                h[:, col] -= y[:, :m] @ vm[col - k - 1].conj()
                low = h[k + 1 :, col]
                low -= vm @ (t[:m, :m].conj().T @ (vm.conj().T @ low))
            x = h[col + 1 :, col]
            if not np.any(x[1:]):
                continue
            norm = float(np.linalg.norm(x))
            phase = x[0] / abs(x[0]) if x[0] != 0 else 1.0
            alpha = -phase * norm
            u = x.copy()
            u[0] -= alpha
            u /= np.linalg.norm(u)
            h[col + 1, col] = alpha
            h[col + 2 :, col] = 0.0
            v[col - k :, m] = u
            vu = v[col - k :, :m].conj().T @ u
            t[:m, m] = -2.0 * (t[:m, :m] @ vu)
            t[m, m] = 2.0
            y[:, m] = 2.0 * (h[:, col + 1 :] @ u - y[:, :m] @ vu)
            m += 1
        if not m:
            continue
        v, t, y = v[:, :m], t[:m, :m], y[:, :m]
        h[:, end:] -= y @ v[end - k - 1 :].conj().T
        low = h[k + 1 :, end:]
        low -= v @ (t.conj().T @ (v.conj().T @ low))
        tail = q[:, k + 1 :]
        tail -= ((tail @ v) @ t) @ v.conj().T
    return h, q


def hermiticity_defect(a) -> float:
    """Max elementwise magnitude of ``a - a^dagger``; 0 for empty input."""
    m = as_square_matrix(a)
    if m.size == 0:
        return 0.0
    return float(np.abs(m - m.conj().T).max())
