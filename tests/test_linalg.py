import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tbscatter import linalg
from tbscatter.errors import DimensionMismatch, IndexOutOfRange, SingularMatrix

from conftest import exceptional_point_center, random_delta_like
from tbscatter.model import assemble_full_center_matrix
from tbscatter.verify import appendix_suite, random_hermitian, random_valid_center


class TestLuSolve:
    def test_identity(self):
        x = linalg.lu_solve(np.eye(3), np.array([1.0, 2.0j, -1.0]))
        np.testing.assert_array_equal(x, [1.0, 2.0j, -1.0])

    def test_permutation(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = linalg.lu_solve(a, np.array([3.0 + 1j, 7.0]))
        np.testing.assert_allclose(x, [7.0, 3.0 + 1j], rtol=0, atol=0)

    def test_hermitian_block_residual(self):
        rng = np.random.default_rng(7)
        a = random_delta_like(rng, 4, 2, energy=0.5)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        x = linalg.lu_solve(a, b)
        residual = np.abs(a @ x - b).max()
        bound = 1e-10 * (linalg.norm_inf(a) * np.abs(x).max() + np.abs(b).max())
        assert residual <= bound

    def test_residual_bound_many_well_conditioned(self):
        # singular values pinned to [0.5, 2] so conditioning never degrades
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            n = int(rng.integers(1, 13))
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            a = q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ q2
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            x = linalg.lu_solve(a, b)
            residual = np.abs(a @ x - b).max()
            assert residual <= 1e-10 * (linalg.norm_inf(a) * np.abs(x).max() + np.abs(b).max())

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            linalg.lu_solve(np.zeros((2, 2)), np.ones(2))
        with pytest.raises(SingularMatrix):
            linalg.lu_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.lu_solve(np.eye(3), np.ones(2))


def unblocked_lu_factor(a):
    """Unblocked right-looking LU with rank-1 updates, the reference for
    ``linalg.lu_factor``: same pivot rule, threshold and message."""
    m = linalg.as_square_matrix(a).copy()
    n = m.shape[0]
    perm = np.arange(n)
    sign = 1
    threshold = linalg.PIVOT_RTOL * float(np.abs(m).sum(axis=1).max())
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


class TestRecursiveLuMatchesUnblocked:
    # 9 and 17 fit one leaf; 19 and 37 are the smallest sizes that split once
    # and twice; 258 is the size of a 256-site center with two extra rows.
    @pytest.mark.parametrize("n", [9, 17, 19, 33, 37, 64, 100, 258])
    def test_same_pivots_and_factors(self, n):
        rng = np.random.default_rng(n)
        a = random_delta_like(rng, n // 2, n - n // 2, energy=0.3)
        lu, perm, sign = linalg.lu_factor(a)
        lu_ref, perm_ref, sign_ref = unblocked_lu_factor(a)
        np.testing.assert_array_equal(perm, perm_ref)
        assert sign == sign_ref
        assert np.abs(lu - lu_ref).max() <= 1e-12 * np.abs(lu_ref).max()
        d = linalg.det(a)
        assert abs(d - np.linalg.det(a)) <= 1e-10 * abs(d)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x = linalg.lu_solve_factored(lu, perm, b)
        residual = np.abs(a @ x - b).max()
        assert residual <= 1e-10 * (linalg.norm_inf(a) * np.abs(x).max() + np.abs(b).max())

    def test_dependent_column_names_the_same_column(self):
        rng = np.random.default_rng(41)
        a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        a[:, 40] = a[:, :40] @ (rng.standard_normal(40) + 1j * rng.standard_normal(40))
        with pytest.raises(SingularMatrix, match=r"at column 41$"):
            unblocked_lu_factor(a)
        with pytest.raises(SingularMatrix, match=r"at column 41$"):
            linalg.lu_factor(a)


class TestDet:
    def test_identity(self):
        assert linalg.det(np.eye(4)) == 1.0

    def test_diagonal(self):
        assert linalg.det(np.diag([2.0, 3.0j])) == pytest.approx(6.0j)

    def test_empty_is_one(self):
        assert linalg.det(np.zeros((0, 0))) == 1.0

    def test_delta_determinant_is_real(self):
        rng = np.random.default_rng(31)
        a = random_delta_like(rng, 3, 2, energy=0.5)
        d = linalg.det(a)
        assert abs(d.imag) <= 1e-10 * abs(d)

    def test_singular_returns_zero(self):
        assert linalg.det(np.array([[1.0, 2.0], [2.0, 4.0]])) == 0.0

    def test_row_permutation_flips_sign(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        d = linalg.det(a)
        swap = np.eye(5)[[1, 0, 2, 3, 4]]
        np.testing.assert_allclose(linalg.det(swap @ a), -d, rtol=1e-12)
        cycle = np.eye(5)[[2, 0, 1, 3, 4]]  # even permutation
        np.testing.assert_allclose(linalg.det(cycle @ a), d, rtol=1e-12)


class TestInverse:
    def test_diagonal(self):
        np.testing.assert_allclose(linalg.inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_unitary_rotation(self):
        th = 0.77
        u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]], dtype=complex)
        np.testing.assert_allclose(linalg.inverse(u), u.conj().T, atol=1e-14)

    def test_multiply_back(self):
        rng = np.random.default_rng(11)
        a = random_delta_like(rng, 3, 2, energy=-0.7)
        np.testing.assert_allclose(a @ linalg.inverse(a), np.eye(5), atol=1e-10)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            linalg.inverse(np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestMinorDet:
    def test_two_by_two(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0 + 1j]])
        assert linalg.minor_det(a, 1, 1) == 4.0 + 1j
        assert linalg.minor_det(a, 2, 1) == 2.0

    def test_identity(self):
        assert linalg.minor_det(np.eye(3), 2, 2) == 1.0

    def test_delta_minor_conjugate_symmetry(self):
        rng = np.random.default_rng(13)
        n_a = 3
        a = random_delta_like(rng, n_a, 2, energy=0.2)
        for i in range(1, n_a + 1):
            for j in range(1, n_a + 1):
                mij = linalg.minor_det(a, i, j)
                mji = linalg.minor_det(a, j, i)
                assert mij == pytest.approx(mji.conjugate(), rel=1e-10, abs=1e-10)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            linalg.minor_det(np.eye(3), 0, 1)
        with pytest.raises(IndexOutOfRange):
            linalg.minor_det(np.eye(3), 1, 4)

    def test_needs_two_by_two(self):
        with pytest.raises(DimensionMismatch):
            linalg.minor_det(np.eye(1), 1, 1)


def deleted_minor(a, i, j):
    """The reference minor: ``det`` of ``a`` with 1-based row i, column j deleted."""
    return linalg.det(np.delete(np.delete(a, i - 1, axis=0), j - 1, axis=1))


class TestStackedMinors:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_index_arrays_match_deleted_submatrices(self, n):
        rng = np.random.default_rng(100 + n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        idx = np.arange(1, n + 1)
        got = linalg.minor_det(a, idx[:, None], idx)
        ref = np.array([[deleted_minor(a, i, j) for j in idx] for i in idx])
        assert got.shape == (n, n)
        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=1e-13 * np.abs(ref).max())

    @pytest.mark.parametrize("n", range(2, 17))
    def test_inverse_elements_match_scalar_calls_and_lu(self, n):
        rng = np.random.default_rng(200 + n)
        a = random_delta_like(rng, n // 2 + 1, n - n // 2 - 1, energy=0.3)
        idx = np.arange(1, n + 1)
        d = linalg.det(a)
        got = linalg.inverse_element_cofactor(a, idx[:, None], idx, det_a=d)
        scalar = [[linalg.inverse_element_cofactor(a, i, j, det_a=d) for j in idx] for i in idx]
        np.testing.assert_allclose(got, scalar, rtol=1e-12)
        inv = linalg.inverse(a)
        assert np.abs(got - inv).max() <= 1e-10 * np.abs(inv).max()

    def test_broadcast_shape_and_scalar_type(self):
        a = np.arange(16.0).reshape(4, 4) + np.eye(4)
        assert linalg.minor_det(a, [1, 3], 2).shape == (2,)
        assert linalg.minor_det(a, np.array([[1], [2]]), [1, 2, 3]).shape == (2, 3)
        assert type(linalg.minor_det(a, 2, 3)) is complex
        assert type(linalg.inverse_element_cofactor(a, np.int64(2), 3)) is complex

    def test_singular_member_reads_zero_beside_regular_ones(self):
        # Rows 1 and 2 are equal: every minor that keeps both is exactly
        # singular, every minor that drops one of them is not. Dividing by a
        # dead member's pivot would warn, and warnings are errors here.
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a[1] = a[0]
        idx = np.arange(1, 6)
        got = linalg.minor_det(a, idx[:, None], idx)
        assert np.all(got[2:] == 0)
        assert np.all(np.abs(got[:2]) > 1e-3)
        ref = np.array([[deleted_minor(a, i, j) for j in idx] for i in idx[:2]])
        np.testing.assert_allclose(got[:2], ref, rtol=1e-12)

    def test_zero_matrix(self):
        idx = np.arange(1, 4)
        got = linalg.minor_det(np.zeros((3, 3)), idx[:, None], idx)
        np.testing.assert_array_equal(got, np.zeros((3, 3)))

    def test_one_by_one_minors_and_inverse(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0 + 1j]])
        got = linalg.minor_det(a, [[1], [2]], [1, 2])
        np.testing.assert_array_equal(got, [[4.0 + 1j, 3.0], [2.0, 1.0]])
        one = linalg.inverse_element_cofactor(np.array([[4.0j]]), [[1]], [1, 1])
        np.testing.assert_array_equal(one, [[-0.25j, -0.25j]])

    def test_array_index_out_of_range_names_the_pair(self):
        with pytest.raises(IndexOutOfRange, match=r"indices \(4, 2\) outside \[1, 3\]"):
            linalg.minor_det(np.eye(3), [1, 4], 2)
        with pytest.raises(IndexOutOfRange):
            linalg.inverse_element_cofactor(np.eye(3), [[1], [2]], [0, 1])

    def test_non_integer_indices_rejected(self):
        with pytest.raises(TypeError, match="integers"):
            linalg.minor_det(np.eye(3), 1.0, 2)

    def test_minor_det_never_calls_lu_factor(self, monkeypatch):
        rng = np.random.default_rng(19)
        a = random_delta_like(rng, 4, 3, energy=-0.5)
        d = linalg.det(a)

        def refuse(*args, **kwargs):
            raise AssertionError("the cofactor route called lu_factor")

        monkeypatch.setattr(linalg, "lu_factor", refuse)
        idx = np.arange(1, 8)
        linalg.minor_det(a, idx[:, None], idx)
        linalg.minor_det(a, 3, 5)
        linalg.inverse_element_cofactor(a, idx[:, None], idx, det_a=d)

    def test_appendix_suite_takes_one_minor_call_per_matrix(self, monkeypatch):
        calls = 0
        minor = linalg.minor_det

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return minor(*args, **kwargs)

        monkeypatch.setattr(linalg, "minor_det", counted)
        report = appendix_suite(trials=20, seed=1)
        assert report.passed
        assert 0 < calls <= 20


class TestInverseElementCofactor:
    def test_diagonal(self):
        assert linalg.inverse_element_cofactor(np.diag([2.0, 4.0]), 1, 1) == 0.5

    def test_matches_full_inverse(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        inv = linalg.inverse(a)
        for i in range(1, 5):
            for j in range(1, 5):
                cof = linalg.inverse_element_cofactor(a, i, j)
                assert cof == pytest.approx(inv[i - 1, j - 1], rel=1e-9, abs=1e-12)

    def test_delta_corner_conjugates(self):
        rng = np.random.default_rng(17)
        n_a = 4
        a = random_delta_like(rng, n_a, 3, energy=-1.1)
        upper = linalg.inverse_element_cofactor(a, 1, n_a)
        lower = linalg.inverse_element_cofactor(a, n_a, 1)
        assert upper == pytest.approx(lower.conjugate(), rel=1e-9)

    def test_one_by_one(self):
        assert linalg.inverse_element_cofactor(np.array([[4.0j]]), 1, 1) == -0.25j

    def test_given_determinant_gives_identical_elements(self):
        rng = np.random.default_rng(5)
        a = random_delta_like(rng, 3, 2, energy=0.4)
        d = linalg.det(a)
        for i, j in ((1, 1), (1, 3), (3, 1), (5, 2)):
            assert linalg.inverse_element_cofactor(a, i, j, det_a=d) == (
                linalg.inverse_element_cofactor(a, i, j)
            )

    def test_singular_raises(self):
        with pytest.raises(SingularMatrix):
            linalg.inverse_element_cofactor(np.array([[1.0, 1.0], [1.0, 1.0]]), 1, 1)


def unblocked_hessenberg(a, rows):
    """Householder reduction one reflection at a time, the reference for
    ``linalg.hessenberg``: same reflections, phases and skip rule."""
    h = linalg.as_square_matrix(a).copy()
    n = h.shape[0]
    q = np.zeros((len(rows), n), dtype=np.complex128)
    q[np.arange(len(rows)), list(rows)] = 1.0
    for col in range(n - 2):
        x = h[col + 1 :, col]
        if not np.any(x[1:]):
            continue
        norm = float(np.linalg.norm(x))
        phase = x[0] / abs(x[0]) if x[0] != 0 else 1.0
        alpha = -phase * norm
        v = x.copy()
        v[0] -= alpha
        v /= np.linalg.norm(v)
        w = 2.0 * v
        vh = v.conj()
        # H <- P H P with P = I - 2 v v*, acting on rows and columns col+1:.
        block = h[col + 1 :, col + 1 :]
        block -= w[:, None] * (vh @ block)
        right = h[:, col + 1 :]
        right -= (right @ v)[:, None] * (2.0 * vh)
        h[col + 1, col] = alpha
        h[col + 2 :, col] = 0.0
        tail = q[:, col + 1 :]
        tail -= (tail @ v)[:, None] * (2.0 * vh)
    return h, q


def assert_blocked_matches_unblocked(a):
    """Exact zeros, backward error and unitarity at a few units of roundoff,
    and agreement with the unblocked reference. The two round differently,
    so their H and Q differ by the reduction's forward error, which grows
    with n (up to 9e-13 of norm_inf(a) in H and 3e-12 in Q at n = 256)."""
    n = a.shape[0]
    h, q = linalg.hessenberg(a, range(n))
    assert np.array_equal(np.tril(h, -2), np.zeros((n, n)))
    assert linalg.norm_inf(q @ h @ q.conj().T - a) <= 1e-14 * linalg.norm_inf(a)
    assert np.abs(q @ q.conj().T - np.eye(n)).max() <= 1e-14
    h_ref, q_ref = unblocked_hessenberg(a, range(n))
    assert linalg.norm_inf(h - h_ref) <= 1e-10 * linalg.norm_inf(a)
    assert np.abs(q - q_ref).max() <= 1e-10
    rows = (n - 1, 0, n // 2)
    h_rows, q_rows = linalg.hessenberg(a, rows)
    np.testing.assert_array_equal(h_rows, h)
    np.testing.assert_allclose(q_rows, q[list(rows)], rtol=0, atol=1e-15)


def _hessenberg_cases():
    rng = np.random.default_rng(91)
    cases = [("hermitian", random_hermitian(rng, n)) for n in (4, 9, 30, 64)]
    for _ in range(4):
        center, _ = random_valid_center(rng, na_max=20, nb_max=20)
        cases.append(("valid center", assemble_full_center_matrix(center)))
    cases.append(("exceptional point", assemble_full_center_matrix(exceptional_point_center())))
    return cases


class TestHessenberg:
    @pytest.mark.parametrize("name,a", _hessenberg_cases())
    def test_reduction(self, name, a):
        n = a.shape[0]
        h, q = linalg.hessenberg(a, range(n))
        assert np.array_equal(np.tril(h, -2), np.zeros((n, n)))
        np.testing.assert_allclose(q @ q.conj().T, np.eye(n), rtol=0, atol=1e-14)
        assert linalg.norm_inf(q @ h @ q.conj().T - a) <= 1e-13 * linalg.norm_inf(a)
        # the joint rows alone are the same rows of the explicit Q
        rows = (n - 1, 0, n // 2)
        h_rows, q_rows = linalg.hessenberg(a, rows)
        np.testing.assert_array_equal(h_rows, h)
        np.testing.assert_allclose(q_rows, q[list(rows)], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 2])
    def test_too_small_to_reduce(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h, q = linalg.hessenberg(a, range(n))
        np.testing.assert_array_equal(h, a)
        np.testing.assert_array_equal(q, np.eye(n))

    def test_three_sites_one_reflection(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h, q = linalg.hessenberg(a, range(3))
        assert h[2, 0] == 0
        np.testing.assert_array_equal(q[0], [1, 0, 0])
        assert linalg.norm_inf(q @ h @ q.conj().T - a) <= 1e-13 * linalg.norm_inf(a)

    def test_column_already_reduced(self):
        # the first column is zero below the subdiagonal: its reflection is
        # the identity and the column comes back untouched
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a[2:, 0] = 0.0
        h, q = linalg.hessenberg(a, range(5))
        np.testing.assert_array_equal(h[:, 0], a[:, 0])
        np.testing.assert_array_equal(q[:, 1], [0, 1, 0, 0, 0])
        assert linalg.norm_inf(q @ h @ q.conj().T - a) <= 1e-13 * linalg.norm_inf(a)

    @pytest.mark.parametrize("n", [2, 3, 4, 15, 16, 17, 18, 19, 33, 34, 50, 256])
    @pytest.mark.parametrize("kind", ["center", "general"])
    def test_blocked_matches_unblocked(self, n, kind):
        # sizes around one, two and three panels of 16, and a sweep center
        rng = np.random.default_rng(n)
        if kind == "center":
            a = random_delta_like(rng, n - n // 3, n // 3, energy=0.0)
        else:
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert_blocked_matches_unblocked(a)

    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("subdiagonal", [1.5 - 0.5j, 0.0])
    def test_column_already_reduced_inside_a_panel(self, where, subdiagonal):
        # column c of the second panel is zero below its subdiagonal entry
        # when the reduction reaches it (the reflections before it never mix
        # rows c+2: into columns :c+1), so its reflection is skipped while
        # the panel's other reflections are kept; a reflection made there
        # would flip the sign of row c+1 (or divide by zero)
        p = linalg._HESS_PANEL
        c = {"first": p, "middle": p + p // 2, "last": 2 * p - 1}[where]
        rng = np.random.default_rng(c)
        n = 3 * p + 2
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a[c + 1 :, : c + 1] = 0.0
        a[c + 1, c] = subdiagonal
        assert_blocked_matches_unblocked(a)

    def test_already_hessenberg_is_unchanged(self):
        rng = np.random.default_rng(5)
        a = np.triu(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)), -1)
        h, q = linalg.hessenberg(a, range(6))
        np.testing.assert_array_equal(h, a)
        np.testing.assert_array_equal(q, np.eye(6))


class TestHermiticityDefect:
    def test_real_symmetric(self):
        assert linalg.hermiticity_defect(np.array([[1.0, 2.0], [2.0, 3.0]])) == 0.0

    def test_anti_hermitian_off_diagonal(self):
        assert linalg.hermiticity_defect(np.array([[0.0, 1.0j], [1.0j, 0.0]])) == 2.0

    def test_hermitian_complex(self):
        a = np.array([[1.0, 1.0 + 1j], [1.0 - 1j, 2.0]])
        assert linalg.hermiticity_defect(a) == 0.0

    def test_empty(self):
        assert linalg.hermiticity_defect(np.zeros((0, 0))) == 0.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    a=arrays(
        np.float64,
        (4, 4),
        elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
    ),
    b=arrays(
        np.float64,
        (4, 4),
        elements=st.floats(min_value=-10, max_value=10, allow_nan=False),
    ),
)
def test_solve_agrees_with_numpy(a, b):
    m = a + 1j * b
    assume(np.linalg.cond(m) < 1e6)
    rhs = np.arange(1.0, 5.0) + 0.5j
    ours = linalg.lu_solve(m, rhs)
    np.testing.assert_allclose(ours, np.linalg.solve(m, rhs), rtol=1e-8, atol=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    a=arrays(
        np.float64,
        (3, 3),
        elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
    ),
    b=arrays(
        np.float64,
        (3, 3),
        elements=st.floats(min_value=-5, max_value=5, allow_nan=False),
    ),
)
# A subnormal matrix: numpy's det warns (divide, invalid) and gives no usable
# value, which the filter rejects; its warnings must not fail the test.
@example(a=np.zeros((3, 3)), b=np.where(np.eye(3)[0] * np.eye(3)[:, [0]], 0.0, 1.11253693e-308))
def test_cofactor_route_matches_lu_route(a, b):
    m = a + 1j * b
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        assume(abs(np.linalg.det(m)) > 1e-3)
    inv = linalg.inverse(m)
    for i in range(1, 4):
        for j in range(1, 4):
            cof = linalg.inverse_element_cofactor(m, i, j)
            ref = inv[i - 1, j - 1]
            assert abs(cof - ref) <= 1e-9 * max(abs(cof), abs(ref), 1.0)
