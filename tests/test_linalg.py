import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tbscatter import linalg
from tbscatter.errors import DimensionMismatch, IndexOutOfRange, SingularMatrix

from conftest import random_delta_like


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
    # Sizes straddle the leaf width and the odd splits below it; 258 is the
    # size of a 256-site center with two extra rows.
    @pytest.mark.parametrize("n", [9, 17, 33, 64, 100, 258])
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


@settings(max_examples=60, deadline=None)
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


@settings(max_examples=40, deadline=None)
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
def test_cofactor_route_matches_lu_route(a, b):
    m = a + 1j * b
    assume(abs(np.linalg.det(m)) > 1e-3)
    inv = linalg.inverse(m)
    for i in range(1, 4):
        for j in range(1, 4):
            cof = linalg.inverse_element_cofactor(m, i, j)
            ref = inv[i - 1, j - 1]
            assert abs(cof - ref) <= 1e-9 * max(abs(cof), abs(ref), 1.0)
