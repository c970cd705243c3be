import cmath
import math

import mpmath
import numpy as np
import pytest

from tbscatter import (
    FourSiteParams,
    NotInConservingClass,
    PoleAtK,
    ZetaPole,
    closed_form_deficit,
    closed_form_rt,
    folded_four_site,
    folded_four_site_matrix,
    four_site_center,
    hermitian_side_coupled_center,
    solve_rt_direct,
    transmission_T,
    transmission_Tprime,
    zeta,
)
from tbscatter.four_site import fold_basis_matrix


class TestCenterConstructors:
    def test_zero_gammas_give_real_symmetric_ring(self):
        m, lead = four_site_center(FourSiteParams(0.0, 0.0))
        assert np.abs(m.imag).max() == 0.0
        assert np.abs(m - m.T).max() == 0.0
        assert (lead.joint_left, lead.joint_right) == (1, 3)

    def test_trace_reads_gain_minus_loss(self):
        m, _ = four_site_center(FourSiteParams(1.7, 0.4))
        assert np.trace(m) == pytest.approx(1j * (1.7 - 0.4))

    def test_rejects_negative_gamma(self):
        with pytest.raises(ValueError):
            FourSiteParams(-0.1, 0.0)

    def test_fold_similarity(self):
        params = FourSiteParams(2.0, 0.3)
        raw, _ = four_site_center(params)
        u4 = fold_basis_matrix()
        np.testing.assert_allclose(
            u4 @ raw @ u4.T, folded_four_site_matrix(params), atol=1e-14
        )

    def test_folded_center_matches_folded_matrix(self):
        from tbscatter import assemble_full_center_matrix

        gamma = 0.8
        center, _ = folded_four_site(FourSiteParams(gamma, gamma))
        np.testing.assert_array_equal(
            assemble_full_center_matrix(center), folded_four_site_matrix(FourSiteParams(gamma, gamma))
        )

    def test_unbalanced_fold_is_rejected(self):
        with pytest.raises(NotInConservingClass):
            folded_four_site(FourSiteParams(1.0, 0.5))

    def test_zero_gamma_fold_decouples_antisymmetric_site(self):
        center, _ = folded_four_site(FourSiteParams(0.0, 0.0))
        assert np.abs(center.h_ab).max() == 0.0

    def test_folded_center_conserves(self):
        center, lead = folded_four_site(FourSiteParams(1.0, 1.0))
        for k in (0.5, 1.1, 2.2):
            sol = solve_rt_direct(center, lead, k)
            assert abs(sol.deficit) <= 1e-10


class TestZeta:
    def test_hermitian_value(self):
        assert zeta(math.pi / 3, FourSiteParams(0.0, 0.0)) == pytest.approx(4.0)

    def test_balanced_is_real(self):
        for gamma in (0.3, 1.0, 3.7):
            for k in (0.4, 1.2, 2.8):
                z = zeta(k, FourSiteParams(gamma, gamma))
                assert z.imag == pytest.approx(0.0, abs=1e-15)

    def test_band_center_cancellation(self):
        z = zeta(math.pi / 2, FourSiteParams(1.0, 1.0))
        assert abs(z) <= 1e-15

    def test_pole_for_vanishing_loss(self):
        with pytest.raises(ZetaPole):
            zeta(math.pi / 2, FourSiteParams(1.0, 0.0))


class TestClosedFormRt:
    def test_band_center_total_reflection(self):
        k = math.pi / 2
        r, t = closed_form_rt(k, FourSiteParams(1.0, 1.0))
        assert r == pytest.approx(-cmath.exp(2j * k), abs=1e-14)
        assert abs(r) == pytest.approx(1.0, abs=1e-14)
        assert abs(t) <= 1e-15

    def test_resonance_transmission(self):
        r, t = closed_form_rt(math.pi / 3, FourSiteParams(1.0, 1.0))
        assert abs(t) ** 2 == pytest.approx(1.0, abs=1e-14)
        assert abs(r) <= 1e-7

    def test_matches_direct_solver_on_grid(self):
        params = FourSiteParams(1.0, 1.0)
        raw, lead = four_site_center(params)
        for k in np.linspace(0.1, math.pi - 0.1, 101):
            r, t = closed_form_rt(float(k), params)
            sol = solve_rt_direct(raw, lead, float(k))
            assert abs(r - sol.r) <= 1e-10
            assert abs(t - sol.t) <= 1e-10

    def test_matches_direct_solver_unbalanced(self):
        params = FourSiteParams(2.4, 0.7)
        raw, lead = four_site_center(params)
        for k in np.linspace(0.15, math.pi - 0.15, 41):
            r, t = closed_form_rt(float(k), params)
            sol = solve_rt_direct(raw, lead, float(k))
            assert abs(r - sol.r) <= 1e-10
            assert abs(t - sol.t) <= 1e-10


class TestTransmissionSpectra:
    def test_common_total_reflection_point(self):
        for gamma in (0.5, 1.0, 2.0):
            assert transmission_T(math.pi / 2, gamma) <= 1e-10
            assert transmission_Tprime(math.pi / 2, gamma) <= 1e-10

    def test_resonance_is_exactly_one(self):
        assert transmission_T(math.pi / 3, 1.0) == 1.0

    def test_hermitian_variant_never_reaches_one(self):
        for k in np.linspace(0.05, math.pi - 0.05, 101):
            assert transmission_Tprime(float(k), 1.0) < 1.0

    def test_T_equals_closed_form_probability(self):
        for gamma in (0.0, 0.8, 2.5):
            params = FourSiteParams(gamma, gamma)
            for k in np.linspace(0.2, math.pi - 0.2, 21):
                if abs(k - math.pi / 2) < 1e-9 and gamma == 0.0:
                    continue  # zeta pole of the bare ring
                _, t = closed_form_rt(float(k), params)
                assert abs(t) ** 2 == pytest.approx(transmission_T(float(k), gamma), abs=1e-12)

    def test_Tprime_matches_real_potential_center(self):
        gamma = 1.0
        center, lead = hermitian_side_coupled_center(gamma)
        for k in np.linspace(0.2, math.pi - 0.2, 21):
            sol = solve_rt_direct(center, lead, float(k))
            assert abs(sol.t) ** 2 == pytest.approx(
                transmission_Tprime(float(k), gamma), abs=1e-10
            )
            assert abs(sol.deficit) <= 1e-12


class TestClosedFormDeficit:
    def test_balanced_is_zero(self):
        for gamma in (0.0, 1.3):
            for k in (0.4, 1.0, 2.0):
                assert closed_form_deficit(k, FourSiteParams(gamma, gamma)) == pytest.approx(
                    0.0, abs=1e-14
                )

    def test_net_gain_is_negative(self):
        params = FourSiteParams(2.0, 0.0)
        value = closed_form_deficit(math.pi / 3, params)
        assert value < 0.0
        raw, lead = four_site_center(params)
        sol = solve_rt_direct(raw, lead, math.pi / 3)
        assert sol.deficit == pytest.approx(value, abs=1e-10)

    def test_net_loss_is_positive_mirror(self):
        gain = closed_form_deficit(math.pi / 3, FourSiteParams(2.0, 0.0))
        loss = closed_form_deficit(math.pi / 3, FourSiteParams(0.0, 2.0))
        assert loss > 0.0
        assert loss != -gain  # the two responses are not mere mirrors in value

    def test_gain_loss_signs_over_grid(self):
        for k in np.linspace(0.2, math.pi / 2 - 0.1, 11):
            assert closed_form_deficit(float(k), FourSiteParams(1.5, 0.0)) < 0.0
            assert closed_form_deficit(float(k), FourSiteParams(0.0, 1.5)) > 0.0

    # The unbalanced ring (gamma1, gamma2) = (1, 2) has a real-k pole of r and t
    # at k = pi/2, where zeta = e^{-ik} = -i.
    @pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-7, 3e-8])
    def test_matches_mpmath_near_a_real_pole(self, delta):
        k = math.pi / 2 + delta
        with mpmath.workdps(50):
            mk = mpmath.mpf(k)
            ck, sk = mpmath.cos(mk), mpmath.sin(mk)
            z = 1 / (ck + 0.5j) + 1 / (ck - 1j)
            denom = mpmath.exp(-1j * mk) - z
            r = (z * ck - 1) * mpmath.exp(1j * mk) / denom
            t = -1j * z * sk * mpmath.exp(1j * mk) / denom
            exact = float(1 - abs(r) ** 2 - abs(t) ** 2)
        value = closed_form_deficit(k, FourSiteParams(1.0, 2.0))
        assert abs(value - exact) <= 1e-13 * abs(exact)

    def test_pole_raises_from_both_closed_forms(self):
        params = FourSiteParams(1.0, 2.0)
        with pytest.raises(PoleAtK):
            closed_form_rt(math.pi / 2, params)
        with pytest.raises(PoleAtK):
            closed_form_deficit(math.pi / 2, params)


class TestFoldedVsRawScattering:
    def test_folded_and_raw_agree_when_balanced(self):
        gamma = 1.0
        raw, raw_lead = four_site_center(FourSiteParams(gamma, gamma))
        center, lead = folded_four_site(FourSiteParams(gamma, gamma))
        for k in (0.5, 1.0, 1.9, 2.6):
            sol_raw = solve_rt_direct(raw, raw_lead, k)
            sol_fold = solve_rt_direct(center, lead, k)
            assert abs(sol_raw.r - sol_fold.r) <= 1e-12
            assert abs(sol_raw.t - sol_fold.t) <= 1e-12
