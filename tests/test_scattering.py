import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tbscatter import (
    FourSiteParams,
    InvalidRange,
    InvalidSite,
    LeadAttachment,
    MomentumOutOfBand,
    PoleAtK,
    SingularDelta,
    assemble_delta,
    build_center,
    closed_form_deficit,
    coefficients_abc,
    dispersion,
    four_site_center,
    hermitian_side_coupled_center,
    reconstruct_wavefunction,
    schrodinger_residual,
    solve_rt_direct,
    solve_rt_formula,
    spectrum,
    transmission_T,
)
from tbscatter import linalg
from tbscatter.errors import SingularSystem
from tbscatter.model import assemble_full_center_matrix, parse_network_spec
from tbscatter.ptgraph import fold_generalized, parse_pt_spec
from tbscatter.scattering import ETA_MIN, ScatteringSolution, _CenterKernel
from tbscatter.verify import DEFICIT_TOL, random_hermitian, random_valid_center

from conftest import SPECS_DIR, exceptional_point_center


def uniform_chain():
    """Two chain sites as the 'center': scattering off nothing."""
    center = build_center([[0.0, -1.0], [-1.0, 0.0]])
    lead = LeadAttachment(kappa=1.0, g_left=1.0, g_right=1.0, joint_left=1, joint_right=2)
    return center, lead


class TestDispersion:
    def test_band_center(self):
        assert dispersion(math.pi / 2, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_third(self):
        assert dispersion(math.pi / 3, 1.0) == pytest.approx(-1.0)

    def test_scales_with_kappa(self):
        assert dispersion(1.0, -2.5) == pytest.approx(5.0 * math.cos(1.0))

    @pytest.mark.parametrize("k", [1e-12, 0.0, -0.3, math.pi, math.pi - 1e-12, 4.0])
    def test_out_of_band(self, k):
        with pytest.raises(MomentumOutOfBand):
            dispersion(k, 1.0)


class TestCoefficients:
    def test_decoupled_chain_coefficients_real(self):
        # no coupling, zero potentials, band center: everything real
        center = build_center(np.zeros((2, 2)))
        lead = LeadAttachment(kappa=1.0, g_left=1.0, g_right=1.0, joint_left=1, joint_right=2)
        abc = coefficients_abc(center, lead, math.pi / 2)
        assert abc.a.imag == pytest.approx(0.0, abs=1e-12)
        assert abc.c.imag == pytest.approx(0.0, abs=1e-12)

    def test_b_tilde_conjugate(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            center, lead = random_valid_center(rng, na_max=5, nb_max=5)
            abc = coefficients_abc(center, lead, 0.9)
            assert abs(abc.b_tilde - abc.b.conjugate()) <= 1e-10 * max(abs(abc.b), 1e-12)

    def test_matches_full_inverse_oracle(self):
        rng = np.random.default_rng(5)
        center, lead = random_valid_center(rng, na_max=5, nb_max=5)
        k = 0.7
        abc = coefficients_abc(center, lead, k)
        inv = linalg.inverse(assemble_delta(center, dispersion(k, lead.kappa)))
        jl, jr = lead.joint_left - 1, lead.joint_right - 1
        kappa = lead.kappa
        assert abc.a == pytest.approx(inv[jl, jl] * abs(lead.g_left) ** 2 / kappa, rel=1e-10)
        assert abc.c == pytest.approx(inv[jr, jr] * abs(lead.g_right) ** 2 / kappa, rel=1e-10)
        assert abc.b == pytest.approx(
            inv[jl, jr] * lead.g_left.conjugate() * lead.g_right / kappa, rel=1e-10, abs=1e-12
        )
        assert abc.b_tilde == pytest.approx(
            inv[jr, jl] * lead.g_left * lead.g_right.conjugate() / kappa, rel=1e-10, abs=1e-12
        )
        assert abs(abc.a.imag) <= 1e-10 * abs(abc.a)
        assert abs(abc.c.imag) <= 1e-10 * abs(abc.c)


class TestFormulaSolver:
    def test_uniform_chain_transmits_perfectly(self):
        center, lead = uniform_chain()
        for k in (0.4, 1.1, 2.4):
            sol = solve_rt_formula(center, lead, k)
            assert abs(sol.t) == pytest.approx(1.0, abs=1e-12)
            assert abs(sol.r) == pytest.approx(0.0, abs=1e-12)

    def test_ring_resonance_full_transmission(self):
        matrix, lead = four_site_center(FourSiteParams(1.0, 1.0))
        sol = solve_rt_formula(matrix, lead, math.pi / 3)
        assert abs(sol.t) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_ring_total_reflection_at_band_center(self):
        # E = 0 is a resonance of the ring: the shifted center matrix is
        # singular there, which the formula path surfaces rather than masks.
        # The direct path and the near-limit give the total reflection.
        matrix, lead = four_site_center(FourSiteParams(0.6, 0.6))
        with pytest.raises(SingularDelta):
            solve_rt_formula(matrix, lead, math.pi / 2)
        direct = solve_rt_direct(matrix, lead, math.pi / 2)
        assert abs(direct.t) == pytest.approx(0.0, abs=1e-12)
        assert abs(direct.r) == pytest.approx(1.0, abs=1e-12)
        near = solve_rt_formula(matrix, lead, math.pi / 2 + 1e-6)
        assert abs(near.t) == pytest.approx(0.0, abs=1e-4)
        assert abs(near.r) == pytest.approx(1.0, abs=1e-8)

    def test_joint_amplitude_relations(self):
        rng = np.random.default_rng(33)
        center, lead = random_valid_center(rng)
        k = 1.3
        sol = solve_rt_formula(center, lead, k)
        assert sol.energy == pytest.approx(-2.0 * lead.kappa * math.cos(k))
        expected_left = lead.kappa / lead.g_left.conjugate() * (1.0 + sol.r)
        expected_right = lead.kappa / lead.g_right.conjugate() * sol.t
        assert sol.alpha[lead.joint_left - 1] == pytest.approx(expected_left, abs=1e-10)
        assert sol.alpha[lead.joint_right - 1] == pytest.approx(expected_right, abs=1e-10)


class TestDirectSolver:
    def test_uniform_chain(self):
        center, lead = uniform_chain()
        sol = solve_rt_direct(center, lead, 1.2)
        assert abs(sol.r) == pytest.approx(0.0, abs=1e-12)
        assert abs(sol.t) == pytest.approx(1.0, abs=1e-12)

    def test_cross_solver_agreement(self):
        rng = np.random.default_rng(42)
        center, lead = random_valid_center(rng, na_max=3, nb_max=2)
        assert (center.n_a, center.n_b) <= (3, 2)
        sol_f = solve_rt_formula(center, lead, 1.0)
        sol_d = solve_rt_direct(center, lead, 1.0)
        assert abs(sol_f.r - sol_d.r) <= 1e-10
        assert abs(sol_f.t - sol_d.t) <= 1e-10
        np.testing.assert_allclose(sol_f.alpha, sol_d.alpha, atol=1e-10)
        np.testing.assert_allclose(sol_f.beta, sol_d.beta, atol=1e-10)

    def test_unbalanced_ring_deficit_matches_closed_form(self):
        params = FourSiteParams(2.0, 0.0)
        matrix, lead = four_site_center(params)
        sol = solve_rt_direct(matrix, lead, math.pi / 3)
        assert sol.deficit == pytest.approx(closed_form_deficit(math.pi / 3, params), abs=1e-10)

    def test_substitute_back_residuals(self):
        rng = np.random.default_rng(55)
        for _ in range(25):
            center, lead = random_valid_center(rng, na_max=6, nb_max=6)
            k = float(rng.uniform(0.1, math.pi - 0.1))
            for solver in (solve_rt_formula, solve_rt_direct):
                sol = solver(center, lead, k)
                assert schrodinger_residual(center, lead, sol) <= 1e-10


class TestWavefunction:
    def test_transmitted_site(self):
        sol = ScatteringSolution(
            k=math.pi / 2, energy=0.0, r=0.0, t=1.0,
            alpha=np.zeros(1), beta=np.zeros(0),
        )
        assert reconstruct_wavefunction(sol, 2) == pytest.approx(-1.0)

    def test_incident_plus_reflected(self):
        sol = ScatteringSolution(
            k=0.8, energy=-2 * math.cos(0.8), r=0.3 - 0.1j, t=0.0,
            alpha=np.zeros(1), beta=np.zeros(0),
        )
        expected = cmath.exp(-0.8j) + (0.3 - 0.1j) * cmath.exp(0.8j)
        assert reconstruct_wavefunction(sol, -1) == pytest.approx(expected)

    def test_site_zero_invalid(self):
        sol = ScatteringSolution(
            k=1.0, energy=0.0, r=0.0, t=1.0,
            alpha=np.zeros(1), beta=np.zeros(0),
        )
        with pytest.raises(InvalidSite):
            reconstruct_wavefunction(sol, 0)

    def test_lead_schrodinger_relation(self):
        # -kappa f_-2 - conj(g_L) alpha_L = E f_-1 with the solved amplitudes
        rng = np.random.default_rng(60)
        center, lead = random_valid_center(rng)
        sol = solve_rt_direct(center, lead, 0.95)
        f_m1 = reconstruct_wavefunction(sol, -1)
        f_m2 = reconstruct_wavefunction(sol, -2)
        lhs = -lead.kappa * f_m2 - lead.g_left.conjugate() * sol.alpha[lead.joint_left - 1]
        assert lhs == pytest.approx(sol.energy * f_m1, abs=1e-10)


class TestDeficit:
    def test_pure_reflection(self):
        sol = ScatteringSolution(
            k=1.0, energy=0.0, r=1.0, t=0.0,
            alpha=np.zeros(1), beta=np.zeros(0),
        )
        assert sol.deficit == 0.0

    def test_valid_centers_conserve(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            center, lead = random_valid_center(rng)
            k = float(rng.uniform(0.1, math.pi - 0.1))
            sol = solve_rt_formula(center, lead, k)
            assert abs(sol.deficit) <= 1e-10

    def test_unbalanced_ring_matches_formula_everywhere(self):
        params = FourSiteParams(1.5, 0.5)
        matrix, lead = four_site_center(params)
        for k in np.linspace(0.2, math.pi - 0.2, 23):
            sol = solve_rt_direct(matrix, lead, float(k))
            assert sol.deficit == pytest.approx(
                closed_form_deficit(float(k), params), abs=1e-10
            )


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    h_a_seed=arrays(np.float64, (3, 3), elements=st.floats(-3, 3)),
    h_a_imag=arrays(np.float64, (3, 3), elements=st.floats(-3, 3)),
    h_b_diag=st.floats(-3, 3),
    coupling_re=arrays(np.float64, (3, 1), elements=st.floats(-20, 20)),
    coupling_im=arrays(np.float64, (3, 1), elements=st.floats(-20, 20)),
    k=st.floats(0.1, math.pi - 0.1),
)
def test_conservation_property(h_a_seed, h_a_imag, h_b_diag, coupling_re, coupling_im, k):
    # current conservation holds for every Hermitian-cluster center at every
    # in-band momentum, whatever the coupling strength
    g = h_a_seed + 1j * h_a_imag
    center = build_center(
        0.5 * (g + g.conj().T),
        np.array([[h_b_diag]]),
        coupling_re + 1j * coupling_im,
    )
    lead = LeadAttachment(kappa=1.0, g_left=1.0 - 0.5j, g_right=0.7, joint_left=1, joint_right=3)
    try:
        sol = solve_rt_formula(center, lead, k)
    except (SingularDelta, PoleAtK):
        assume(False)
    assert abs(sol.deficit) <= 1e-10


class TestSpectrum:
    def test_ring_grid_matches_closed_form(self):
        matrix, lead = four_site_center(FourSiteParams(1.0, 1.0))
        result = spectrum(matrix, lead, 0.1, math.pi - 0.1, 101)
        assert len(result.entries) == 101
        ks = [p.k for p in result.entries]
        assert ks == sorted(ks) and len(set(ks)) == 101
        for p in result.entries:
            assert p.transmission == pytest.approx(transmission_T(p.k, 1.0), abs=1e-10)
        # the only flaggable point is the band-center resonance k = pi/2
        flagged = [p for p in result.entries if p.status != "ok"]
        assert all(abs(p.k - math.pi / 2) < 1e-12 for p in flagged)

    def test_uniform_chain_all_ones(self):
        center, lead = uniform_chain()
        result = spectrum(center, lead, 0.2, 2.9, 25)
        for p in result.entries:
            assert p.transmission == pytest.approx(1.0, abs=1e-12)
            assert p.reflection == pytest.approx(0.0, abs=1e-12)

    def test_hermitian_side_coupling_never_transmits_fully(self):
        center, lead = hermitian_side_coupled_center(1.0)
        result = spectrum(center, lead, 0.1, math.pi - 0.1, 51)
        for p in result.entries:
            assert p.transmission < 1.0
            assert p.deficit == pytest.approx(0.0, abs=1e-12)
        flagged = [p for p in result.entries if p.status != "ok"]
        assert all(abs(p.k - math.pi / 2) < 1e-12 for p in flagged)

    def test_pole_status_when_formula_path_unavailable(self):
        # rank-one cluster: the shifted matrix is singular at the band center
        center = build_center([[1.0, 1.0], [1.0, 1.0]])
        lead = LeadAttachment(kappa=1.0, g_left=1.0, g_right=1.0, joint_left=1, joint_right=2)
        lo, hi = math.pi / 2 - 0.25, math.pi / 2 + 0.25
        result = spectrum(center, lead, lo, hi, 3)
        statuses = [p.status for p in result.entries]
        assert statuses[1] == "pole"
        assert statuses[0] == "ok" and statuses[2] == "ok"
        assert math.isfinite(result.entries[1].transmission)

    def test_singular_status_for_decoupled_resonant_site(self):
        # an isolated center site pinned at an in-band energy makes the
        # augmented system singular exactly there
        u = 0.5
        center = build_center([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, u]])
        lead = LeadAttachment(kappa=1.0, g_left=1.0, g_right=1.0, joint_left=1, joint_right=2)
        k_res = math.acos(-u / 2.0)
        result = spectrum(center, lead, k_res, k_res + 0.2, 2)
        assert result.entries[0].status == "singular"
        assert math.isnan(result.entries[0].transmission)
        assert result.entries[1].status == "ok"

    def test_invalid_range(self):
        center, lead = uniform_chain()
        with pytest.raises(InvalidRange):
            spectrum(center, lead, 0.5, 0.4, 10)
        with pytest.raises(InvalidRange):
            spectrum(center, lead, 0.0, 1.0, 10)
        with pytest.raises(InvalidRange):
            spectrum(center, lead, 0.5, 1.0, 1)
        with pytest.raises(InvalidRange, match=r"^steps must be at most 1000000, got 1000001$"):
            spectrum(center, lead, 0.5, 1.0, 1_000_001)


def point_loop(center, lead, k_min, k_max, steps):
    """The sweep one momentum at a time: solve_rt_direct for the values and
    coefficients_abc on D for the status, each with its own LU."""
    points = []
    for k in np.linspace(k_min, k_max, steps):
        k = float(k)
        try:
            sol = solve_rt_direct(center, lead, k)
        except SingularSystem:
            points.append((k, math.nan, math.nan, math.nan, "singular"))
            continue
        status = "ok"
        try:
            if abs(coefficients_abc(center, lead, k).eta) <= ETA_MIN:
                status = "pole"
        except SingularDelta:
            status = "pole"
        points.append((k, abs(sol.t) ** 2, abs(sol.r) ** 2, sol.deficit, status))
    return points


def assert_matches_point_loop(center, lead, tol, k_min=0.05, k_max=math.pi - 0.05, steps=25):
    result = spectrum(center, lead, k_min, k_max, steps)
    expected = point_loop(center, lead, k_min, k_max, steps)
    assert [p.status for p in result.entries] == [e[4] for e in expected]
    for p, (k, t, r, deficit, status) in zip(result.entries, expected):
        assert p.k == k
        if status == "singular":
            assert math.isnan(p.transmission) and math.isnan(p.reflection)
            continue
        assert abs(p.transmission - t) <= tol
        assert abs(p.reflection - r) <= tol
        assert abs(p.deficit - deficit) <= tol
    assert 1 <= result.reference_points <= steps
    return result


def seeded_center(seed, n_a, n_b):
    """A valid center with the verify ensemble's coupling strengths."""
    rng = np.random.default_rng(seed)
    h_a = random_hermitian(rng, n_a)
    h_ab = rng.standard_normal((n_a, n_b)) + 1j * rng.standard_normal((n_a, n_b))
    if n_b:
        h_ab *= rng.uniform(0.0, 10.0) * linalg.norm_inf(h_a) / linalg.norm_inf(h_ab)
    center = build_center(h_a, random_hermitian(rng, n_b), h_ab)
    joints = rng.choice(n_a, size=2, replace=False) + 1
    lead = LeadAttachment(
        kappa=float(rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])),
        g_left=complex(rng.standard_normal(), rng.standard_normal()),
        g_right=complex(rng.standard_normal(), rng.standard_normal()),
        joint_left=int(joints[0]),
        joint_right=int(joints[1]),
    )
    return center, lead


class TestSpectrumMatchesPointLoop:
    """The Hessenberg sweep against the per-point reference loop."""

    @pytest.mark.parametrize("n", range(2, 65))
    def test_hermitian_centers(self, n):
        assert_matches_point_loop(*seeded_center(1000 + n, n, 0), tol=1e-12)

    @pytest.mark.parametrize("n", range(3, 65))
    def test_non_hermitian_centers(self, n):
        n_b = int(np.random.default_rng(n).integers(1, n - 1)) if n > 3 else 1
        assert_matches_point_loop(*seeded_center(2000 + n, n - n_b, n_b), tol=1e-12)

    @pytest.mark.parametrize("joints", [(6, 8), (2, 7)], ids=["joints-in-B", "split-lead"])
    def test_raw_matrices(self, joints):
        center, _ = seeded_center(31, 5, 4)
        lead = LeadAttachment(kappa=1.0, g_left=0.7 - 0.2j, g_right=1.1,
                              joint_left=joints[0], joint_right=joints[1])
        assert_matches_point_loop(assemble_full_center_matrix(center), lead, tol=1e-12)

    @pytest.mark.parametrize("gammas", [(1.0, 1.0), (2.0, 0.0), (1.5, 0.5)])
    def test_four_site_ring(self, gammas):
        matrix, lead = four_site_center(FourSiteParams(*gammas))
        result = assert_matches_point_loop(matrix, lead, tol=1e-12, k_min=0.1,
                                           k_max=math.pi - 0.1, steps=101)
        assert result.entries[50].k == pytest.approx(math.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(p.name for p in SPECS_DIR.glob("*.json")))
    def test_every_spec_file(self, name):
        text = (SPECS_DIR / name).read_text(encoding="utf-8")
        if "n1" in json.loads(text):
            spec = parse_pt_spec(text)
            lead = LeadAttachment(kappa=1.0, g_left=1.0, g_right=1.0, joint_left=1,
                                  joint_right=spec.n1)
            center = fold_generalized(spec, lead)
        else:
            center, lead = parse_network_spec(text)
        assert_matches_point_loop(center, lead, tol=1e-12, k_min=0.1, k_max=3.0, steps=40)

    def test_flagged_points(self):
        # rank-one cluster: D is singular at the band center (pole); a
        # decoupled site pinned in band: the augmented system is singular
        rank_one = build_center([[1.0, 1.0], [1.0, 1.0]])
        lead = LeadAttachment(kappa=1.0, g_left=1.0, g_right=1.0, joint_left=1, joint_right=2)
        result = assert_matches_point_loop(rank_one, lead, tol=1e-12, k_min=0.1,
                                           k_max=math.pi - 0.1, steps=101)
        assert [p.status for p in result.entries].count("pole") == 1
        decoupled = build_center([[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
        k_res = math.acos(-0.25)
        result = assert_matches_point_loop(decoupled, lead, tol=1e-12, k_min=k_res,
                                           k_max=k_res + 0.2, steps=7)
        assert result.entries[0].status == "singular"

    def test_exceptional_point(self):
        # D and the augmented system are nearly singular around the
        # coalesced eigenvalue; every point near it goes to the reference
        center = exceptional_point_center()
        lead = LeadAttachment(kappa=1.0, g_left=1.0, g_right=0.8, joint_left=1, joint_right=2)
        energy = float(np.linalg.eigvals(assemble_full_center_matrix(center)).real.max())
        k_ep = math.acos(-energy / 2.0)
        assert_matches_point_loop(center, lead, tol=1e-12, k_min=0.1, k_max=3.0, steps=51)
        for width in (1e-3, 1e-7):
            assert_matches_point_loop(center, lead, tol=1e-12, k_min=k_ep - width,
                                      k_max=k_ep + width, steps=41)

    def test_256_sites(self):
        center, lead = seeded_center(256, 128, 128)
        result = assert_matches_point_loop(center, lead, tol=1e-10, k_min=0.1, k_max=3.0,
                                           steps=9)
        assert result.reference_points == 1
        assert 0.0 < result.min_pivot_ratio and 0.0 < result.min_abs_eta

    def test_256_sites_mostly_cluster_a(self):
        # sixteen panels of the blocked reduction, against the per-point loop
        # at the conservation contract
        center, lead = seeded_center(2561, 200, 56)
        assert_matches_point_loop(center, lead, tol=DEFICIT_TOL, k_min=0.1, k_max=3.0,
                                  steps=11)

    def test_kernel_point_is_the_same_in_any_batch(self):
        # values of one momentum do not depend on its neighbours, on its
        # position in a batch, or on the batch size
        center, lead = seeded_center(7, 9, 6)
        kernel = _CenterKernel(center, lead)
        ks = np.linspace(0.2, 2.9, 150)
        energies = -2.0 * lead.kappa * np.cos(ks)
        whole = kernel.solve(ks, energies)
        for i in (0, 1, 63, 64, 100, 149):
            alone = kernel.solve(ks[i:i + 1], energies[i:i + 1])
            shifted = kernel.solve(ks[i // 2:], energies[i // 2:])
            for a, b, c in zip(whole, alone, shifted):
                assert a[i] == b[0] == c[i - i // 2]

    def test_out_of_band_grid_fails_before_factoring(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("factorization before the momentum check")

        monkeypatch.setattr(linalg, "hessenberg", refuse)
        monkeypatch.setattr(linalg, "lu_factor", refuse)
        center, lead = uniform_chain()
        with pytest.raises(MomentumOutOfBand, match="not inside the open band"):
            spectrum(center, lead, 0.5, math.pi - 1e-9, 5)
