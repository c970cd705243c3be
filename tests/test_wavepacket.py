import math

import numpy as np
import pytest

from tbscatter import (
    DimensionMismatch,
    FourSiteParams,
    InvalidConfig,
    LeadAttachment,
    StepTooLarge,
    WavepacketConfig,
    build_center,
    build_finite_system,
    evolve,
    folded_four_site,
    four_site_center,
    gaussian_packet,
    measure_partition,
    reconstruct_wavefunction,
    run_experiment,
    solve_rt_direct,
)
from tbscatter import linalg


def uniform_center():
    center = build_center([[0.0, -1.0], [-1.0, 0.0]])
    lead = LeadAttachment(kappa=1.0, g_left=1.0, g_right=1.0, joint_left=1, joint_right=2)
    return center, lead


class TestBuildFiniteSystem:
    def test_trivial_center_gives_uniform_chain(self):
        center, lead = uniform_center()
        h = build_finite_system(center, lead, 2)
        expected = np.zeros((6, 6), dtype=complex)
        for i in range(5):
            expected[i, i + 1] = -1.0
            expected[i + 1, i] = -1.0
        np.testing.assert_array_equal(h, expected)

    def test_leads_add_no_hermiticity_defect(self):
        gamma = 1.0
        center, lead = folded_four_site(FourSiteParams(gamma, gamma))
        from tbscatter import assemble_full_center_matrix

        h = build_finite_system(center, lead, 10)
        assert linalg.hermiticity_defect(h) == pytest.approx(
            linalg.hermiticity_defect(assemble_full_center_matrix(center))
        )

    def test_scattering_state_satisfies_joint_rows(self):
        # embed the exact plane-wave solution and substitute into H psi = E psi
        center, lead = folded_four_site(FourSiteParams(1.0, 1.0))
        k = 0.9
        sol = solve_rt_direct(center, lead, k)
        n = 30
        h = build_finite_system(center, lead, n)
        psi = np.zeros(2 * n + 4, dtype=complex)
        for idx in range(n):
            psi[idx] = reconstruct_wavefunction(sol, idx - n)
        psi[n : n + 3] = sol.alpha
        psi[n + 3] = sol.beta[0]
        for idx in range(n):
            psi[n + 4 + idx] = reconstruct_wavefunction(sol, idx + 1)
        residual = h @ psi - sol.energy * psi
        # rows away from the hard walls must vanish
        assert np.abs(residual[1:-1]).max() <= 1e-10


class TestGaussianPacket:
    def test_normalized(self):
        psi = gaussian_packet(300, 4, -150.0, 15.0, 1.0)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-14

    def test_zero_on_center_slots(self):
        psi = gaussian_packet(300, 4, -200.0, 15.0, 1.0)
        assert np.abs(psi[300:304]).max() <= 1e-12

    def test_mean_quasi_momentum(self):
        n, k0 = 512, math.pi / 3
        psi = gaussian_packet(n, 0, -256.0, 15.0, k0)
        spectrum = np.fft.fft(psi)
        ks = 2.0 * math.pi * np.fft.fftfreq(2 * n)
        weights = np.abs(spectrum) ** 2
        mean_k = float((ks * weights).sum() / weights.sum())
        assert abs(mean_k - k0) <= 0.01

    def test_right_lead_launch(self):
        psi = gaussian_packet(300, 2, 150.0, 15.0, 1.0)
        assert np.abs(psi[:302]).max() <= 1e-12
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-14

    @pytest.mark.parametrize(
        "x0,sigma",
        [(-150.0, 4.0), (0.0, 15.0), (-290.0, 15.0), (-30.0, 15.0)],
    )
    def test_invalid_configs(self, x0, sigma):
        with pytest.raises(InvalidConfig):
            gaussian_packet(300, 4, x0, sigma, 1.0)


class TestEvolve:
    def test_zero_hamiltonian_is_identity(self):
        psi0 = np.array([1.0, 1j]) / math.sqrt(2)
        psi = evolve(np.zeros((2, 2)), psi0, 5.0, 0.5)
        np.testing.assert_array_equal(psi, psi0)

    def test_single_site_phase(self):
        u = 1.0
        psi = evolve(np.array([[u]]), np.array([1.0 + 0j]), 1.0, 0.005)
        assert abs(psi[0] - np.exp(-1j * u)) <= 1e-10

    def test_norm_conserved_on_hermitian_chain(self):
        center, lead = uniform_center()
        h = build_finite_system(center, lead, 149)
        psi0 = gaussian_packet(149, 2, -75.0, 15.0, 1.2)
        psi = evolve(h, psi0, 50.0, 0.01)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-8

    @pytest.mark.parametrize(
        "h,error",
        [
            (np.zeros((2, 3)), DimensionMismatch),
            (np.zeros(2), DimensionMismatch),
            (np.array([[0.0, np.nan], [np.nan, 0.0]]), ValueError),
            (np.array([[np.inf, 0.0], [0.0, 0.0]]), ValueError),
        ],
    )
    def test_rejects_malformed_hamiltonian(self, h, error):
        with pytest.raises(error):
            evolve(h, np.ones(2, dtype=complex), 1.0, 0.01)

    def test_step_too_large(self):
        with pytest.raises(StepTooLarge):
            evolve(np.array([[2.0]]), np.array([1.0 + 0j]), 1.0, 0.1)

    def test_probe_visits_every_step(self):
        times = []
        evolve(np.zeros((1, 1)), np.ones(1, dtype=complex), 1.0, 0.25, probe=lambda t, psi: times.append(t))
        assert times == [0.0, 0.25, 0.5, 0.75, 1.0]
        # A t_final that is not a multiple of dt ends with one partial step.
        times.clear()
        evolve(np.zeros((1, 1)), np.ones(1, dtype=complex), 1.125, 0.25, probe=lambda t, psi: times.append(t))
        assert times == [0.0, 0.25, 0.5, 0.75, 1.0, 1.125]

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_matches_four_stage_rk4(self, hermitian):
        rng = np.random.default_rng(21)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = 0.5 * (g + g.conj().T) if hermitian else g
        psi0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        dt = 0.04 / linalg.norm_inf(h)
        t_final = 49.5 * dt  # 49 full steps and a half step

        a = -1j * h
        psi = psi0.copy()
        remaining, steps = t_final, 0
        while remaining > 1e-15:
            step = min(dt, remaining)
            k1 = a @ psi
            k2 = a @ (psi + 0.5 * step * k1)
            k3 = a @ (psi + 0.5 * step * k2)
            k4 = a @ (psi + step * k3)
            psi = psi + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            remaining -= step
            steps += 1
        assert steps == 50 and step < dt

        got = evolve(h, psi0, t_final, dt)
        assert np.linalg.norm(got - psi) <= 1e-13 * np.linalg.norm(psi)


class TestMeasurePartition:
    def test_sums_to_norm(self):
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        p_l, p_c, p_r = measure_partition(psi, (8, 12))
        assert p_l + p_c + p_r == pytest.approx(float(np.abs(psi) ** 2 @ np.ones(20)), abs=1e-14)

    def test_regions_match_squared_magnitudes(self):
        rng = np.random.default_rng(3)
        psi = (rng.standard_normal(40) + 1j * rng.standard_normal(40)) / 6.0
        prob = np.abs(psi) ** 2
        for bounds in ((10, 30), (0, 40), (0, 0), (40, 40), (17, 17)):
            i0, i1 = bounds
            expected = (prob[:i0].sum(), prob[i0:i1].sum(), prob[i1:].sum())
            np.testing.assert_allclose(measure_partition(psi, bounds), expected, rtol=0, atol=1e-14)

    def test_initial_packet_is_left(self):
        psi = gaussian_packet(300, 4, -150.0, 15.0, 1.0)
        p_l, p_c, p_r = measure_partition(psi, (300, 304))
        assert p_l == pytest.approx(1.0, abs=1e-12)
        assert p_c <= 1e-12 and p_r <= 1e-12


class TestScatteringExperiments:
    @pytest.mark.parametrize("k0", [math.pi / 2 - 0.3, math.pi / 2 + 0.3])
    def test_folded_ring_masses_match_plane_wave(self, k0):
        # measure right after the lobes clear: near the band center the
        # packet's spectral tail seeds the growing eigenmodes of the finite
        # non-Hermitian system, so late measurements are contaminated
        center, lead = folded_four_site(FourSiteParams(1.0, 1.0))
        n = 600
        v = 2.0 * math.sin(k0)
        config = WavepacketConfig(
            chain_half_length=n,
            x0=-n / 2.0,
            sigma=15.0,
            k0=k0,
            t_final=(n / 2.0 + 4.5 * 15.0) / v,
        )
        result = run_experiment(center, lead, config)
        assert result["dt"] == 0.04 / linalg.norm_inf(build_finite_system(center, lead, n))
        sol = solve_rt_direct(center, lead, k0)
        assert abs(result["p_right"] - abs(sol.t) ** 2) <= 2e-2
        assert abs(result["p_left"] - abs(sol.r) ** 2) <= 2e-2
        assert abs(result["p_left"] + result["p_right"] - 1.0) <= 2e-2

    def test_gain_ring_grows_norm(self):
        raw, lead = four_site_center(FourSiteParams(2.0, 0.0))
        n = 300
        k0 = math.pi / 3
        config = WavepacketConfig(
            chain_half_length=n,
            x0=-150.0,
            sigma=15.0,
            k0=k0,
            t_final=(150.0 + 90.0) / (2.0 * math.sin(k0)),
        )
        result = run_experiment(raw, lead, config)
        assert result["norm"] > 1.0

    def test_probe_rows_are_consistent(self):
        center, lead = uniform_center()
        n = 200
        k0 = 1.0
        t_final = (100.0 + 4.5 * 15.0) / (2.0 * math.sin(k0))
        rows = []
        config = WavepacketConfig(
            chain_half_length=n,
            x0=-100.0,
            sigma=15.0,
            k0=k0,
            t_final=t_final,
        )
        run_experiment(center, lead, config, probe=lambda *cols: rows.append(cols))
        assert rows[0][0] == 0.0 and rows[-1][0] == pytest.approx(t_final)
        for t, p_l, p_c, p_r, norm in rows:
            assert norm == pytest.approx(p_l + p_c + p_r, abs=1e-14)
            assert norm == pytest.approx(1.0, abs=1e-6)
