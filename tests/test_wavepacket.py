import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from tbscatter import (
    FiniteSystem,
    FourSiteParams,
    InvalidConfig,
    LeadAttachment,
    NonFiniteState,
    ScatteringCenter,
    WavepacketConfig,
    assemble_full_center_matrix,
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
    solve_rt_formula,
)
from tbscatter import linalg, wavepacket
from tbscatter.verify import random_hermitian

from conftest import load_perfbench


def dense_finite_system(center, lead: LeadAttachment, n: int) -> np.ndarray:
    """The finite system assembled entry by entry, as the reference."""
    hc = assemble_full_center_matrix(center) if isinstance(center, ScatteringCenter) else center
    nc = hc.shape[0]
    m = np.zeros((2 * n + nc, 2 * n + nc), dtype=complex)
    m[n : n + nc, n : n + nc] = hc
    for first in (0, n + nc):
        for i in range(first, first + n - 1):
            m[i, i + 1] = m[i + 1, i] = -lead.kappa
    jl, jr = n + lead.joint_left - 1, n + lead.joint_right - 1
    m[jl, n - 1], m[n - 1, jl] = -lead.g_left, -lead.g_left.conjugate()
    m[jr, n + nc], m[n + nc, jr] = -lead.g_right, -lead.g_right.conjugate()
    return m


def as_operator(h) -> FiniteSystem:
    """A square array as the operator ``evolve`` takes: no bonds, one block."""
    h = np.asarray(h, dtype=complex)
    return FiniteSystem(np.zeros(h.shape[0] - 1, dtype=complex), h, 0)


def reference_expm_multiply(h, psi, t: float, norm1: float) -> np.ndarray:
    """The plain Taylor loop, the reference for ``wavepacket._expm_multiply``:
    a new array per term and the exact cutoff test at every term."""
    f = psi.copy()
    s = math.ceil(t * norm1 / wavepacket._THETA)
    for _ in range(s):
        term = f
        c1 = np.abs(term).max()
        for k in range(1, wavepacket._TAYLOR_DEGREE + 1):
            term = (h @ term) * (-1j * (t / (s * k)))
            c2 = np.abs(term).max()
            f += term
            if c1 + c2 <= wavepacket._TAYLOR_TOL * np.abs(f).max():
                break
            c1 = c2
    return f


def operator_cases():
    """(center, lead, n): kappa != 1 and complex g throughout; with kappa = 5
    the lead columns carry the 1-norm."""
    rng = np.random.default_rng(5)
    h_ab = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    center = build_center(random_hermitian(rng, 3), random_hermitian(rng, 2), h_ab)
    raw = assemble_full_center_matrix(center)
    lead = LeadAttachment(kappa=0.7, g_left=0.3 + 0.4j, g_right=-0.9 + 0.1j, joint_left=2,
                          joint_right=3)
    return {
        "center with n_b > 0": (center, lead, 20),
        "raw, joints on first and last sites":
            (raw, replace(lead, kappa=5.0, joint_left=1, joint_right=5), 20),
        "raw, joints in B": (raw, replace(lead, joint_left=5, joint_right=4), 20),
        "one-site leads": (center, lead, 1),
    }


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

    @pytest.mark.parametrize("case", operator_cases())
    def test_operator_matches_dense_form(self, case):
        center, lead, n = operator_cases()[case]
        op = build_finite_system(center, lead, n)
        dense = np.asarray(op)
        np.testing.assert_array_equal(dense, dense_finite_system(center, lead, n))
        rng = np.random.default_rng(6)
        x = rng.standard_normal(dense.shape[0]) + 1j * rng.standard_normal(dense.shape[0])
        # A row is a sum of at most n_c + 2 products, which the BLAS kernel
        # groups differently in the block and in the dense row, so the two
        # need not be bit-equal; each is within about (n_c + 2) u |H| |x| of
        # the exact product, u = eps / 2 (Higham, Accuracy and Stability of
        # Numerical Algorithms, section 3.1).
        nc = dense.shape[0] - 2 * n
        bound = (nc + 2) * np.finfo(float).eps * (np.abs(dense) @ np.abs(x))
        assert np.all(np.abs(op @ x - dense @ x) <= bound)
        assert op.norm1() == np.abs(dense).sum(axis=0).max()
        assert np.count_nonzero(op) == np.count_nonzero(dense)

    def test_operator_and_its_dense_block_evolve_alike(self):
        center, lead, n = operator_cases()["center with n_b > 0"]
        op = build_finite_system(center, lead, n)
        rng = np.random.default_rng(7)
        psi0 = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
        expected = evolve(as_operator(np.asarray(op)), psi0, 3.0, 1.0)
        got = evolve(op, psi0, 3.0, 1.0)
        assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


class TestWavepacketConfig:
    @pytest.mark.parametrize("n,accepted", [(10**6, True), (10**6 + 1, False)])
    def test_chain_length_limit(self, n, accepted):
        # Only the config is built: nothing of length n is allocated.
        def config():
            return WavepacketConfig(chain_half_length=n, x0=-300.0, sigma=15.0, k0=1.0)

        if accepted:
            assert config().chain_half_length == n
        else:
            with pytest.raises(InvalidConfig, match=rf"chain_half_length must be at most "
                                                    rf"1000000, got {n}$"):
                config()


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

    @pytest.mark.parametrize(
        "x0,sigma,k0,message",
        [
            (math.nan, 15.0, 1.0, "4 sigma from the wall"),
            (-150.0, math.nan, 1.0, "sigma must be at least 5 sites"),
            (-150.0, 15.0, math.nan, "k0 must be finite, got nan"),
            (-150.0, 15.0, math.inf, "k0 must be finite, got inf"),
        ],
    )
    def test_rejects_nan_geometry_and_non_finite_k0(self, x0, sigma, k0, message):
        with pytest.raises(InvalidConfig, match=message):
            gaussian_packet(300, 3, x0, sigma, k0)


class TestEvolve:
    def test_zero_hamiltonian_is_identity(self):
        psi0 = np.array([1.0, 1j]) / math.sqrt(2)
        psi = evolve(as_operator(np.zeros((2, 2))), psi0, 5.0, 0.5)
        np.testing.assert_array_equal(psi, psi0)

    def test_single_site_phase(self):
        u = 1.0
        psi = evolve(as_operator([[u]]), np.array([1.0 + 0j]), 1.0, 0.005)
        assert abs(psi[0] - np.exp(-1j * u)) <= 1e-10

    def test_norm_conserved_on_hermitian_chain(self):
        center, lead = uniform_center()
        h = build_finite_system(center, lead, 149)
        psi0 = gaussian_packet(149, 2, -75.0, 15.0, 1.2)
        psi = evolve(h, psi0, 50.0, 0.01)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-8

    @pytest.mark.parametrize(
        "h",
        [
            np.zeros((2, 3)),
            np.zeros(2),
            np.array([[0.0, np.nan], [np.nan, 0.0]]),
            np.array([[np.inf, 0.0], [0.0, 0.0]]),
        ],
    )
    def test_rejects_arrays(self, h):
        with pytest.raises(TypeError, match="^evolve takes a FiniteSystem, got ndarray$"):
            evolve(h, np.ones(2, dtype=complex), 1.0, 0.01)

    @pytest.mark.parametrize("t_final,dt", [(1.0, math.nan), (math.nan, 0.25), (-1.0, 0.25),
                                            (1.0, 0.0)])
    def test_rejects_bad_times(self, t_final, dt):
        with pytest.raises(ValueError, match="^t_final must be >= 0 and dt > 0$"):
            evolve(as_operator(np.zeros((1, 1))), np.ones(1, dtype=complex), t_final, dt)

    def test_infinite_dt_is_one_interval(self):
        times = []
        evolve(as_operator(np.zeros((1, 1))), np.ones(1, dtype=complex), 1.5, math.inf,
               probe=lambda t, psi: times.append(t))
        assert times == [0.0, 1.5]

    def test_probe_visits_every_step(self):
        times = []
        evolve(as_operator(np.zeros((1, 1))), np.ones(1, dtype=complex), 1.0, 0.25,
               probe=lambda t, psi: times.append(t))
        assert times == [0.0, 0.25, 0.5, 0.75, 1.0]
        # A t_final that is not a multiple of dt ends with one partial step.
        times.clear()
        evolve(as_operator(np.zeros((1, 1))), np.ones(1, dtype=complex), 1.125, 0.25,
               probe=lambda t, psi: times.append(t))
        assert times == [0.0, 0.25, 0.5, 0.75, 1.0, 1.125]

    @staticmethod
    def random_case(hermitian: bool):
        rng = np.random.default_rng(21)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = 0.5 * (g + g.conj().T) if hermitian else g
        return h, rng.standard_normal(6) + 1j * rng.standard_normal(6)

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_matches_expm(self, hermitian):
        h, psi0 = self.random_case(hermitian)
        dt = 0.5 / linalg.norm_inf(h)
        t_final = 12.5 * dt  # 12 full intervals and a half one
        expected = expm(-1j * t_final * h) @ psi0
        got = evolve(as_operator(h), psi0, t_final, dt)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("hermitian", [True, False])
    @pytest.mark.parametrize("t_norm1", [29.8, 100.0])
    def test_many_substeps_match_expm(self, hermitian, t_norm1):
        # One interval of ceil(t ||H||_1 / 9.9) = 4 and 11 Taylor substeps,
        # each just past a multiple of 9.9.
        h, psi0 = self.random_case(hermitian)
        t = t_norm1 / np.abs(h).sum(axis=0).max()
        expected = expm(-1j * t * h) @ psi0
        got = evolve(as_operator(h), psi0, t, t)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_criterion_7_work(self, monkeypatch):
        # The folded ring at gamma = 1, k0 = pi/3 takes 4,000 products with
        # H over its 200 probe intervals; more means the substep rule or the
        # Taylor cutoff went slack.
        products = 0
        product = FiniteSystem._product

        def counted(self, x, out):
            nonlocal products
            products += 1
            product(self, x, out)

        monkeypatch.setattr(FiniteSystem, "_product", counted)
        center, lead = folded_four_site(FourSiteParams(1.0, 1.0))
        config = WavepacketConfig(chain_half_length=600, x0=-300.0, sigma=15.0, k0=math.pi / 3)
        result = run_experiment(center, lead, config)
        assert products <= 4000
        assert result["p_right"] == 0.9988410162093386

    @pytest.mark.parametrize("entry", [1e308, 1e6, np.nan])
    def test_rejects_unbounded_work_before_the_first_interval(self, entry):
        center, lead = uniform_center()
        h = build_finite_system(center, lead, 200)
        h.block[1, 1] = entry
        probed = []
        with pytest.raises(InvalidConfig, match="Taylor substeps"):
            evolve(h, gaussian_packet(200, 2, -100.0, 15.0, 1.0), 100.0, 0.5,
                   probe=lambda t, psi: probed.append(t))
        assert probed == []

    @pytest.mark.parametrize("dt,probes", [(1.0, [0.0, 1.0, 2.0, 3.0]), (10.0, [0.0])])
    def test_overflowing_state_raises_before_its_probe(self, dt, probes):
        # exp(-i t H) psi0 = e^{100 t}. With dt = 1, |psi|^2 passes the float
        # range at t = 3.55 while psi stays finite; with dt = 10, psi itself
        # overflows inside the first interval's Taylor series, and numpy's
        # overflow warning (an error in this suite) must not escape.
        probed = []
        with pytest.raises(NonFiniteState, match=rf"at t = {probes[-1] + dt!r};"):
            evolve(as_operator([[100j]]), np.ones(1, dtype=complex), 30.0, dt,
                   probe=lambda t, psi: probed.append(t))
        assert probed == probes

    def test_long_interval_matches_expm(self):
        # dt * norm_inf(H) = 5: no step-size bound, the interval is split
        # into Taylor substeps.
        h, psi0 = self.random_case(False)
        dt = 5.0 / linalg.norm_inf(h)
        expected = expm(-1j * 2.0 * dt * h) @ psi0
        got = evolve(as_operator(h), psi0, 2.0 * dt, dt)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


class CountedProducts:
    """H for the reference loop, counting its products."""

    def __init__(self, h):
        self.h, self.calls = h, 0

    def __matmul__(self, x):
        self.calls += 1
        return self.h @ x


def taylor_loop_cases():
    """Hermitian and non-Hermitian systems, each as built and as its dense
    form wrapped by ``as_operator``, at t ||H||_1 = 0.3, 4, 29.8 and 100, from a random state
    and from a packet at k0 = pi/2, where H psi nearly cancels at the peak of
    |psi|, so the lower bound read there is loose; plus a zero H and states
    that overflow inside the interval."""
    rng = np.random.default_rng(30)
    n = 60
    lead = LeadAttachment(kappa=0.8, g_left=0.6 + 0.2j, g_right=-0.7 + 0.3j, joint_left=1,
                          joint_right=3)
    hermitian = random_hermitian(rng, 3)
    systems = {
        "hermitian": build_finite_system(build_center(hermitian), lead, n),
        "non-hermitian": build_finite_system(
            hermitian + 0.3 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))),
            lead, n),
    }
    states = {
        "random": rng.standard_normal(2 * n + 3) + 1j * rng.standard_normal(2 * n + 3),
        "packet at pi/2": gaussian_packet(n, 3, -30.0, 5.0, math.pi / 2),
    }
    cases = []
    for (kind, op), (state, psi) in itertools.product(systems.items(), states.items()):
        for t_norm1 in (0.3, 4.0, 29.8, 100.0):
            t = t_norm1 / op.norm1()
            for form, h in (("operator", op), ("as_operator", as_operator(np.asarray(op)))):
                cases.append(pytest.param(h, psi, t, False,
                                          id=f"{kind} {form}, {state}, t|H|_1={t_norm1}"))
    zero = FiniteSystem(np.zeros(4, dtype=complex), np.zeros((2, 2), dtype=complex), 1)
    cases.append(pytest.param(zero, states["random"][:5], 1.0, False, id="zero operator"))
    cases.append(pytest.param(as_operator(np.zeros((5, 5))), states["random"][:5], 1.0, False,
                              id="zero as_operator"))
    gain = build_finite_system(build_center(hermitian), lead, n)
    gain.block[2, 2] = 40j
    cases.append(pytest.param(gain, states["random"], 20.0, True, id="overflowing operator"))
    cases.append(pytest.param(as_operator([[100j]]), np.ones(1, dtype=complex), 10.0, True,
                              id="overflowing as_operator"))
    return cases


class TestTaylorLoop:
    @pytest.mark.parametrize("h,psi,t,overflows", taylor_loop_cases())
    def test_matches_plain_loop_bit_for_bit(self, h, psi, t, overflows):
        norm1, norm_inf = h.norm1(), h._max_abs_sum(axis=1)
        calls = 0

        def counted(x, out):
            nonlocal calls
            calls += 1
            h._product(x, out)

        reference = CountedProducts(h)
        with np.errstate(over="ignore", invalid="ignore"):
            expected = reference_expm_multiply(reference, psi, t, norm1)
            got = wavepacket._expm_multiply(counted, psi, t, norm1, norm_inf)
        assert np.array_equal(got, expected, equal_nan=True)
        assert calls == reference.calls
        assert (calls > 0) == (norm1 > 0.0)
        assert np.all(np.isfinite(got)) != overflows


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
        assert result["dt"] == config.t_final / 200
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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_hermitian_cluster_matches_momentum_average(self, seed):
        # A Hermitian cluster keeps the norm, and its asymptotic masses are
        # T and R averaged over the packet's momentum distribution, to far
        # below the 2e-2 oracle tolerance that holds at k0 alone.
        checks, inputs = load_perfbench("checks"), load_perfbench("inputs")
        rng = np.random.default_rng(seed)
        k0 = float(rng.uniform(*inputs.WAVE_K0_RANGE))
        cluster = inputs.hermitian_cluster(rng, 2 + seed, k0)
        center = build_center(cluster["H_A"])
        lead = LeadAttachment(
            kappa=cluster["kappa"], g_left=cluster["g_left"], g_right=cluster["g_right"],
            joint_left=cluster["joint_left"], joint_right=cluster["joint_right"],
        )
        n, sigma = inputs.WAVE_LENGTH, inputs.WAVE_SIGMA
        config = WavepacketConfig(
            chain_half_length=n, x0=-n / 2.0, sigma=sigma, k0=k0,
            t_final=inputs.hermitian_t_final(k0),
        )
        result = run_experiment(center, lead, config)

        def transmission_reflection(k):
            sol = solve_rt_formula(center, lead, k)
            return [abs(sol.t) ** 2, abs(sol.r) ** 2]

        t_mean, r_mean = checks.momentum_average(transmission_reflection, k0, sigma)
        assert abs(result["p_right"] - t_mean) <= 1e-4
        assert abs(result["p_left"] - r_mean) <= 1e-4
        assert abs(result["norm"] - 1.0) <= 1e-10
