import copy
import json
import math
import pickle
import re

import numpy as np
import pytest

from tbscatter import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidConfig,
    InvalidRange,
    InvalidSite,
    LeadAttachment,
    NotHermitian,
    ParseError,
    WavepacketConfig,
    assemble_delta,
    assemble_full_center_matrix,
    build_center,
    build_finite_system,
    effective_hamiltonian,
    folded_four_site,
    gaussian_packet,
    measure_partition,
    parse_network_spec,
    reconstruct_wavefunction,
    serialize_network_spec,
    solve_rt_direct,
    spectrum,
)
from tbscatter import FourSiteParams
from tbscatter import linalg
from tbscatter.verify import random_valid_center

from conftest import random_delta_like


class TestBuildCenter:
    def test_hermitian_only_center(self):
        c = build_center([[0.0, -1.0], [-1.0, 0.0]])
        assert c.n_a == 2 and c.n_b == 0
        assert c.h_ab.shape == (2, 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian) as err:
            build_center([[0.0, 1.0], [0.0, 0.0]])
        assert err.value.block == "H_A"
        assert err.value.defect == pytest.approx(1.0)

    def test_rejects_non_hermitian_b(self):
        with pytest.raises(NotHermitian) as err:
            build_center([[0.0]], [[0.0, 1.0j], [1.0j, 0.0]], [[0.0, 0.0]])
        assert err.value.block == "H_B"

    def test_folded_ring_blocks_are_valid(self):
        center, _ = folded_four_site(FourSiteParams(0.7, 0.7))
        assert center.n_a == 3 and center.n_b == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_center(np.eye(2), np.eye(2), np.zeros((3, 2)))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(ValueError):
            build_center([[0.0, np.nan], [np.nan, 0.0]])


class TestAssemble:
    def test_empty_b_returns_h_a(self):
        c = build_center([[1.0, 2.0 - 1j], [2.0 + 1j, 3.0]])
        np.testing.assert_array_equal(assemble_full_center_matrix(c), c.h_a)

    def test_imaginary_diagonal_coupling_is_anti_hermitian(self):
        gamma = 0.8
        c = build_center(np.zeros((2, 2)), np.zeros((2, 2)), 1j * gamma * np.eye(2))
        m = assemble_full_center_matrix(c)
        # -(i gamma I)^dag is again +i gamma I
        np.testing.assert_array_equal(m[2:, :2], 1j * gamma * np.eye(2))

    def test_folded_ring_coupling_strength(self):
        gamma = 1.3
        center, _ = folded_four_site(FourSiteParams(gamma, gamma))
        m = assemble_full_center_matrix(center)
        assert m[3, 2] == 1j * gamma  # structural -h_ab^dag below the diagonal
        assert m[2, 3] == 1j * gamma

    def test_block_split_of_hermitian_and_anti_parts(self):
        rng = np.random.default_rng(8)
        c, _ = random_valid_center(rng, na_max=4, nb_max=4)
        m = assemble_full_center_matrix(c)
        n_a = c.n_a
        anti = (m - m.conj().T) / 2
        herm = (m + m.conj().T) / 2
        assert np.abs(anti[:n_a, :n_a]).max() < 1e-14
        if c.n_b:
            assert np.abs(anti[n_a:, n_a:]).max() < 1e-14
            np.testing.assert_allclose(anti[:n_a, n_a:], c.h_ab, atol=1e-14)
            assert np.abs(herm[:n_a, n_a:]).max() < 1e-14

    def test_delta_is_exact_diagonal_shift(self):
        rng = np.random.default_rng(9)
        c, _ = random_valid_center(rng, na_max=4, nb_max=4)
        e = -2.0 * math.cos(1.0)
        full = assemble_full_center_matrix(c)
        np.testing.assert_array_equal(assemble_delta(c, e), full - e * np.eye(full.shape[0]))

    def test_delta_zero_energy_equals_full(self):
        c = build_center([[0.5]])
        np.testing.assert_array_equal(assemble_delta(c, 0.0), [[0.5]])
        np.testing.assert_array_equal(assemble_delta(c, 2.0), [[-1.5]])

    def test_delta_of_raw_matrix_is_a_shifted_copy(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        before = m.copy()
        np.testing.assert_array_equal(assemble_delta(m, 0.7), before - 0.7 * np.eye(5))
        np.testing.assert_array_equal(m, before)

    def test_delta_determinant_real(self):
        rng = np.random.default_rng(10)
        c, _ = random_valid_center(rng)
        d = linalg.det(assemble_delta(c, -2.0 * math.cos(1.0)))
        assert abs(d.imag) <= 1e-10 * abs(d)


class TestCenterOwnsHc:
    """A center holds one read-only H_C of its own; its blocks are views into it."""

    @pytest.mark.parametrize("block", ["h_a", "h_b", "h_ab"])
    def test_editing_the_callers_array_leaves_the_center_unchanged(self, block):
        blocks = {
            "h_a": np.array([[0.5, 1.0], [1.0, -0.5]], dtype=np.complex128),
            "h_b": np.array([[0.3]], dtype=np.complex128),
            "h_ab": np.array([[0.2j], [0.4]], dtype=np.complex128),
        }
        c = build_center(**blocks)
        before = assemble_full_center_matrix(c).copy()
        blocks[block][0, 0] = 0.7j
        np.testing.assert_array_equal(assemble_full_center_matrix(c), before)
        assert c == build_center(before[:2, :2], before[2:, 2:], before[:2, 2:])
        for mine in (c.h_a, c.h_b, c.h_ab, assemble_full_center_matrix(c)):
            assert not any(np.shares_memory(mine, theirs) for theirs in blocks.values())

    def test_blocks_and_hc_are_read_only_views_of_one_array(self):
        c, _ = folded_four_site(FourSiteParams(0.7, 0.7))
        hc = assemble_full_center_matrix(c)
        for m in (c.h_a, c.h_b, c.h_ab, hc):
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 0.0
            assert np.shares_memory(m, hc)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))])
    def test_clones_rebuild_one_read_only_hc(self, clone):
        c, _ = folded_four_site(FourSiteParams(0.7, 0.7))
        d = clone(c)
        assert d == c
        assert not np.shares_memory(assemble_full_center_matrix(d), assemble_full_center_matrix(c))
        assert np.shares_memory(d.h_ab, assemble_full_center_matrix(d))
        assert not d.h_a.flags.writeable

    def test_same_hc_with_another_split_compares_unequal(self):
        hc = np.diag([1.0, 2.0, 3.0, 4.0, 5.0]).astype(np.complex128)
        split_2 = build_center(hc[:2, :2], hc[2:, 2:], np.zeros((2, 3)))
        split_3 = build_center(hc[:3, :3], hc[3:, 3:], np.zeros((3, 2)))
        np.testing.assert_array_equal(assemble_full_center_matrix(split_2),
                                      assemble_full_center_matrix(split_3))
        assert split_2 != split_3
        assert split_2 == build_center(hc[:2, :2], hc[2:, 2:], np.zeros((2, 3)))

    @pytest.mark.parametrize("n_a, n_b", [(1, 0), (3, 2), (4, 4)])
    def test_hc_is_the_block_layout_of_delta_at_zero_energy(self, n_a, n_b):
        m = random_delta_like(np.random.default_rng(22), n_a, n_b, 0.0)
        c = build_center(m[:n_a, :n_a], m[n_a:, n_a:], m[:n_a, n_a:])
        np.testing.assert_array_equal(assemble_full_center_matrix(c), m)


class TestEffectiveHamiltonian:
    def test_inverse_is_the_a_block_of_inv_delta(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            c, _ = random_valid_center(rng, na_max=5, nb_max=5)
            e = float(rng.uniform(-2.0, 2.0))
            s = effective_hamiltonian(c, e)
            inv_d = linalg.inverse(assemble_delta(c, e))
            np.testing.assert_allclose(
                linalg.inverse(s), inv_d[: c.n_a, : c.n_a], rtol=0, atol=1e-9 * np.abs(inv_d).max()
            )
            assert linalg.hermiticity_defect(s) <= 1e-13 * np.abs(s).max()

    def test_without_cluster_b_is_shifted_h_a(self):
        c = build_center([[0.5, 1.0j], [-1.0j, 0.0]])
        np.testing.assert_array_equal(effective_hamiltonian(c, 2.0), c.h_a - 2.0 * np.eye(2))


class TestLeadAttachment:
    def test_equal_leads_hash_equal(self):
        a = LeadAttachment(kappa=1, g_left=0.5, g_right=0.5 + 0.1j, joint_left=1, joint_right=3)
        b = LeadAttachment(kappa=1.0, g_left=0.5 + 0j, g_right=0.5 + 0.1j, joint_left=1,
                           joint_right=3)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, LeadAttachment(1.0, 0.5, 0.5, 1, 3)}) == 2

    def test_basic(self):
        lead = LeadAttachment(kappa=1.0, g_left=1j, g_right=2.0, joint_left=1, joint_right=3)
        assert lead.kappa == 1.0
        assert lead.g_left == 1j

    def test_rejects_zero_kappa(self):
        with pytest.raises(ValueError):
            LeadAttachment(kappa=0.0, g_left=1.0, g_right=1.0, joint_left=1, joint_right=2)

    def test_rejects_complex_kappa(self):
        with pytest.raises(ValueError):
            LeadAttachment(kappa=1 + 1j, g_left=1.0, g_right=1.0, joint_left=1, joint_right=2)

    def test_rejects_zero_coupling(self):
        with pytest.raises(ValueError):
            LeadAttachment(kappa=1.0, g_left=0.0, g_right=1.0, joint_left=1, joint_right=2)

    @pytest.mark.parametrize("field", ["kappa", "g_left", "g_right"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
    def test_rejects_non_finite_values(self, field, value):
        fields = dict(kappa=1.0, g_left=1.0, g_right=1.0, joint_left=1, joint_right=2)
        fields[field] = value
        with pytest.raises(ValueError, match="finite"):
            LeadAttachment(**fields)

    def test_rejects_equal_joints(self):
        with pytest.raises(ValueError):
            LeadAttachment(kappa=1.0, g_left=1.0, g_right=1.0, joint_left=2, joint_right=2)

    def test_joints_must_fit_cluster(self):
        lead = LeadAttachment(kappa=1.0, g_left=1.0, g_right=1.0, joint_left=1, joint_right=5)
        with pytest.raises(IndexOutOfRange):
            lead.check_joints(4)

    def test_joints_are_one_based(self):
        with pytest.raises(IndexOutOfRange):
            LeadAttachment(kappa=1.0, g_left=1.0, g_right=1.0, joint_left=0, joint_right=2)


_RING, _RING_LEAD = folded_four_site(FourSiteParams(0.7, 0.7))

# Entry points with an integer argument: the call, the argument's name, a
# valid value, and the error that a bad value of that argument raises.
_INTEGER_ARGUMENTS = [
    pytest.param(lambda j: LeadAttachment(1.0, 1.0, 1.0, j, 3), "joint_left", 2, IndexOutOfRange,
                 id="LeadAttachment"),
    pytest.param(lambda j: LeadAttachment(1.0, 1.0, 1.0, 3, j), "joint_right", 2, IndexOutOfRange,
                 id="LeadAttachment-right"),
    pytest.param(lambda j: reconstruct_wavefunction(solve_rt_direct(_RING, _RING_LEAD, 1.0), j),
                 "site", -2, InvalidSite, id="reconstruct_wavefunction"),
    pytest.param(lambda s: spectrum(_RING, _RING_LEAD, 0.5, 1.0, s), "steps", 3, InvalidRange,
                 id="spectrum"),
    pytest.param(lambda n: WavepacketConfig(n, -150.0, 15.0, 1.0), "chain_half_length", 300,
                 InvalidConfig, id="WavepacketConfig"),
    pytest.param(lambda n: build_finite_system(_RING, _RING_LEAD, n), "n", 5, DimensionMismatch,
                 id="build_finite_system"),
    pytest.param(lambda n: gaussian_packet(n, 4, -150.0, 15.0, 1.0), "n", 300, InvalidConfig,
                 id="gaussian_packet"),
    pytest.param(lambda n: gaussian_packet(300, n, -150.0, 15.0, 1.0), "n_center", 4,
                 InvalidConfig, id="gaussian_packet-n_center"),
    pytest.param(lambda i: measure_partition(np.ones(10), (i, 5)), "boundaries[0]", 3,
                 DimensionMismatch, id="measure_partition"),
    pytest.param(lambda i: measure_partition(np.ones(10), (3, i)), "boundaries[1]", 5,
                 DimensionMismatch, id="measure_partition-right"),
]


class TestIntegerArguments:
    @pytest.mark.parametrize("call, name, good, error", _INTEGER_ARGUMENTS)
    @pytest.mark.parametrize("kind", [int, np.int64, float])
    def test_integral_values_are_accepted(self, call, name, good, error, kind):
        call(kind(good))

    @pytest.mark.parametrize("call, name, good, error", _INTEGER_ARGUMENTS)
    @pytest.mark.parametrize("offset", [0.7, math.nan, math.inf])
    def test_other_values_raise_the_argument_error(self, call, name, good, error, offset):
        bad = good + offset
        with pytest.raises(error, match=rf"^{re.escape(name)} must be an integer, got {bad!r}$"):
            call(bad)


class TestNetworkSpecRoundTrip:
    def test_minimal_document(self):
        doc = {
            "kappa": 1.0,
            "g_left": [1.0, 0.0],
            "g_right": [1.0, 0.0],
            "joint_left": 1,
            "joint_right": 2,
            "H_A": [[[0.0, 0.0], [-1.0, 0.0]], [[-1.0, 0.0], [0.0, 0.0]]],
            "H_B": [],
            "H_AB": [],
        }
        center, lead = parse_network_spec(json.dumps(doc))
        assert center.n_a == 2 and center.n_b == 0
        assert lead.joint_right == 2

    def test_round_trip_random_specs(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            center, lead = random_valid_center(rng, na_max=5, nb_max=4)
            text = serialize_network_spec(center, lead)
            center2, lead2 = parse_network_spec(text)
            assert center2 == center
            assert lead2 == lead
            assert serialize_network_spec(center2, lead2) == text

    def test_shipped_four_site_document(self, specs_dir):
        text = (specs_dir / "four_site_folded.json").read_text(encoding="utf-8")
        center, lead = parse_network_spec(text)
        expected_center, expected_lead = folded_four_site(FourSiteParams(1.0, 1.0))
        assert center == expected_center
        assert lead == expected_lead

    def test_rejects_unknown_fields(self):
        doc = json.loads(serialize_network_spec(*folded_four_site(FourSiteParams(1.0, 1.0))))
        doc["extra"] = 1
        with pytest.raises(ParseError, match="unknown fields: extra"):
            parse_network_spec(json.dumps(doc))

    def test_rejects_missing_fields(self):
        with pytest.raises(ParseError, match="missing fields"):
            parse_network_spec("{}")

    def test_rejects_equal_joints(self):
        doc = json.loads(serialize_network_spec(*folded_four_site(FourSiteParams(1.0, 1.0))))
        doc["joint_right"] = doc["joint_left"]
        with pytest.raises(ValueError):
            parse_network_spec(json.dumps(doc))

    def test_rejects_joint_outside_cluster_a(self):
        doc = json.loads(serialize_network_spec(*folded_four_site(FourSiteParams(1.0, 1.0))))
        doc["joint_right"] = 4  # site 4 is the cluster-B slot
        with pytest.raises(IndexOutOfRange):
            parse_network_spec(json.dumps(doc))

    def test_bad_json_reports_position(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_network_spec('{\n  "kappa": ,\n}')

    def test_bad_entry_reports_field(self):
        doc = json.loads(serialize_network_spec(*folded_four_site(FourSiteParams(1.0, 1.0))))
        doc["H_A"][0][0] = [1.0]
        with pytest.raises(ParseError, match=r"H_A\[1\]\[1\]"):
            parse_network_spec(json.dumps(doc))

    @pytest.mark.parametrize("bad, shown", [(True, "True"), ("1.5", "'1.5'")])
    @pytest.mark.parametrize("part", [0, 1])
    def test_bool_or_numeric_string_entry_is_rejected(self, bad, shown, part):
        # Both would convert silently in a whole-array conversion.
        doc = json.loads(serialize_network_spec(*folded_four_site(FourSiteParams(1.0, 1.0))))
        assert np.shape(doc["H_A"]) == (3, 3, 2)
        doc["H_A"][1][2][part] = bad
        with pytest.raises(ParseError) as excinfo:
            parse_network_spec(json.dumps(doc))
        assert str(excinfo.value) == f"field H_A[2][3]: expected a number, got {shown}"

    def test_rejects_non_hermitian_document(self):
        doc = json.loads(serialize_network_spec(*folded_four_site(FourSiteParams(1.0, 1.0))))
        doc["H_A"][0][1] = [5.0, 0.0]
        with pytest.raises(NotHermitian):
            parse_network_spec(json.dumps(doc))
