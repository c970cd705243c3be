import json
import math

import numpy as np
import pytest

from tbscatter import (
    FourSiteParams,
    GeneralPTGraphSpec,
    JointOutsideAxis,
    LeadAttachment,
    NotHermitian,
    ParseError,
    PTGraphSpec,
    assemble_full_center_matrix,
    assemble_hpt,
    check_pt_symmetry,
    fold,
    fold_generalized,
    fold_unitary,
    folded_four_site,
    four_site_center,
    parity_matrix,
    parse_network_spec,
    parse_pt_spec,
    serialize_network_spec,
    serialize_pt_spec,
    solve_rt_direct,
)
from tbscatter.verify import random_general_pt_spec, random_pt_spec


def ring_as_pt_spec(gamma: float) -> PTGraphSpec:
    """The balanced 4-site ring: axis sites (1, 3), one mirror pair (2, 4)."""
    return PTGraphSpec(
        h_gamma=np.zeros((2, 2)),
        h_alpha=np.zeros((1, 1)),
        h_gamma_alpha=np.array([[-1.0], [-1.0]]),
        h_alpha_beta=np.zeros((1, 1)),
        v=np.array([1j * gamma]),
    )


class TestAssemble:
    def test_real_potentials_give_real_symmetric_matrix(self):
        rng = np.random.default_rng(3)
        spec = random_pt_spec(rng)
        real_spec = PTGraphSpec(
            h_gamma=spec.h_gamma,
            h_alpha=spec.h_alpha,
            h_gamma_alpha=spec.h_gamma_alpha,
            h_alpha_beta=spec.h_alpha_beta,
            v=spec.v.real.astype(complex),
        )
        h = assemble_hpt(real_spec)
        assert np.abs(h.imag).max() == 0.0
        assert np.abs(h - h.T).max() == 0.0

    def test_reproduces_ring_up_to_relabeling(self):
        gamma = 0.9
        h = assemble_hpt(ring_as_pt_spec(gamma))
        raw, _ = four_site_center(FourSiteParams(gamma, gamma))
        order = [0, 2, 1, 3]  # ring sites (1, 3, 2, 4)
        np.testing.assert_array_equal(h, raw[np.ix_(order, order)])

    def test_assembled_graphs_are_pt_symmetric(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            spec = random_pt_spec(rng)
            defect = check_pt_symmetry(assemble_hpt(spec), parity_matrix(spec))
            assert defect <= 1e-12


class TestParity:
    def test_single_pair_swap(self):
        spec = ring_as_pt_spec(1.0)
        p = parity_matrix(spec)
        np.testing.assert_array_equal(p[:2, :2], np.eye(2))
        assert p[2, 3] == 1.0 and p[3, 2] == 1.0

    def test_involution(self):
        rng = np.random.default_rng(6)
        spec = random_pt_spec(rng)
        p = parity_matrix(spec)
        np.testing.assert_array_equal(p @ p, np.eye(p.shape[0]))

    def test_parity_swaps_gain_and_loss_slots(self):
        spec = ring_as_pt_spec(0.7)
        h = assemble_hpt(spec)
        p = parity_matrix(spec)
        swapped = p @ h @ p
        np.testing.assert_allclose(np.diag(swapped), np.conj(np.diag(h)), atol=1e-15)


class TestPtDefect:
    def test_real_symmetric_commuting(self):
        h = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
        p = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert check_pt_symmetry(h, p) == 0.0

    def test_unbalanced_ring_is_not_pt_symmetric(self):
        raw, _ = four_site_center(FourSiteParams(1.4, 0.2))
        p = np.eye(4)[:, [0, 3, 2, 1]].astype(complex)  # swap sites 2 and 4
        assert check_pt_symmetry(raw, p) > 0.1

    def test_balanced_ring_is_pt_symmetric(self):
        raw, _ = four_site_center(FourSiteParams(1.4, 1.4))
        p = np.eye(4)[:, [0, 3, 2, 1]].astype(complex)
        assert check_pt_symmetry(raw, p) <= 1e-12


class TestFoldUnitary:
    def test_orthogonal(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            u = fold_unitary(random_pt_spec(rng))
            assert np.abs(u @ u.T - np.eye(u.shape[0])).max() <= 1e-15

    def test_single_pair_block(self):
        spec = ring_as_pt_spec(1.0)
        u = fold_unitary(spec)
        s = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(u[2:, 2:], [[s, s], [s, -s]])

    def test_similarity_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            spec = random_pt_spec(rng)
            h = assemble_hpt(spec)
            u = fold_unitary(spec)
            folded = assemble_full_center_matrix(fold(spec))
            assert np.abs(u @ h @ u.T - folded).max() <= 1e-12


class TestFold:
    def test_real_potentials_decouple(self):
        rng = np.random.default_rng(11)
        spec = random_pt_spec(rng)
        real_spec = PTGraphSpec(
            h_gamma=spec.h_gamma,
            h_alpha=spec.h_alpha,
            h_gamma_alpha=spec.h_gamma_alpha,
            h_alpha_beta=spec.h_alpha_beta,
            v=spec.v.real.astype(complex),
        )
        center = fold(real_spec)
        assert np.abs(center.h_ab).max() == 0.0

    def test_ring_spec_folds_to_ring_center(self):
        gamma = 1.0
        center = fold(ring_as_pt_spec(gamma))
        expected, _ = folded_four_site(FourSiteParams(gamma, gamma))
        assert center == expected

    def test_joint_outside_axis(self):
        spec = ring_as_pt_spec(1.0)
        lead = LeadAttachment(kappa=1.0, g_left=1.0, g_right=1.0, joint_left=1, joint_right=3)
        with pytest.raises(JointOutsideAxis):
            fold(spec, lead)

    def test_coupling_lives_on_gain_loss_diagonal(self):
        rng = np.random.default_rng(12)
        spec = random_pt_spec(rng)
        center = fold(spec)
        assert np.abs(center.h_ab[: spec.n1, :]).max() == 0.0
        bottom = center.h_ab[spec.n1 :, :]
        np.testing.assert_array_equal(bottom, np.diag(np.diag(bottom)))

    def test_end_to_end_conservation(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            spec = random_pt_spec(rng)
            center = fold(spec)
            joints = rng.choice(spec.n1, size=2, replace=False) + 1
            lead = LeadAttachment(
                kappa=float(rng.uniform(0.5, 1.5)),
                g_left=complex(rng.standard_normal(), rng.standard_normal()) + 0.2,
                g_right=complex(rng.standard_normal(), rng.standard_normal()) + 0.2,
                joint_left=int(joints[0]),
                joint_right=int(joints[1]),
            )
            sol = solve_rt_direct(center, lead, float(rng.uniform(0.2, math.pi - 0.2)))
            assert abs(sol.deficit) <= 1e-10


class TestFoldGeneralized:
    def test_real_cross_block_reduces_to_plain_fold(self):
        rng = np.random.default_rng(14)
        plain = random_pt_spec(rng)
        general = GeneralPTGraphSpec(
            h_gamma=plain.h_gamma.astype(complex),
            h_alpha=plain.h_alpha.astype(complex),
            h_gamma_alpha=plain.h_gamma_alpha.astype(complex),
            h_alpha_beta=plain.h_alpha_beta.astype(complex),
            v=plain.v,
        )
        assert fold_generalized(general) == fold(plain)
        assert fold_generalized(plain) == fold(plain)

    def test_similarity_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            spec = random_general_pt_spec(rng)
            h = assemble_hpt(spec)
            u = fold_unitary(spec)
            folded = assemble_full_center_matrix(fold_generalized(spec))
            assert np.abs(u @ h @ u.T - folded).max() <= 1e-12

    def test_end_to_end_conservation(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            spec = random_general_pt_spec(rng)
            center = fold_generalized(spec)
            joints = rng.choice(spec.n1, size=2, replace=False) + 1
            lead = LeadAttachment(
                kappa=1.0,
                g_left=1.0 + 0.3j,
                g_right=0.8,
                joint_left=int(joints[0]),
                joint_right=int(joints[1]),
            )
            sol = solve_rt_direct(center, lead, float(rng.uniform(0.2, math.pi - 0.2)))
            assert abs(sol.deficit) <= 1e-10

    def test_rejects_non_hermitian_blocks(self):
        with pytest.raises(NotHermitian):
            GeneralPTGraphSpec(
                h_gamma=np.array([[0.0, 1.0], [0.5, 0.0]]),
                h_alpha=np.zeros((1, 1)),
                h_gamma_alpha=np.zeros((2, 1)),
                h_alpha_beta=np.zeros((1, 1)),
                v=np.zeros(1),
            )

    def test_plain_spec_rejects_imaginary_entries(self):
        with pytest.raises(ValueError, match="H_gamma_alpha"):
            PTGraphSpec(
                h_gamma=np.zeros((2, 2)),
                h_alpha=np.zeros((1, 1)),
                h_gamma_alpha=np.array([[1.0 + 2.0j], [0.5j]]),
                h_alpha_beta=np.zeros((1, 1)),
                v=np.array([1j]),
            )


class TestPtSpecDocuments:
    def test_round_trip_plain(self):
        rng = np.random.default_rng(17)
        spec = random_pt_spec(rng)
        text = serialize_pt_spec(spec)
        spec2 = parse_pt_spec(text)
        assert isinstance(spec2, PTGraphSpec)
        np.testing.assert_array_equal(spec2.h_gamma, spec.h_gamma)
        np.testing.assert_array_equal(spec2.v, spec.v)
        assert serialize_pt_spec(spec2) == text

    def test_round_trip_generalized(self):
        rng = np.random.default_rng(18)
        spec = random_general_pt_spec(rng)
        text = serialize_pt_spec(spec)
        spec2 = parse_pt_spec(text)
        assert isinstance(spec2, GeneralPTGraphSpec)
        np.testing.assert_array_equal(spec2.h_gamma_alpha, spec.h_gamma_alpha)
        assert serialize_pt_spec(spec2) == text

    def test_shipped_document_matches_ring(self, specs_dir):
        text = (specs_dir / "four_site_pt.json").read_text(encoding="utf-8")
        spec = parse_pt_spec(text)
        assert fold(spec) == folded_four_site(FourSiteParams(1.0, 1.0))[0]

    def test_rejects_unknown_fields(self):
        spec = ring_as_pt_spec(1.0)
        doc = json.loads(serialize_pt_spec(spec))
        doc["bogus"] = []
        with pytest.raises(ParseError, match="unknown fields: bogus"):
            parse_pt_spec(json.dumps(doc))

    def test_rejects_wrong_shapes(self):
        spec = ring_as_pt_spec(1.0)
        doc = json.loads(serialize_pt_spec(spec))
        doc["H_gamma_alpha"] = [[1.0]]
        with pytest.raises(ParseError, match="H_gamma_alpha"):
            parse_pt_spec(json.dumps(doc))

    @pytest.mark.parametrize("empty", [[], [[]]])
    @pytest.mark.parametrize(
        "field, generalized",
        [("H_AB", None)]
        + [
            (name, generalized)
            for name in ("H_gamma", "H_alpha", "H_alpha_beta", "H_gamma_alpha")
            for generalized in (False, True)
        ],
    )
    def test_empty_field_needs_a_zero_dimension(self, field, generalized, empty):
        if generalized is None:
            doc = json.loads(serialize_network_spec(*folded_four_site(FourSiteParams(1.0, 1.0))))
            parse = parse_network_spec
        else:
            rng = np.random.default_rng(19)
            spec = random_general_pt_spec(rng) if generalized else ring_as_pt_spec(1.0)
            doc = json.loads(serialize_pt_spec(spec))
            parse = parse_pt_spec
        doc[field] = empty
        with pytest.raises(ParseError, match=f"field {field}: expected shape"):
            parse(json.dumps(doc))

    def test_rejects_wrong_potential_count(self):
        spec = ring_as_pt_spec(1.0)
        doc = json.loads(serialize_pt_spec(spec))
        doc["V"] = [[0.0, 1.0], [0.0, 2.0]]
        with pytest.raises(ParseError, match="V"):
            parse_pt_spec(json.dumps(doc))
