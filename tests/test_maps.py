"""Tests for Bloch decomposition, map expansions, Choi states, and inversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsbasis.bases import (
    MatrixBasis,
    gellmann_basis,
    random_basis,
    random_unitary,
    rotated_basis,
    standard_basis,
    validate_basis,
    weyl_basis,
)
from hsbasis.linalg import (
    apply_superop,
    partial_trace,
    partial_transpose,
    reshuffle,
    sandwich_sum,
    tensor,
    tolerance,
)
from hsbasis.maps import (
    Superoperator,
    apply_via_choi,
    bloch_decompose,
    bloch_reconstruct,
    choi_state,
    concurrence_squared,
    identity_map,
    partial_transpose_map,
    reshuffle_map,
    state_inversion,
    state_inversion_two,
    state_inversion_y,
    superop_from_action,
    trace_map,
    transpose_map,
)
from hsbasis.operators import (
    bell_expansion,
    bell_projector,
    bell_state,
    swap_expansion,
    swap_operator,
)
from hsbasis.transforms import change_of_basis, to_standard

from hsbasis import bases, identities, linalg, maps, operators
from hsbasis.identities import run_catalogue

import oracles

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)

BUILTINS = [standard_basis, gellmann_basis, weyl_basis]


def all_bases(d, seed):
    return [b(d) for b in BUILTINS] + [random_basis(d, seed)]


class TestBloch:
    def test_sigma3_coefficients(self):
        bloch = bloch_decompose(SIGMA_3, gellmann_basis(2))
        assert np.allclose(bloch.coeffs, [0, 0, 0, 2], atol=1e-14)

    def test_qubit_density_matrix(self):
        rng = np.random.default_rng(1)
        # random qubit state: Bloch coefficients are real with r_0 = 1
        v = oracles.random_state(2, rng)
        rho = np.outer(v, v.conj())
        bloch = bloch_decompose(rho, gellmann_basis(2))
        assert np.abs(bloch.coeffs.imag).max() <= 1e-14
        assert bloch.coeffs[0] == pytest.approx(1.0)
        assert np.allclose(bloch_reconstruct(bloch, gellmann_basis(2)), rho, atol=1e-14)

    @pytest.mark.parametrize("builder", [gellmann_basis, weyl_basis])
    def test_identity_hits_only_00(self, builder):
        d = 4
        bloch = bloch_decompose(np.eye(d), builder(d))
        assert bloch.coeffs[0] == pytest.approx(d)
        assert np.abs(bloch.coeffs[1:]).max() <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_round_trip_and_purity(self, d):
        rng = np.random.default_rng(40 + d)
        a = oracles.random_matrix(d, rng)
        for b in all_bases(d, 40 + d):
            bloch = bloch_decompose(a, b)
            assert np.linalg.norm(bloch_reconstruct(bloch, b) - a) <= tolerance(d)
            assert bloch.squared_length == pytest.approx(
                float(np.vdot(a, a).real), rel=1e-12
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="must be"):
            bloch_decompose(np.eye(3), gellmann_basis(2))
        with pytest.raises(ValueError, match="coefficients"):
            bloch_reconstruct(np.ones(5), gellmann_basis(2))


class TestTraceMap:
    def test_traceless_input_vanishes(self):
        out = trace_map(SIGMA_1, gellmann_basis(2))
        assert np.abs(out).max() <= 1e-14

    def test_random_input_weyl_d4(self):
        rng = np.random.default_rng(2)
        a = oracles.random_matrix(4, rng)
        out = trace_map(a, weyl_basis(4))
        assert np.linalg.norm(out - np.trace(a) * np.eye(4)) <= tolerance(4)

    @pytest.mark.parametrize("d", [2, 3])
    def test_projector_in_standard_basis(self, d):
        p0 = np.zeros((d, d), dtype=complex)
        p0[0, 0] = 1.0
        assert np.allclose(trace_map(p0, standard_basis(d)), np.eye(d), atol=1e-14)


class TestIdentityMap:
    def test_standard_basis_reproduces_input(self):
        rng = np.random.default_rng(3)
        a = oracles.random_matrix(3, rng)
        assert np.allclose(identity_map(a, standard_basis(3)), a, atol=1e-13)

    def test_random_hermitian_gellmann_d3(self):
        rng = np.random.default_rng(4)
        a = oracles.random_hermitian(3, rng)
        assert np.linalg.norm(identity_map(a, gellmann_basis(3)) - a) <= 3 * tolerance(3)

    @pytest.mark.parametrize("d", [2, 3])
    def test_inner_sum_is_bloch_reconstruction(self, d):
        # (1/d) sum_lm Tr(g_lm^dag A) g_lm recovers A, matching the double sum
        rng = np.random.default_rng(5)
        a = oracles.random_matrix(d, rng)
        for b in all_bases(d, 55 + d):
            via_bloch = bloch_reconstruct(bloch_decompose(a, b), b)
            via_double = identity_map(a, b)
            assert np.linalg.norm(via_bloch - via_double) <= tolerance(d) * d


class TestTransposeMap:
    def test_sigma2_flips_sign(self):
        assert np.allclose(transpose_map(SIGMA_2, gellmann_basis(2)), -SIGMA_2, atol=1e-14)

    def test_random_input_weyl_d5(self):
        rng = np.random.default_rng(6)
        a = oracles.random_matrix(5, rng)
        assert np.linalg.norm(transpose_map(a, weyl_basis(5)) - a.T) <= tolerance(5)

    def test_double_transpose_is_identity(self):
        rng = np.random.default_rng(7)
        a = oracles.random_matrix(3, rng)
        b = random_basis(3, 8)
        assert np.allclose(transpose_map(transpose_map(a, b), b), a, atol=1e-12)


class TestPartialTransposeMap:
    @pytest.mark.parametrize("d", [2, 3])
    def test_swap_becomes_bell(self, d):
        out = partial_transpose_map(swap_operator(d), 2, gellmann_basis(d))
        assert np.linalg.norm(out - d * bell_projector(d)) <= tolerance(d)

    def test_product_operator(self):
        rng = np.random.default_rng(9)
        a = oracles.random_matrix(3, rng)
        b = oracles.random_matrix(3, rng)
        out = partial_transpose_map(tensor(a, b), 2, weyl_basis(3))
        assert np.linalg.norm(out - tensor(a, b.T)) <= tolerance(3)

    @pytest.mark.parametrize("party", [1, 2])
    def test_random_operator_matches_raw(self, party):
        d = 3
        rng = np.random.default_rng(10 + party)
        m = oracles.random_matrix(d * d, rng)
        out = partial_transpose_map(m, party, weyl_basis(d))
        assert np.linalg.norm(out - partial_transpose(m, party, d)) <= tolerance(d)

    def test_bad_party(self):
        with pytest.raises(ValueError, match="party"):
            partial_transpose_map(np.eye(4), 0, gellmann_basis(2))

    @pytest.mark.parametrize("party", [1, 2])
    def test_wrong_size_rejected(self, party):
        with pytest.raises(ValueError, match="local dimension 3 must be 9x9"):
            partial_transpose_map(np.eye(4), party, gellmann_basis(3))


class TestReshuffleMap:
    @pytest.mark.parametrize("d", [2, 3])
    def test_identity_becomes_bell(self, d):
        out = reshuffle_map(np.eye(d * d), gellmann_basis(d))
        assert np.linalg.norm(out - d * bell_projector(d)) <= tolerance(d)

    def test_single_entry(self):
        d = 3
        m = np.zeros((d * d, d * d), dtype=complex)
        m[0 * d + 1, 2 * d + 2] = 1.0  # |01><22|
        expected = np.zeros_like(m)
        expected[0 * d + 2, 1 * d + 2] = 1.0  # |02><12|
        out = reshuffle_map(m, weyl_basis(d))
        assert np.linalg.norm(out - expected) <= tolerance(d)

    def test_random_operator_random_basis(self):
        d = 3
        rng = np.random.default_rng(12)
        m = oracles.random_matrix(d * d, rng)
        out = reshuffle_map(m, random_basis(d, 13))
        assert np.linalg.norm(out - reshuffle(m, d)) <= tolerance(d)

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError, match="local dimension 2 must be 4x4"):
            reshuffle_map(np.eye(9), weyl_basis(2))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
def test_map_expansions_basis_independent(d):
    rng = np.random.default_rng(900 + d)
    single = oracles.random_matrix(d, rng)
    double = oracles.random_matrix(d * d, rng)
    superop = Superoperator(d, oracles.random_matrix(d * d, rng))
    for b in all_bases(d, 900 + d):
        assert np.linalg.norm(trace_map(single, b) - np.trace(single) * np.eye(d)) <= tolerance(d)
        assert np.linalg.norm(transpose_map(single, b) - single.T) <= tolerance(d)
        assert np.linalg.norm(identity_map(single, b) - single) <= tolerance(d) * d
        for party in (1, 2):
            assert np.linalg.norm(
                partial_transpose_map(double, party, b)
                - oracles.partial_transpose_loops(double, party, d)
            ) <= tolerance(d)
        assert np.linalg.norm(
            reshuffle_map(double, b) - oracles.reshuffle_loops(double, d)
        ) <= tolerance(d)
        # C_L[(a,j),(b,l)] = (1/d) L(|j><l|)[a,b]: the reshuffled superoperator matrix
        assert np.linalg.norm(
            choi_state(superop, b).matrix - oracles.reshuffle_loops(superop.matrix, d) / d
        ) <= tolerance(d)
    herm = oracles.random_hermitian(d * d, rng)
    eye = np.eye(d)
    closed_form = (
        np.trace(herm) * np.eye(d * d)
        - oracles.kron_loops(oracles.partial_trace_loops(herm, 2, d), eye)
        - oracles.kron_loops(eye, oracles.partial_trace_loops(herm, 1, d))
        + herm
    )
    assert np.linalg.norm(state_inversion_two(herm) - closed_form) <= tolerance(d * d)


def _expansions(basis, single, herm, double):
    """Every basis-expanded map and operator of one basis, on fixed operands."""
    out = {
        "trace_map": trace_map(single, basis),
        "transpose_map": transpose_map(single, basis),
        "identity_map": identity_map(single, basis),
        "state_inversion": state_inversion(herm, basis),
        "reshuffle_map": reshuffle_map(double, basis),
        "choi_state": choi_state(superop_from_action(lambda g: g.T, basis), basis).matrix,
        "swap_expansion": swap_expansion(basis),
        "bell_expansion": bell_expansion(basis),
    }
    for party in (1, 2):
        out[f"partial_transpose_map_{party}"] = partial_transpose_map(double, party, basis)
    return out


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    d=st.integers(2, 5),
    builder=st.sampled_from(BUILTINS),
    seed=st.integers(0, 2**32 - 1),
)
def test_basis_rotation_leaves_every_map_unchanged(d, builder, seed):
    """h = U g for a Haar-random unitary U is again an orthogonal basis with the same maps."""
    rng = np.random.default_rng([1, seed])  # a stream apart from the one that draws U
    operands = (
        oracles.random_matrix(d, rng),
        oracles.random_hermitian(d, rng),
        oracles.random_matrix(d * d, rng),
    )
    basis = builder(d)
    before = _expansions(basis, *operands)
    after = _expansions(rotated_basis(basis, random_unitary(d * d, seed)), *operands)
    for name, value in before.items():
        assert np.linalg.norm(after[name] - value) <= tolerance(d), name


class TestSuperoperators:
    def test_identity_action(self):
        b = gellmann_basis(3)
        superop = superop_from_action(lambda g: g, b)
        assert np.allclose(superop.matrix, np.eye(9), atol=1e-13)

    def test_transpose_action_matches_map(self):
        d = 3
        rng = np.random.default_rng(14)
        a = oracles.random_matrix(d, rng)
        for b in (standard_basis(d), weyl_basis(d)):
            superop = superop_from_action(lambda g: g.T, b)
            assert np.allclose(superop.apply(a), transpose_map(a, b), atol=1e-12)
            assert np.allclose(superop.apply(a), a.T, atol=1e-12)

    def test_trace_action_matches_map(self):
        d = 3
        rng = np.random.default_rng(15)
        a = oracles.random_matrix(d, rng)
        b = gellmann_basis(d)
        superop = superop_from_action(lambda g: np.trace(g) * np.eye(d), b)
        assert np.allclose(superop.apply(a), trace_map(a, b), atol=1e-12)

    def test_linearity(self):
        d = 2
        rng = np.random.default_rng(16)
        superop = Superoperator(d, oracles.random_matrix(d * d, rng))
        a1 = oracles.random_matrix(d, rng)
        a2 = oracles.random_matrix(d, rng)
        combined = superop.apply(0.3 * a1 + 2j * a2)
        assert np.allclose(combined, 0.3 * superop.apply(a1) + 2j * superop.apply(a2))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"image of element 0 must be 3x3, got \(2, 2\)"):
            superop_from_action(lambda g: g[:2, :2], gellmann_basis(3))
        with pytest.raises(ValueError, match=r"must be 4x4, got \(9, 9\)"):
            Superoperator(2, np.eye(9))

    def test_nested_lists_are_held_as_a_complex_array(self):
        superop = Superoperator(2, np.eye(4).tolist())
        assert superop.matrix.dtype == complex and superop.matrix.shape == (4, 4)
        assert np.array_equal(superop.apply(np.eye(2).tolist()), np.eye(2))

    @pytest.mark.parametrize(
        "image, shape",
        [
            (lambda g: complex(g[0, 0]), ()),
            (lambda g: g[0], (3,)),
            (lambda g: g[:1], (1, 3)),  # would broadcast over the 3x3 slot
            (lambda g: g[..., None], (3, 3, 1)),
            (lambda g: np.eye(4), (4, 4)),
        ],
        ids=["scalar", "vector", "broadcastable_row", "trailing_axis", "too_large"],
    )
    def test_wrong_shaped_image_names_element_and_shapes(self, image, shape):
        calls = []

        def action(g):
            calls.append(g)
            return image(g) if len(calls) == 5 else g

        with pytest.raises(ValueError) as caught:
            superop_from_action(action, weyl_basis(3))
        assert str(caught.value) == f"the image of element 4 must be 3x3, got {shape}"
        assert len(calls) == 5  # stops at the first wrong image

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_action_called_once_per_element_in_order(self, d):
        basis = random_basis(d, 60 + d)
        seen = []
        superop_from_action(lambda g: seen.append(g) or g.T, basis)
        assert len(seen) == d * d
        assert np.array_equal(np.stack(seen), basis.elements)


class TestChoi:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_identity_map_gives_bell(self, d):
        b = gellmann_basis(d)
        c = choi_state(superop_from_action(lambda g: g, b), b)
        assert np.linalg.norm(c.matrix - bell_projector(d)) <= 1e-12 * d * d

    def test_transpose_map_gives_swap(self):
        d = 3
        b = weyl_basis(d)
        c = choi_state(superop_from_action(lambda g: g.T, b), b)
        assert np.linalg.norm(c.matrix - swap_operator(d) / d) <= tolerance(d)

    def test_trace_map_gives_maximally_mixed(self):
        d = 3
        b = gellmann_basis(d)
        c = choi_state(superop_from_action(lambda g: np.trace(g) * np.eye(d), b), b)
        assert np.linalg.norm(c.matrix - np.eye(d * d) / d) <= tolerance(d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_round_trip_random_superoperators(self, d):
        rng = np.random.default_rng(800 + d)
        for trial in range(10):
            b = all_bases(d, 800 + d)[trial % 4]
            superop = Superoperator(d, oracles.random_matrix(d * d, rng))
            c = choi_state(superop, b)
            for _ in range(10):
                a = oracles.random_matrix(d, rng)
                assert np.linalg.norm(
                    apply_via_choi(c, a) - superop.apply(a)
                ) <= 1e-9 * d * d

    @pytest.mark.parametrize("d", range(2, 9))
    @pytest.mark.parametrize("builder", BUILTINS, ids=lambda b: b.__name__)
    def test_read_out_matches_partial_trace_formula(self, builder, d):
        rng = np.random.default_rng(900 + d)
        b = builder(d)
        c = choi_state(Superoperator(d, oracles.random_matrix(d * d, rng)), b)
        for _ in range(3):
            a = oracles.random_matrix(d, rng)
            expected = oracles.apply_via_choi_partial_trace(c.matrix, a, d)
            assert np.linalg.norm(apply_via_choi(c, a) - expected) <= tolerance(d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_is_the_reshuffled_superoperator_on_a_non_orthogonal_stack(self, d):
        # Gaussian elements obey no orthogonality relation, so a Choi matrix that
        # read the elements instead of S alone could not match
        rng = np.random.default_rng(940 + d)
        g = np.array([oracles.random_matrix(d, rng) for _ in range(d * d)])
        superop = Superoperator(d, oracles.random_matrix(d * d, rng))
        got = choi_state(superop, MatrixBasis(d, g)).matrix
        assert np.array_equal(got, oracles.reshuffle_loops(superop.matrix, d) / d)

    def test_reads_no_basis_sum(self):
        class Unsummed(MatrixBasis):
            @property
            def bell_sum(self):
                raise AssertionError("choi_state read the basis sum")

        d = 3
        superop = superop_from_action(lambda g: g.T, weyl_basis(d))
        c = choi_state(superop, Unsummed(d, weyl_basis(d).elements))
        assert np.linalg.norm(c.matrix - swap_operator(d) / d) <= tolerance(d)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            choi_state(Superoperator(2, np.eye(4)), gellmann_basis(3))


class TestStateInversion:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_identity_input(self, d):
        out = state_inversion(np.eye(d), gellmann_basis(d))
        assert np.linalg.norm(out - (d - 1) * np.eye(d)) <= tolerance(d)

    def test_rank_one_projector(self):
        d = 3
        p0 = np.zeros((d, d), dtype=complex)
        p0[0, 0] = 1.0
        out = state_inversion(p0, weyl_basis(d))
        assert np.linalg.norm(out - (np.eye(d) - p0)) <= tolerance(d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_three_forms_agree(self, d):
        rng = np.random.default_rng(60 + d)
        a = oracles.random_hermitian(d, rng)
        analytic = np.trace(a) * np.eye(d) - a
        for b in all_bases(d, 60 + d):
            assert np.linalg.norm(state_inversion(a, b) - analytic) <= tolerance(d)
        assert np.linalg.norm(state_inversion_y(a) - analytic) <= tolerance(d)

    def test_non_hermitian_rejected(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValueError, match="Hermitian"):
            state_inversion(oracles.random_matrix(3, rng), gellmann_basis(3))
        with pytest.raises(ValueError, match="Hermitian"):
            state_inversion_y(oracles.random_matrix(3, rng))

    def test_nan_input_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            state_inversion(np.full((2, 2), np.nan), weyl_basis(2))

    @pytest.mark.parametrize("shape", [(2, 3), (4,), (), (0, 0), (2, 2, 2)])
    def test_y_form_rejects_non_square_input(self, shape):
        with pytest.raises(ValueError, match=r"^state-inversion input must be \d+x\d+, got"):
            state_inversion_y(np.zeros(shape))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_preserves_positivity(self, d):
        rng = np.random.default_rng(70 + d)
        a = oracles.random_matrix(d, rng)
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        out = state_inversion(rho, gellmann_basis(d))
        assert np.trace(out).real == pytest.approx(d - 1, rel=1e-12)
        assert np.linalg.eigvalsh(out).min() >= -tolerance(d)


class TestStateInversionTwo:
    @pytest.mark.parametrize("d", [2, 3])
    def test_identity_input(self, d):
        out = state_inversion_two(np.eye(d * d))
        assert np.linalg.norm(out - (d - 1) ** 2 * np.eye(d * d)) <= tolerance(d * d)

    def _four_term(self, b, d):
        return (
            np.trace(b) * np.eye(d * d)
            - tensor(partial_trace(b, 2, d), np.eye(d))
            - tensor(np.eye(d), partial_trace(b, 1, d))
            + b
        )

    def test_bell_projector_d2(self):
        p = bell_projector(2)
        out = state_inversion_two(p)
        assert np.linalg.norm(out - self._four_term(p, 2)) <= tolerance(4)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_four_term_oracle(self, d):
        rng = np.random.default_rng(80 + d)
        b = oracles.random_hermitian(d * d, rng)
        out = state_inversion_two(b)
        assert np.linalg.norm(out - self._four_term(b, d)) <= tolerance(d * d)

    def test_non_hermitian_rejected(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError, match="Hermitian"):
            state_inversion_two(oracles.random_matrix(4, rng))

    @pytest.mark.parametrize("shape", [(4, 3), (16,), ()])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match=r"^two-party operator must be \d+x\d+, got \("):
            state_inversion_two(np.zeros(shape))


class TestConcurrence:
    def test_product_state_vanishes(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0  # |00>
        assert concurrence_squared(psi) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_bell_state_value(self, d):
        # independent oracle: C^2 = 2 (1 - Tr rho_1^2)
        psi = bell_state(d)
        expected = 2.0 * (1.0 - oracles.reduced_purity(psi, d))
        assert concurrence_squared(psi) == pytest.approx(expected, abs=1e-12)
        assert concurrence_squared(psi) == pytest.approx(2.0 * (1.0 - 1.0 / d), abs=1e-12)

    @pytest.mark.parametrize("d", range(2, 17))
    def test_random_state_matches_reduced_purity(self, d):
        rng = np.random.default_rng(85 + d)
        for _ in range(3):
            psi = oracles.random_state(d * d, rng)
            expected = 2.0 * (1.0 - oracles.reduced_purity(psi, d))
            assert abs(concurrence_squared(psi) - expected) <= tolerance(d)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_matches_two_party_state_inversion(self, d):
        rng = np.random.default_rng(140 + d)
        for _ in range(3):
            psi = oracles.random_state(d * d, rng)
            inverted = state_inversion_two(np.outer(psi, psi.conj()))
            expected = float(np.vdot(psi, inverted @ psi).real)
            assert abs(concurrence_squared(psi) - expected) <= tolerance(d)

    def test_reads_the_y_stack_not_the_two_party_inversion(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("concurrence_squared must not build a d^2 x d^2 inversion")

        monkeypatch.setattr(maps, "state_inversion_two", forbidden)
        monkeypatch.setattr(maps, "sandwich_sum", forbidden)
        monkeypatch.setattr(linalg, "sandwich_sum", forbidden)
        for d in (2, 3, 5):
            psi = bell_state(d)
            assert concurrence_squared(psi) == pytest.approx(2.0 * (1.0 - 1.0 / d), abs=1e-12)

    def test_d2_bell_is_one(self):
        assert concurrence_squared(bell_state(2)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_y_sum_formula(self, d):
        from hsbasis.bases import gellmann_y_elements

        rng = np.random.default_rng(90 + d)
        psi = oracles.random_state(d * d, rng)
        ys = gellmann_y_elements(d)
        total = 0.0
        for yl in ys:
            for yr in ys:
                total += abs(np.vdot(psi, tensor(yl, yr) @ psi.conj())) ** 2
        assert concurrence_squared(psi) == pytest.approx(4.0 * total / d**2, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_local_unitary_invariance(self, d):
        rng = np.random.default_rng(95 + d)
        psi = oracles.random_state(d * d, rng)
        base = concurrence_squared(psi)
        for _ in range(5):
            u1 = random_unitary(d, rng)
            u2 = random_unitary(d, rng)
            rotated = tensor(u1, u2) @ psi
            assert concurrence_squared(rotated) == pytest.approx(base, abs=1e-9)

    def test_range_bound(self):
        d = 3
        rng = np.random.default_rng(19)
        for _ in range(20):
            psi = oracles.random_state(d * d, rng)
            value = concurrence_squared(psi)
            assert 0.0 <= value <= 2.0 * (1 - 1.0 / d) + tolerance(d)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            concurrence_squared(np.ones(4))

    def test_nan_state_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            concurrence_squared(np.array([np.nan, 0, 0, 0]))

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            concurrence_squared(np.ones(5) / np.sqrt(5))


def count_kron_sums(monkeypatch):
    """Count every kron_sum call, also those made through sandwich_sum."""
    calls = []
    original = linalg.kron_sum

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (linalg, bases, maps, operators, identities):
        if hasattr(module, "kron_sum"):
            monkeypatch.setattr(module, "kron_sum", counted)
    return calls


class TestSharedBasisSums:
    """Validation, every basis-sum map and expansion read the one sum the basis builds once."""

    def test_everything_on_one_basis_builds_one_sum(self, monkeypatch):
        calls = count_kron_sums(monkeypatch)
        d = 3
        b = rotated_basis(weyl_basis(d), random_unitary(d * d, np.random.default_rng(5)))
        a = oracles.random_hermitian(d, np.random.default_rng(6))
        assert validate_basis(b).all_passed
        to_standard(b)
        swap = swap_expansion(b)
        bell_expansion(b)
        for party in (1, 2):
            partial_transpose_map(swap, party, b)
        reshuffle_map(swap, b)
        for one_party_map in (trace_map, transpose_map, identity_map, state_inversion):
            one_party_map(a, b)
        choi_state(superop_from_action(lambda g: g.T, b), b)
        assert run_catalogue(b).all_passed
        assert len(calls) == 1

    @pytest.mark.parametrize("d", range(2, 9))
    @pytest.mark.parametrize("builder", BUILTINS, ids=lambda b: b.__name__)
    def test_sums_are_the_superoperators_the_maps_built_per_call(self, builder, d):
        b = rotated_basis(builder(d), random_unitary(d * d, np.random.default_rng(d)))
        g = b.elements
        gd = g.conj().swapaxes(1, 2)
        assert b.swap_sum.tobytes() == sandwich_sum(g, g.conj()).tobytes()
        assert b.bell_sum.tobytes() == sandwich_sum(g, gd).tobytes()
        h = oracles.random_hermitian(d, np.random.default_rng(40 + d))
        fresh = apply_superop(sandwich_sum(g, gd - g.conj()), h.conj()) / d
        assert np.linalg.norm(state_inversion(h, b) - fresh) <= 1e-3 * tolerance(d)


def _haar_weyl(d, seed):
    return rotated_basis(weyl_basis(d), random_unitary(d * d, np.random.default_rng(seed)))


@pytest.mark.parametrize("d", range(2, 9))
def test_reciprocal_scaling_matches_division_bit_for_bit(d):
    # x * (1/d) is numpy's complex division by d, so every nonzero entry keeps its bits
    rng = np.random.default_rng(700 + d)
    bases_of_d = all_bases(d, 710 + d) + [_haar_weyl(d, 720 + d)]
    b = oracles.random_matrix(d * d, rng)
    k = oracles.random_matrix(d, rng)

    def action(g):
        return k @ g @ k.conj().T

    for basis in bases_of_d:
        superop = superop_from_action(action, basis)
        pairs = [
            (partial_transpose_map(b, p, basis), oracles.partial_transpose_map_divided(b, p, basis))
            for p in (1, 2)
        ]
        pairs += [
            (reshuffle_map(b, basis), oracles.reshuffle_map_divided(b, basis)),
            (superop.matrix, oracles.superop_from_action_divided(action, basis)),
            (choi_state(superop, basis).matrix, oracles.choi_matrix_divided(superop.matrix, d)),
        ]
        pairs += [
            (change_of_basis(t, basis).coeffs, oracles.change_of_basis_divided(t, basis))
            for t in bases_of_d
        ]
        for got, want in pairs:
            # == is bitwise on nonzero finite entries and lets an exact zero change sign
            assert np.isfinite(want).all() and np.array_equal(got, want), basis.kind


class TestOrthogonalityCheckWithoutReport:
    """rotated_basis and change_of_basis judge the cached residual, not a validate_basis report."""

    @pytest.fixture(autouse=True)
    def no_report(self, monkeypatch):
        def refused(basis):
            raise AssertionError("validate_basis called")

        monkeypatch.setattr(bases, "validate_basis", refused)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_orthogonal_bases_pass(self, d):
        basis = _haar_weyl(d, 730 + d)
        assert change_of_basis(gellmann_basis(d), basis).coeffs.shape == (d * d, d * d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_non_orthogonal_bases_raise_their_messages(self, d):
        u = np.eye(d * d, dtype=complex)
        u[0, 0] = 1.5
        with pytest.raises(ValueError, match=r"not unitary.*residual \d\.\d{3}e[+-]\d+\)$"):
            rotated_basis(standard_basis(d), u)
        skewed = MatrixBasis(d, weyl_basis(d).elements * np.linspace(1, 2, d * d)[:, None, None])
        weyl = weyl_basis(d)
        for which, pair in [("target", (skewed, weyl)), ("source", (weyl, skewed))]:
            with pytest.raises(ValueError, match=rf"^{which} basis is not orthogonal.*residual"):
                change_of_basis(*pair)


class TestNonOrthogonalBasisRefused:
    """The maps that read a basis sum refuse a basis that fails validation; the others do not."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_sum_reading_maps_raise_the_transforms_wording(self, d):
        skewed = MatrixBasis(d, weyl_basis(d).elements * np.linspace(1, 2, d * d)[:, None, None])
        a, b = np.eye(d), np.eye(d * d)
        calls = [
            lambda: trace_map(a, skewed),
            lambda: transpose_map(a, skewed),
            lambda: identity_map(a, skewed),
            lambda: partial_transpose_map(b, 2, skewed),
            lambda: reshuffle_map(b, skewed),
            lambda: state_inversion(a, skewed),
        ]
        pattern = (
            r"^basis is not orthogonal with the dimension-d normalization "
            r"\(completeness residual \d\.\d{3}e[+-]\d+\)$"
        )
        for call in calls:
            with pytest.raises(ValueError, match=pattern):
                call()
        # neither reads a sum, so neither checks one
        assert superop_from_action(lambda g: g, skewed).matrix.shape == (d * d, d * d)
        assert bloch_decompose(a, skewed).coeffs.shape == (d * d,)
