"""Tests for SWAP, the Bell projector, the coherent state, and their expansions."""

import numpy as np
import pytest

from hsbasis.bases import (
    gellmann_basis,
    random_basis,
    split_diag_offdiag,
    standard_basis,
    weyl_basis,
)
from hsbasis.linalg import partial_trace, partial_transpose, tensor, tolerance
from hsbasis.operators import (
    bell_expansion,
    bell_projector,
    bell_state,
    coherent_expansion,
    coherent_state,
    swap_diag_expansion,
    swap_expansion,
    swap_operator,
)

import oracles

BUILTINS = [standard_basis, gellmann_basis, weyl_basis]


@pytest.mark.parametrize("d", range(2, 33))
def test_fixed_operators_bit_identical_to_loops(d):
    assert swap_operator(d).tobytes() == oracles.swap_operator_loops(d).tobytes()
    assert bell_state(d).tobytes() == oracles.bell_state_loops(d).tobytes()
    assert bell_projector(d).tobytes() == oracles.bell_projector_loops(d).tobytes()


@pytest.mark.parametrize("d", [np.uint8(16), np.int8(12)], ids=repr)
@pytest.mark.parametrize("builder", [swap_operator, bell_state, bell_projector, coherent_state])
def test_narrow_numpy_integer_dimension_builds_the_int_operator(builder, d):
    # d * d overflows in these types, so each builder must leave them before it multiplies
    assert builder(d).tobytes() == builder(int(d)).tobytes()


class TestSwapOperator:
    def test_d2_permutation(self):
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 1.0
        expected[1, 2] = expected[2, 1] = 1.0
        assert np.array_equal(swap_operator(2), expected)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_exchanges_product_vectors(self, d):
        rng = np.random.default_rng(d)
        psi = oracles.random_state(d, rng)
        phi = oracles.random_state(d, rng)
        swapped = swap_operator(d) @ np.kron(psi, phi)
        assert np.allclose(swapped, np.kron(phi, psi), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_trace_hermiticity_involution(self, d):
        s = swap_operator(d)
        assert np.trace(s) == pytest.approx(d)
        assert np.array_equal(s, s.conj().T)
        assert np.array_equal(s @ s, np.eye(d * d))

    def test_dimension_error(self):
        with pytest.raises(ValueError, match="at least 2"):
            swap_operator(1)


class TestSwapExpansion:
    def test_pauli_form(self):
        b = gellmann_basis(2)
        manual = sum(tensor(g, g) for g in b.elements) / 2  # Hermitian: dagger drops
        assert np.allclose(swap_expansion(b), manual, atol=1e-14)
        assert np.allclose(manual, swap_operator(2), atol=1e-14)

    def test_weyl_d3(self):
        assert (
            np.linalg.norm(swap_expansion(weyl_basis(3)) - swap_operator(3))
            <= tolerance(3)
        )

    def test_random_rotation_d4(self):
        b = random_basis(4, 12)
        assert np.linalg.norm(swap_expansion(b) - swap_operator(4)) <= tolerance(4)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_isotropy_over_random_bases(self, d):
        target_swap = swap_operator(d)
        target_bell = bell_projector(d)
        rng = np.random.default_rng(1000 + d)
        for _ in range(50):
            b = random_basis(d, rng)
            assert np.linalg.norm(swap_expansion(b) - target_swap) <= tolerance(d)
            assert np.linalg.norm(bell_expansion(b) - target_bell) <= tolerance(d)


class TestSwapDiagExpansion:
    def test_weyl_d2(self):
        out = swap_diag_expansion(weyl_basis(2))
        assert np.allclose(out, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gellmann_matches_diagonal_projector(self, d):
        expected = np.zeros((d * d, d * d))
        for j in range(d):
            expected[j * d + j, j * d + j] = 1.0
        assert np.allclose(swap_diag_expansion(gellmann_basis(d)), expected, atol=1e-13)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_offdiagonal_complement(self, d):
        b = weyl_basis(d)
        split = split_diag_offdiag(b)
        off = b.elements[list(split.offdiagonal)]
        complement = sum(tensor(g, g.conj().T) for g in off) / d
        assert np.allclose(
            complement, swap_expansion(b) - swap_diag_expansion(b), atol=1e-13
        )

    def test_no_split_raises(self):
        with pytest.raises(ValueError, match="split"):
            swap_diag_expansion(random_basis(2, 3))


class TestBellState:
    def test_d2_vector(self):
        assert np.allclose(bell_state(2), np.array([1, 0, 0, 1]) / np.sqrt(2))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_projector_properties(self, d):
        p = bell_projector(d)
        assert np.linalg.norm(bell_state(d)) == pytest.approx(1.0)
        assert np.allclose(p @ p, p, atol=1e-14)
        assert np.linalg.matrix_rank(p) == 1
        assert np.all(np.linalg.eigvalsh(p) >= -1e-14)

    @pytest.mark.parametrize("party", [1, 2])
    def test_reduction_is_maximally_mixed(self, party):
        d = 4
        assert np.allclose(partial_trace(bell_projector(d), party, d), np.eye(d) / d)


class TestBellExpansion:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_standard_basis(self, d):
        assert np.allclose(bell_expansion(standard_basis(d)), bell_projector(d), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_gellmann_split_form(self, d):
        # x (x) x - y (x) y over pairs, plus z (x) z over diagonal elements
        b = gellmann_basis(d)
        acc = np.zeros((d * d, d * d), dtype=complex)
        for k in range(d):
            for l in range(k + 1, d):
                x = b.element(k, l)
                y = b.element(l, k)
                acc += tensor(x, x) - tensor(y, y)
        for l in range(d):
            z = b.element(l, l)
            acc += tensor(z, z)
        assert np.allclose(acc / d**2, bell_expansion(b), atol=1e-13)

    def test_random_rotation_d3(self):
        b = random_basis(3, 21)
        assert np.linalg.norm(bell_expansion(b) - bell_projector(3)) <= tolerance(3)


class TestCoherentState:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_standard_basis_sum(self, d):
        # d |+><+| is the all-ones matrix
        plus = coherent_state(d)
        assert np.allclose(d * np.outer(plus, plus.conj()), np.ones((d, d)), atol=1e-14)
        out = coherent_expansion(standard_basis(d))
        assert np.allclose(out, d**1.5 * np.outer(plus, plus.conj()), atol=1e-13)

    def test_gellmann_d2_picks_identity_and_sigma1(self):
        # d^(3/2)|+><+| = sqrt(2) (sigma_0 + sigma_1)
        out = coherent_expansion(gellmann_basis(2))
        expected = np.sqrt(2) * (np.eye(2) + np.array([[0, 1], [1, 0]]))
        assert np.allclose(out, expected, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("builder", BUILTINS)
    def test_unit_trace_after_normalization(self, builder, d):
        out = coherent_expansion(builder(d)) / d**1.5
        assert np.trace(out) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_basis_matches_projector(self, d):
        b = random_basis(d, 77 + d)
        plus = coherent_state(d)
        expected = d**1.5 * np.outer(plus, plus.conj())
        assert np.linalg.norm(coherent_expansion(b) - expected) <= tolerance(d)


class TestStructuralLinks:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_partial_transpose_of_swap_is_bell(self, d):
        assert np.array_equal(
            partial_transpose(swap_operator(d), 2, d), d * bell_projector(d)
        )

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_swap_fixes_bell(self, d):
        s = swap_operator(d)
        p = bell_projector(d)
        assert np.allclose(s @ p, p, atol=1e-14)
        assert np.allclose(p @ s, p, atol=1e-14)
