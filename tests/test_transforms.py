"""Tests for basis-change coefficient matrices and their block structure."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsbasis import bases
from hsbasis.bases import (
    BasisSplit,
    MatrixBasis,
    gellmann_basis,
    random_basis,
    random_unitary,
    rotated_basis,
    split_diag_offdiag,
    standard_basis,
    validate_basis,
    weyl_basis,
)
from hsbasis.linalg import tolerance
from hsbasis.maps import bloch_decompose, bloch_reconstruct
from hsbasis.transforms import (
    BasisChange,
    block_structure,
    change_of_basis,
    from_standard,
    to_standard,
)

import oracles

BUILTINS = [standard_basis, gellmann_basis, weyl_basis]


class TestChangeOfBasis:
    def test_named_target_builds_no_sum_once_shared(self, monkeypatch):
        # a rotated source builds its one sum; the shared named target has its own already
        calls = []
        original = bases.kron_sum
        monkeypatch.setattr(bases, "kron_sum", lambda *a: calls.append(a) or original(*a))
        change_of_basis(weyl_basis(4), gellmann_basis(4))
        calls.clear()
        for seed in range(3):
            source = rotated_basis(gellmann_basis(4), random_unitary(16, seed))
            assert len(calls) == seed + 1
            change_of_basis(weyl_basis(4), source)
            assert len(calls) == seed + 1

    @pytest.mark.parametrize("builder", BUILTINS)
    def test_self_transformation_is_identity(self, builder):
        b = builder(3)
        assert np.allclose(change_of_basis(b, b).coeffs, np.eye(9), atol=1e-14)

    def test_pauli_from_standard_row(self):
        # sigma_1 = (e_01 + e_10)/sqrt(2)
        s = change_of_basis(gellmann_basis(2), standard_basis(2))
        r = 1 / np.sqrt(2)
        assert np.allclose(s.coeffs[1], [0, r, r, 0], atol=1e-14)

    def test_unitarity_weyl_gellmann_d3(self):
        s = change_of_basis(weyl_basis(3), gellmann_basis(3)).coeffs
        assert np.linalg.norm(s.conj().T @ s - np.eye(9)) <= tolerance(3)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("target,source", list(itertools.permutations(range(3), 2)))
    def test_rotation_reproduces_target(self, d, target, source):
        tgt = BUILTINS[target](d)
        src = BUILTINS[source](d)
        s = change_of_basis(tgt, src)
        rebuilt = rotated_basis(src, s)
        assert np.abs(rebuilt.elements - tgt.elements).max() <= tolerance(d)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_unitarity_and_composition(self, d):
        bases = [builder(d) for builder in BUILTINS] + [random_basis(d, 50 + d)]
        n = d * d
        for a, b in itertools.combinations(bases, 2):
            s = change_of_basis(a, b).coeffs
            assert np.linalg.norm(s.conj().T @ s - np.eye(n)) <= tolerance(d)
        for a, b, c in itertools.permutations(bases, 3):
            composed = change_of_basis(a, b).coeffs @ change_of_basis(b, c).coeffs
            direct = change_of_basis(a, c).coeffs
            assert np.linalg.norm(composed - direct) <= tolerance(d)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            change_of_basis(gellmann_basis(2), gellmann_basis(3))

    def test_invalid_basis_rejected(self):
        bad = MatrixBasis(2, 2.0 * np.array(gellmann_basis(2).elements))
        with pytest.raises(ValueError, match="not orthogonal"):
            change_of_basis(bad, standard_basis(2))


class TestToFromStandard:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_standard_is_identity(self, d):
        assert np.allclose(to_standard(standard_basis(d)).coeffs, np.eye(d * d), atol=1e-14)

    def test_matches_change_of_basis(self):
        b = weyl_basis(3)
        direct = to_standard(b).coeffs
        via_projection = change_of_basis(b, standard_basis(3)).coeffs
        assert np.allclose(direct, via_projection, atol=1e-13)

    def test_round_trip_weyl_d2(self):
        b = weyl_basis(2)
        u = to_standard(b).coeffs
        v = from_standard(b).coeffs
        assert np.allclose(u @ v, np.eye(4), atol=1e-14)
        # rebuild each element from its standard coefficients
        e = standard_basis(2).elements
        rebuilt = np.einsum("rq,qij->rij", u, e)
        assert np.allclose(rebuilt, b.elements, atol=1e-14)

    def test_sigma3_row_entries(self):
        u = to_standard(gellmann_basis(2)).coeffs
        r = 1 / np.sqrt(2)
        # sigma_3 sits at flat index 3; |0><0| and |1><1| at columns 0 and 3
        assert np.allclose(u[3], [r, 0, 0, -r], atol=1e-15)

    @pytest.mark.parametrize("builder", BUILTINS)
    def test_from_standard_is_exact_adjoint(self, builder):
        b = builder(3)
        assert np.array_equal(from_standard(b).coeffs, to_standard(b).coeffs.conj().T)


class TestBlockStructure:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_weyl_diagonal_block_is_fourier(self, d):
        b = weyl_basis(d)
        split = split_diag_offdiag(b)
        blocks = block_structure(to_standard(b), split)
        assert blocks is not None
        omega = np.exp(2j * np.pi / d)
        fourier = np.array([[omega ** (j * k) for k in range(d)] for j in range(d)])
        assert np.allclose(blocks.diagonal, fourier / np.sqrt(d), atol=1e-13)

    def test_gellmann_d3_diagonal_block(self):
        b = gellmann_basis(3)
        blocks = block_structure(to_standard(b), split_diag_offdiag(b))
        expected = np.array(
            [
                [1 / np.sqrt(3), 1 / np.sqrt(3), 1 / np.sqrt(3)],
                [1 / np.sqrt(2), -1 / np.sqrt(2), 0],
                [1 / np.sqrt(6), 1 / np.sqrt(6), -2 / np.sqrt(6)],
            ]
        )
        assert np.allclose(blocks.diagonal, expected, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("builder", [gellmann_basis, weyl_basis])
    def test_blocks_are_unitary(self, builder, d):
        b = builder(d)
        blocks = block_structure(to_standard(b), split_diag_offdiag(b))
        assert blocks is not None
        dd = blocks.diagonal
        oo = blocks.offdiagonal
        assert np.linalg.norm(dd.conj().T @ dd - np.eye(d)) <= tolerance(d)
        assert np.linalg.norm(oo.conj().T @ oo - np.eye(d * (d - 1))) <= tolerance(d)

    def test_random_rotation_has_no_split(self):
        assert split_diag_offdiag(random_basis(3, 99)) is None

    def test_cross_block_leakage_fails(self):
        # a deliberately wrong split assignment leaks across blocks
        b = gellmann_basis(3)
        split = split_diag_offdiag(b)
        scrambled = BasisSplit(
            diagonal=(split.diagonal[0], split.offdiagonal[0], split.diagonal[2]),
            offdiagonal=(split.diagonal[1],) + split.offdiagonal[1:],
        )
        assert block_structure(to_standard(b), scrambled) is None

    def test_split_of_the_wrong_lengths_fails(self):
        b = gellmann_basis(3)
        split = split_diag_offdiag(b)
        for short in (
            BasisSplit(split.diagonal[:-1], split.offdiagonal + split.diagonal[-1:]),
            BasisSplit(split.diagonal, split.offdiagonal[:-1]),
        ):
            assert block_structure(to_standard(b), short) is None

    def test_wrongly_shaped_basis_change_rejected(self):
        with pytest.raises(ValueError, match=r"^coefficient matrix for d=2 must be 4x4, got \(3, 3\)$"):
            BasisChange(2, np.eye(3))

    def test_rotation_and_basis_change_word_one_wrong_shape_alike(self):
        messages = []
        for build in (lambda u: rotated_basis(gellmann_basis(2), u), lambda u: BasisChange(2, u)):
            with pytest.raises(ValueError) as caught:
                build(np.eye(3))
            messages.append(str(caught.value))
        assert messages == ["coefficient matrix for d=2 must be 4x4, got (3, 3)"] * 2

    def test_nan_leakage_fails(self):
        b = gellmann_basis(3)
        split = split_diag_offdiag(b)
        coeffs = to_standard(b).coeffs.copy()
        coeffs[split.offdiagonal[0], 0] = np.nan  # column 0 is the standard element (0, 0)
        assert block_structure(BasisChange(3, coeffs), split) is None


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    d=st.integers(2, 5),
    builder=st.sampled_from(BUILTINS),
    seed=st.integers(0, 2**32 - 1),
)
def test_haar_rotation_is_an_orthogonal_basis_change(d, builder, seed):
    """h = U g is orthogonal, change_of_basis recovers U, and h expands any A exactly."""
    basis = builder(d)
    u = random_unitary(d * d, seed)
    rotated = rotated_basis(basis, u)
    assert validate_basis(rotated).all_passed
    assert np.linalg.norm(change_of_basis(rotated, basis).coeffs - u) <= tolerance(d)
    a = oracles.random_matrix(d, np.random.default_rng([2, seed]))
    restored = bloch_reconstruct(bloch_decompose(a, rotated), rotated)
    assert np.linalg.norm(restored - a) <= tolerance(d)
