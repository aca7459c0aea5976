"""Tests for the basis constructions, validation, rotation, and splitting."""

import numpy as np
import pytest

from hsbasis import bases
from hsbasis.bases import (
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
from hsbasis.linalg import hs_inner, tolerance

import oracles

PAULI = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]

BUILTINS = [standard_basis, gellmann_basis, weyl_basis]
DIMS = [2, 3, 4, 5, 6]


class TestStandardBasis:
    def test_element_01_d2(self):
        b = standard_basis(2)
        expected = np.zeros((2, 2), dtype=complex)
        expected[0, 1] = np.sqrt(2)
        assert np.array_equal(b.element(0, 1), expected)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_traces(self, d):
        b = standard_basis(d)
        for j in range(d):
            for k in range(d):
                expected = np.sqrt(d) if j == k else 0.0
                assert np.trace(b.element(j, k)) == pytest.approx(expected)

    def test_validates_d5(self):
        assert validate_basis(standard_basis(5)).all_passed


class TestGellmannBasis:
    def test_d2_is_pauli_exactly(self):
        b = gellmann_basis(2)
        for flat, sigma in enumerate(PAULI):
            assert np.array_equal(b.elements[flat], sigma)

    def test_z11_is_sigma3(self):
        assert np.array_equal(gellmann_basis(2).element(1, 1), PAULI[3])

    @pytest.mark.parametrize("d", DIMS)
    def test_diagonal_elements_normalized(self, d):
        b = gellmann_basis(d)
        for l in range(1, d):
            z = b.element(l, l)
            assert np.trace(z @ z) == pytest.approx(d)

    @pytest.mark.parametrize("d", DIMS)
    def test_hermitian_exactly(self, d):
        for g in gellmann_basis(d):
            assert np.array_equal(g, g.conj().T)

    @pytest.mark.parametrize("d", DIMS)
    def test_traceless_except_identity(self, d):
        b = gellmann_basis(d)
        assert np.array_equal(b.elements[0], np.eye(d))
        for g in b.elements[1:]:
            assert abs(np.trace(g)) <= 1e-14 * d


class TestWeylBasis:
    def test_d2_paulis_up_to_phase(self):
        b = weyl_basis(2)
        # (0,0) -> identity, (0,1) -> X, (1,0) -> Z, (1,1) -> -i ZX = sigma_y
        pairs = [((0, 0), PAULI[0]), ((0, 1), PAULI[1]), ((1, 0), PAULI[3]), ((1, 1), PAULI[2])]
        for (j, k), sigma in pairs:
            assert np.allclose(b.element(j, k), sigma, atol=1e-12)

    @pytest.mark.parametrize("d", DIMS)
    def test_unitary_elements(self, d):
        for g in weyl_basis(d):
            assert np.allclose(g @ g.conj().T, np.eye(d), atol=1e-13)

    @pytest.mark.parametrize("d", DIMS)
    def test_traceless_except_00(self, d):
        b = weyl_basis(d)
        assert np.allclose(b.elements[0], np.eye(d), atol=1e-13)
        for g in b.elements[1:]:
            assert abs(np.trace(g)) <= 1e-12 * d

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_group_property(self, d):
        b = weyl_basis(d)
        for j1, k1 in [(0, 1), (1, 0), (1, 1), (d - 1, d - 1)]:
            for j2, k2 in [(1, 1), (d - 1, 1)]:
                product = b.element(j1, k1) @ b.element(j2, k2)
                partner = b.element((j1 + j2) % d, (k1 + k2) % d)
                overlap = hs_inner(partner, product)
                assert abs(abs(overlap) - d) <= tolerance(d)


class TestValidateBasis:
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("builder", BUILTINS)
    def test_builtins_pass(self, builder, d):
        report = validate_basis(builder(d))
        assert report.all_passed
        assert report.checks[0].residual <= tolerance(d)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("builder", BUILTINS)
    def test_gram_matches_loop_oracle(self, builder, d):
        b = builder(d)
        gram = oracles.gram_loops(list(b.elements))
        assert np.allclose(gram, d * np.eye(d * d), atol=1e-12)

    def test_scaled_element_fails_with_3d_deviation(self):
        d = 3
        elements = np.array(gellmann_basis(d).elements)
        elements[4] = 2.0 * elements[4]  # Tr(g^dag g) becomes 4d
        report = validate_basis(MatrixBasis(d, elements))
        assert not report.all_passed
        assert report.checks[0].residual == pytest.approx(3 * d)

    @staticmethod
    def _gram_defect(elements, d):
        return np.linalg.norm(oracles.gram_loops(list(elements)) - d * np.eye(d * d))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_residual_is_the_gram_defect_on_gaussian_stacks(self, d):
        # G G^dag and G^dag G share their spectrum for any square G, orthogonal or not
        rng = np.random.default_rng(60 + d)
        g = np.array([oracles.random_matrix(d, rng) for _ in range(d * d)])
        residual = validate_basis(MatrixBasis(d, g)).checks[0].residual
        assert residual == pytest.approx(self._gram_defect(g, d), rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_residual_is_the_gram_defect_on_perturbed_bases(self, d):
        rng = np.random.default_rng(70 + d)
        g = np.array(random_basis(d, rng).elements)
        g[1] += 1e-9 * oracles.random_matrix(d, rng)
        residual = validate_basis(MatrixBasis(d, g)).checks[0].residual
        assert residual == pytest.approx(self._gram_defect(g, d), rel=1e-6)

    def test_small_defect_fails_at_d16(self):
        # a max-entry check would pass this: the largest Gram deviation, about
        # 1.3e-8, is inside the 2.56e-8 tolerance; the Frobenius norm sees all of it
        d = 16
        g = np.array(weyl_basis(d).elements)
        g[d + 1] += 1e-9 * oracles.random_matrix(d, np.random.default_rng(0))
        assert validate_basis(weyl_basis(d)).all_passed
        report = validate_basis(MatrixBasis(d, g))
        assert not report.all_passed
        assert report.checks[0].residual > 4 * tolerance(d)

    def test_reads_the_basis_sum_and_forms_no_gram(self):
        d = 3
        complete = np.zeros((d * d, d * d), dtype=complex)
        complete[:: d + 1, :: d + 1] = d  # d^2 |Phi+><Phi+|

        class Completed(MatrixBasis):
            bell_sum = complete

        assert not hasattr(bases, "hs_gram")
        # zero elements with an exact completeness sum pass: only the sum is read
        report = validate_basis(Completed(d, np.zeros((d * d, d, d))))
        assert report.checks[0].residual == 0.0


class TestRotatedBasis:
    def test_identity_rotation(self):
        b = gellmann_basis(3)
        rotated = rotated_basis(b, np.eye(9))
        assert np.allclose(rotated.elements, b.elements)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_haar_rotation_stays_orthogonal(self, d):
        u = random_unitary(d * d, np.random.default_rng(100 + d))
        rotated = rotated_basis(standard_basis(d), u)
        assert validate_basis(rotated).all_passed

    def test_pauli_to_standard_coefficients(self):
        # e_00 = (s0+s3)/sqrt2, e_01 = (s1+i s2)/sqrt2,
        # e_10 = (s1-i s2)/sqrt2, e_11 = (s0-s3)/sqrt2
        r = 1 / np.sqrt(2)
        s = np.array(
            [
                [r, 0, 0, r],
                [0, r, 1j * r, 0],
                [0, r, -1j * r, 0],
                [r, 0, 0, -r],
            ]
        )
        rotated = rotated_basis(gellmann_basis(2), s)
        assert np.allclose(rotated.elements, standard_basis(2).elements, atol=1e-14)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            rotated_basis(gellmann_basis(2), 2.0 * np.eye(4))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="coefficient matrix"):
            rotated_basis(gellmann_basis(2), np.eye(9))

    def test_nan_coefficients_rejected(self):
        with pytest.raises(ValueError, match="not unitary"):
            rotated_basis(weyl_basis(2), np.full((4, 4), np.nan))


class TestSplitDiagOffdiag:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_weyl_split(self, d):
        split = split_diag_offdiag(weyl_basis(d))
        assert split is not None
        assert split.diagonal == tuple(j * d for j in range(d))  # the Z^j
        assert len(split.offdiagonal) == d * (d - 1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_gellmann_split(self, d):
        split = split_diag_offdiag(gellmann_basis(d))
        assert split is not None
        assert split.diagonal == tuple(l * d + l for l in range(d))
        assert len(split.offdiagonal) == d * (d - 1)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_standard_split(self, d):
        split = split_diag_offdiag(standard_basis(d))
        assert split is not None
        assert split.diagonal == tuple(j * d + j for j in range(d))

    def test_random_rotation_has_no_split(self):
        assert split_diag_offdiag(random_basis(3, 7)) is None


class TestInvariants:
    @pytest.mark.parametrize("d", DIMS)
    @pytest.mark.parametrize("builder", BUILTINS)
    def test_su_d_completeness(self, builder, d):
        g = builder(d).elements
        gd = g.conj().transpose(0, 2, 1)
        lhs = np.einsum("nlm,npq->lmpq", g, gd) / d
        expected = np.einsum("lq,mp->lmpq", np.eye(d), np.eye(d))
        assert np.abs(lhs - expected).max() <= tolerance(d)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_trace_bearing_counts(self, d):
        for builder, expected in [(gellmann_basis, 1), (weyl_basis, 1), (standard_basis, d)]:
            traces = np.einsum("nii->n", builder(d).elements)
            assert np.sum(np.abs(traces) > 1e-9) == expected


class TestMatrixBasisStructure:
    def test_dimension_too_small(self):
        with pytest.raises(ValueError, match="at least 2"):
            standard_basis(1)
        with pytest.raises(ValueError, match="at least 2"):
            MatrixBasis(1, np.zeros((1, 1, 1)))

    def test_wrong_element_count(self):
        with pytest.raises(ValueError, match="elements"):
            MatrixBasis(2, np.zeros((3, 2, 2)))

    def test_elements_read_only(self):
        b = gellmann_basis(2)
        with pytest.raises(ValueError):
            b.elements[0, 0, 0] = 5.0

    def test_random_unitary_is_unitary(self):
        u = random_unitary(9, np.random.default_rng(1))
        assert np.allclose(u.conj().T @ u, np.eye(9), atol=1e-12)


class TestLoopFreeConstructions:
    """The index-array builders reproduce the element-by-element loops bit for bit."""

    @pytest.mark.parametrize("d", range(2, 33))
    def test_standard_and_weyl_bit_identical_to_loops(self, d):
        assert standard_basis(d).elements.tobytes() == oracles.standard_basis_loops(d).tobytes()
        assert weyl_basis(d).elements.tobytes() == oracles.weyl_basis_loops(d).tobytes()

    @pytest.mark.parametrize("d", range(2, 33))
    def test_gellmann_diagonal_generators_bit_identical_to_loops(self, d):
        diagonal = gellmann_basis(d).elements[[l * d + l for l in range(1, d)]]
        assert diagonal.tobytes() == oracles.gellmann_diagonal_loops(d).tobytes()


class TestBasisSums:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_sums_match_kronecker_loops(self, d):
        rng = np.random.default_rng(d)
        rotated = rotated_basis(weyl_basis(d), random_unitary(d * d, rng))
        # on an orthogonal basis either partial transpose of sum g (x) g^* gives d SWAP,
        # so only a non-orthogonal stack, here of Gaussian matrices, pins which party
        # swap_sum transposes
        gaussian = MatrixBasis(d, np.array([oracles.random_matrix(d, rng) for _ in range(d * d)]))
        for b in (rotated, gaussian):
            g = b.elements
            swap = sum(oracles.kron_loops(x, x.conj().T) for x in g)
            bell = sum(oracles.kron_loops(x, x.conj()) for x in g)
            assert np.linalg.norm(b.swap_sum - swap) <= tolerance(d)
            assert np.linalg.norm(b.bell_sum - bell) <= tolerance(d)

    def test_built_once_and_read_only(self):
        b = gellmann_basis(3)
        assert b.swap_sum is b.swap_sum and b.bell_sum is b.bell_sum
        for name in ("swap_sum", "bell_sum"):
            with pytest.raises(ValueError):
                getattr(b, name)[0, 0] = 5.0
            with pytest.raises(AttributeError):
                setattr(b, name, np.zeros((9, 9)))
