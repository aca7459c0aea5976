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
from hsbasis.identities import run_catalogue
from hsbasis.linalg import combine, frob_norm, hs_inner, tolerance

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

    @pytest.mark.parametrize("d, delta", [(4, 1e-8), (8, 1e-7), (16, 1e-7)])
    @pytest.mark.parametrize("builder", BUILTINS, ids=lambda b: b.__name__)
    def test_accepts_exactly_what_validation_passes(self, builder, d, delta):
        # one entry of a Haar U moved by delta: ||U^dag U - 1|| ~ 1.4 delta is
        # within 1e-10 n^2 (n = d^2), yet the rotated basis reads d times that
        # against tolerance(d), so validation fails and so must the rotation
        n = d * d
        u = random_unitary(n, np.random.default_rng(700 + d))
        u[0, 0] += delta
        assert frob_norm(u.conj().T @ u - np.eye(n)) <= 1e-10 * n * n
        g = builder(d)
        assert not validate_basis(MatrixBasis(d, combine(u, g.elements))).all_passed
        with pytest.raises(ValueError, match="not unitary"):
            rotated_basis(g, u)

    def test_non_orthogonal_basis_rejected(self):
        stack = np.random.default_rng(12).standard_normal((9, 3, 3))
        with pytest.raises(ValueError, match="completeness residual"):
            rotated_basis(MatrixBasis(3, stack), np.eye(9))

    @pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
    @pytest.mark.parametrize("builder", BUILTINS, ids=lambda b: b.__name__)
    def test_accepted_rotation_is_the_combination_holding_its_sum(self, builder, d):
        g = builder(d)
        u = random_unitary(d * d, np.random.default_rng(300 + d))
        rotated = rotated_basis(g, u)
        assert rotated.elements.tobytes() == combine(u, g.elements).tobytes()
        assert "bell_sum" in vars(rotated)
        assert validate_basis(rotated).all_passed


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

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_indices_are_python_ints(self, d):
        split = split_diag_offdiag(weyl_basis(d))
        assert all(type(i) is int for i in split.diagonal + split.offdiagonal)
        assert sorted(split.diagonal + split.offdiagonal) == list(range(d * d))

    @pytest.mark.parametrize("d", [2, 3])
    def test_mixed_element_has_no_split(self, d):
        # one off-diagonal element gains a diagonal entry above tolerance
        el = np.array(weyl_basis(d).elements)
        el[1, 0, 0] = 10 * tolerance(d)
        assert split_diag_offdiag(MatrixBasis(d, el)) is None

    def test_wrong_diagonal_count_has_no_split(self):
        el = np.array(standard_basis(3).elements)
        el[0] = el[1]  # a second copy of an off-diagonal unit, one diagonal unit short
        assert split_diag_offdiag(MatrixBasis(3, el)) is None

    @pytest.mark.parametrize("entry", [(0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 1, 1)])
    def test_nan_entry_has_no_split(self, entry):
        # a NaN on or off the diagonal of a diagonal (element 0) or off-diagonal (element 1) one
        el = np.array(weyl_basis(2).elements)
        el[entry] = np.nan
        assert split_diag_offdiag(MatrixBasis(2, el)) is None


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

    @pytest.mark.parametrize("d", [2.0, np.float64(2.0), "2", None, True])
    def test_non_integer_dimension_rejected(self, d):
        with pytest.raises(ValueError, match="integer of at least 2"):
            MatrixBasis(d, gellmann_basis(2).elements)
        for builder in (standard_basis, gellmann_basis, weyl_basis):
            builder(2)  # a shared basis at d = 2 does not serve the equal 2.0
            with pytest.raises(ValueError, match="integer of at least 2"):
                builder(d)

    @pytest.mark.parametrize("d", [np.int64(2), np.int32(3)])
    def test_numpy_integer_dimension_accepted(self, d):
        assert validate_basis(MatrixBasis(d, weyl_basis(int(d)).elements)).all_passed
        assert standard_basis(d).d == d

    @pytest.mark.parametrize("d", [np.uint8(16), np.int8(12)], ids=repr)
    @pytest.mark.parametrize(
        "builder",
        [standard_basis, gellmann_basis, weyl_basis, lambda d: random_basis(d, 5)],
        ids=["standard", "gellmann", "weyl", "random"],
    )
    def test_narrow_numpy_integer_dimension_builds_the_int_basis(self, builder, d):
        # d * d overflows in these types, so each builder must leave them before it multiplies
        got, want = builder(d), builder(int(d))
        assert type(got.d) is int and got.d == d
        assert got.elements.tobytes() == want.elements.tobytes()
        assert MatrixBasis(d, want.elements).d == d

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

    @pytest.mark.parametrize("d", range(2, 9))
    def test_random_basis_bit_equal_to_the_divided_draw(self, d):
        # the draw is scaled by 1/sqrt(2), not divided by sqrt(2): the same bits
        for seed in (0, 1, 17):
            want = rotated_basis(standard_basis(d), oracles.random_unitary_divided(d * d, seed))
            assert random_basis(d, seed).elements.tobytes() == want.elements.tobytes()


class TestLoopFreeConstructions:
    """The index-array builders reproduce the element-by-element loops bit for bit."""

    @pytest.fixture(autouse=True)
    def drop_shared_bases(self):
        yield
        bases._named_basis.cache_clear()  # keep no shared stack of up to 16 MB between cases

    @pytest.mark.parametrize("d", range(2, 33))
    def test_standard_and_weyl_bit_identical_to_loops(self, d):
        assert standard_basis(d).elements.tobytes() == oracles.standard_basis_loops(d).tobytes()
        assert weyl_basis(d).elements.tobytes() == oracles.weyl_basis_loops(d).tobytes()

    @pytest.mark.parametrize("d", range(2, 33))
    def test_gellmann_diagonal_generators_bit_identical_to_loops(self, d):
        diagonal = gellmann_basis(d).elements[[l * d + l for l in range(1, d)]]
        assert diagonal.tobytes() == oracles.gellmann_diagonal_loops(d).tobytes()

    @pytest.mark.parametrize("d", range(2, 10))
    def test_gellmann_order_bit_identical_to_triu_indices(self, d):
        assert bases.gellmann_y_elements(d).tobytes() == oracles.gellmann_y_triu(d).tobytes()
        assert gellmann_basis(d).elements.tobytes() == oracles.gellmann_basis_triu(d).tobytes()


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


class TestSharedNamedBases:
    """A named basis is built once per (kind, d) and shared; every check reads the same numbers."""

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        bases._named_basis.cache_clear()

    @pytest.mark.parametrize("first", [4, np.uint8(4)], ids=repr)
    def test_numpy_integer_dimension_shares_the_int_basis(self, first):
        b = gellmann_basis(first)
        assert b is gellmann_basis(4) is gellmann_basis(np.uint8(4)) is gellmann_basis(np.int64(4))
        assert type(b.d) is int

    def test_cache_holds_at_most_its_bound(self):
        keys = [(builder, d) for builder in BUILTINS for d in range(2, 7)]  # 15 distinct keys
        built = [builder(d) for builder, d in keys]
        info = bases._named_basis.cache_info()
        assert info.maxsize == 12 and info.currsize == 12
        # the twelve most recent are served as they are, the oldest are built again
        assert all(builder(d) is b for (builder, d), b in zip(keys[3:], built[3:]))
        assert standard_basis(2) is not built[0]
        assert bases._named_basis.cache_info().currsize == 12

    def test_gellmann_y_stack_is_shared_and_read_only(self):
        y = bases.gellmann_y_elements(3)
        assert not y.flags.writeable and bases.gellmann_y_elements(3) is y
        with pytest.raises(ValueError):
            y[0, 0, 1] = 0.0
        # the cache is typed: a float dimension fails as it did before any stack was cached
        with pytest.raises(TypeError):
            bases.gellmann_y_elements(3.0)

    def test_shared_basis_keeps_its_sums_and_residual(self, monkeypatch):
        calls = []
        original = bases._deviation
        monkeypatch.setattr(bases, "_deviation", lambda *a: calls.append(a) or original(*a))
        b = weyl_basis(5)
        first = validate_basis(b)
        assert weyl_basis(5) is b and validate_basis(weyl_basis(5)) == first
        bases.require_orthogonal(b, "unused")
        assert len(calls) == 1
        assert b.completeness_residual == first.checks[0].residual

    @pytest.mark.parametrize("cold_first", [True, False], ids=["cold_first", "shared_first"])
    @pytest.mark.parametrize("d", range(2, 9))
    @pytest.mark.parametrize("builder", BUILTINS)
    def test_residuals_equal_a_cold_basis_in_either_order(self, builder, d, cold_first):
        shared = builder(d)
        cold = MatrixBasis(d, shared.elements, shared.kind)

        def checks(b):
            return validate_basis(b).checks + run_catalogue(b).checks

        if cold_first:
            cold_checks, shared_checks = checks(cold), checks(shared)
        else:
            shared_checks, cold_checks = checks(shared), checks(cold)
        assert shared_checks == cold_checks
        assert checks(builder(d)) == shared_checks  # again, warm
