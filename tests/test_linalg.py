"""Tests for the dense linear-algebra primitives and index conventions."""

import numpy as np
import pytest

from hsbasis.linalg import (
    _deviation,
    _phi_grid,
    _swap_support,
    apply_superop,
    basis_sum,
    combine,
    devectorize,
    frob_norm,
    hs_gram,
    hs_inner,
    kron_sum,
    partial_trace,
    partial_transpose,
    reshuffle,
    sandwich_sum,
    tensor,
    vectorize,
)
from hsbasis.operators import bell_projector, swap_operator

import oracles

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)


class TestTensor:
    def test_identity_case(self):
        assert np.array_equal(tensor(SIGMA_0, SIGMA_0), np.eye(4))

    def test_sigma1_sigma1_antidiagonal(self):
        expected = np.fliplr(np.eye(4))
        assert np.array_equal(tensor(SIGMA_1, SIGMA_1), expected)

    def test_rank_one_units(self):
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        p1 = np.array([[0, 0], [0, 1]], dtype=complex)
        out = tensor(p0, p1)
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0  # composite index (0,1) -> flat 1
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("da,db", [(2, 3), (3, 2), (4, 4)])
    def test_against_loop_oracle(self, da, db):
        rng = np.random.default_rng(11)
        a = oracles.random_matrix(da, rng)
        b = oracles.random_matrix(db, rng)
        assert np.allclose(tensor(a, b), oracles.kron_loops(a, b), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_trace_multiplies(self, d):
        rng = np.random.default_rng(d)
        a = oracles.random_matrix(d, rng)
        b = oracles.random_matrix(d, rng)
        assert np.trace(tensor(a, b)) == pytest.approx(np.trace(a) * np.trace(b))


class TestHsInner:
    def test_pauli_normalization(self):
        assert hs_inner(SIGMA_1, SIGMA_1) == pytest.approx(2.0)
        assert hs_inner(SIGMA_1, SIGMA_2) == pytest.approx(0.0)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_identity_trace(self, d):
        assert hs_inner(np.eye(d), np.eye(d)) == pytest.approx(d)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(5)
        a = oracles.random_matrix(3, rng)
        b = oracles.random_matrix(3, rng)
        assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))

    def test_against_loop_oracle(self):
        rng = np.random.default_rng(6)
        a = oracles.random_matrix(4, rng)
        b = oracles.random_matrix(4, rng)
        assert hs_inner(a, b) == pytest.approx(oracles.hs_inner_loops(a, b))

    def test_induces_frobenius_norm(self):
        rng = np.random.default_rng(7)
        a = oracles.random_matrix(5, rng)
        value = hs_inner(a, a)
        expected = float(np.sum(np.abs(a) ** 2))
        assert abs(value.imag) <= 1e-12 * expected
        assert value.real == pytest.approx(expected, rel=1e-12)
        assert value.real >= 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"^each of two matrices must be 2x2, got \(3, 3\)$"):
            hs_inner(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match="two matrices"):
            hs_inner(np.ones(shape), np.ones(shape))


class TestPartialTrace:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_swap_traces_to_identity(self, d):
        assert np.allclose(partial_trace(oracles.swap_loops(d), 1, d), np.eye(d))

    def test_product_factorizes(self):
        rng = np.random.default_rng(8)
        a = oracles.random_matrix(3, rng)
        b = oracles.random_matrix(3, rng)
        out = partial_trace(tensor(a, b), 2, 3)
        assert np.allclose(out, np.trace(b) * a, atol=1e-13)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bell_reduces_to_identity(self, d):
        proj = oracles.bell_projector_loops(d)
        assert np.allclose(partial_trace(d * proj, 2, d), np.eye(d))

    @pytest.mark.parametrize("party", [1, 2])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_preserves_trace_and_matches_oracle(self, party, d):
        rng = np.random.default_rng(10 * d + party)
        m = oracles.random_matrix(d * d, rng)
        out = partial_trace(m, party, d)
        assert np.trace(out) == pytest.approx(np.trace(m))
        assert np.allclose(out, oracles.partial_trace_loops(m, party, d), atol=1e-13)

    def test_dimension_error(self):
        with pytest.raises(ValueError, match="local dimension 2 must be 4x4"):
            partial_trace(np.eye(5), 1, 2)
        with pytest.raises(ValueError, match="party"):
            partial_trace(np.eye(4), 3, 2)


class TestPartialTranspose:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_swap_gives_bell(self, d):
        out = partial_transpose(oracles.swap_loops(d), 2, d)
        assert np.allclose(out, d * oracles.bell_projector_loops(d))

    @pytest.mark.parametrize("party", [1, 2])
    def test_involution_and_oracle(self, party):
        d = 3
        rng = np.random.default_rng(20 + party)
        m = oracles.random_matrix(d * d, rng)
        once = partial_transpose(m, party, d)
        assert np.allclose(partial_transpose(once, party, d), m)
        assert np.allclose(once, oracles.partial_transpose_loops(m, party, d))

    def test_product_factorizes(self):
        rng = np.random.default_rng(22)
        a = oracles.random_matrix(3, rng)
        b = oracles.random_matrix(3, rng)
        out = partial_transpose(tensor(a, b), 2, 3)
        assert np.allclose(out, tensor(a, b.T), atol=1e-13)

    def test_linearity(self):
        d = 2
        rng = np.random.default_rng(23)
        m1 = oracles.random_matrix(d * d, rng)
        m2 = oracles.random_matrix(d * d, rng)
        combined = partial_transpose(2.0 * m1 + 1j * m2, 2, d)
        separate = 2.0 * partial_transpose(m1, 2, d) + 1j * partial_transpose(m2, 2, d)
        assert np.allclose(combined, separate)


class TestReshuffle:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_identity_gives_bell(self, d):
        out = reshuffle(np.eye(d * d), d)
        assert np.allclose(out, d * oracles.bell_projector_loops(d))

    def test_involution_and_oracle(self):
        d = 3
        rng = np.random.default_rng(30)
        m = oracles.random_matrix(d * d, rng)
        once = reshuffle(m, d)
        assert np.allclose(reshuffle(once, d), m)
        assert np.allclose(once, oracles.reshuffle_loops(m, d))

    def test_single_entry(self):
        d = 3
        for a, b, c, e in [(0, 1, 2, 2), (2, 0, 1, 1)]:
            m = np.zeros((d * d, d * d), dtype=complex)
            m[a * d + b, c * d + e] = 1.0  # |ab><ce|
            expected = np.zeros_like(m)
            expected[a * d + c, b * d + e] = 1.0  # |ac><be|
            assert np.array_equal(reshuffle(m, d), expected)

    def test_linearity(self):
        d = 2
        rng = np.random.default_rng(31)
        m1 = oracles.random_matrix(d * d, rng)
        m2 = oracles.random_matrix(d * d, rng)
        combined = reshuffle(0.5 * m1 - 2j * m2, d)
        assert np.allclose(combined, 0.5 * reshuffle(m1, d) - 2j * reshuffle(m2, d))


class TestVectorize:
    def test_unit_convention(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|
        assert np.array_equal(vectorize(m), np.array([0, 1, 0, 0], dtype=complex))

    def test_identity(self):
        assert np.array_equal(vectorize(np.eye(2)), np.array([1, 0, 0, 1], dtype=complex))

    def test_round_trip(self):
        rng = np.random.default_rng(40)
        a = oracles.random_matrix(4, rng)
        assert np.array_equal(devectorize(vectorize(a)), a)

    def test_bad_length(self):
        with pytest.raises(ValueError, match="square"):
            devectorize(np.ones(5))
        with pytest.raises(ValueError, match="square"):
            vectorize(np.ones((2, 3)))


class TestBasisSumKernel:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("count", ["one", "y_elements", "full"])
    def test_against_summed_kron_loops(self, d, count):
        n = {"one": 1, "y_elements": d * (d - 1) // 2, "full": d * d}[count]
        rng = np.random.default_rng(40 + d)
        x = np.stack([oracles.random_matrix(d, rng) for _ in range(n)])
        y = np.stack([oracles.random_matrix(d, rng) for _ in range(n)])
        expected = sum(oracles.kron_loops(a, b) for a, b in zip(x, y))
        assert np.allclose(kron_sum(x, y), expected, atol=1e-12)
        assert np.allclose(basis_sum(x, y), oracles.reshuffle_loops(expected, d), atol=1e-12)

    def test_leading_axes_are_summed(self):
        rng = np.random.default_rng(44)
        x = oracles.random_matrix(3, rng).reshape(1, 1, 3, 3) * np.ones((2, 4, 1, 1))
        y = oracles.random_matrix(3, rng).reshape(1, 1, 3, 3) * np.ones((2, 4, 1, 1))
        assert np.allclose(kron_sum(x, y), 8 * oracles.kron_loops(x[0, 0], y[0, 0]), atol=1e-12)


def _random_stack(n, d, rng):
    return np.stack([oracles.random_matrix(d, rng) for _ in range(n)])


class TestSandwichKernel:
    """apply_superop(sandwich_sum(x, y), .) against loops over distinct random stacks."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("count", ["one", "three", "full"])
    def test_single_matrix_and_stack(self, d, count):
        n = {"one": 1, "three": 3, "full": d * d}[count]
        rng = np.random.default_rng(60 + 10 * d + n)
        x, y, a = _random_stack(n, d, rng), _random_stack(n, d, rng), _random_stack(2, d, rng)
        s = sandwich_sum(x, y)
        single = apply_superop(s, a[0])
        assert single.shape == (d, d)
        assert np.allclose(single, oracles.sandwich_loops(x, a[0], y), atol=1e-12)
        stack = apply_superop(s, a)
        assert stack.shape == a.shape
        for got, m in zip(stack, a):
            assert np.allclose(got, oracles.sandwich_loops(x, m, y), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("axes", [(0, 2), (1, 3), (1, 2)])
    def test_two_party_axes(self, d, axes):
        rng = np.random.default_rng(70 + d + sum(axes))
        x, y = _random_stack(3, d, rng), _random_stack(3, d, rng)
        b = oracles.random_matrix(d * d, rng)
        eye = np.eye(d)
        on_party = {
            1: lambda m: oracles.kron_loops(m, eye),
            2: lambda m: oracles.kron_loops(eye, m),
        }
        # (party of the left factor x_n, party of the right factor y_n)
        left, right = {(0, 2): (1, 1), (1, 3): (2, 2), (1, 2): (2, 1)}[axes]
        expected = sum(on_party[left](xn) @ b @ on_party[right](yn) for xn, yn in zip(x, y))
        got = apply_superop(sandwich_sum(x, y), b.reshape(d, d, d, d), axes)
        assert np.allclose(got.reshape(d * d, d * d), expected, atol=1e-12)


def _apply_superop_via_moveaxis(s, a, axes):
    """Reference: np.moveaxis to the trailing axes and back, on every path."""
    a = np.moveaxis(np.asarray(a, dtype=complex), axes, (-2, -1))
    out = a.reshape(-1, s.shape[1]) @ s.T
    return np.moveaxis(out.reshape(a.shape), (-2, -1), axes)


class TestApplySuperopTrailingAxes:
    """The default (-2, -1) path moves no axes; it must not change a bit."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("count", ["single", "one", "three", "full"])
    def test_bit_identical_to_moveaxis_path(self, d, count):
        rng = np.random.default_rng(90 + 10 * d + len(count))
        s = oracles.random_matrix(d * d, rng)
        n = {"single": None, "one": 1, "three": 3, "full": d * d}[count]
        a = oracles.random_matrix(d, rng) if n is None else _random_stack(n, d, rng)
        want = _apply_superop_via_moveaxis(s, a, (-2, -1))
        got = apply_superop(s, a)
        assert got.shape == a.shape
        assert np.array_equal(got, want)
        # the same axes spelled out take the transpose path
        assert np.array_equal(apply_superop(s, a, (a.ndim - 2, a.ndim - 1)), want)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_positive_trailing_axes_on_a_stack(self, d):
        rng = np.random.default_rng(95 + d)
        s = oracles.random_matrix(d * d, rng)
        a = _random_stack(3, d, rng)
        got = apply_superop(s, a, (1, 2))
        assert np.array_equal(got, apply_superop(s, a))
        assert np.array_equal(got, _apply_superop_via_moveaxis(s, a, (1, 2)))


class TestApplySuperopAxes:
    """Every axes pair np.moveaxis accepts gives its result bit for bit; the rest raise."""

    @staticmethod
    def _pairs(n):
        spellings = range(-n, n)
        return [(p, q) for p in spellings for q in spellings if p % n != q % n]

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("ndim", [3, 4])
    def test_every_pair_bit_identical_to_moveaxis(self, d, ndim):
        rng = np.random.default_rng(100 + 10 * d + ndim)
        s = oracles.random_matrix(d * d, rng)
        a = rng.standard_normal((d,) * ndim) + 1j * rng.standard_normal((d,) * ndim)
        pairs = self._pairs(ndim)
        assert len(pairs) == 4 * ndim * (ndim - 1)
        for axes in pairs:
            got = apply_superop(s, a, axes)
            assert got.shape == a.shape
            assert np.array_equal(got, _apply_superop_via_moveaxis(s, a, axes)), axes

    @pytest.mark.parametrize("ndim", [3, 4])
    def test_out_of_range_or_repeated_axes_raise(self, ndim):
        rng = np.random.default_rng(120 + ndim)
        s = oracles.random_matrix(4, rng)
        a = np.zeros((2,) * ndim, dtype=complex)
        bad = [(ndim, 0), (0, ndim), (-ndim - 1, 1), (1, -ndim - 1), (0, 0), (1, 1 - ndim), (-1, ndim - 1)]
        for axes in bad:
            with pytest.raises(ValueError):
                _apply_superop_via_moveaxis(s, a, axes)
            with pytest.raises(ValueError):
                apply_superop(s, a, axes)


class TestFrobNorm:
    """frob_norm sums as np.linalg.norm does, so residuals keep every bit."""

    @pytest.mark.parametrize("d", [1, 2, 5, 9])
    def test_bit_identical_to_numpy_norm(self, d):
        rng = np.random.default_rng(110 + d)
        m = oracles.random_matrix(d, rng)
        cases = [m, m.T, m.real, m.real.T, _random_stack(3, d, rng), m[0, 0], m.real[0, 0]]
        for a in cases:
            assert frob_norm(a) == float(np.linalg.norm(a))
            assert isinstance(frob_norm(a), float)


class TestHsGramKernel:
    """hs_gram and combine against loops over random stacks and coefficients."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_single_matrix(self, d):
        rng = np.random.default_rng(80 + d)
        a, b = oracles.random_matrix(d, rng), oracles.random_matrix(d, rng)
        gram = hs_gram(a, b)
        assert gram.shape == ()
        assert np.isclose(gram, oracles.hs_inner_loops(a, b), atol=1e-12)
        c = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        assert np.allclose(combine(c, a[None]), c[0] * a, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("count", [1, 3, 7])
    def test_stack(self, d, count):
        rng = np.random.default_rng(90 + 10 * d + count)
        x, y = _random_stack(count, d, rng), _random_stack(count + 1, d, rng)
        a = oracles.random_matrix(d, rng)
        gram = hs_gram(x, y)
        assert gram.shape == (count, count + 1)
        expected = np.array([[oracles.hs_inner_loops(p, q) for q in y] for p in x])
        assert np.allclose(gram, expected, atol=1e-12)
        assert np.allclose(hs_gram(x, x), oracles.gram_loops(x), atol=1e-12)
        coeffs = hs_gram(x, a)  # a stack against one matrix: its coefficients
        assert coeffs.shape == (count,)
        assert np.allclose(coeffs, [oracles.hs_inner_loops(p, a) for p in x], atol=1e-12)
        assert hs_gram(a, x).shape == (count,)
        c = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        assert combine(c, x).shape == (d, d)
        assert np.allclose(combine(c, x), oracles.combine_loops(c, x), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_coefficient_matrix(self, d):
        rng = np.random.default_rng(100 + d)
        x = _random_stack(d * d, d, rng)
        c = oracles.random_matrix(d * d, rng)[:3]
        out = combine(c, x)
        assert out.shape == (3, d, d)
        for got, row in zip(out, c):
            assert np.allclose(got, oracles.combine_loops(row, x), atol=1e-12)

    def test_expansion_round_trip(self):
        rng = np.random.default_rng(110)
        g = np.stack([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
        a = oracles.random_matrix(2, rng)
        assert np.allclose(combine(hs_gram(g, a), g) / 2, a, atol=1e-14)


class TestDeviation:
    """||X - c P||_F with P the 0/1 matrix of a pattern, subtracted in place on a copy of X."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_scalar_is_subtracted_from_any_memory_layout(self, d):
        # F-ordered arrays and transposed views, as np.trace over axes or .T return them
        a = oracles.random_matrix(d, np.random.default_rng(d))
        want = np.linalg.norm(a - 2 * np.eye(d))
        assert _deviation(np.asfortranarray(2 * np.eye(d)), 2) == 0.0
        assert _deviation(np.asfortranarray(a), 2) == pytest.approx(want, rel=1e-15)
        assert _deviation(a.T, 2) == pytest.approx(np.linalg.norm(a.T - 2 * np.eye(d)), rel=1e-15)

    def test_inputs_are_not_modified(self):
        a = np.asfortranarray(np.eye(2, dtype=complex))
        _deviation(a, 1)
        _deviation(a.T, 1)
        assert np.array_equal(a, np.eye(2))

    @pytest.mark.parametrize("d", [2, 3])
    def test_read_only_input(self, d):
        a = oracles.random_matrix(d * d, np.random.default_rng(20 + d))
        a.setflags(write=False)
        for at in (None, _swap_support(d), _phi_grid(d)):
            before = a.copy()
            assert _deviation(a, 0.5, at) > 0
            assert np.array_equal(a, before)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_each_pattern_against_its_dense_matrix(self, d):
        rng = np.random.default_rng(30 + d)
        x = oracles.random_matrix(d * d, rng)
        patterns = [
            (None, np.eye(d * d)),
            (_swap_support(d), swap_operator(d)),
            (_phi_grid(d), (bell_projector(d) != 0).astype(float)),
        ]
        for at, dense in patterns:
            for c in (1, 1.0 / d, 2.5 - 1j):
                want = np.linalg.norm(x - c * dense)
                assert _deviation(x, c, at) == pytest.approx(want, rel=1e-15), (at, c)
                assert _deviation(c * dense, c, at) == 0.0

    def test_a_number_or_an_array_on_the_right_is_subtracted_whole(self):
        rng = np.random.default_rng(40)
        x, c = oracles.random_matrix(3, rng), oracles.random_matrix(3, rng)
        assert _deviation(x, c) == pytest.approx(np.linalg.norm(x - c), rel=1e-15)
        assert _deviation(np.complex128(3 + 4j), 0) == 5.0
        assert _deviation(16.0, 16) == 0.0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bit_identical_to_frob_norm_of_the_dense_difference(self, d):
        # every kind of left side, number and pattern the library passes; the difference
        # is taken on a row-major complex copy of X, as the kernel sums it
        rng = np.random.default_rng(50 + d)
        z = complex(rng.standard_normal(), rng.standard_normal())
        numbers = [d**2, 1 / d, np.float64(d) ** 3, np.array(2.5), 2.5 - 1j]

        def dense_difference(x, c, dense):
            return frob_norm(np.array(x, dtype=complex, order="C") - c * dense)

        for x in (np.array(z), z, np.complex128(z), z.real):
            for c in numbers:
                assert _deviation(x, c) == dense_difference(x, c, 1), (type(x), c)
        small = oracles.random_matrix(d, rng)
        for x in (small, small.T, np.asfortranarray(small)):
            for c in numbers:
                assert _deviation(x, c) == dense_difference(x, c, np.eye(d)), c
            full = oracles.random_matrix(d, rng)
            assert _deviation(x, full) == dense_difference(x, 1, full)
        big = oracles.random_matrix(d * d, rng)
        patterns = [
            (None, np.eye(d * d)),
            (_swap_support(d), swap_operator(d).real),
            (_phi_grid(d), (bell_projector(d) != 0).astype(float)),
        ]
        for x in (big, big.T, big.real):
            for at, dense in patterns:
                for c in numbers:
                    assert _deviation(x, c, at) == dense_difference(x, c, dense), (at, c)


@pytest.mark.parametrize("d", range(2, 17))
def test_reciprocal_scaling_is_complex_division_bit_for_bit(d):
    # numpy divides by a real s with Smith's method, which multiplies by 1/s: the package's
    # x * (1 / s) keeps every finite nonzero entry of x / s, over magnitudes 1e-300 ... 1e300
    rng = np.random.default_rng(1600 + d)
    shape = (64, 64)
    mantissa = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    x = mantissa * 10.0 ** rng.integers(-300, 301, size=shape)
    for s in (d, d**2, d**3, d**4, np.sqrt(d)):
        got, want = x * (1 / s), x / s
        assert np.isfinite(want).all()
        for g, w in ((got.real, want.real), (got.imag, want.imag)):
            nonzero = w != 0
            assert nonzero.any()
            assert np.array_equal(g[nonzero].view(np.uint64), w[nonzero].view(np.uint64)), s
            assert not g[~nonzero].any()
