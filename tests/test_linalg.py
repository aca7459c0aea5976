"""Tests for the dense linear-algebra primitives and index conventions."""

import numpy as np
import pytest

from hsbasis.linalg import (
    apply_superop,
    basis_sum,
    combine,
    devectorize,
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
        with pytest.raises(ValueError, match="shape mismatch"):
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
        with pytest.raises(ValueError, match="expected"):
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
