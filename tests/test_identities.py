"""Tests for the executable identity catalogue."""

import dataclasses
import itertools
import os
import pickle
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

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
from hsbasis import bases, identities, linalg, maps, operators, transforms
from hsbasis.identities import (
    DEFAULT_SEED,
    IdentityId,
    _Operands,
    check_identity,
    run_catalogue,
)
from hsbasis.linalg import (
    apply_superop,
    dagger,
    frob_norm,
    hs_inner,
    kron_sum,
    partial_transpose,
    product_sum,
    sandwich_sum,
    scalar_tolerance,
    tensor,
    tolerance,
)
from hsbasis.maps import trace_map
from hsbasis.operators import bell_projector, swap_operator
from hsbasis.report import IdentityCheck, IdentityReport

import oracles

BUILTINS = [standard_basis, gellmann_basis, weyl_basis]

ALL_IDS = list(IdentityId)
SEEDED_IDS = [IdentityId.TRSWAP_CHOI, IdentityId.PURITY_LINK]
BASIS_SUM_IDS = [i for i in ALL_IDS if i not in SEEDED_IDS]


def test_catalogue_is_closed_at_17_entries():
    assert len(ALL_IDS) == 17


class TestCatalogueTable:
    """IdentityId, check_identity and run_catalogue all read the one table of records."""

    def test_identity_ids_are_the_records_in_order(self):
        assert [i.value for i in IdentityId] == [e.id for e in identities._CATALOGUE]
        assert [i.name for i in IdentityId] == [e.id.upper() for e in identities._CATALOGUE]

    @pytest.mark.parametrize("d", [2, 3])
    def test_records_reach_check_identity(self, d):
        basis = weyl_basis(d)
        for entry in identities._CATALOGUE:
            check = check_identity(entry.id, basis)
            assert (check.id, check.description) == (entry.id, entry.formula)
            assert check.tolerance == entry.tolerance(d)

    def test_only_the_scalar_sums_take_the_scalar_tolerance(self):
        scalar = {e.id for e in identities._CATALOGUE if e.tolerance is scalar_tolerance}
        assert scalar == {"trace_norm_sum", "tr12_bellbell", "purity_link"}
        others = [e for e in identities._CATALOGUE if e.id not in scalar]
        assert all(e.tolerance is tolerance for e in others)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_identity_ids_pickle_round_trip(self, protocol):
        for identity in IdentityId:
            assert pickle.loads(pickle.dumps(identity, protocol)) is identity

    @pytest.mark.parametrize("ids", [[], (), iter([])])
    def test_empty_selection_rejected(self, ids):
        with pytest.raises(ValueError, match="at least one identity"):
            run_catalogue(gellmann_basis(2), ids=ids)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("builder", BUILTINS)
def test_catalogue_passes_builtin(builder, d):
    report = run_catalogue(builder(d), seed=3)
    assert len(report) == 17
    assert report.all_passed, [c.id for c in report.failures]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_catalogue_basis_independence(d):
    rng = np.random.default_rng(500 + d)
    for _ in range(20):
        report = run_catalogue(random_basis(d, rng), seed=9)
        assert report.all_passed, [c.id for c in report.failures]


class TestVerdict:
    """The verdict is derived from the residual, so a record cannot contradict it."""

    @pytest.mark.parametrize(
        "residual, passed", [(0.0, True), (1.0, True), (1.5, False), (float("nan"), False)]
    )
    def test_passes_iff_within_tolerance(self, residual, passed):
        check = IdentityCheck("x", "x", residual, 1.0)
        assert check.passed is passed
        assert IdentityReport((check,)).all_passed is passed

    def test_verdict_is_not_a_field(self):
        with pytest.raises(TypeError):
            IdentityCheck("x", "x", 2.0, 1.0, passed=True)


class TestIndividualChecks:
    def test_trace_norm_sum_gellmann_exact(self):
        # only the identity element carries trace; |Tr 1_d|^2 = d^2 exactly
        for d in (2, 3, 4):
            check = check_identity(IdentityId.TRACE_NORM_SUM, gellmann_basis(d))
            assert check.residual == 0.0

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_trace_norm_sum_standard(self, d):
        check = check_identity(IdentityId.TRACE_NORM_SUM, standard_basis(d))
        assert check.passed
        assert check.residual <= tolerance(d)

    def test_fourops_2_weyl_d3(self):
        check = check_identity(IdentityId.FOUROPS_2, weyl_basis(3))
        assert check.passed

    def test_string_names_accepted(self):
        check = check_identity("swap_expansion", gellmann_basis(2))
        assert check.id == "swap_expansion"
        assert check.passed

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="unknown identity"):
            check_identity("no_such_identity", gellmann_basis(2))

    @pytest.mark.parametrize("one", ["swap_expansion", "SWAP_EXPANSION", IdentityId.SWAP_EXPANSION])
    def test_one_id_is_a_one_entry_selection(self, one):
        # a string is not read character by character, and an IdentityId is not iterated
        report = run_catalogue(gellmann_basis(2), ids=one)
        assert [c.id for c in report.checks] == ["swap_expansion"]

    def test_one_unknown_id_rejected_by_name(self):
        with pytest.raises(ValueError, match="unknown identity 'no_such_identity'"):
            run_catalogue(gellmann_basis(2), ids="no_such_identity")

    def test_subset_selection(self):
        ids = [IdentityId.SWAP_EXPANSION, "purity_link"]
        report = run_catalogue(gellmann_basis(3), ids=ids)
        assert [c.id for c in report.checks] == ["swap_expansion", "purity_link"]

    def test_seed_determinism(self):
        b = weyl_basis(3)
        first = run_catalogue(b, ids=[IdentityId.TRSWAP_CHOI, IdentityId.PURITY_LINK], seed=5)
        second = run_catalogue(b, ids=[IdentityId.TRSWAP_CHOI, IdentityId.PURITY_LINK], seed=5)
        assert [c.residual for c in first.checks] == [c.residual for c in second.checks]


class TestDenormalizedBasis:
    def test_swap_expansion_residual_scales_as_derived(self):
        # scaling every element by c turns the expansion into c^2 SWAP, so the
        # residual is |c^2-1| * ||SWAP||_F = |c^2-1| * d
        d, c = 3, 1.1
        scaled = MatrixBasis(d, c * np.array(gellmann_basis(d).elements))
        report = run_catalogue(scaled, ids=[IdentityId.SWAP_EXPANSION])
        check = report.checks[0]
        assert not check.passed
        assert check.residual == pytest.approx(abs(c**2 - 1) * d, rel=1e-12)
        assert not report.all_passed

    def test_single_scaled_element_residual(self):
        # one element scaled by c changes the sum by ((c^2-1)/d) g (x) g^dag,
        # whose Frobenius norm is |c^2-1| since ||g||_F^2 = d
        d, c = 3, 2.0
        elements = np.array(weyl_basis(d).elements)
        elements[4] = c * elements[4]
        check = check_identity(IdentityId.SWAP_EXPANSION, MatrixBasis(d, elements))
        assert not check.passed
        assert check.residual == pytest.approx(abs(c**2 - 1), rel=1e-12)


class TestFourOpLoopOracles:
    """Quadruple-index loops recompute every four-factor sum independently."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("builder", [gellmann_basis, weyl_basis])
    def test_matrix_four_op_sums(self, builder, d):
        g = list(builder(d).elements)
        s1 = np.zeros((d, d), dtype=complex)
        s2 = np.zeros((d, d), dtype=complex)
        s3 = np.zeros((d, d), dtype=complex)
        t1 = np.zeros((d * d, d * d), dtype=complex)
        t2 = np.zeros((d * d, d * d), dtype=complex)
        t3 = np.zeros((d * d, d * d), dtype=complex)
        tr_weighted = np.zeros((d, d), dtype=complex)
        tr_sq = 0.0
        for a in g:
            for b in g:
                ab = a @ b
                s1 += a.conj().T @ b @ a @ b.conj().T
                s2 += ab @ ab.conj()
                s3 += a @ b.conj() @ a.conj().T @ b
                t1 += oracles.kron_loops(a.conj().T @ b, a @ b.conj().T)
                t2 += oracles.kron_loops(ab, ab.conj())
                t3 += oracles.kron_loops(a @ b.conj(), a.conj().T @ b)
                tr_weighted += np.trace(ab) * ab.conj()
                tr_sq += abs(np.trace(ab)) ** 2
        eye = np.eye(d)
        bell = bell_projector(d)
        assert np.allclose(s1, d**2 * eye, atol=1e-11)
        assert np.allclose(s2, d**3 * eye, atol=1e-11)
        assert np.allclose(s3, d**2 * eye, atol=1e-11)
        assert np.allclose(t1 / d**2, np.eye(d * d), atol=1e-11)
        assert np.allclose(t2 / d**4, bell, atol=1e-11)
        assert np.allclose(t3 / d**3, bell, atol=1e-11)
        assert np.allclose(tr_weighted, d**3 * eye, atol=1e-11)
        assert tr_sq == pytest.approx(float(d) ** 4)

    @pytest.mark.parametrize("d", [2, 3])
    def test_fourops_1_equals_trace_map_pipeline(self, d):
        # the inner (j,k) sum is d * trace_map(g_ab), contracted against g_ab^dag
        b = gellmann_basis(d)
        g = list(b.elements)
        direct = np.zeros((d, d), dtype=complex)
        for a in g:
            for x in g:
                direct += a.conj().T @ x @ a @ x.conj().T
        pipeline = np.zeros((d, d), dtype=complex)
        for a in g:
            pipeline += a.conj().T @ (d * trace_map(a, b))
        assert np.allclose(direct, pipeline, atol=1e-11)


class TestConjugationPlacement:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_swap_dagger_on_either_factor(self, d):
        b = random_basis(d, 600 + d)
        g = b.elements
        gd = g.conj().transpose(0, 2, 1)
        second = np.einsum("nij,nkl->ikjl", g, gd).reshape(d * d, d * d) / d
        first = np.einsum("nij,nkl->ikjl", gd, g).reshape(d * d, d * d) / d
        assert np.linalg.norm(second - first) <= tolerance(d)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bell_conjugations_on_either_factor(self, d):
        b = random_basis(d, 700 + d)
        g = b.elements
        gt = g.transpose(0, 2, 1)
        gd = g.conj().transpose(0, 2, 1)
        second = np.einsum("nij,nkl->ikjl", g, g.conj()).reshape(d * d, d * d) / d**2
        first = np.einsum("nij,nkl->ikjl", gt, gd).reshape(d * d, d * d) / d**2
        assert np.linalg.norm(second - first) <= tolerance(d)


def test_two_factor_sums_with_loops():
    for builder in BUILTINS:
        d = 3
        g = list(builder(d).elements)
        gg_dag = sum(a @ a.conj().T for a in g)
        gg_conj = sum(a @ a.conj() for a in g)
        tr_dag = sum(np.trace(a) * a.conj().T for a in g)
        tr_conj = sum(np.trace(a) * a.conj() for a in g)
        swap = sum(oracles.kron_loops(a, a.conj().T) for a in g) / d
        bell = sum(oracles.kron_loops(a, a.conj()) for a in g) / d**2
        eye = np.eye(d)
        assert np.allclose(gg_dag, d**2 * eye, atol=1e-12)
        assert np.allclose(gg_conj, d * eye, atol=1e-12)
        assert np.allclose(tr_dag, d * eye, atol=1e-12)
        assert np.allclose(tr_conj, d * eye, atol=1e-12)
        assert np.allclose(swap, oracles.swap_loops(d), atol=1e-12)
        assert np.allclose(bell, oracles.bell_projector_loops(d), atol=1e-12)


def _random_stack(n, d, rng):
    return np.array([oracles.random_matrix(d, rng) for _ in range(n)])


def _close(got, want):
    return np.linalg.norm(np.subtract(got, want)) <= 1e-12 * max(1.0, np.linalg.norm(want))


class TestFourFactorKernels:
    """The O(d^6) factorizations against double loops over unrelated, non-orthogonal stacks.

    The stacks are random, distinct and of length n != d^2, so a transposed or
    swapped argument cannot be hidden by an orthogonality relation.
    """

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pair_kron_sums(self, d, n):
        rng = np.random.default_rng(10 * d + n)
        x, y, z, w = (_random_stack(n, d, rng) for _ in range(4))
        _, kron = oracles.four_factor_loops(x, y, z, w)
        assert _close(kron_sum(x, z) @ kron_sum(y, w), kron)

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_index_moves_act_on_the_factors(self, d, n):
        # the catalogue reads every sum off one kron_sum by these moves
        rng = np.random.default_rng(40 * d + n)
        x, y = _random_stack(n, d, rng), _random_stack(n, d, rng)
        k = kron_sum(x, y)
        moved = [
            (partial_transpose(k, 2, d), x, y.swapaxes(-1, -2)),
            (dagger(k), dagger(x), dagger(y)),
            (k.conj(), x.conj(), y.conj()),
        ]
        for got, a, b in moved:
            assert _close(got, sum(oracles.kron_loops(a[i], b[i]) for i in range(n)))
        m = oracles.random_matrix(d, rng)
        adjoint = apply_superop(dagger(sandwich_sum(x, y)), m)
        assert _close(adjoint, oracles.sandwich_loops(dagger(x), m, dagger(y)))

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_product_sum(self, d, n):
        rng = np.random.default_rng(20 * d + n)
        x, y = _random_stack(n, d, rng), _random_stack(n, d, rng)
        assert _close(product_sum(x, y), sum(x[a] @ y[a] for a in range(n)))


def _left_side(identity, basis):
    """The matrix or number an entry compares with its right side, as the catalogue computes it."""
    sides = []
    real = identities._deviation

    def capture(lhs, *target):
        sides.append(np.copy(lhs))
        return real(lhs, *target)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "_deviation", capture)
        check_identity(identity, basis)
    (lhs,) = sides
    return lhs


def _completeness_loops(g):
    """T[i,j,k,l] = sum_m g_m[i,j] g_m^*[k,l], one entry per iteration."""
    d = len(g[0])
    t = np.zeros((d,) * 4, dtype=complex)
    for x in g:
        for i, j, k, l in itertools.product(range(d), repeat=4):
            t[i, j, k, l] += x[i, j] * np.conj(x[k, l])
    return t


def _completeness_reads_loops(g):
    """The left side of every basis-sum entry before it is divided by d**over, by sums over
    the elements and pairs: K = sum g (x) g^* and S = sum g (x) g^dag term by term, the
    two-party products from the pair loops."""
    gc = g.conj()
    gd = gc.transpose(0, 2, 1)
    n = len(g)
    m = oracles.trace_gram_loops(g)
    p1, s_dag_s = oracles.four_factor_loops(gd, g, g, gd)
    p2, k_k = oracles.four_factor_loops(g, g, gc, gc)
    p3, s_k_conj = oracles.four_factor_loops(g, gc, gd, g)
    return {
        IdentityId.SWAP_EXPANSION: sum(oracles.kron_loops(x, y) for x, y in zip(g, gd)),
        IdentityId.GG_DAGGER_SUM: sum(x @ y for x, y in zip(g, gd)),
        IdentityId.TRACE_WEIGHTED_SUM: oracles.combine_loops([np.trace(x) for x in g], gd),
        IdentityId.TRACE_NORM_SUM: sum(abs(np.trace(x)) ** 2 for x in g),
        IdentityId.BELL_EXPANSION: sum(oracles.kron_loops(x, y) for x, y in zip(g, gc)),
        IdentityId.GG_CONJ_SUM: sum(x @ y for x, y in zip(g, gc)),
        IdentityId.TRACE_WEIGHTED_CONJ: oracles.combine_loops([np.trace(x) for x in g], gc),
        IdentityId.IDENTITY_4OP_TENSOR: s_dag_s,
        IdentityId.FOUROPS_1: p1,
        IdentityId.FOUROPS_2: p2,
        IdentityId.FOUROPS_3: p3,
        IdentityId.BELLBELL_TENSOR: k_k,
        IdentityId.SWAPBELL_TENSOR: s_k_conj,
        IdentityId.TR1_BELLBELL: sum(
            m[a, b] * gc[a] @ gc[b] for a in range(n) for b in range(n)
        ),
        IdentityId.TR12_BELLBELL: sum(abs(v) ** 2 for v in m.ravel()),
    }


def _einsum(spec, t):
    """np.einsum of a spec over T, each factor marked * conjugated and the mark stripped."""
    factors = spec.split("->")[0].split(",")
    return np.einsum(spec.replace("*", ""), *[t.conj() if f.endswith("*") else t for f in factors])


class TestCompletenessReads:
    """Every basis-sum entry, read off T, against loops on random, non-orthogonal elements.

    Random elements obey no completeness relation, so a wrong axis in a
    partial trace or a permutation, a missing transpose or a conjugate on the
    wrong factor changes the value read; comparing values, not residuals, also
    catches a transposed or conjugated result, which has the same distance
    from a multiple of 1.
    """

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_reads_match_loops(self, d):
        # the compiled left side and an einsum of the entry's spec both match the loops,
        # so each spec states its formula and compiles to it
        basis = _random_elements_basis(d)
        reads = _completeness_reads_loops(basis.elements)
        entries = {e.id: e for e in identities._CATALOGUE if e.spec is not None}
        assert set(entries) == {i.value for i in reads} == {i.value for i in BASIS_SUM_IDS}
        t = _completeness_loops(basis.elements)
        for identity, want in reads.items():
            entry = entries[identity.value]
            assert _close(_left_side(identity, basis) * d**entry.over, want), identity
            got = _einsum(entry.spec, t)
            assert _close(np.reshape(got, np.shape(want)), want), identity


def _dense_targets(d, a, b):
    """The right side of every entry that reads one matrix or number, written out densely."""
    eye = np.eye(d)
    return {
        IdentityId.SWAP_EXPANSION: swap_operator(d),
        IdentityId.GG_DAGGER_SUM: d**2 * eye,
        IdentityId.TRACE_WEIGHTED_SUM: d * eye,
        IdentityId.TRACE_NORM_SUM: d**2,
        IdentityId.BELL_EXPANSION: bell_projector(d),
        IdentityId.GG_CONJ_SUM: d * eye,
        IdentityId.TRACE_WEIGHTED_CONJ: d * eye,
        IdentityId.IDENTITY_4OP_TENSOR: np.eye(d * d),
        IdentityId.FOUROPS_1: d**2 * eye,
        IdentityId.FOUROPS_2: d**3 * eye,
        IdentityId.FOUROPS_3: d**2 * eye,
        IdentityId.BELLBELL_TENSOR: bell_projector(d),
        IdentityId.SWAPBELL_TENSOR: bell_projector(d),
        IdentityId.TR1_BELLBELL: d**3 * eye,
        IdentityId.TR12_BELLBELL: d**4,
        IdentityId.TRSWAP_CHOI: a @ b,
    }


class TestResidualsAgainstDenseTargets:
    """Subtracting the target on its pattern alone gives bit for bit the dense difference."""

    @pytest.mark.parametrize("d", range(2, 7))
    @pytest.mark.parametrize("kind", ["standard", "gellmann", "weyl", "random"])
    def test_every_residual_equals_the_dense_difference(self, kind, d):
        basis = SHARED_BASES[kind](d)
        a, b = _Operands(basis, DEFAULT_SEED).random_pair
        for identity, target in _dense_targets(d, a, b).items():
            lhs = _left_side(identity, basis)
            assert check_identity(identity, basis).residual == frob_norm(lhs - target), identity
        ones = np.eye(d).ravel()  # vec(1), so d |Phi+><Phi+| = vec(1) vec(1)^T
        want = frob_norm(basis.bell_sum - d * np.outer(ones, ones))
        assert validate_basis(basis).checks[0].residual == want


def _pair_stack_residuals(g, d):
    """Residuals of the eight four-factor identities from the double-loop oracle."""
    gc = g.conj()
    gd = gc.transpose(0, 2, 1)
    eye, bell = np.eye(d), oracles.bell_projector_loops(d)
    m = oracles.trace_gram_loops(g)
    n = len(g)
    p1, k1 = oracles.four_factor_loops(gd, g, g, gd)
    p2, k2 = oracles.four_factor_loops(g, g, gc, gc)
    p3, k3 = oracles.four_factor_loops(g, gc, gd, g)
    weighted = sum(m[a, b] * gc[a] @ gc[b] for a in range(n) for b in range(n))
    norm = np.linalg.norm
    return {
        IdentityId.IDENTITY_4OP_TENSOR: norm(k1 / d**2 - np.eye(d * d)),
        IdentityId.FOUROPS_1: norm(p1 - d**2 * eye),
        IdentityId.FOUROPS_2: norm(p2 - d**3 * eye),
        IdentityId.FOUROPS_3: norm(p3 - d**2 * eye),
        IdentityId.BELLBELL_TENSOR: norm(k2 / d**4 - bell),
        IdentityId.SWAPBELL_TENSOR: norm(k3 / d**3 - bell),
        IdentityId.TR1_BELLBELL: norm(weighted - d**3 * eye),
        IdentityId.TR12_BELLBELL: abs(np.sum(np.abs(m) ** 2) - d**4),
    }


def test_four_factor_entries_on_non_orthogonal_basis():
    # one Gell-Mann element tilted towards another, renormalized to Tr(g^dag g) = d:
    # every four-factor identity fails, and the factorized entries must fail by the
    # same residual as the explicit pair sums
    d = 3
    g = np.array(gellmann_basis(d).elements)
    tilted = g[1] + 0.3 * g[2]
    g[1] = tilted * np.sqrt(d / np.vdot(tilted, tilted).real)
    basis = MatrixBasis(d, g)
    reference = _pair_stack_residuals(g, d)
    for identity, expected in reference.items():
        check = check_identity(identity, basis)
        assert check.residual == pytest.approx(expected, rel=1e-12), identity
        assert check.passed == (expected <= check.tolerance), identity
        assert not check.passed, identity
    report = {c.id: c for c in run_catalogue(basis, ids=list(reference))}
    for identity, expected in reference.items():
        assert report[identity.value].residual == pytest.approx(expected, rel=1e-12), identity
        assert not report[identity.value].passed, identity


@pytest.mark.parametrize(
    "make_basis",
    [
        lambda: random_basis(16, 1600),
        lambda: random_basis(16, 1601),
        lambda: rotated_basis(weyl_basis(12), random_unitary(144, 1200)),
    ],
    ids=["random16_a", "random16_b", "rotated_weyl12"],
)
def test_catalogue_tolerance_holds_at_large_d(make_basis):
    report = run_catalogue(make_basis(), seed=4)
    assert report.all_passed, [c.id for c in report.failures]


def _haar_rotated_weyl(d):
    return rotated_basis(weyl_basis(d), random_unitary(d * d, 900 + d))


def _random_elements_basis(d):
    rng = np.random.default_rng(950 + d)
    return MatrixBasis(d, _random_stack(d * d, d, rng))


_HASH_SEED_RUN = """
from hsbasis.bases import random_basis, random_unitary, rotated_basis, weyl_basis
from hsbasis.identities import run_catalogue
print("".join(set("ijkl")))
for basis in (random_basis(6, 7), rotated_basis(weyl_basis(6), random_unitary(36, 906))):
    print([repr(c.residual) for c in run_catalogue(basis).checks])
"""

SHARED_BASES = {
    "standard": standard_basis,
    "gellmann": gellmann_basis,
    "weyl": weyl_basis,
    "random": lambda d: random_basis(d, 800 + d),
    "haar_weyl": _haar_rotated_weyl,
}

class TestSharedOperands:
    """One operand set per run: one basis sum, the rest by index moves and contractions of T."""

    @pytest.fixture
    def calls(self, monkeypatch):
        bases._named_basis.cache_clear()  # a fresh named basis builds its sum under count
        counts = dict.fromkeys(("kron_sum", "swap_operator", "bell_projector"), 0)
        for name in counts:
            # the basis builds its one sum; no run builds SWAP or the Bell projector
            module = bases if name == "kron_sum" else operators
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(module, name, counted)
        return counts

    def test_full_run_builds_each_operand_once(self, calls):
        report = run_catalogue(weyl_basis(3))
        assert report.all_passed
        assert calls == {"kron_sum": 1, "swap_operator": 0, "bell_projector": 0}
        assert not hasattr(identities, "bell_projector")
        assert not hasattr(identities, "swap_operator")

    def test_any_subset_builds_each_operand_at_most_once(self, calls):
        subsets = [[i] for i in ALL_IDS] + [list(p) for p in itertools.combinations(ALL_IDS, 2)]
        subsets.append(ALL_IDS[::-1])
        for subset in subsets:
            for name in calls:
                calls[name] = 0
            run_catalogue(gellmann_basis(2), ids=subset)
            assert calls["kron_sum"] <= 1, subset
            # the seeded checks read SWAP off T, the expansions its support
            assert calls["swap_operator"] == 0, subset
            assert calls["bell_projector"] == 0, subset

    @pytest.mark.parametrize("identity", ALL_IDS, ids=lambda i: i.value)
    def test_single_check_builds_only_its_operands(self, calls, identity):
        # every entry, the seeded ones too, reads T off the basis's one sum, sum g (x) g^*
        check_identity(identity, weyl_basis(3))
        assert calls["kron_sum"] == 1
        assert calls["swap_operator"] == 0

    @pytest.mark.parametrize("ids", [None, SEEDED_IDS, [IdentityId.SWAP_EXPANSION]])
    def test_run_on_a_cold_basis_leaves_swap_sum_unbuilt(self, ids):
        # every entry reads T, so a basis keeps its one sum and not the second array
        cold = MatrixBasis(4, weyl_basis(4).elements)
        assert run_catalogue(cold, ids=ids).all_passed
        assert "bell_sum" in vars(cold)
        assert "swap_sum" not in vars(cold)

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Calls of the matrix kernels, through whichever module's name they are made."""
        counts = dict.fromkeys(("apply_superop", "hs_gram", "combine", "product_sum"), 0)
        for module in (linalg, bases, identities, maps, operators, transforms):
            for name in counts:
                if hasattr(module, name):
                    original = getattr(module, name)

                    def counted(*args, _name=name, _original=original, **kwargs):
                        counts[_name] += 1
                        return _original(*args, **kwargs)

                    monkeypatch.setattr(module, name, counted)
        return counts

    def test_basis_sum_entries_call_no_matrix_kernel(self, kernel_calls):
        # T and the basis sums are read by partial traces, one d x d^3 product per
        # four-factor entry and d^2 x d^2 products, with no Gram, superoperator
        # application, combination or product sum anywhere in the package
        basis = random_basis(4, 5)
        kernel_calls.update(dict.fromkeys(kernel_calls, 0))  # the rotation that built it
        assert run_catalogue(basis, ids=BASIS_SUM_IDS).all_passed
        assert kernel_calls == dict.fromkeys(kernel_calls, 0)

    def test_full_run_applies_no_superoperator(self, monkeypatch):
        # of the matrix kernels, identities keeps hs_gram alone, for purity_link's Bloch
        # coefficients; W(B) is one product with T, and nothing comes from maps or operators
        kernels = ("apply_superop", "dagger", "combine", "product_sum")
        assert not any(hasattr(identities, n) for n in kernels)
        modules = {getattr(v, "__module__", None) for v in vars(identities).values()}
        assert maps.__name__ not in modules
        assert operators.__name__ not in modules
        assert operators not in vars(identities).values()
        grams = []
        original = identities.hs_gram
        monkeypatch.setattr(identities, "hs_gram", lambda *a: grams.append(a) or original(*a))
        for runs in (1, 2):
            assert run_catalogue(random_basis(4, 5)).all_passed
            assert len(grams) == runs  # B's Bloch coefficients, for purity_link

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_derived_operands_match_loops_on_a_non_orthogonal_stack(self, monkeypatch, d):
        # random elements obey no orthogonality relation, so a wrong permutation,
        # transpose or conjugate in a derived operand cannot cancel out
        runs, traced = [], []
        trace = np.trace
        monkeypatch.setattr(
            identities, "_Operands", lambda *a: runs.append(_Operands(*a)) or runs[-1]
        )
        monkeypatch.setattr(
            np, "trace", lambda x, *a, **k: traced.append(np.ndim(x)) or trace(x, *a, **k)
        )
        run_catalogue(_random_elements_basis(d))
        monkeypatch.setattr(np, "trace", trace)
        (s,) = runs
        g = s.basis.elements
        gc, gd = g.conj(), dagger(g)
        assert s.t.shape == (d, d, d, d)
        assert _close(s.t, _completeness_loops(g))
        # the run's partial traces of T, each taken once: Tr(g) g^*, g g^* and g g^dag
        assert sorted(s.traces) == [(0, 1), (1, 2), (1, 3)]
        assert traced.count(4) == 3
        assert _close(s.traces[0, 1], sum(np.trace(x) * x.conj() for x in g))
        assert _close(s.traces[1, 2], sum(x @ y for x, y in zip(g, gc)))
        assert _close(s.traces[1, 3], sum(x @ y for x, y in zip(g, gd)))
        assert "swap_sum" not in vars(s.basis)
        k_swap, k_bell = s.basis.swap_sum, s.basis.bell_sum
        derived = [(k_swap, g, gd), (dagger(k_swap), gd, g), (k_bell.conj(), gc, g)]
        for got, x, y in derived:
            assert _close(got, sum(oracles.kron_loops(a, b) for a, b in zip(x, y)))
        a = oracles.random_matrix(d, np.random.default_rng(d))
        sandwiches = [(k_swap, g, gc), (k_bell, g, gd), (dagger(k_bell), gd, g)]
        for superop, x, y in sandwiches:
            assert _close(apply_superop(superop, a), oracles.sandwich_loops(x, a, y))

    @pytest.mark.parametrize("d", [2, 3])
    def test_catalogue_matches_pair_loops_on_random_elements(self, d):
        basis = _random_elements_basis(d)
        report = {c.id: c for c in run_catalogue(basis)}
        for identity, expected in _pair_stack_residuals(basis.elements, d).items():
            assert report[identity.value].residual == pytest.approx(expected, rel=1e-12), identity

    @pytest.mark.parametrize("d", range(2, 9))
    @pytest.mark.parametrize("kind", SHARED_BASES)
    def test_run_agrees_with_single_checks(self, kind, d):
        basis = SHARED_BASES[kind](d)
        report = run_catalogue(basis, seed=2)
        assert [c.id for c in report.checks] == [i.value for i in ALL_IDS]
        for shared, identity in zip(report.checks, ALL_IDS):
            alone = check_identity(identity, basis, seed=2)
            assert shared.passed == alone.passed, identity
            assert shared.residual == alone.residual, identity

    def test_residuals_do_not_move_with_the_hash_seed(self):
        # a summation order taken from a set of index letters would follow the per-process
        # string hash; on these dense T that moves the last bits of the four-factor chains
        runs = []
        for hash_seed in ("1", "3"):  # two seeds that iterate set("ijkl") in different orders
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, OPENBLAS_NUM_THREADS="1")
            src = str(Path(identities.__file__).resolve().parents[1])
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            proc = subprocess.run(
                [sys.executable, "-c", _HASH_SEED_RUN],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append(proc.stdout.split("\n", 1))  # the set's order, then the residuals
        (order_1, residuals_1), (order_2, residuals_2) = runs
        assert order_1 != order_2
        assert residuals_1 == residuals_2

    def test_cold_run_peak_memory(self):
        # K, swap_sum, T and two temporaries of a two-party entry: 5 arrays of 16 d^4 bytes;
        # a dense SWAP or Bell projector built only to be subtracted would add one array each
        d = 16
        cold = MatrixBasis(d, _haar_rotated_weyl(d).elements)
        tracemalloc.start()
        try:
            run_catalogue(cold)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5 * 16 * d**4

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_seeded_entries_bit_identical_in_any_run(self, d):
        basis = random_basis(d, 850 + d)
        seeded = [IdentityId.TRSWAP_CHOI, IdentityId.PURITY_LINK]
        alone = {i: check_identity(i, basis, seed=11).residual for i in seeded}
        runs = [seeded, seeded[::-1], ALL_IDS, ALL_IDS[::-1]]
        for ids in runs:
            got = {c.id: c.residual for c in run_catalogue(basis, ids=ids, seed=11)}
            for i in seeded:
                assert got[i.value] == alone[i], (ids, i)



def _perturbed_weyl(d, delta, seed):
    """A cold Weyl basis whose element 1 is moved by delta times a complex Gaussian matrix."""
    g = np.array(weyl_basis(d).elements)
    g[1] += delta * oracles.random_matrix(d, np.random.default_rng(seed))
    return MatrixBasis(d, g)


def _defective_weyl(d, wrong):
    """A cold Weyl basis with element 1 scaled by 1.5, or with two of its rows exchanged."""
    g = np.array(weyl_basis(d).elements)
    g[1] = 1.5 * g[1] if wrong == "scaled" else g[1][[1, 0, *range(2, d)]]
    return MatrixBasis(d, g)


class TestSeededEntries:
    """Tr_2[(A (x) B) SWAP] = A B and Tr[(B^dag (x) B) SWAP] = Tr(B^dag B) in O(d^4), with
    SWAP the basis's own expansion (1/d) sum g (x) g^dag."""

    @pytest.mark.parametrize("d", range(2, 7))
    def test_swap_trace_matches_loop_oracles_on_a_non_orthogonal_stack(self, d):
        # random elements obey no completeness relation, so their SWAP X has no permutation
        # symmetry, and an index transposed or exchanged in the O(d^4) read-out cannot cancel
        basis = _random_elements_basis(d)
        g = basis.elements
        x = sum(oracles.kron_loops(e, e.conj().T) for e in g) / d
        s = _Operands(basis, 7)
        a, b = s.random_pair
        w = s.swap_trace(b)
        assert _close(w, oracles.combine_loops([oracles.hs_inner_loops(e, b) for e in g], g) / d)
        assert _close(a @ w, oracles.trswap_loops(a, b, x))
        assert _close(hs_inner(b, w), oracles.purity_swap_term_loops(b, x))

    @pytest.mark.parametrize("d", range(2, 7))
    def test_residuals_match_kronecker_oracles_on_a_non_orthogonal_stack(self, d):
        basis = _random_elements_basis(d)
        g = basis.elements
        x = sum(oracles.kron_loops(e, e.conj().T) for e in g) / d
        got = {c.id: c.residual for c in run_catalogue(basis, ids=SEEDED_IDS, seed=3)}
        first, second = _Operands(basis, 3).random_pair
        trswap = np.linalg.norm(oracles.trswap_loops(first, second, x) - first @ second)
        # purity_link's B is the run's first draw
        sides = (
            oracles.purity_swap_term_loops(first, x),
            sum(abs(oracles.hs_inner_loops(e, first)) ** 2 for e in g) / d,
            float(np.vdot(first, first).real),
        )
        purity = max(abs(p - q) for p, q in itertools.combinations(sides, 2))
        assert abs(got["trswap_choi"] - trswap) <= tolerance(d)
        assert abs(got["purity_link"] - purity) <= tolerance(d)

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("wrong", ["scaled", "rows_exchanged"])
    def test_defective_basis_fails_both(self, d, wrong):
        report = run_catalogue(_defective_weyl(d, wrong), ids=SEEDED_IDS, seed=5)
        assert [c.passed for c in report.checks] == [False, False]

    @pytest.mark.parametrize("d", [4, 8, 16])
    def test_a_small_defect_fails_trswap_choi(self, d):
        # one element moved by 1e-9 times a complex Gaussian: the basis is no longer
        # complete to the tolerance, and trswap_choi sees it; unmoved, it passes
        for seed in range(3):
            moved = check_identity(IdentityId.TRSWAP_CHOI, _perturbed_weyl(d, 1e-9, seed))
            assert not moved.passed, (seed, moved.residual / moved.tolerance)
            assert check_identity(IdentityId.TRSWAP_CHOI, _perturbed_weyl(d, 0.0, seed)).passed

    @pytest.fixture
    def generators(self, monkeypatch):
        """The arguments of every default_rng made from here on, with no draw cached."""
        made = []
        original = np.random.default_rng

        def counted(*args, **kwargs):
            made.append(args)
            return original(*args, **kwargs)

        identities._seeded_pair.cache_clear()
        monkeypatch.setattr(np.random, "default_rng", counted)
        return made

    @pytest.mark.parametrize(
        "ids, draws",
        [
            (SEEDED_IDS, 1),
            (SEEDED_IDS[::-1], 1),
            ([IdentityId.TRSWAP_CHOI], 1),
            ([IdentityId.PURITY_LINK], 1),
            (ALL_IDS, 1),
            (ALL_IDS[::-1], 1),
            ([i for i in ALL_IDS if i not in SEEDED_IDS], 0),
            ([IdentityId.SWAP_EXPANSION], 0),
        ],
    )
    def test_one_generator_per_run(self, generators, ids, draws):
        basis = gellmann_basis(3)
        run_catalogue(basis, ids=ids, seed=4)
        assert generators == [(4,)] * draws
        run_catalogue(basis, ids=ids, seed=4)
        assert generators == [(4,)] * draws

    def test_one_generator_per_seed_and_dimension(self, generators):
        runs = [
            (gellmann_basis(3), 4, [(4,)]),
            (gellmann_basis(3), 4, []),  # the same (seed, d)
            (weyl_basis(3), 4, []),  # another basis of the same d
            (random_basis(3, 8), np.int64(4), []),  # the same seed as a numpy integer
            (gellmann_basis(3), 5, [(5,)]),  # a new seed
            (gellmann_basis(4), 4, [(4,)]),  # a new d
        ]
        for basis, seed, new in runs:
            before = len(generators)
            run_catalogue(basis, seed=seed)
            assert generators[before:] == new, (basis.d, seed)
        assert all(type(args[0]) is int for args in generators)

    def test_shared_pair_is_read_only(self):
        for a in _Operands(weyl_basis(3), 4).random_pair:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0
            with pytest.raises(ValueError, match="read-only"):
                a += 1

    def test_shared_pair_is_one_object_across_runs_and_bases(self, monkeypatch):
        # purity_link passes its B to hs_gram, so the recorded arrays are the runs' own
        seen = []
        original = identities.hs_gram

        def recording(a, b):
            seen.append(b)
            return original(a, b)

        monkeypatch.setattr(identities, "hs_gram", recording)
        bases_of_d3 = [gellmann_basis(3), weyl_basis(3), gellmann_basis(3), random_basis(3, 9)]
        for basis in bases_of_d3:
            run_catalogue(basis, seed=4)
        assert len(seen) == len(bases_of_d3)
        assert all(b is seen[0] for b in seen)
        assert _Operands(standard_basis(3), 4).random_pair[0] is seen[0]
        assert _Operands(standard_basis(4), 4).random_pair[0] is not seen[0]
        assert _Operands(standard_basis(3), 5).random_pair[0] is not seen[0]

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_seeded_residuals_bit_identical_cold_and_warm(self, d):
        # alone or inside a full run, on a fresh draw or on the shared one
        basis = random_basis(d, 870 + d)

        def alone():
            return [check_identity(i, basis, seed=12).residual for i in SEEDED_IDS]

        def full():
            report = {c.id: c.residual for c in run_catalogue(basis, seed=12)}
            return [report[i.value] for i in SEEDED_IDS]

        got = []
        for first, second in [(alone, full), (full, alone)]:
            identities._seeded_pair.cache_clear()
            got += [first(), second()]
        assert got == [got[0]] * 4

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("ids", [None, SEEDED_IDS, [IdentityId.PURITY_LINK]])
    def test_one_reshuffle_per_run(self, monkeypatch, d, ids):
        # W(B) is read twice per full run, off the one T of that run
        shuffled = []
        original = identities.reshuffle
        monkeypatch.setattr(
            identities, "reshuffle", lambda m, dim: shuffled.append(dim) or original(m, dim)
        )
        for runs in (1, 2):
            assert run_catalogue(random_basis(d, 880 + d), ids=ids).all_passed
            assert shuffled == [d] * runs

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_no_kronecker_product_and_no_d2_by_d2_product(self, monkeypatch, d):
        class Guarded(np.ndarray):
            """T that refuses to enter a product with a d^2 x d^2 matrix."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    shapes = [np.shape(i) for i in inputs]
                    assert not all(len(s) == 2 and min(s) >= d * d for s in shapes), shapes
                plain = [i.view(np.ndarray) if isinstance(i, Guarded) else i for i in inputs]
                return getattr(ufunc, method)(*plain, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("Kronecker product formed")

        monkeypatch.setattr(np, "kron", refuse)
        build = _Operands.t.func
        monkeypatch.setattr(_Operands, "t", property(lambda s: build(s).view(Guarded)))
        report = run_catalogue(random_basis(d, 60 + d), ids=SEEDED_IDS)
        assert report.all_passed
        # the guard itself: the old O(d^6) evaluation trips both checks
        a = np.ones((d, d), dtype=complex)
        with pytest.raises(AssertionError):
            tensor(a, a)
        with pytest.raises(AssertionError):
            np.ones((d * d, d * d), dtype=complex) @ swap_operator(d).view(Guarded)


class TestSeedValidation:
    @pytest.mark.parametrize("ids", [None, SEEDED_IDS, [IdentityId.SWAP_EXPANSION]])
    def test_negative_seed_rejected_before_any_entry_runs(self, monkeypatch, ids):
        def refuse(*args):
            raise AssertionError("an entry ran")

        refusing = tuple(dataclasses.replace(e, residual=refuse) for e in identities._CATALOGUE)
        monkeypatch.setattr(identities, "_CATALOGUE", refusing)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            run_catalogue(weyl_basis(2), ids=ids, seed=-1)
        for identity in ids or ALL_IDS:
            with pytest.raises(ValueError, match="seed"):
                check_identity(identity, weyl_basis(2), seed=-1)

    @pytest.mark.parametrize("seed", [4.0, np.float64(4), 1.5, "4", None, -1, np.int64(-1)])
    def test_seed_that_is_no_non_negative_integer_rejected(self, seed):
        with pytest.raises(ValueError, match=re.escape(f"got {seed!r}")):
            run_catalogue(weyl_basis(3), seed=seed)
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            check_identity(IdentityId.TRSWAP_CHOI, weyl_basis(3), seed=seed)

    def test_float_seed_is_not_served_the_cached_draw_of_the_equal_int(self):
        run_catalogue(weyl_basis(3), ids=SEEDED_IDS, seed=4)
        assert hash(4.0) == hash(4)
        with pytest.raises(ValueError, match="got 4.0"):
            run_catalogue(weyl_basis(3), ids=SEEDED_IDS, seed=4.0)

    @pytest.mark.parametrize("seed, as_int", [(np.int64(4), 4), (np.uint8(4), 4), (True, 1)])
    def test_integer_seeds_share_the_draw_of_their_int(self, seed, as_int):
        basis = random_basis(3, 890)
        want = run_catalogue(basis, seed=as_int).checks
        assert run_catalogue(basis, seed=seed).checks == want
        assert _Operands(basis, seed).random_pair[0] is _Operands(basis, as_int).random_pair[0]
        assert type(_Operands(basis, seed).seed) is int
