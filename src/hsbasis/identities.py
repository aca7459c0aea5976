"""Executable catalogue of operator-basis identities.

Every entry evaluates both sides of one equality for a concrete basis
{g_jk} (normalized to Tr(g^dag g) = d) and reports the Frobenius-norm
residual, or the absolute difference for scalar equalities. The
catalogue is closed: :data:`_CATALOGUE` is the one table of ids,
formulas, residuals and tolerance kinds.

Every basis-sum entry has one g and one g^* per summation index, so it
is a contraction of the completeness tensor
T[i,j,k,l] = sum_m g_m[i,j] g_m^*[k,l] (= d delta_ik delta_jl for an
orthogonal basis) with itself. T is an O(d^4) index move of the basis's
one sum, K = sum g (x) g^* (:attr:`~hsbasis.bases.MatrixBasis.bell_sum`,
built once in O(d^6) and shared with the maps and expansions on the same
basis): T = reshuffle(K). Indices a, b are free, the others summed:

- O(d^3) partial traces: sum g g^dag = T[a,i,b,i], sum g g^* = T[a,i,i,b],
  sum Tr(g) g^dag = T[i,i,b,a], sum Tr(g) g^* = T[i,i,a,b] and
  sum |Tr g|^2 = T[i,i,j,j];
- O(d^5), one d x d^3 by d^3 x d product each (:func:`_chain`):
  fourops_1 = T[j,k,i,a] T[i,j,b,k], fourops_2 = T[a,i,j,k] T[i,j,k,b],
  fourops_3 = T[a,i,k,j] T[k,b,i,j] and
  sum Tr(g_m g_n) (g_m g_n)^* = T[i,j,a,c] T[j,i,c,b];
- O(d^4): sum |Tr(g_m g_n)|^2 = T[i,j,k,l] T[j,i,l,k].

The two expansions read K and its party-2 transpose sum g (x) g^dag
(:attr:`~hsbasis.bases.MatrixBasis.swap_sum`). The three two-party
four-factor sums are d^2 x d^2 products of these two sums, their adjoints
or conjugates, by the mixed-product rule (A (x) B)(C (x) D) = AC (x) BD,
O(d^6) each; no d^4-long stack of pair products is built. The two seeded
checks on random A, B cost O(d^4): they read (A (x) B) SWAP off
reshuffle(SWAP) without forming A (x) B (:meth:`_Operands.swap_trace`).

A run builds T, SWAP, the Bell projector and A, B (one draw, one
generator) once each, on first use, and K once per basis. The trade-off:
checked alone on a fresh basis, a two-factor entry builds K in O(d^6),
where a sum over the d^2 elements would take O(d^5).
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable
from functools import cached_property

import numpy as np

from .bases import MatrixBasis
from .linalg import (
    apply_superop,
    dagger,
    frob_norm,
    hs_inner,
    reshuffle,
    scalar_tolerance,
    tolerance,
)
from .maps import bloch_decompose
from .operators import bell_projector, swap_operator
from .report import IdentityCheck, IdentityReport

__all__ = ["IdentityId", "check_identity", "run_catalogue", "DEFAULT_SEED"]

DEFAULT_SEED = 0


class IdentityId(enum.Enum):
    """Tags of the identity catalogue; values are the CLI-facing names."""

    SWAP_EXPANSION = "swap_expansion"
    GG_DAGGER_SUM = "gg_dagger_sum"
    TRACE_WEIGHTED_SUM = "trace_weighted_sum"
    TRACE_NORM_SUM = "trace_norm_sum"
    BELL_EXPANSION = "bell_expansion"
    GG_CONJ_SUM = "gg_conj_sum"
    TRACE_WEIGHTED_CONJ = "trace_weighted_conj"
    IDENTITY_4OP_TENSOR = "identity_4op_tensor"
    FOUROPS_1 = "fourops_1"
    FOUROPS_2 = "fourops_2"
    FOUROPS_3 = "fourops_3"
    BELLBELL_TENSOR = "bellbell_tensor"
    SWAPBELL_TENSOR = "swapbell_tensor"
    TR1_BELLBELL = "tr1_bellbell"
    TR12_BELLBELL = "tr12_bellbell"
    TRSWAP_CHOI = "trswap_choi"
    PURITY_LINK = "purity_link"


class _Operands:
    """What the catalogue entries share, derived once per run.

    The basis sums are the basis's own; the other operands are computed
    on first use, so a run builds only those its entries need, and each
    at most once.
    """

    def __init__(self, basis: MatrixBasis, seed: int) -> None:
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed}")
        self.basis = basis
        self.d = basis.d
        self.seed = seed

    @cached_property
    def t(self) -> np.ndarray:
        """T[i,j,k,l] = sum_m g_m[i,j] g_m^*[k,l], the basis's Bell sum reshuffled, O(d^4)."""
        return reshuffle(self.basis.bell_sum, self.d).reshape((self.d,) * 4)

    @cached_property
    def swap(self) -> np.ndarray:
        return swap_operator(self.d)

    @cached_property
    def bell(self) -> np.ndarray:
        return bell_projector(self.d)

    @cached_property
    def random_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """A, B: d x d complex Gaussian matrices from one generator on the run's seed."""
        rng = np.random.default_rng(self.seed)
        shape = (self.d, self.d)
        return tuple(rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in "AB")

    def swap_trace(self, b: np.ndarray) -> np.ndarray:
        """W(B) = Tr_2[(1 (x) B) SWAP] = devec(reshuffle(SWAP) vec(B^T)), O(d^4); for any X
        in place of SWAP, Tr_2[(A (x) B) X] = A W(B) and Tr[(A (x) B) X] = Tr(A W(B))."""
        return apply_superop(reshuffle(self.swap, self.d), b.T)


def _chain(t: np.ndarray, left, right) -> np.ndarray:
    """C[a,b] = sum_pqr L[a,p,q,r] R[p,q,r,b] for L, R = t.transpose(left), t.transpose(right),
    as one d x d^3 by d^3 x d matrix product, O(d^5)."""
    d = len(t)
    return t.transpose(left).reshape(d, -1) @ t.transpose(right).reshape(-1, d)


def _distance(lhs, rhs) -> float:
    """Frobenius distance; a number on the right of a matrix means that multiple of 1."""
    diff = np.array(lhs, dtype=complex, order="C")
    target = diff.reshape(-1)[:: len(diff) + 1] if diff.ndim == 2 and np.ndim(rhs) == 0 else diff
    target -= rhs
    return frob_norm(diff)


def _trswap_choi(s: _Operands) -> float:
    a, b = s.random_pair
    return _distance(a @ s.swap_trace(b), a @ b)


def _purity_link(s: _Operands) -> float:
    b = s.random_pair[0]
    via_swap = hs_inner(b, s.swap_trace(b))
    via_bloch = bloch_decompose(b, s.basis).squared_length
    purity = float(np.vdot(b, b).real)
    return max(abs(x - y) for x, y in itertools.combinations((via_swap, via_bloch, purity), 2))


# id -> (description, residual, tolerance kind)
_CATALOGUE = {
    # two-factor sums
    IdentityId.SWAP_EXPANSION: (
        "SWAP == (1/d) sum g (x) g^dag",
        lambda s: _distance(s.basis.swap_sum / s.d, s.swap),
        tolerance,
    ),
    IdentityId.GG_DAGGER_SUM: (
        "sum g g^dag == d^2 1",
        lambda s: _distance(np.trace(s.t, axis1=1, axis2=3), s.d**2),
        tolerance,
    ),
    IdentityId.TRACE_WEIGHTED_SUM: (
        "sum Tr(g) g^dag == d 1",
        lambda s: _distance(np.trace(s.t, axis1=0, axis2=1).T, s.d),
        tolerance,
    ),
    IdentityId.TRACE_NORM_SUM: (
        "sum |Tr g|^2 == d^2",
        lambda s: _distance(np.trace(np.trace(s.t, axis1=0, axis2=1)), s.d**2),
        scalar_tolerance,
    ),
    IdentityId.BELL_EXPANSION: (
        "|Phi+><Phi+| == (1/d^2) sum g (x) g^*",
        lambda s: _distance(s.basis.bell_sum / s.d**2, s.bell),
        tolerance,
    ),
    IdentityId.GG_CONJ_SUM: (
        "sum g g^* == d 1",
        lambda s: _distance(np.trace(s.t, axis1=1, axis2=2), s.d),
        tolerance,
    ),
    IdentityId.TRACE_WEIGHTED_CONJ: (
        "sum Tr(g) g^* == d 1",
        lambda s: _distance(np.trace(s.t, axis1=0, axis2=1), s.d),
        tolerance,
    ),
    # four-factor sums over pairs (a,b), (j,k)
    IdentityId.IDENTITY_4OP_TENSOR: (
        "1 (x) 1 == (1/d^2) sum g_ab^dag g_jk (x) g_ab g_jk^dag",
        lambda s: _distance(dagger(s.basis.swap_sum) @ s.basis.swap_sum / s.d**2, 1),
        tolerance,
    ),
    IdentityId.FOUROPS_1: (
        "sum g_ab^dag g_jk g_ab g_jk^dag == d^2 1",
        lambda s: _distance(_chain(s.t, (3, 2, 0, 1), (0, 1, 3, 2)), s.d**2),
        tolerance,
    ),
    IdentityId.FOUROPS_2: (
        "sum g_ab g_jk g_ab^* g_jk^* == d^3 1",
        lambda s: _distance(_chain(s.t, (0, 1, 2, 3), (0, 1, 2, 3)), s.d**3),
        tolerance,
    ),
    IdentityId.FOUROPS_3: (
        "sum g_ab g_jk^* g_ab^dag g_jk == d^2 1",
        lambda s: _distance(_chain(s.t, (0, 1, 2, 3), (2, 0, 3, 1)), s.d**2),
        tolerance,
    ),
    IdentityId.BELLBELL_TENSOR: (
        "|Phi+><Phi+| == (1/d^4) sum g_ab g_jk (x) (g_ab g_jk)^*",
        lambda s: _distance(s.basis.bell_sum @ s.basis.bell_sum / s.d**4, s.bell),
        tolerance,
    ),
    IdentityId.SWAPBELL_TENSOR: (
        "|Phi+><Phi+| == (1/d^3) sum g_ab g_jk^* (x) g_ab^dag g_jk",
        lambda s: _distance(s.basis.swap_sum @ s.basis.bell_sum.conj() / s.d**3, s.bell),
        tolerance,
    ),
    IdentityId.TR1_BELLBELL: (
        "sum Tr(g_ab g_jk) (g_ab g_jk)^* == d^3 1",
        lambda s: _distance(_chain(s.t, (2, 0, 1, 3), (1, 0, 2, 3)), s.d**3),
        tolerance,
    ),
    IdentityId.TR12_BELLBELL: (
        "sum |Tr(g_ab g_jk)|^2 == d^4",
        lambda s: _distance(s.t.ravel() @ s.t.transpose(1, 0, 3, 2).ravel(), float(s.d) ** 4),
        scalar_tolerance,
    ),
    # seeded random-operator checks, on the run's one draw of A, B
    IdentityId.TRSWAP_CHOI: (
        "Tr_2(A (x) B SWAP) == A B for random A, B",
        _trswap_choi,
        tolerance,
    ),
    IdentityId.PURITY_LINK: (
        "Tr(B^dag (x) B SWAP) == (1/d) sum |b_jk|^2 == Tr(B^dag B)",
        _purity_link,
        scalar_tolerance,
    ),
}


def coerce_identity_id(value) -> IdentityId:
    """Accept an IdentityId or its (case-insensitive) string name."""
    if isinstance(value, IdentityId):
        return value
    try:
        return IdentityId(str(value).lower())
    except ValueError:
        known = ", ".join(i.value for i in IdentityId)
        raise ValueError(f"unknown identity {value!r}; known: {known}") from None


def check_identity(identity, basis: MatrixBasis, seed: int = DEFAULT_SEED) -> IdentityCheck:
    """Evaluate one catalogue identity for the given basis.

    The seed only affects the identities that draw random operators
    (TRSWAP_CHOI, PURITY_LINK); results are deterministic given the seed.
    """
    return _check(coerce_identity_id(identity), _Operands(basis, seed))


def _check(identity: IdentityId, operands: _Operands) -> IdentityCheck:
    description, residual_of, tolerance_of = _CATALOGUE[identity]
    return IdentityCheck(
        id=identity.value,
        description=description,
        residual=float(residual_of(operands)),
        tolerance=float(tolerance_of(operands.d)),
    )


def run_catalogue(
    basis: MatrixBasis,
    ids: Iterable | None = None,
    seed: int = DEFAULT_SEED,
) -> IdentityReport:
    """Run the whole catalogue (or a subset) and collect the residuals.

    The entries share one set of operands, so each basis sum is built once.
    """
    selected = list(IdentityId) if ids is None else [coerce_identity_id(i) for i in ids]
    operands = _Operands(basis, seed)
    return IdentityReport(tuple(_check(i, operands) for i in selected))
