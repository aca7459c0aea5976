"""Executable catalogue of operator-basis identities.

Every entry evaluates both sides of one equality for a concrete basis
{g_jk} (normalized to Tr(g^dag g) = d) and reports the Frobenius-norm
residual, or the absolute difference for scalar equalities. The
catalogue is closed: :data:`_CATALOGUE` is its one table, an ordered
tuple of records, each holding an id, the formula, the residual and the
tolerance model (:func:`~hsbasis.linalg.tolerance` unless the entry is
a scalar sum). :class:`IdentityId` is built from the records' ids, so
its members, their values and the default run order are the table's.

Every basis-sum entry has one g and one g^* per summation index, so it
is a contraction of the completeness tensor
T[i,j,k,l] = sum_m g_m[i,j] g_m^*[k,l] (= d delta_ik delta_jl for an
orthogonal basis) with itself: T = reshuffle(K), an O(d^4) index move of
K = sum g (x) g^* (:attr:`~hsbasis.bases.MatrixBasis.bell_sum`). Indices
a, b are free, the others summed:

- O(d^3) partial traces: sum g g^dag = T[a,i,b,i], sum g g^* = T[a,i,i,b],
  sum Tr(g) g^dag = T[i,i,b,a], sum Tr(g) g^* = T[i,i,a,b] and
  sum |Tr g|^2 = T[i,i,j,j];
- O(d^5), one d x d^3 by d^3 x d product each (:func:`_chain`):
  sum g_m^dag g_n g_m g_n^dag = T[j,k,i,a] T[i,j,b,k],
  sum g_m g_n g_m^* g_n^* = T[a,i,j,k] T[i,j,k,b],
  sum g_m g_n^* g_m^dag g_n = T[a,i,k,j] T[k,b,i,j] and
  sum Tr(g_m g_n) (g_m g_n)^* = T[i,j,a,c] T[j,i,c,b];
- O(d^4): sum |Tr(g_m g_n)|^2 = T[i,j,k,l] T[j,i,l,k].

The two expansions read K and :attr:`~hsbasis.bases.MatrixBasis.swap_sum`.
The three two-party four-factor sums are d^2 x d^2 products of these two
sums, their adjoints or conjugates, by the mixed-product rule
(A (x) B)(C (x) D) = AC (x) BD, O(d^6) each; no d^4-long stack of pair
products is built. The two seeded checks on random A, B cost O(d^4): they
read (A (x) B) SWAP off reshuffle(SWAP) without forming A (x) B
(:meth:`_Operands.swap_trace`).

A run shares its operands (:class:`_Operands`), and every residual is
:func:`~hsbasis.linalg._deviation`'s. The trade-off: checked alone on a
fresh basis, a two-factor entry builds K in O(d^6), where a sum over the
d^2 elements would take O(d^5).
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .bases import MatrixBasis
from .linalg import (
    _deviation,
    _frozen,
    _phi_grid,
    _swap_support,
    apply_superop,
    dagger,
    hs_gram,
    reshuffle,
    scalar_tolerance,
    tolerance,
)
from .operators import bell_expansion, swap_expansion, swap_operator
from .report import IdentityCheck, IdentityReport

__all__ = ["IdentityId", "check_identity", "run_catalogue", "DEFAULT_SEED"]

DEFAULT_SEED = 0


_SEEDED_CACHE_SIZE = 16
"""Seeded pairs kept at once, least recently used dropped first; 32 d^2 bytes each."""


@lru_cache(maxsize=_SEEDED_CACHE_SIZE)
def _seeded_pair(seed: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """A, B: d x d complex Gaussian matrices from one generator on ``seed``, drawn once per
    (seed, d) per process and returned read-only to every later run at that (seed, d)."""
    z = np.random.default_rng(seed).standard_normal((2, 2, d, d))  # re A, im A, re B, im B
    return tuple(_frozen(z[:, 0] + 1j * z[:, 1], built=True))


class _Operands:
    """What the catalogue entries share, derived once per run.

    The basis sums are the basis's own and A, B are :func:`_seeded_pair`'s.
    The other operands are computed on first use, so a run builds only
    those its entries need, and each at most once: T, its partial trace
    T[i,i,a,b] and reshuffle(SWAP), for which SWAP is built once per run
    and not kept.
    """

    def __init__(self, basis: MatrixBasis, seed: int) -> None:
        # checked before it keys the cache, where 4.0 would hash equal to 4
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self.basis = basis
        self.d = basis.d
        self.seed = int(seed)

    @cached_property
    def t(self) -> np.ndarray:
        """T[i,j,k,l] = sum_m g_m[i,j] g_m^*[k,l], the basis's Bell sum reshuffled, O(d^4)."""
        return reshuffle(self.basis.bell_sum, self.d).reshape((self.d,) * 4)

    @cached_property
    def trace_weighted(self) -> np.ndarray:
        """sum Tr(g) g^* = T[i,i,a,b], O(d^3); its transpose is sum Tr(g) g^dag."""
        return np.trace(self.t, axis1=0, axis2=1)

    @cached_property
    def swap_reshuffled(self) -> np.ndarray:
        """reshuffle(SWAP), read by every swap_trace of the run; SWAP itself is not kept."""
        return reshuffle(swap_operator(self.d), self.d)

    @property
    def random_pair(self) -> tuple[np.ndarray, np.ndarray]:
        """A, B of the run's seed, from :func:`_seeded_pair`."""
        return _seeded_pair(self.seed, self.d)

    def swap_trace(self, b: np.ndarray) -> np.ndarray:
        """W(B) = Tr_2[(1 (x) B) SWAP] = devec(reshuffle(SWAP) vec(B^T)), O(d^4); for any X
        in place of SWAP, Tr_2[(A (x) B) X] = A W(B) and Tr[(A (x) B) X] = Tr(A W(B))."""
        return apply_superop(self.swap_reshuffled, b.T)


def _chain(t: np.ndarray, left, right) -> np.ndarray:
    """C[a,b] = sum_pqr L[a,p,q,r] R[p,q,r,b] for L, R = t.transpose(left), t.transpose(right),
    as one d x d^3 by d^3 x d matrix product, O(d^5)."""
    d = len(t)
    return t.transpose(left).reshape(d, -1) @ t.transpose(right).reshape(-1, d)


def _trswap_choi(s: _Operands) -> float:
    a, b = s.random_pair
    return _deviation(a @ s.swap_trace(b), a @ b)


def _purity_link(s: _Operands) -> float:
    b = s.random_pair[0]
    coeffs = hs_gram(s.basis.elements, b)  # the Bloch coefficients Tr(g^dag B)
    via_swap = np.vdot(b, s.swap_trace(b))
    via_bloch = np.vdot(coeffs, coeffs).real / s.d
    purity = np.vdot(b, b).real
    return max(abs(x - y) for x, y in itertools.combinations((via_swap, via_bloch, purity), 2))


@dataclass(frozen=True)
class _Identity:
    """One catalogue entry: its id, its formula, its residual on a run's operands,
    and the tolerance model the residual is judged against at dimension d."""

    id: str
    formula: str
    residual: Callable[[_Operands], float]
    tolerance: Callable[[int], float] = tolerance


# the catalogue in run order; IdentityId is built from it
_CATALOGUE = (
    # two-factor sums
    _Identity(
        "swap_expansion",
        "SWAP == (1/d) sum g (x) g^dag",
        lambda s: _deviation(swap_expansion(s.basis), 1, _swap_support(s.d)),
    ),
    _Identity(
        "gg_dagger_sum",
        "sum g g^dag == d^2 1",
        lambda s: _deviation(np.trace(s.t, axis1=1, axis2=3), s.d**2),
    ),
    _Identity(
        "trace_weighted_sum",
        "sum Tr(g) g^dag == d 1",
        lambda s: _deviation(s.trace_weighted.T, s.d),
    ),
    _Identity(
        "trace_norm_sum",
        "sum |Tr g|^2 == d^2",
        lambda s: _deviation(np.trace(s.trace_weighted), s.d**2),
        scalar_tolerance,
    ),
    _Identity(
        "bell_expansion",
        "|Phi+><Phi+| == (1/d^2) sum g (x) g^*",
        lambda s: _deviation(bell_expansion(s.basis), 1 / s.d, _phi_grid(s.d)),
    ),
    _Identity(
        "gg_conj_sum",
        "sum g g^* == d 1",
        lambda s: _deviation(np.trace(s.t, axis1=1, axis2=2), s.d),
    ),
    _Identity(
        "trace_weighted_conj",
        "sum Tr(g) g^* == d 1",
        lambda s: _deviation(s.trace_weighted, s.d),
    ),
    # four-factor sums over pairs (a,b), (j,k)
    _Identity(
        "identity_4op_tensor",
        "1 (x) 1 == (1/d^2) sum g_ab^dag g_jk (x) g_ab g_jk^dag",
        lambda s: _deviation(dagger(s.basis.swap_sum) @ s.basis.swap_sum * (1 / s.d**2), 1),
    ),
    _Identity(
        "fourops_1",
        "sum g_ab^dag g_jk g_ab g_jk^dag == d^2 1",
        lambda s: _deviation(_chain(s.t, (3, 2, 0, 1), (0, 1, 3, 2)), s.d**2),
    ),
    _Identity(
        "fourops_2",
        "sum g_ab g_jk g_ab^* g_jk^* == d^3 1",
        lambda s: _deviation(_chain(s.t, (0, 1, 2, 3), (0, 1, 2, 3)), s.d**3),
    ),
    _Identity(
        "fourops_3",
        "sum g_ab g_jk^* g_ab^dag g_jk == d^2 1",
        lambda s: _deviation(_chain(s.t, (0, 1, 2, 3), (2, 0, 3, 1)), s.d**2),
    ),
    _Identity(
        "bellbell_tensor",
        "|Phi+><Phi+| == (1/d^4) sum g_ab g_jk (x) (g_ab g_jk)^*",
        lambda s: _deviation(s.basis.bell_sum @ s.basis.bell_sum * (1 / s.d**4), 1 / s.d, _phi_grid(s.d)),
    ),
    _Identity(
        "swapbell_tensor",
        "|Phi+><Phi+| == (1/d^3) sum g_ab g_jk^* (x) g_ab^dag g_jk",
        lambda s: _deviation(
            s.basis.swap_sum @ s.basis.bell_sum.conj() * (1 / s.d**3), 1 / s.d, _phi_grid(s.d)
        ),
    ),
    _Identity(
        "tr1_bellbell",
        "sum Tr(g_ab g_jk) (g_ab g_jk)^* == d^3 1",
        lambda s: _deviation(_chain(s.t, (2, 0, 1, 3), (1, 0, 2, 3)), s.d**3),
    ),
    _Identity(
        "tr12_bellbell",
        "sum |Tr(g_ab g_jk)|^2 == d^4",
        lambda s: _deviation(s.t.ravel() @ s.t.transpose(1, 0, 3, 2).ravel(), float(s.d) ** 4),
        scalar_tolerance,
    ),
    # seeded random-operator checks, on the run's one draw of A, B
    _Identity("trswap_choi", "Tr_2(A (x) B SWAP) == A B for random A, B", _trswap_choi),
    _Identity(
        "purity_link",
        "Tr(B^dag (x) B SWAP) == (1/d) sum |b_jk|^2 == Tr(B^dag B)",
        _purity_link,
        scalar_tolerance,
    ),
)

IdentityId = enum.Enum(
    "IdentityId",
    [(entry.id.upper(), entry.id) for entry in _CATALOGUE],
    module=__name__,
    qualname="IdentityId",
)
IdentityId.__doc__ = "Tags of the identity catalogue, in run order; values are the CLI-facing names."


def _entry(value) -> _Identity:
    """The record of an IdentityId or of its (case-insensitive) string name."""
    name = value.value if isinstance(value, IdentityId) else str(value).lower()
    for entry in _CATALOGUE:
        if entry.id == name:
            return entry
    known = ", ".join(entry.id for entry in _CATALOGUE)
    raise ValueError(f"unknown identity {value!r}; known: {known}")


def check_identity(identity, basis: MatrixBasis, seed: int = DEFAULT_SEED) -> IdentityCheck:
    """Evaluate one catalogue identity for the given basis.

    The seed only affects the two entries that draw random operators;
    results are deterministic given the seed.
    """
    return run_catalogue(basis, [identity], seed).checks[0]


def run_catalogue(
    basis: MatrixBasis,
    ids: Iterable | None = None,
    seed: int = DEFAULT_SEED,
) -> IdentityReport:
    """Run the whole catalogue (or a non-empty subset, in the order given).

    The entries share one set of operands, so each basis sum is built once.
    The seed must be an int or np.integer >= 0; anything else raises ValueError.
    """
    selected = _CATALOGUE if ids is None else [_entry(i) for i in ids]
    if not selected:
        raise ValueError("ids must name at least one identity")
    operands = _Operands(basis, seed)
    return IdentityReport(
        tuple(
            IdentityCheck(
                id=entry.id,
                description=entry.formula,
                residual=float(entry.residual(operands)),
                tolerance=float(entry.tolerance(operands.d)),
            )
            for entry in selected
        )
    )
