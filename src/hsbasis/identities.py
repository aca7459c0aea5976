"""Executable catalogue of operator-basis identities.

Every entry evaluates both sides of one equality for a concrete basis
{g_jk} (normalized to Tr(g^dag g) = d) and reports the Frobenius-norm
residual, or the absolute difference for scalar equalities. The
catalogue is closed: :data:`_CATALOGUE` is its one table, an ordered
tuple of records, each holding an id, the formula, the residual (or the
spec it is compiled from, below) and the tolerance model
(:func:`~hsbasis.linalg.tolerance` unless the entry is a scalar sum).
:class:`IdentityId` is built from the records' ids, so its members,
their values and the default run order are the table's.

Every basis-sum entry has one g and one g^* per summation index, so it
is a contraction of the completeness tensor
T[i,j,k,l] = sum_m g_m[i,j] g_m^*[k,l] (= d delta_ik delta_jl for an
orthogonal basis) with itself: T = reshuffle(K), an O(d^4) index move of
K = sum g (x) g^* (:attr:`~hsbasis.bases.MatrixBasis.bell_sum`). Ten
entries state theirs once, as a ``spec`` in ``np.einsum`` notation over
T with free indices a, b (sum g g^dag = T[a,i,b,i] is ``"aibi->ab"``),
and the power of d on their right side (d**power times 1, or the number
d**power). :func:`_contraction` compiles each spec at import into plain
numpy calls, never einsum, whose summation order would move the last
bits. One factor is traced over each repeated index pair in turn,
O(d^3), and transposed if its free indices come out as (b, a). Two
factors are transposed to (free, summed) and (summed, free), the summed
indices in ``sorted()`` order (never a set's, which varies with the hash
seed), then multiplied as one d x d^3 by d^3 x d product, O(d^5), or,
with no free index, as one flat dot, O(d^4).

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
    those its entries need, and each at most once: T, its partial traces
    (:attr:`traces`, keyed by the two axes) and reshuffle(SWAP), for which
    SWAP is built once per run and not kept.
    """

    def __init__(self, basis: MatrixBasis, seed: int) -> None:
        # checked before it keys the cache, where 4.0 would hash equal to 4
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self.basis = basis
        self.d = basis.d
        self.seed = int(seed)
        self.traces: dict[tuple[int, int], np.ndarray] = {}

    @cached_property
    def t(self) -> np.ndarray:
        """T[i,j,k,l] = sum_m g_m[i,j] g_m^*[k,l], the basis's Bell sum reshuffled, O(d^4)."""
        return reshuffle(self.basis.bell_sum, self.d).reshape((self.d,) * 4)

    def trace(self, axes: tuple[int, int]) -> np.ndarray:
        """T traced over two of its axes, O(d^3), at most once per run: (0, 1) is read by
        three entries."""
        if axes not in self.traces:
            self.traces[axes] = np.trace(self.t, axis1=axes[0], axis2=axes[1])
        return self.traces[axes]

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


def _contraction(spec: str) -> Callable[[_Operands], np.ndarray]:
    """The left side a spec over T names, as the numpy calls of the module docstring."""
    inputs, free = spec.split("->")
    factors = inputs.split(",")
    if len(factors) == 2:
        summed = sorted(set(inputs) - set(free) - {","})
        first, second = ([c for c in f if c in free] for f in factors)
        left = tuple(factors[0].index(c) for c in first + summed)
        right = tuple(factors[1].index(c) for c in summed + second)

        def contract(s: _Operands) -> np.ndarray:
            x = s.t.transpose(left).reshape((s.d,) * len(first) + (-1,))
            return x @ s.t.transpose(right).reshape((-1,) + (s.d,) * len(second))

        return contract
    rest, pairs = inputs, []
    for c in inputs:
        if rest.count(c) == 2:
            pairs.append((rest.index(c), rest.rindex(c)))
            rest = rest.replace(c, "")
    axes, *more = pairs
    flip = rest != free

    def trace(s: _Operands) -> np.ndarray:
        x = s.trace(axes)
        for axis1, axis2 in more:
            x = np.trace(x, axis1=axis1, axis2=axis2)
        return x.T if flip else x

    return trace


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
    and the tolerance model the residual is judged against at dimension d.

    A T-contraction states ``spec`` and ``power`` (module docstring) and no
    residual: its residual is then the deviation of the compiled spec from
    d**power. A residual given explicitly wins over the spec."""

    id: str
    formula: str
    spec: str | None = None
    power: int = 0
    tolerance: Callable[[int], float] = tolerance
    residual: Callable[[_Operands], float] | None = None

    def __post_init__(self) -> None:
        if self.residual is None:
            left, power = _contraction(self.spec), self.power
            object.__setattr__(self, "residual", lambda s: _deviation(left(s), s.d**power))


# the catalogue in run order; IdentityId is built from it
_CATALOGUE = (
    # two-factor sums
    _Identity(
        "swap_expansion",
        "SWAP == (1/d) sum g (x) g^dag",
        residual=lambda s: _deviation(swap_expansion(s.basis), 1, _swap_support(s.d)),
    ),
    _Identity("gg_dagger_sum", "sum g g^dag == d^2 1", "aibi->ab", 2),
    _Identity("trace_weighted_sum", "sum Tr(g) g^dag == d 1", "iiba->ab", 1),
    _Identity("trace_norm_sum", "sum |Tr g|^2 == d^2", "iijj->", 2, scalar_tolerance),
    _Identity(
        "bell_expansion",
        "|Phi+><Phi+| == (1/d^2) sum g (x) g^*",
        residual=lambda s: _deviation(bell_expansion(s.basis), 1 / s.d, _phi_grid(s.d)),
    ),
    _Identity("gg_conj_sum", "sum g g^* == d 1", "aiib->ab", 1),
    _Identity("trace_weighted_conj", "sum Tr(g) g^* == d 1", "iiab->ab", 1),
    # four-factor sums over pairs (a,b), (j,k)
    _Identity(
        "identity_4op_tensor",
        "1 (x) 1 == (1/d^2) sum g_ab^dag g_jk (x) g_ab g_jk^dag",
        residual=lambda s: _deviation(
            dagger(s.basis.swap_sum) @ s.basis.swap_sum * (1 / s.d**2), 1
        ),
    ),
    _Identity("fourops_1", "sum g_ab^dag g_jk g_ab g_jk^dag == d^2 1", "jkia,ijbk->ab", 2),
    _Identity("fourops_2", "sum g_ab g_jk g_ab^* g_jk^* == d^3 1", "aijk,ijkb->ab", 3),
    _Identity("fourops_3", "sum g_ab g_jk^* g_ab^dag g_jk == d^2 1", "aijk,jbik->ab", 2),
    _Identity(
        "bellbell_tensor",
        "|Phi+><Phi+| == (1/d^4) sum g_ab g_jk (x) (g_ab g_jk)^*",
        residual=lambda s: _deviation(
            s.basis.bell_sum @ s.basis.bell_sum * (1 / s.d**4), 1 / s.d, _phi_grid(s.d)
        ),
    ),
    _Identity(
        "swapbell_tensor",
        "|Phi+><Phi+| == (1/d^3) sum g_ab g_jk^* (x) g_ab^dag g_jk",
        residual=lambda s: _deviation(
            s.basis.swap_sum @ s.basis.bell_sum.conj() * (1 / s.d**3), 1 / s.d, _phi_grid(s.d)
        ),
    ),
    _Identity("tr1_bellbell", "sum Tr(g_ab g_jk) (g_ab g_jk)^* == d^3 1", "ijak,jikb->ab", 3),
    _Identity("tr12_bellbell", "sum |Tr(g_ab g_jk)|^2 == d^4", "ijkl,jilk->", 4, scalar_tolerance),
    # seeded random-operator checks, on the run's one draw of A, B
    _Identity("trswap_choi", "Tr_2(A (x) B SWAP) == A B for random A, B", residual=_trswap_choi),
    _Identity(
        "purity_link",
        "Tr(B^dag (x) B SWAP) == (1/d) sum |b_jk|^2 == Tr(B^dag B)",
        tolerance=scalar_tolerance,
        residual=_purity_link,
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
