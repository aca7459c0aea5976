"""Executable catalogue of operator-basis identities.

Every entry evaluates both sides of one equality for a concrete basis
{g_jk} (normalized to Tr(g^dag g) = d) and reports the Frobenius-norm
residual, or the absolute difference for scalar equalities. The
catalogue is closed: :data:`_CATALOGUE` is the one table of ids,
formulas, residuals and tolerance kinds.

Costs for d x d elements: every entry is O(d^6) or less, and no stack
longer than the d^2 basis elements is built. The two-factor sums take
O(d^5) and the two expansions O(d^6). The four-factor sums run over
the d^4 pairs (m, n) of elements but factor through the mixed-product
rule (A (x) B)(C (x) D) = AC (x) BD into sums over single elements:

- sum_mn x_m y_n (x) z_m w_n = (sum_m x_m (x) z_m)(sum_n y_n (x) w_n), a
  product of two :func:`hsbasis.linalg.kron_sum` results, O(d^6);
- sum_mn x_m y_n z_m w_n = sum_n S(y_n) w_n with the superoperator
  S(Y) = sum_m x_m Y z_m (:func:`hsbasis.linalg.sandwich_sum`), built
  and applied to the y stack in O(d^6);
- the trace-weighted sums go through M[m,n] = Tr(g_m g_n), one
  d^2 x d^2 matrix product, O(d^6).
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable

import numpy as np

from .bases import MatrixBasis
from .linalg import (
    apply_superop,
    combine,
    dagger,
    frob_norm,
    hs_gram,
    kron_sum,
    partial_trace,
    product_sum,
    sandwich_sum,
    scalar_tolerance,
    tensor,
    tolerance,
)
from .maps import bloch_decompose
from .operators import bell_expansion, bell_projector, swap_expansion, swap_operator
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
    """What the catalogue entries share, derived once per check."""

    def __init__(self, basis: MatrixBasis, rng: np.random.Generator) -> None:
        self.basis = basis
        self.d = basis.d
        self.g = basis.elements
        self.gc = self.g.conj()
        self.gd = dagger(self.g)
        self.tr = np.einsum("nii->n", self.g)
        self.rng = rng

    def random(self) -> np.ndarray:
        """A d x d complex Gaussian matrix drawn from the check's generator."""
        shape = (self.d, self.d)
        return self.rng.standard_normal(shape) + 1j * self.rng.standard_normal(shape)


def _pair_kron_sum(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """sum_mn x_m y_n (x) z_m w_n = (sum_m x_m (x) z_m)(sum_n y_n (x) w_n)."""
    return kron_sum(x, z) @ kron_sum(y, w)


def _pair_product_sum(
    x: np.ndarray, y: np.ndarray, z: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """sum_mn x_m y_n z_m w_n = sum_n S(y_n) w_n with S(Y) = sum_m x_m Y z_m."""
    return product_sum(apply_superop(sandwich_sum(x, z), y), w)


def _trace_gram(x: np.ndarray) -> np.ndarray:
    """M[m,n] = Tr(x_m x_n) = Tr((x_m^*)^dag x_n^T) for a stack of d x d matrices."""
    return hs_gram(x.conj(), np.swapaxes(x, -1, -2))


def _trace_weighted_pair_sum(x: np.ndarray) -> np.ndarray:
    """sum_mn Tr(x_m x_n) (x_m x_n)^* = sum_m x_m^* (sum_n M[m,n] x_n^*)."""
    xc = x.conj()
    return product_sum(xc, combine(_trace_gram(x), xc))


def _distance(lhs, rhs) -> float:
    """Frobenius distance; a number on the right of a matrix means that multiple of 1."""
    if np.ndim(lhs) == 2 and np.ndim(rhs) == 0:
        rhs = rhs * np.eye(len(lhs))
    return frob_norm(np.subtract(lhs, rhs))


def _trswap_choi(a: np.ndarray, b: np.ndarray) -> float:
    d = len(a)
    return _distance(partial_trace(tensor(a, b) @ swap_operator(d), 2, d), a @ b)


def _purity_link(b: np.ndarray, basis: MatrixBasis) -> float:
    via_swap = complex(np.trace(tensor(dagger(b), b) @ swap_operator(basis.d)))
    via_bloch = bloch_decompose(b, basis).squared_length
    purity = float(np.vdot(b, b).real)
    return max(abs(x - y) for x, y in itertools.combinations((via_swap, via_bloch, purity), 2))


# id -> (description, residual, tolerance kind)
_CATALOGUE = {
    # two-factor sums
    IdentityId.SWAP_EXPANSION: (
        "SWAP == (1/d) sum g (x) g^dag",
        lambda s: _distance(swap_expansion(s.basis), swap_operator(s.d)),
        tolerance,
    ),
    IdentityId.GG_DAGGER_SUM: (
        "sum g g^dag == d^2 1",
        lambda s: _distance(product_sum(s.g, s.gd), s.d**2),
        tolerance,
    ),
    IdentityId.TRACE_WEIGHTED_SUM: (
        "sum Tr(g) g^dag == d 1",
        lambda s: _distance(combine(s.tr, s.gd), s.d),
        tolerance,
    ),
    IdentityId.TRACE_NORM_SUM: (
        "sum |Tr g|^2 == d^2",
        lambda s: _distance(np.sum(np.abs(s.tr) ** 2), s.d**2),
        scalar_tolerance,
    ),
    IdentityId.BELL_EXPANSION: (
        "|Phi+><Phi+| == (1/d^2) sum g (x) g^*",
        lambda s: _distance(bell_expansion(s.basis), bell_projector(s.d)),
        tolerance,
    ),
    IdentityId.GG_CONJ_SUM: (
        "sum g g^* == d 1",
        lambda s: _distance(product_sum(s.g, s.gc), s.d),
        tolerance,
    ),
    IdentityId.TRACE_WEIGHTED_CONJ: (
        "sum Tr(g) g^* == d 1",
        lambda s: _distance(combine(s.tr, s.gc), s.d),
        tolerance,
    ),
    # four-factor sums over pairs (a,b), (j,k)
    IdentityId.IDENTITY_4OP_TENSOR: (
        "1 (x) 1 == (1/d^2) sum g_ab^dag g_jk (x) g_ab g_jk^dag",
        lambda s: _distance(_pair_kron_sum(s.gd, s.g, s.g, s.gd) / s.d**2, 1),
        tolerance,
    ),
    IdentityId.FOUROPS_1: (
        "sum g_ab^dag g_jk g_ab g_jk^dag == d^2 1",
        lambda s: _distance(_pair_product_sum(s.gd, s.g, s.g, s.gd), s.d**2),
        tolerance,
    ),
    IdentityId.FOUROPS_2: (
        "sum g_ab g_jk g_ab^* g_jk^* == d^3 1",
        lambda s: _distance(_pair_product_sum(s.g, s.g, s.gc, s.gc), s.d**3),
        tolerance,
    ),
    IdentityId.FOUROPS_3: (
        "sum g_ab g_jk^* g_ab^dag g_jk == d^2 1",
        lambda s: _distance(_pair_product_sum(s.g, s.gc, s.gd, s.g), s.d**2),
        tolerance,
    ),
    IdentityId.BELLBELL_TENSOR: (
        "|Phi+><Phi+| == (1/d^4) sum g_ab g_jk (x) (g_ab g_jk)^*",
        lambda s: _distance(
            _pair_kron_sum(s.g, s.g, s.gc, s.gc) / s.d**4, bell_projector(s.d)
        ),
        tolerance,
    ),
    IdentityId.SWAPBELL_TENSOR: (
        "|Phi+><Phi+| == (1/d^3) sum g_ab g_jk^* (x) g_ab^dag g_jk",
        lambda s: _distance(
            _pair_kron_sum(s.g, s.gc, s.gd, s.g) / s.d**3, bell_projector(s.d)
        ),
        tolerance,
    ),
    IdentityId.TR1_BELLBELL: (
        "sum Tr(g_ab g_jk) (g_ab g_jk)^* == d^3 1",
        lambda s: _distance(_trace_weighted_pair_sum(s.g), s.d**3),
        tolerance,
    ),
    IdentityId.TR12_BELLBELL: (
        "sum |Tr(g_ab g_jk)|^2 == d^4",
        lambda s: _distance(np.sum(np.abs(_trace_gram(s.g)) ** 2), float(s.d) ** 4),
        scalar_tolerance,
    ),
    # seeded random-operator checks
    IdentityId.TRSWAP_CHOI: (
        "Tr_2(A (x) B SWAP) == A B for random A, B",
        lambda s: _trswap_choi(s.random(), s.random()),
        tolerance,
    ),
    IdentityId.PURITY_LINK: (
        "Tr(B^dag (x) B SWAP) == (1/d) sum |b_jk|^2 == Tr(B^dag B)",
        lambda s: _purity_link(s.random(), s.basis),
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


def check_identity(
    identity, basis: MatrixBasis, seed: int = DEFAULT_SEED
) -> IdentityCheck:
    """Evaluate one catalogue identity for the given basis.

    The seed only affects the identities that draw random operators
    (TRSWAP_CHOI, PURITY_LINK); results are deterministic given the seed.
    """
    identity = coerce_identity_id(identity)
    description, residual_of, tolerance_of = _CATALOGUE[identity]
    residual = float(residual_of(_Operands(basis, np.random.default_rng(seed))))
    tol = float(tolerance_of(basis.d))
    return IdentityCheck(
        id=identity.value,
        description=description,
        residual=residual,
        tolerance=tol,
        passed=residual <= tol,
    )


def run_catalogue(
    basis: MatrixBasis,
    ids: Iterable | None = None,
    seed: int = DEFAULT_SEED,
) -> IdentityReport:
    """Run the whole catalogue (or a subset) and collect the residuals."""
    if ids is None:
        selected = list(IdentityId)
    else:
        selected = [coerce_identity_id(i) for i in ids]
    return IdentityReport(tuple(check_identity(i, basis, seed=seed) for i in selected))
