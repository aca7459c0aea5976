"""Basis expansions of linear maps on operators.

Covers the Bloch decomposition, the trace / identity / transposition
maps realized as two-sided basis sums, partial transposition and
reshuffling of two-party operators, general superoperators with their
Choi representation, universal state inversion, and the pure-state
concurrence it induces.

A basis-expanded map is a two-sided sum A -> sum_n x_n A y_n: its
superoperator (:func:`hsbasis.linalg.sandwich_sum`, conventions in
:mod:`hsbasis.linalg`) is one of the basis's sums
(:class:`~hsbasis.bases.MatrixBasis`), applied by
:func:`hsbasis.linalg.apply_superop` on the axes of the factor it acts
on, in O(d^4) to a d x d operand, O(d^6) to a two-party one. Each such
map checks its operand's shape (and party) first, then refuses, with
ValueError, a basis whose cached completeness residual fails
:func:`~hsbasis.bases.validate_basis`. The trace, transposition, partial
transposition and reshuffling maps state that contract and their 1/d
scale once, in the private applier ``_sum_map``.
Conjugation is entrywise in the computational basis, in which the
antisymmetric Gell-Mann elements of state inversion and concurrence are
defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bases import _NOT_ORTHOGONAL, MatrixBasis, _hold, check_dim, gellmann_y_elements, require_orthogonal
from .linalg import (
    _as_two_party,
    _check_shape,
    _frozen,
    _party_axes,
    apply_superop,
    basis_sum,
    combine,
    dagger,
    frob_norm,
    hs_gram,
    product_sum,
    reshuffle,
    sandwich_sum,
    tolerance,
)

__all__ = [
    "BlochVector",
    "Superoperator",
    "ChoiState",
    "bloch_decompose",
    "bloch_reconstruct",
    "trace_map",
    "identity_map",
    "transpose_map",
    "partial_transpose_map",
    "reshuffle_map",
    "superop_from_action",
    "choi_state",
    "apply_via_choi",
    "state_inversion",
    "state_inversion_y",
    "state_inversion_two",
    "concurrence_squared",
]


@dataclass(frozen=True, eq=False)
class BlochVector:
    """Coefficients b_jk = Tr(g_jk^dag B) of an operator in a given basis.

    Like every record here it checks d and holds its array read-only by
    one rule (``hsbasis.bases._hold``): an array the library has just
    built is adopted, any other copied, so no input shares it.
    """

    d: int
    kind: str
    coeffs: np.ndarray  # (d*d,), complex, flat order j*d + k

    def __post_init__(self) -> None:
        d = check_dim(self.d)
        what = f"Bloch coefficients for d={d}"
        _hold(self, d=d, coeffs=_frozen(self.coeffs, (d * d,), what))

    @property
    def squared_length(self) -> float:
        """(1/d) sum |b_jk|^2, which equals the purity Tr(B^dag B)."""
        return float(np.sum(np.abs(self.coeffs) ** 2)) / self.d


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Linear map on d x d operators as a matrix on vectorized inputs."""

    d: int
    matrix: np.ndarray  # (d*d, d*d), complex

    def __post_init__(self) -> None:
        d = check_dim(self.d)
        what = f"{type(self).__name__} matrix for d={d}"
        _hold(self, d=d, matrix=_frozen(self.matrix, (d * d, d * d), what))

    def apply(self, a: np.ndarray) -> np.ndarray:
        return apply_superop(self.matrix, _check_shape(a, (self.d, self.d), "operator"))


@dataclass(frozen=True, eq=False)
class ChoiState:
    """Two-party operator (L (x) Id)|Phi+><Phi+| encoding a map L."""

    d: int
    matrix: np.ndarray  # (d*d, d*d), complex

    __post_init__ = Superoperator.__post_init__  # the same d^2 x d^2 check, naming ChoiState


def bloch_decompose(a: np.ndarray, basis: MatrixBasis) -> BlochVector:
    """Bloch coefficients b_jk = Tr(g_jk^dag A)."""
    a = _check_shape(a, (basis.d, basis.d), "operator")
    return BlochVector(basis.d, basis.kind, _frozen(hs_gram(basis.elements, a), built=True))


def bloch_reconstruct(bloch, basis: MatrixBasis) -> np.ndarray:
    """Rebuild A = (1/d) sum_jk b_jk g_jk from coefficients.

    Accepts a BlochVector or a plain length-d^2 coefficient array.
    """
    coeffs = np.asarray(getattr(bloch, "coeffs", bloch), dtype=complex).ravel()
    n = basis.d * basis.d
    if coeffs.size != n:
        raise ValueError(f"expected {n} coefficients for d={basis.d}, got {coeffs.size}")
    return combine(coeffs, basis.elements) * (1 / basis.d)


def _sum_map(t: np.ndarray, basis: MatrixBasis, name: str, axes=(-2, -1)) -> np.ndarray:
    """(1/d) times the basis sum ``name`` applied to the d x d factors on ``axes`` of the
    checked operand ``t``, in C order, as the square matrix t flattens to.

    The sum is read only once the basis has passed :func:`~hsbasis.bases.require_orthogonal`
    (ValueError otherwise), so a refused basis builds none.
    """
    require_orthogonal(basis, f"basis {_NOT_ORTHOGONAL}")
    s = apply_superop(getattr(basis, name), t, axes)
    return np.multiply(s, 1 / basis.d, order="C").reshape(math.isqrt(t.size), -1)


def trace_map(a: np.ndarray, basis: MatrixBasis) -> np.ndarray:
    """(1/d) sum_lm g_lm A g_lm^dag, which equals Tr(A) 1 for any orthogonal basis."""
    return _sum_map(_check_shape(a, (basis.d, basis.d), "operator"), basis, "bell_sum")


def transpose_map(a: np.ndarray, basis: MatrixBasis) -> np.ndarray:
    """(1/d) sum_lm g_lm A g_lm^*, the basis expansion of the transposition."""
    return _sum_map(_check_shape(a, (basis.d, basis.d), "operator"), basis, "swap_sum")


def identity_map(a: np.ndarray, basis: MatrixBasis) -> np.ndarray:
    """(1/d^2) sum_jk,lm g_jk g_lm^dag A g_jk^dag g_lm, reproducing A itself."""
    a = _check_shape(a, (basis.d, basis.d), "operator")
    require_orthogonal(basis, f"basis {_NOT_ORTHOGONAL}")
    g = basis.elements
    inner = apply_superop(basis.bell_sum, dagger(g) @ a)
    return product_sum(inner, g) * (1 / basis.d**2)


def partial_transpose_map(b: np.ndarray, party: int, basis: MatrixBasis) -> np.ndarray:
    """Partial transposition of a two-party operator as a two-sided basis sum.

    Party 2: (1/d) sum (1 (x) g) B (1 (x) g^*); party 1 mirrors the
    factors. The single-party superoperator of Y -> sum g Y g^* is the
    basis's ``swap_sum``, applied to B on the chosen factor in O(d^6).
    Matches the raw index swap of :func:`hsbasis.linalg.partial_transpose`.
    """
    return _sum_map(_as_two_party(b, basis.d), basis, "swap_sum", _party_axes(party))


def reshuffle_map(b: np.ndarray, basis: MatrixBasis) -> np.ndarray:
    """Reshuffling as a two-sided basis sum, (1/d) sum (1 (x) g) B (g^* (x) 1).

    Built like :func:`partial_transpose_map`, with g acting from the
    left on factor 2 and g^* from the right on factor 1; O(d^6). Matches
    the raw index permutation of :func:`hsbasis.linalg.reshuffle`.
    """
    return _sum_map(_as_two_party(b, basis.d), basis, "swap_sum", (1, 2))


def superop_from_action(
    action: Callable[[np.ndarray], np.ndarray], basis: MatrixBasis
) -> Superoperator:
    """Superoperator of L(A) = (1/d) sum_jk Tr(g_jk^dag A) L(g_jk).

    ``action`` is called once per element, in order; each image must be d x d (ValueError naming
    the element) and is copied into one stack as it arrives, since an action may hand back one
    buffer it reuses. Column r is vec(L(E_r)) for the unit matrix E_r.
    The expansion assumes an orthogonal basis; it reads no basis sum, so none is checked.
    The conjugated stack g^* is taken on every call, not kept on the basis: kept, it would
    hold 16 d^4 more bytes per basis for as long as the basis lives, against a few
    microseconds per call at d = 8.
    """
    images = np.empty(basis.elements.shape, dtype=complex)
    for n, g in enumerate(basis.elements):
        images[n] = _check_shape(action(g), (basis.d, basis.d), f"the image of element {n}")
    s = basis_sum(images, basis.elements.conj()) * (1 / basis.d)
    return Superoperator(basis.d, _frozen(s, built=True))


def choi_state(superop: Superoperator, basis: MatrixBasis) -> ChoiState:
    """Choi representation C_L = (L (x) Id)|Phi+><Phi+| = (1/d^2) sum L(g) (x) g^*.

    The paper's sum is the one behind the superoperator,
    S = (1/d) sum vec(L(g)) vec(g^*)^T, so C_L = reshuffle(S) / d, an
    O(d^4) index move; the basis only fixes the dimension.
    """
    d = basis.d
    if superop.d != d:
        raise ValueError(
            f"superoperator dimension {superop.d} does not match basis dimension {d}"
        )
    return ChoiState(d, _frozen(reshuffle(superop.matrix, d) * (1 / d), built=True))


def apply_via_choi(choi: ChoiState, a: np.ndarray) -> np.ndarray:
    """L(A) = d Tr_2[C_L (1 (x) A^T)] = d devec(reshuffle(C_L) vec(A)), in O(d^4)."""
    d = choi.d
    return d * apply_superop(reshuffle(choi.matrix, d), _check_shape(a, (d, d), "operator"))


def _local_dim(n: int, what: str) -> int:
    """The local dimension d >= 2 of a two-party space of size n = d^2."""
    d = math.isqrt(n)
    if d * d != n or d < 2:
        raise ValueError(f"{what} {n} is not d^2 for a local dimension d >= 2")
    return d


def _check_hermitian(a: np.ndarray, tol: float, what: str) -> None:
    if not frob_norm(a - dagger(a)) <= tol:
        raise ValueError(f"{what} must be Hermitian within {tol:.1e}")


def state_inversion(a: np.ndarray, basis: MatrixBasis) -> np.ndarray:
    """Universal state inversion (1/d) sum g A^* (g^dag - g^*).

    Equals Tr(A) 1 - A for Hermitian A: the trace map minus the transposition map, both on
    A^*. The basis's ``bell_sum`` and ``swap_sum`` each take A^* to a d x d image in O(d^4),
    and the two images are subtracted, so no d^2 x d^2 difference is formed.
    """
    a = _check_shape(a, (basis.d, basis.d), "operator")
    _check_hermitian(a, tolerance(basis.d), "state-inversion input")
    require_orthogonal(basis, f"basis {_NOT_ORTHOGONAL}")
    a = a.conj()
    return (apply_superop(basis.bell_sum, a) - apply_superop(basis.swap_sum, a)) * (1 / basis.d)


def state_inversion_y(a: np.ndarray) -> np.ndarray:
    """Single-party inversion (2/d) sum_{j<k} y_jk A^* y_jk via the antisymmetric elements only.

    The real-entry elements drop out of :func:`state_inversion` because g^dag = g^* for them.
    The sum is one product of the y stack with the stack A^* y, O(d^5), with no superoperator.
    """
    # an empty input is refused as not 1x1
    d = max(math.isqrt(np.size(a)), 1)
    a = _check_shape(a, (d, d), "state-inversion input")
    _check_hermitian(a, tolerance(d), "state-inversion input")
    ys = gellmann_y_elements(d)
    return product_sum(ys, a.conj() @ ys) * (2 / d)


def state_inversion_two(b: np.ndarray) -> np.ndarray:
    """Two-party universal state inversion.

    (4/d^2) sum_{j<k, l<m} (y_jk (x) y_lm) B^* (y_jk (x) y_lm), the
    higher-dimensional generalization of the spin-flip construction.
    Equals Tr(B) 1 - Tr_2(B) (x) 1 - 1 (x) Tr_1(B) + B for Hermitian B.
    Since y_jk (x) y_lm = (y_jk (x) 1)(1 (x) y_lm), the sum factorizes:
    the single-party superoperator of Y -> sum y Y y is built once in
    O(d^6) and applied to factor 2, then, scaled by 4/d^2, to factor 1,
    each in O(d^6).
    """
    n = math.isqrt(np.size(b))
    b = _check_shape(b, (n, n), "two-party operator")
    d = _local_dim(n, "two-party operator size")
    _check_hermitian(b, tolerance(d * d), "state-inversion input")
    ys = gellmann_y_elements(d)
    s = sandwich_sum(ys, ys)
    inner = apply_superop(s, _as_two_party(b.conj(), d), _party_axes(2))
    return np.multiply(apply_superop(s, inner, _party_axes(1)), 4 / d**2, order="C").reshape(n, n)


def concurrence_squared(psi: np.ndarray) -> float:
    """Squared concurrence (4/d^2) sum_{j<k, l<m} |<psi| y_jk (x) y_lm |psi^*>|^2 of a pure state.

    ``psi`` is a unit vector of length d^2. The value equals
    Tr[|psi><psi| S(|psi><psi|)] for the two-party state inversion S
    and ranges from 0 (product states) to 2(1 - 1/d) (maximally
    entangled states). With N the conjugate of ``psi`` read as a d x d
    matrix, <psi| y_a (x) y_b |psi^*> = sum_ij y_a[i,j] (N y_b N^T)[i,j]:
    the stack R = N y N^T costs O(d^5) and the (d(d-1)/2)^2 values Q[a,b]
    one Hilbert-Schmidt Gram matrix, so no d^2 x d^2 array is formed.
    Each y is purely imaginary, so conj(y) = -y exactly and
    hs_gram(y, R) = -Q entry for entry, a sign that |Q|^2 does not see.
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    d = _local_dim(psi.size, "state vector length")
    norm = frob_norm(psi)
    if not abs(norm - 1.0) <= tolerance(d):
        raise ValueError(f"state vector must be normalized, got norm {norm!r}")
    n = psi.conj().reshape(d, d)
    ys = gellmann_y_elements(d)
    q = hs_gram(ys, n @ ys @ n.T)
    return 4.0 * frob_norm(q) ** 2 / d**2
