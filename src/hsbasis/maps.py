"""Basis expansions of linear maps on operators.

Covers the Bloch decomposition, the trace / identity / transposition
maps realized as two-sided basis sums, partial transposition and
reshuffling of two-party operators, general superoperators with their
Choi representation, universal state inversion, and the pure-state
concurrence it induces.

Every map is a two-sided sum A -> sum_n x_n A y_n: the superoperator
:func:`hsbasis.linalg.sandwich_sum` applied by :func:`hsbasis.linalg.apply_superop`
on the axes of the factor it acts on (conventions in :mod:`hsbasis.linalg`).
The basis-expanded maps take it from the one sum a basis builds once in
O(d^6), sum g (x) g^*, or from its O(d^4) partial transpose
(:class:`~hsbasis.bases.MatrixBasis`), and apply it in O(d^4) to a d x d
operand, O(d^6) to a two-party one. A map's Choi state is the reshuffle
of its superoperator, and the read-out reshuffles back, both in O(d^4).
Conjugation is entrywise in the computational basis, in which the
antisymmetric Gell-Mann elements used for state inversion are defined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bases import MatrixBasis, gellmann_y_elements
from .linalg import (
    _as_two_party,
    _check_party,
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


@dataclass(frozen=True)
class BlochVector:
    """Coefficients b_jk = Tr(g_jk^dag B) of an operator in a given basis."""

    d: int
    kind: str
    coeffs: np.ndarray  # (d*d,), complex, flat order j*d + k

    @property
    def squared_length(self) -> float:
        """(1/d) sum |b_jk|^2, which equals the purity Tr(B^dag B)."""
        return float(np.sum(np.abs(self.coeffs) ** 2)) / self.d


@dataclass(frozen=True)
class Superoperator:
    """Linear map on d x d operators as a matrix on vectorized inputs."""

    d: int
    matrix: np.ndarray  # (d*d, d*d), complex

    def __post_init__(self) -> None:
        shape, n = np.shape(self.matrix), self.d * self.d
        if shape != (n, n):
            raise ValueError(f"superoperator for d={self.d} must be {n}x{n}, got {shape}")

    def apply(self, a: np.ndarray) -> np.ndarray:
        return apply_superop(self.matrix, _check_square(a, self.d))


@dataclass(frozen=True)
class ChoiState:
    """Two-party operator (L (x) Id)|Phi+><Phi+| encoding a map L."""

    d: int
    matrix: np.ndarray  # (d*d, d*d), complex


def _check_square(a: np.ndarray, d: int, what: str = "operator") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.shape != (d, d):
        raise ValueError(f"{what} must be {d}x{d}, got {a.shape}")
    return a


def bloch_decompose(a: np.ndarray, basis: MatrixBasis) -> BlochVector:
    """Bloch coefficients b_jk = Tr(g_jk^dag A)."""
    a = _check_square(a, basis.d)
    return BlochVector(basis.d, basis.kind, hs_gram(basis.elements, a))


def bloch_reconstruct(bloch, basis: MatrixBasis) -> np.ndarray:
    """Rebuild A = (1/d) sum_jk b_jk g_jk from coefficients.

    Accepts a BlochVector or a plain length-d^2 coefficient array.
    """
    coeffs = np.asarray(getattr(bloch, "coeffs", bloch), dtype=complex).ravel()
    n = basis.d * basis.d
    if coeffs.size != n:
        raise ValueError(f"expected {n} coefficients for d={basis.d}, got {coeffs.size}")
    return combine(coeffs, basis.elements) / basis.d


def trace_map(a: np.ndarray, basis: MatrixBasis) -> np.ndarray:
    """(1/d) sum_lm g_lm A g_lm^dag, which equals Tr(A) 1 for any orthogonal basis."""
    return apply_superop(basis.bell_sum, _check_square(a, basis.d)) / basis.d


def transpose_map(a: np.ndarray, basis: MatrixBasis) -> np.ndarray:
    """(1/d) sum_lm g_lm A g_lm^*, the basis expansion of the transposition."""
    return apply_superop(basis.swap_sum, _check_square(a, basis.d)) / basis.d


def identity_map(a: np.ndarray, basis: MatrixBasis) -> np.ndarray:
    """(1/d^2) sum_jk,lm g_jk g_lm^dag A g_jk^dag g_lm, reproducing A itself."""
    g = basis.elements
    inner = apply_superop(basis.bell_sum, dagger(g) @ _check_square(a, basis.d))
    return product_sum(inner, g) / basis.d**2


_PARTY_AXES = {1: (0, 2), 2: (1, 3)}  # the axes of B[j,k,l,m] that each party spans


def _two_sided(s: np.ndarray, b: np.ndarray, d: int, axes) -> np.ndarray:
    """Apply the superoperator ``s`` to the factors of the two-party ``b`` on ``axes``."""
    return apply_superop(s, _as_two_party(b, d), axes).reshape(d * d, d * d)


def partial_transpose_map(b: np.ndarray, party: int, basis: MatrixBasis) -> np.ndarray:
    """Partial transposition of a two-party operator as a two-sided basis sum.

    Party 2: (1/d) sum (1 (x) g) B (1 (x) g^*); party 1 mirrors the
    factors. The single-party superoperator of Y -> sum g Y g^* is the
    basis's ``swap_sum``, applied to B on the chosen factor in O(d^6).
    Matches the raw index swap of :func:`hsbasis.linalg.partial_transpose`.
    """
    _check_party(party)
    return _two_sided(basis.swap_sum, b, basis.d, _PARTY_AXES[party]) / basis.d


def reshuffle_map(b: np.ndarray, basis: MatrixBasis) -> np.ndarray:
    """Reshuffling as a two-sided basis sum, (1/d) sum (1 (x) g) B (g^* (x) 1).

    Built like :func:`partial_transpose_map`, with g acting from the
    left on factor 2 and g^* from the right on factor 1; O(d^6). Matches
    the raw index permutation of :func:`hsbasis.linalg.reshuffle`.
    """
    return _two_sided(basis.swap_sum, b, basis.d, (1, 2)) / basis.d


def superop_from_action(
    action: Callable[[np.ndarray], np.ndarray], basis: MatrixBasis
) -> Superoperator:
    """Superoperator of L(A) = (1/d) sum_jk Tr(g_jk^dag A) L(g_jk).

    ``action`` gives the image of each basis element; linearity fixes the
    rest. Column r of the matrix is vec(L(E_r)) for the unit matrix E_r.
    """
    images = np.stack([action(g) for g in basis.elements])
    return Superoperator(basis.d, basis_sum(images, basis.elements.conj()) / basis.d)


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
    return ChoiState(d, reshuffle(superop.matrix, d) / d)


def apply_via_choi(choi: ChoiState, a: np.ndarray) -> np.ndarray:
    """L(A) = d Tr_2[C_L (1 (x) A^T)] = d devec(reshuffle(C_L) vec(A)), in O(d^4)."""
    d = choi.d
    return d * apply_superop(reshuffle(choi.matrix, d), _check_square(a, d))


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

    Equals Tr(A) 1 - A for Hermitian A, combining the trace-map and
    transposition-map expansions: its superoperator is the basis's
    ``bell_sum - swap_sum``.
    """
    a = _check_square(a, basis.d)
    _check_hermitian(a, tolerance(basis.d), "state-inversion input")
    return apply_superop(basis.bell_sum - basis.swap_sum, a.conj()) / basis.d


def state_inversion_y(a: np.ndarray) -> np.ndarray:
    """Single-party inversion via the antisymmetric elements only.

    (2/d) sum_{j<k} y_jk A^* y_jk; the real-entry elements drop out of
    the general expansion because g^dag = g^* for them.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"state-inversion input must be square, got {a.shape}")
    d = a.shape[0]
    _check_hermitian(a, tolerance(d), "state-inversion input")
    ys = gellmann_y_elements(d)
    return 2.0 * apply_superop(sandwich_sum(ys, ys), a.conj()) / d


def state_inversion_two(b: np.ndarray) -> np.ndarray:
    """Two-party universal state inversion.

    (4/d^2) sum_{j<k, l<m} (y_jk (x) y_lm) B^* (y_jk (x) y_lm), the
    higher-dimensional generalization of the spin-flip construction.
    Equals Tr(B) 1 - Tr_2(B) (x) 1 - 1 (x) Tr_1(B) + B for Hermitian B.
    Since y_jk (x) y_lm = (y_jk (x) 1)(1 (x) y_lm), the sum factorizes:
    the single-party superoperator of Y -> sum y Y y is built once in
    O(d^6) and applied to factor 2, then to factor 1, each in O(d^6).
    """
    b = np.asarray(b, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(f"two-party operator must be square, got {b.shape}")
    d = _local_dim(b.shape[0], "two-party operator size")
    _check_hermitian(b, tolerance(d * d), "state-inversion input")
    ys = gellmann_y_elements(d)
    s = sandwich_sum(ys, ys)
    inverted = _two_sided(s, _two_sided(s, b.conj(), d, _PARTY_AXES[2]), d, _PARTY_AXES[1])
    return 4.0 * inverted / d**2


def concurrence_squared(psi: np.ndarray) -> float:
    """Squared concurrence Tr[|psi><psi| S(|psi><psi|)] of a pure two-party state.

    ``psi`` is a unit vector of length d^2. The value also equals
    (4/d^2) sum_{j<k, l<m} |<psi| y_jk (x) y_lm |psi^*>|^2 and ranges
    from 0 (product states) to 2(1 - 1/d) (maximally entangled states).
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    d = _local_dim(psi.size, "state vector length")
    norm = float(np.linalg.norm(psi))
    if not abs(norm - 1.0) <= tolerance(d):
        raise ValueError(f"state vector must be normalized, got norm {norm!r}")
    projector = np.outer(psi, psi.conj())
    inverted = state_inversion_two(projector)
    value = float(np.vdot(psi, inverted @ psi).real)
    # rounding can push an exact zero marginally negative
    return max(value, 0.0)
