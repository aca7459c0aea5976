"""SWAP, the Bell projector, the fully coherent state, and their basis expansions.

The expansions are diagonal in the basis indices for every orthogonal
basis {g_jk} normalized to the dimension:

    SWAP            = (1/d)   sum_jk g_jk (x) g_jk^dag
    |Phi+><Phi+|    = (1/d^2) sum_jk g_jk (x) g_jk^*
    d^(3/2)|+><+|   = sum_lm [sum_jk conj(U[lm,jk])] g_lm

The expansion builders only require a structurally well-formed basis;
whether the sums reproduce the target operators is exactly the content
of the identities they feed into.
"""

from __future__ import annotations

import numpy as np

from .bases import MatrixBasis, check_dim, split_diag_offdiag
from .linalg import _phi_grid, _swap_support, combine, dagger, kron_sum
from .transforms import to_standard

__all__ = [
    "swap_operator",
    "swap_expansion",
    "swap_diag_expansion",
    "bell_state",
    "bell_projector",
    "bell_expansion",
    "coherent_state",
    "coherent_expansion",
]


def swap_operator(d: int) -> np.ndarray:
    """The d^2 x d^2 permutation exchanging the two tensor factors.

    Entry ((j,k),(l,m)) = delta_jm delta_kl; Hermitian and involutive.
    """
    d = check_dim(d)
    m = np.zeros((d * d, d * d), dtype=complex)
    m[_swap_support(d)] = 1.0
    return m


def swap_expansion(basis: MatrixBasis) -> np.ndarray:
    """(1/d) sum_jk g_jk (x) g_jk^dag, the basis-diagonal form of SWAP."""
    return basis.swap_sum * (1 / basis.d)


def swap_diag_expansion(basis: MatrixBasis) -> np.ndarray:
    """(1/d) sum over diagonal elements of g_kk (x) g_kk^dag.

    Equals sum_j |jj><jj|, the matrix-diagonal part of SWAP, whenever the
    basis admits a diagonal/off-diagonal split; raises if it does not.
    """
    split = split_diag_offdiag(basis)
    if split is None:
        raise ValueError("basis has no diagonal/off-diagonal split")
    g = basis.elements[list(split.diagonal)]
    return kron_sum(g, dagger(g)) * (1 / basis.d)


def bell_state(d: int) -> np.ndarray:
    """Maximally entangled state (1/sqrt(d)) sum_j |jj> as a length-d^2 vector."""
    d = check_dim(d)
    return np.eye(d, dtype=complex).ravel() * (1 / np.sqrt(d))  # vec(1) / sqrt(d)


def bell_projector(d: int) -> np.ndarray:
    """Rank-1 projector onto the maximally entangled state.

    Entries are written as 1/d directly rather than (1/sqrt(d))^2, so the
    exact relation SWAP^T2 = d |Phi+><Phi+| holds entrywise in floats.
    """
    d = check_dim(d)
    m = np.zeros((d * d, d * d), dtype=complex)
    m[_phi_grid(d)] = 1.0 / d
    return m


def bell_expansion(basis: MatrixBasis) -> np.ndarray:
    """(1/d^2) sum_jk g_jk (x) g_jk^*, the basis-diagonal form of |Phi+><Phi+|."""
    return basis.bell_sum * (1 / basis.d**2)


def coherent_state(d: int) -> np.ndarray:
    """The fully coherent state (1/sqrt(d)) sum_j |j> as a length-d vector."""
    d = check_dim(d)
    return np.full(d, 1.0 / np.sqrt(d), dtype=complex)


def coherent_expansion(basis: MatrixBasis) -> np.ndarray:
    """d^(3/2) |+><+| assembled from standard-transformation coefficients.

    The coefficient of g_lm is sum_jk conj(U[lm,jk]) with U from
    :func:`hsbasis.transforms.to_standard`; no index pair occurs twice,
    so the coefficients of U appear explicitly.
    """
    return combine(to_standard(basis).coeffs.conj().sum(axis=1), basis.elements)
