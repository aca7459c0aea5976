"""Dense complex linear algebra with explicit bipartite index conventions.

Operators are plain numpy arrays of complex doubles in C (row-major)
order. A two-party operator on H_d (x) H_d is a d^2 x d^2 matrix whose
composite row index (j, k) is flattened as j*d + k, and identically for
columns. All functions are pure: inputs are never mutated.

The superoperator of a map L on d x d operators is the d^2 x d^2
matrix on row-major vectorized operators, column r being vec(L(E_r))
for the unit matrix E_r. As vec(x A y) = (x (x) y^T) vec(A), the sum
A -> sum_n x_n A y_n has the superoperator sum_n x_n (x) y_n^T
(:func:`sandwich_sum`); only this module encodes that rule.

Hilbert-Schmidt coefficients: a stack of d x d matrices is read as the
rows vec(x_n), leading axes flattened in C order. The projection
G[m,n] = Tr(x_m^dag y_n) = sum_ij conj(x_m[i,j]) y_n[i,j] conjugates the
left operand (:func:`hs_gram`), and the combination sum_n c[..., n] x_n
takes the coefficients as they are (:func:`combine`). An expansion in an
orthogonal basis {g} with Tr(g^dag g) = d is therefore
A = combine(hs_gram(g, A), g) / d.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "tolerance",
    "scalar_tolerance",
    "dagger",
    "frob_norm",
    "tensor",
    "hs_inner",
    "partial_trace",
    "partial_transpose",
    "reshuffle",
    "vectorize",
    "devectorize",
    "basis_sum",
    "hs_gram",
    "combine",
    "kron_sum",
    "product_sum",
    "sandwich_sum",
    "apply_superop",
]


def tolerance(d: int) -> float:
    """Absolute Frobenius-norm tolerance for dimension-d comparisons.

    Scales as 1e-10 * d^2 to cover the accumulated rounding of O(d^4)
    double-precision flops.
    """
    return 1e-10 * d * d


def scalar_tolerance(d: int) -> float:
    """Looser absolute tolerance for scalar sums aggregating ~d^4 terms."""
    return 1e-9 * d * d


def dagger(a: np.ndarray) -> np.ndarray:
    """Hermitian adjoint A^dag, taken matrix by matrix for a stack."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def frob_norm(a: np.ndarray) -> float:
    """Frobenius norm, the norm induced by the Hilbert-Schmidt inner product."""
    return float(np.linalg.norm(a))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B under the row-major composite index.

    (A (x) B)[(j,k),(l,m)] = A[j,l] * B[k,m] with (j,k) -> j*d2 + k.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product (A, B)_HS = Tr(A^dag B), the one-matrix :func:`hs_gram`."""
    if np.shape(a) != np.shape(b) or np.ndim(a) != 2:
        raise ValueError(
            "shape mismatch in Hilbert-Schmidt inner product: expected two matrices of one "
            f"shape, got {np.shape(a)} and {np.shape(b)}"
        )
    return complex(hs_gram(a, b))


def _as_two_party(m: np.ndarray, d: int) -> np.ndarray:
    """Reshape a d^2 x d^2 matrix to the 4-index tensor T[j,k,l,m]."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (d * d, d * d):
        raise ValueError(
            f"expected a {d * d}x{d * d} matrix for local dimension {d}, got {m.shape}"
        )
    return m.reshape(d, d, d, d)


def _check_party(party: int) -> None:
    if party not in (1, 2):
        raise ValueError(f"party must be 1 or 2, got {party!r}")


def partial_trace(m: np.ndarray, party: int, d: int) -> np.ndarray:
    """Trace out one tensor factor of a two-party operator.

    Party 1 is the left factor, party 2 the right one; the result is a
    d x d matrix with the same total trace as the input.
    """
    _check_party(party)
    t = _as_two_party(m, d)
    if party == 1:
        return np.einsum("jkjm->km", t)
    return np.einsum("jklk->jl", t)


def partial_transpose(m: np.ndarray, party: int, d: int) -> np.ndarray:
    """Transpose one tensor factor by index swap.

    For party 2: B[jk,lm] -> B[jm,lk]; for party 1: B[jk,lm] -> B[lk,jm].
    Involutive.
    """
    _check_party(party)
    t = _as_two_party(m, d)
    perm = (0, 3, 2, 1) if party == 2 else (2, 1, 0, 3)
    return t.transpose(perm).reshape(d * d, d * d)


def reshuffle(m: np.ndarray, d: int) -> np.ndarray:
    """Reshuffling B[jk,lm] -> B[jl,km] of a two-party operator. Involutive."""
    t = _as_two_party(m, d)
    return t.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def vectorize(a: np.ndarray) -> np.ndarray:
    """Row-major stacking: vec(|j><k|) is the unit vector at index j*d + k."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"vectorize expects a square matrix, got shape {a.shape}")
    return a.flatten()


def devectorize(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vectorize`; the length must be a perfect square."""
    v = np.asarray(v, dtype=complex).ravel()
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ValueError(f"vector of length {v.size} is not a flattened square matrix")
    return v.reshape(d, d).copy()


def _rows(x: np.ndarray) -> np.ndarray:
    """The stack ``x`` as rows vec(x_n), its leading axes flattened."""
    x = np.asarray(x, dtype=complex)
    return x.reshape(-1, x.shape[-2] * x.shape[-1])


def basis_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_n vec(x_n) vec(y_n)^T for equally long stacks of matrices.

    Leading axes are flattened into the summation index n, so for d x d
    matrices the sum is a single d^2 x n by n x d^2 matrix product. Read
    as a (d, d, d, d) tensor it is T[i,j,k,l] = sum_n x_n[i,j] y_n[k,l].
    """
    return _rows(x).T @ _rows(y)


def hs_gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """G[m, n] = Tr(x_m^dag y_n), one matrix product.

    The result has the leading axes of ``x`` followed by those of ``y``,
    so a basis stack against one matrix gives its expansion coefficients
    and two single matrices give a 0-d array.
    """
    g = _rows(x).conj() @ _rows(y).T
    return g.reshape(np.shape(x)[:-2] + np.shape(y)[:-2])


def combine(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_n c[..., n] x_n over the stack ``x``, one matrix product.

    The result has the leading axes of ``c`` but its last, followed by
    the matrix shape of ``x``.
    """
    c = np.asarray(c, dtype=complex)
    rows = _rows(x)
    out = c.reshape(-1, len(rows)) @ rows
    return out.reshape(c.shape[:-1] + np.shape(x)[-2:])


def kron_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_n x_n (x) y_n under the row-major composite index.

    The reshuffle of :func:`basis_sum`, so it costs one matrix product.
    """
    return reshuffle(basis_sum(x, y), np.shape(x)[-1])


def product_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_n x_n y_n over stacks of d x d matrices, as one d x nd by nd x d product."""
    n, d, _ = x.shape
    return x.transpose(1, 0, 2).reshape(d, n * d) @ y.reshape(n * d, d)


def sandwich_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Superoperator of A -> sum_n x_n A y_n, the d^2 x d^2 matrix sum_n x_n (x) y_n^T."""
    return kron_sum(x, np.swapaxes(y, -1, -2))


def apply_superop(s: np.ndarray, a: np.ndarray, axes=(-2, -1)) -> np.ndarray:
    """Apply the d^2 x d^2 superoperator ``s`` to the d x d matrices on ``axes`` of ``a``.

    All other axes are batch axes. On a two-party B[j,k,l,m], axes (0, 2)
    act on party 1, (1, 3) on party 2, and (1, 2) put the left factor on
    party 2 and the right one on party 1 (the reshuffle).
    """
    a = np.moveaxis(np.asarray(a, dtype=complex), axes, (-2, -1))
    out = a.reshape(-1, s.shape[1]) @ s.T
    return np.moveaxis(out.reshape(a.shape), (-2, -1), axes)
