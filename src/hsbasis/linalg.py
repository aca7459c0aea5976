"""Dense complex linear algebra with explicit bipartite index conventions.

Operators are plain numpy arrays of complex doubles in C (row-major)
order. A two-party operator on H_d (x) H_d is a d^2 x d^2 matrix whose
composite row index (j, k) is flattened as j*d + k, and identically for
columns. All public functions are pure: inputs are never mutated.

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
A = combine(hs_gram(g, A), g) / d. Scaling rule: an array is divided by a
real s as ``x * (1 / s)``, which is what numpy's complex division (Smith's
method) does for a real s, so every finite nonzero entry keeps its bits, at
a quarter of the cost. Ownership rule: every array a record of the package
holds, or a cache of it serves, is read-only and written through by no one
(:func:`_frozen`); a record adopts an array the library has just built and
copies any other.
"""

from __future__ import annotations

import math
from functools import lru_cache

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
    """Frobenius norm, the HS one; summed as np.linalg.norm sums it, without its checks."""
    r = np.asarray(a).ravel(order="K")
    return math.sqrt(r.real.dot(r.real) + r.imag.dot(r.imag))


def _swap_support(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index of the ones of SWAP: row (j,k) = j*d + k against column (k,j) = k*d + j."""
    jk = np.arange(d * d)
    return jk, jk.reshape(d, d).T.ravel()


def _phi_grid(d: int) -> tuple[slice, slice]:
    """Index of the ones of d |Phi+><Phi+| = sum_jk |jj><kk|, the [::d+1, ::d+1] grid."""
    return (slice(None, None, d + 1),) * 2


def _deviation(x, c, at=None) -> float:
    """||X - c P||_F, P the 0/1 matrix with ones at index ``at`` of X (the diagonal if None),
    or ||x - c|| for a number x or an array c; c comes off one copy of X in place, a real c off
    its real part. Summed as :func:`frob_norm` sums, without its dispatch: every bit the same."""
    if not isinstance(x, np.ndarray) or not x.ndim:
        z = complex(x) - c
        return math.sqrt(z.real * z.real + z.imag * z.imag)
    diff = np.array(x, dtype=complex, order="C")
    part = diff.real if isinstance(c, (int, float)) else diff
    if isinstance(c, np.ndarray) and c.ndim:
        diff -= c
    elif at is None:
        part.reshape(-1)[:: len(diff) + 1] -= c
    else:
        part[at] -= c
    r = diff.reshape(-1)
    re, im = r.real, r.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product A (x) B under the row-major composite index.

    (A (x) B)[(j,k),(l,m)] = A[j,l] * B[k,m] with (j,k) -> j*d2 + k.
    """
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product (A, B)_HS = Tr(A^dag B), the one-matrix :func:`hs_gram`."""
    shape = np.shape(a) if np.ndim(a) == 2 else ("m", "n")  # a non-matrix fails "must be mxn"
    return complex(hs_gram(*(_check_shape(x, shape, "each of two matrices") for x in (a, b))))


def _check_shape(a, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``a`` as a complex array, or ValueError "<what> must be AxB[xC], got <its shape>"."""
    a = np.asarray(a, dtype=complex)
    if a.shape != shape:
        raise ValueError(f"{what} must be {'x'.join(map(str, shape))}, got {a.shape}")
    return a


def _frozen(a, shape=None, what: str = "", built: bool = False) -> np.ndarray:
    """``a`` as a read-only complex array no caller can write through, shape-checked as by
    :func:`_check_shape` if ``shape`` is given. A ``built`` array, one the library has just made,
    is frozen in place with the arrays that own its memory. Any other is kept if it and they are
    read-only already, as a built one handed on is, and else copied once and frozen: a read-only
    view of writable memory, such as np.broadcast_to's, is copied."""
    a = np.asarray(a, dtype=complex) if shape is None else _check_shape(a, shape, what)
    chain = [a]
    while isinstance(chain[-1].base, np.ndarray):
        chain.append(chain[-1].base)
    if not built and (chain[-1].base is not None or any(x.flags.writeable for x in chain)):
        chain = [a.copy()]
    for x in chain:
        x.setflags(write=False)
    return chain[0]


def _as_two_party(m: np.ndarray, d: int) -> np.ndarray:
    """Reshape a d^2 x d^2 matrix to the 4-index tensor T[j,k,l,m]."""
    m = _check_shape(m, (d * d, d * d), f"two-party operator for local dimension {d}")
    return m.reshape(d, d, d, d)


def _party_axes(party: int) -> tuple[int, int]:
    """The axes of the 4-index tensor B[j,k,l,m] that party 1 or 2 spans, (0, 2) or (1, 3)."""
    if party not in (1, 2):
        raise ValueError(f"party must be 1 or 2, got {party!r}")
    return (0, 2) if party == 1 else (1, 3)


def partial_trace(m: np.ndarray, party: int, d: int) -> np.ndarray:
    """Trace out one tensor factor of a two-party operator.

    Party 1 is the left factor, party 2 the right one; the result is a
    d x d matrix with the same total trace as the input.
    """
    axis1, axis2 = _party_axes(party)
    return np.trace(_as_two_party(m, d), axis1=axis1, axis2=axis2)


def partial_transpose(m: np.ndarray, party: int, d: int) -> np.ndarray:
    """Transpose one tensor factor by index swap.

    For party 2: B[jk,lm] -> B[jm,lk]; for party 1: B[jk,lm] -> B[lk,jm].
    Involutive.
    """
    axes = _party_axes(party)
    return _as_two_party(m, d).swapaxes(*axes).reshape(d * d, d * d)


def reshuffle(m: np.ndarray, d: int) -> np.ndarray:
    """Reshuffling B[jk,lm] -> B[jl,km] of a two-party operator. Involutive."""
    return _as_two_party(m, d).swapaxes(1, 2).reshape(d * d, d * d)


def vectorize(a: np.ndarray) -> np.ndarray:
    """Row-major stacking: vec(|j><k|) is the unit vector at index j*d + k."""
    d = math.isqrt(np.size(a))
    return _check_shape(a, (d, d), "square matrix to vectorize").flatten()


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
    a = np.asarray(a, dtype=complex)
    if tuple(axes) != (-2, -1):
        perm, inverse = _axes_permutation(a.ndim, *axes)
        return apply_superop(s, a.transpose(perm)).transpose(inverse)
    return (a.reshape(-1, s.shape[1]) @ s.T).reshape(a.shape)


@lru_cache(maxsize=64, typed=True)
def _axes_permutation(n: int, *axes) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transpose np.moveaxis(a, axes, (-2, -1)) takes on an n-index array, and its inverse."""
    p, q = (ax + n if -n <= ax < 0 else ax for ax in axes)
    if not (0 <= p < n and 0 <= q < n) or p == q:
        raise ValueError(f"axes must be two distinct axes of a {n}-index array, got {axes!r}")
    perm = tuple(i for i in range(n) if i != p and i != q) + (p, q)
    return perm, tuple(sorted(range(n), key=perm.__getitem__))
