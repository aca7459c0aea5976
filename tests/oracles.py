"""Brute-force reference implementations used as independent test oracles.

Everything here is written as plain index loops, deliberately avoiding
the vectorized code paths of the package, so the two sides of every
comparison are computed independently; the division-based forms at the
end are the one exception, and say why.
"""

import json

import numpy as np

# only for the division-based forms at the end, which share the package's products
from hsbasis.linalg import apply_superop, basis_sum, hs_gram, reshuffle


def kron_loops(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for j in range(ra):
        for k in range(rb):
            for l in range(ca):
                for m in range(cb):
                    out[j * rb + k, l * cb + m] = a[j, l] * b[k, m]
    return out


def hs_inner_loops(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    total = 0.0 + 0.0j
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            total += np.conj(a[i, j]) * b[i, j]
    return total


def partial_trace_loops(m, party, d):
    m = np.asarray(m)
    out = np.zeros((d, d), dtype=complex)
    for r in range(d):
        for c in range(d):
            for t in range(d):
                if party == 1:
                    out[r, c] += m[t * d + r, t * d + c]
                else:
                    out[r, c] += m[r * d + t, c * d + t]
    return out


def partial_transpose_loops(m, party, d):
    m = np.asarray(m)
    out = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            for l in range(d):
                for mm in range(d):
                    if party == 2:
                        out[j * d + k, l * d + mm] = m[j * d + mm, l * d + k]
                    else:
                        out[j * d + k, l * d + mm] = m[l * d + k, j * d + mm]
    return out


def reshuffle_loops(m, d):
    m = np.asarray(m)
    out = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            for l in range(d):
                for mm in range(d):
                    out[j * d + k, l * d + mm] = m[j * d + l, k * d + mm]
    return out


def gram_loops(elements):
    n = len(elements)
    gram = np.zeros((n, n), dtype=complex)
    for p in range(n):
        for q in range(n):
            gram[p, q] = hs_inner_loops(elements[p], elements[q])
    return gram


def swap_loops(d):
    out = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            for l in range(d):
                for m in range(d):
                    if j == m and k == l:
                        out[j * d + k, l * d + m] = 1.0
    return out


def bell_projector_loops(d):
    out = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            out[j * d + j, k * d + k] = 1.0 / d
    return out


def reduced_purity(psi, d):
    """Tr(rho_1^2) for |psi> in H_d (x) H_d, via explicit loops."""
    psi = np.asarray(psi).reshape(d, d)
    rho1 = np.zeros((d, d), dtype=complex)
    for j in range(d):
        for l in range(d):
            for k in range(d):
                rho1[j, l] += psi[j, k] * np.conj(psi[l, k])
    total = 0.0 + 0.0j
    for j in range(d):
        for l in range(d):
            total += rho1[j, l] * rho1[l, j]
    return float(total.real)


def random_state(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_matrix(d, rng):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def random_hermitian(d, rng):
    a = random_matrix(d, rng)
    return a + a.conj().T


def four_factor_loops(x, y, z, w):
    """(sum_mn x_m y_n z_m w_n, sum_mn x_m y_n (x) z_m w_n) by an explicit double loop."""
    d = len(x[0])
    product = np.zeros((d, d), dtype=complex)
    kron = np.zeros((d * d, d * d), dtype=complex)
    for a in range(len(x)):
        for b in range(len(y)):
            product += x[a] @ y[b] @ z[a] @ w[b]
            kron += kron_loops(x[a] @ y[b], z[a] @ w[b])
    return product, kron


def trace_gram_loops(x):
    """M[m,n] = Tr(x_m x_n), via explicit loops."""
    n = len(x)
    d = len(x[0])
    out = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            for i in range(d):
                for j in range(d):
                    out[a, b] += x[a][i, j] * x[b][j, i]
    return out


def sandwich_loops(x, a, y):
    """sum_n x_n A y_n, via explicit index loops."""
    d = len(a)
    out = np.zeros((d, d), dtype=complex)
    for n in range(len(x)):
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        out[i, l] += x[n][i, j] * a[j, k] * y[n][k, l]
    return out


def combine_loops(c, x):
    """sum_n c[n] x_n for a coefficient vector c, via explicit index loops."""
    d = len(x[0])
    out = np.zeros((d, d), dtype=complex)
    for n in range(len(x)):
        for i in range(d):
            for j in range(d):
                out[i, j] += c[n] * x[n][i, j]
    return out


def standard_basis_loops(d):
    """Matrix units sqrt(d) |j><k| at flat index j*d + k, one entry per iteration."""
    el = np.zeros((d * d, d, d), dtype=complex)
    root = np.sqrt(d)
    for j in range(d):
        for k in range(d):
            el[j * d + k, j, k] = root
    return el


def gellmann_diagonal_loops(d):
    """The d - 1 diagonal Gell-Mann generators, element (l, l) for l = 1..d-1."""
    el = np.zeros((d - 1, d, d), dtype=complex)
    for l in range(1, d):
        scale = np.sqrt(d / (l * (l + 1.0)))
        for j in range(l):
            el[l - 1, j, j] = scale
        el[l - 1, l, l] = -l * scale
    return el


def gellmann_y_triu(d):
    """The antisymmetric Gell-Mann elements, k < l in the order of np.triu_indices."""
    k, l = np.triu_indices(d, 1)
    n = np.arange(len(k))
    half = np.sqrt(d / 2.0)
    y = np.zeros((len(k), d, d), dtype=complex)
    y[n, k, l] = -1j * half
    y[n, l, k] = 1j * half
    return y


def gellmann_basis_triu(d):
    """All Gell-Mann elements, off-diagonal pairs (k, l) placed by np.triu_indices."""
    el = np.zeros((d * d, d, d), dtype=complex)
    el[0] = np.eye(d)
    ks, ls = np.triu_indices(d, 1)
    el[ks * d + ls, ks, ls] = el[ks * d + ls, ls, ks] = np.sqrt(d / 2.0)
    el[ls * d + ks] = gellmann_y_triu(d)
    el[[l * d + l for l in range(1, d)]] = gellmann_diagonal_loops(d)
    return el


def weyl_basis_loops(d):
    """Weyl elements Z^j X^k omega^(-jk/2), one phase per matrix entry."""
    el = np.zeros((d * d, d, d), dtype=complex)
    for j in range(d):
        for k in range(d):
            for col in range(d):
                row = (col + k) % d
                el[j * d + k, row, col] = np.exp(1j * np.pi * (2 * j * row - j * k) / d)
    return el


def swap_operator_loops(d):
    """SWAP with entry ((j,k),(k,j)) = 1, one index pair per iteration."""
    out = np.zeros((d * d, d * d), dtype=complex)
    for j in range(d):
        for k in range(d):
            out[j * d + k, k * d + j] = 1.0
    return out


def bell_state_loops(d):
    """(1/sqrt(d)) sum_j |jj>, one entry per iteration."""
    v = np.zeros(d * d, dtype=complex)
    for j in range(d):
        v[j * d + j] = 1.0
    return v / np.sqrt(d)


def apply_via_choi_partial_trace(c, a, d):
    """L(A) = d Tr_2[C_L (1 (x) A^T)] from a Choi matrix, by explicit loops."""
    return d * partial_trace_loops(c @ kron_loops(np.eye(d), np.transpose(a)), 2, d)


def trswap_loops(a, b, x):
    """Tr_2[(A (x) B) X], through the d^2 x d^2 Kronecker product: the O(d^6) evaluation."""
    return partial_trace_loops(kron_loops(a, b) @ np.asarray(x), 2, len(a))


def purity_swap_term_loops(b, x):
    """Tr[(B^dag (x) B) X], through the d^2 x d^2 Kronecker product: the O(d^6) evaluation."""
    b = np.asarray(b)
    return complex(np.trace(kron_loops(b.conj().T, b) @ np.asarray(x)))


def json_text(doc):
    """A document as the json module writes it with indent=2, one entry at a time, plus a newline."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def matrix_entries_loops(m):
    """The [re, im] pairs of a matrix in row-major order, one entry at a time."""
    return [[float(v.real), float(v.imag)] for v in np.atleast_2d(np.asarray(m, dtype=complex)).ravel()]


def entries_from_pairs_loops(entries):
    """complex(re, im) of each [re, im] pair, one entry at a time."""
    return np.array([complex(re, im) for re, im in entries], dtype=complex)


# Division-based forms of the basis-sum maps. Unlike the loops above they share the
# package's products on purpose: each divides the same product by d with numpy's complex
# division, as the package did before it scaled by the reciprocal, so a comparison
# isolates the scaling step and can be bit for bit.


def partial_transpose_map_divided(b, party, basis):
    d = basis.d
    axes = (0, 2) if party == 1 else (1, 3)
    t = np.asarray(b, dtype=complex).reshape(d, d, d, d)
    return apply_superop(basis.swap_sum, t, axes).reshape(d * d, d * d) / d


def reshuffle_map_divided(b, basis):
    d = basis.d
    t = np.asarray(b, dtype=complex).reshape(d, d, d, d)
    return apply_superop(basis.swap_sum, t, (1, 2)).reshape(d * d, d * d) / d


def superop_from_action_divided(action, basis):
    images = np.stack([action(g) for g in basis.elements])
    return basis_sum(images, basis.elements.conj()) / basis.d


def choi_matrix_divided(superop_matrix, d):
    return reshuffle(superop_matrix, d) / d


def change_of_basis_divided(target, source):
    return hs_gram(source.elements, target.elements).T / target.d


def random_unitary_divided(n, rng):
    # Haar unitary as the package drew it before it scaled by the reciprocal: the Gaussian
    # draw divided by sqrt(2), from the same two n x n draws in the same order
    rng = np.random.default_rng(rng)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))
