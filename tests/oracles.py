"""Brute-force reference implementations used as independent test oracles.

Everything here is written as plain index loops, deliberately avoiding
the vectorized code paths of the package, so the two sides of every
comparison are computed independently.
"""

import numpy as np


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
