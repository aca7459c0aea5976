"""Orthogonal operator bases of the space of d x d complex matrices.

All built-in bases are normalized to the dimension,

    Tr(g_jk^dag g_lm) = d delta_jl delta_km ,

and enumerated by an index pair (j, k) with flat order j*d + k. Three
constructions are provided: the standard (matrix-unit) basis, the
generalized Gell-Mann basis, and the Weyl (clock/shift) basis, plus
Haar-random rotations of any of them for testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import combine, dagger, frob_norm, kron_sum, partial_transpose, tolerance
from .report import IdentityCheck, IdentityReport

__all__ = [
    "MatrixBasis",
    "BasisSplit",
    "standard_basis",
    "gellmann_basis",
    "weyl_basis",
    "validate_basis",
    "rotated_basis",
    "split_diag_offdiag",
    "random_unitary",
    "random_basis",
]


@dataclass(frozen=True)
class MatrixBasis:
    """Ordered basis of d^2 matrices; element (j, k) sits at flat index j*d + k.

    The element stack is made read-only on construction, so instances can
    be shared freely. Validation, the maps, the expansions and the
    catalogue read one basis sum, sum g (x) g^*, built on first use in
    O(d^6), and its partial transpose sum g (x) g^dag, an O(d^4) index
    move; both are kept read-only, 16 d^4 bytes each, for as long as the
    basis lives, so a validated basis keeps the first.
    """

    d: int
    elements: np.ndarray  # shape (d*d, d, d), complex
    kind: str = "custom"

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"basis dimension must be at least 2, got {self.d}")
        el = np.array(self.elements, dtype=complex)
        if el.shape != (self.d * self.d, self.d, self.d):
            raise ValueError(
                f"basis for d={self.d} needs {self.d * self.d} elements of shape "
                f"({self.d}, {self.d}); got array of shape {el.shape}"
            )
        el.setflags(write=False)
        object.__setattr__(self, "elements", el)

    @cached_property
    def bell_sum(self) -> np.ndarray:
        """sum g (x) g^* = d^2 |Phi+><Phi+|; also the superoperator sandwich_sum(g, g^dag)."""
        return _read_only(kron_sum(self.elements, self.elements.conj()))

    @cached_property
    def swap_sum(self) -> np.ndarray:
        """sum g (x) g^dag = d SWAP, bell_sum transposed on party 2; also sandwich_sum(g, g^*)."""
        return _read_only(partial_transpose(self.bell_sum, 2, self.d))

    def element(self, j: int, k: int) -> np.ndarray:
        return self.elements[j * self.d + k]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BasisSplit:
    """Flat indices of the d purely diagonal and d(d-1) purely off-diagonal elements."""

    diagonal: tuple[int, ...]
    offdiagonal: tuple[int, ...]


def check_dim(d: int) -> None:
    """Reject local dimensions below 2."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")


def standard_basis(d: int) -> MatrixBasis:
    """Matrix units scaled to the dimension-d normalization: e_jk = sqrt(d) |j><k|."""
    check_dim(d)
    el = np.zeros((d * d, d, d), dtype=complex)
    n = np.arange(d * d)
    el[n, n // d, n % d] = np.sqrt(d)
    return MatrixBasis(d, el, "standard")


def gellmann_y_elements(d: int) -> np.ndarray:
    """The antisymmetric Gell-Mann elements sqrt(d/2)(-i|k><l| + i|l><k|), k < l, k major."""
    k, l = np.triu_indices(d, 1)
    n = np.arange(len(k))
    half = np.sqrt(d / 2.0)
    y = np.zeros((len(k), d, d), dtype=complex)
    y[n, k, l] = -1j * half
    y[n, l, k] = 1j * half
    return y


def gellmann_basis(d: int) -> MatrixBasis:
    """Generalized Gell-Mann basis: Hermitian SU(d) generators plus the identity.

    Element (0,0) is the identity. For k < l, element (k,l) is the
    symmetric combination sqrt(d/2)(|k><l| + |l><k|) and element (l,k)
    the antisymmetric one sqrt(d/2)(-i|k><l| + i|l><k|); element (l,l)
    is the diagonal generator sqrt(d/(l(l+1)))(-l|l><l| + sum_{j<l} |j><j|).
    For d=2 this reproduces the Pauli matrices in the order
    (identity, sigma_x, sigma_y, sigma_z).
    """
    check_dim(d)
    el = np.zeros((d * d, d, d), dtype=complex)
    el[0] = np.eye(d)
    ks, ls = np.triu_indices(d, 1)
    el[ks * d + ls, ks, ls] = el[ks * d + ls, ls, ks] = np.sqrt(d / 2.0)
    el[ls * d + ks] = gellmann_y_elements(d)
    l, j = np.arange(1, d)[:, None], np.arange(d)
    scale = np.sqrt(d / (l * (l + 1.0)))
    el[l * d + l, j, j] = np.where(j < l, scale, np.where(j == l, -l * scale, 0.0))
    return MatrixBasis(d, el, "gellmann")


def weyl_basis(d: int) -> MatrixBasis:
    """Weyl operator basis D_jk = Z^j X^k omega^(-jk/2).

    Z|m> = omega^m |m> and X|m> = |m+1 mod d> with omega = exp(2 pi i/d).
    The half phase is fixed on the principal branch, omega^(1/2) = exp(pi i/d),
    which for even d is one of the two consistent choices; orthogonality does
    not depend on it. For d=2 the elements are the Pauli matrices up to this
    phase: (0,0) -> identity, (0,1) -> sigma_x, (1,0) -> sigma_z,
    (1,1) -> -i ZX = sigma_y.
    """
    check_dim(d)
    j, k, col = np.ogrid[:d, :d, :d]
    row = (col + k) % d
    el = np.zeros((d, d, d, d), dtype=complex)
    # Z^j X^k |col> = omega^(j*row) |row>, then the -jk/2 phase.
    el[j, k, row, col] = np.exp(1j * (np.pi * (2 * j * row - j * k) / d))
    return MatrixBasis(d, el.reshape(d * d, d, d), "weyl")


NAMED_BASES = {
    "standard": standard_basis,
    "gellmann": gellmann_basis,
    "weyl": weyl_basis,
}
"""The built-in constructions by the name used in basis files and on the command line."""


def validate_basis(basis: MatrixBasis) -> IdentityReport:
    """Check orthogonality through the completeness relation of the basis sum.

    The residual is the Frobenius deviation of ``bell_sum`` = sum g (x) g^*
    from d^2 |Phi+><Phi+|. Reshuffled, that is the deviation of the
    completeness tensor G^T G^* from d times the identity, G the d^2 x d^2
    matrix of rows vec(g). The Gram matrix G^* G^T has the same spectrum,
    so the residual equals the Frobenius deviation of Tr(g_p^dag g_q)
    from d*delta_pq and bounds its largest entry from above. It reads the
    one sum the maps, expansions and catalogue share, with no product of
    its own; the verdict is pass iff it stays within tolerance(d).
    """
    d = basis.d
    defect = np.array(basis.bell_sum)
    defect[:: d + 1, :: d + 1] -= d
    check = IdentityCheck(
        id="basis_gram",
        description=(
            f"sum g_jk (x) g_jk^* == {d}^2 |Phi+><Phi+|, "
            f"i.e. Tr(g_jk^dag g_lm) == {d}*delta_jl*delta_km"
        ),
        residual=frob_norm(defect),
        tolerance=tolerance(d),
    )
    return IdentityReport((check,))


def rotated_basis(basis: MatrixBasis, u) -> MatrixBasis:
    """New basis h_jk = sum_lm U[jk,lm] g_lm for a unitary coefficient matrix.

    ``u`` may be a plain d^2 x d^2 array or any object with a ``coeffs``
    attribute (such as a BasisChange). Unitarity of the coefficients is
    what preserves orthogonality, so it is enforced here.
    """
    coeffs = np.asarray(getattr(u, "coeffs", u), dtype=complex)
    n = basis.d * basis.d
    if coeffs.shape != (n, n):
        raise ValueError(
            f"coefficient matrix must be {n}x{n} for d={basis.d}, got {coeffs.shape}"
        )
    residual = frob_norm(dagger(coeffs) @ coeffs - np.eye(n))
    if not residual <= tolerance(n):
        raise ValueError(
            f"coefficient matrix is not unitary (residual {residual:.3e})"
        )
    return MatrixBasis(basis.d, combine(coeffs, basis.elements), "custom")


def split_diag_offdiag(basis: MatrixBasis) -> BasisSplit | None:
    """Partition the elements into purely diagonal and purely off-diagonal ones.

    Returns None when some element mixes diagonal and off-diagonal entries
    (beyond tolerance) or the diagonal count is not d.
    """
    tol = tolerance(basis.d)
    diagonal: list[int] = []
    offdiagonal: list[int] = []
    for idx, g in enumerate(basis.elements):
        main = np.diag(g)
        off = g - np.diag(main)
        if frob_norm(off) <= tol:
            diagonal.append(idx)
        elif np.linalg.norm(main) <= tol:
            offdiagonal.append(idx)
        else:
            return None
    if len(diagonal) != basis.d:
        return None
    return BasisSplit(tuple(diagonal), tuple(offdiagonal))


def random_unitary(n: int, rng=None) -> np.ndarray:
    """Haar-distributed n x n unitary.

    QR decomposition of a complex Gaussian matrix with the R diagonal
    rephased to be positive, which makes the distribution exactly Haar.
    """
    rng = np.random.default_rng(rng)
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_basis(d: int, rng=None) -> MatrixBasis:
    """Orthogonal basis obtained by a Haar-random rotation of the standard basis."""
    return rotated_basis(standard_basis(d), random_unitary(d * d, rng))
