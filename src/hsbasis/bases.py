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
from functools import cached_property, lru_cache, wraps

import numpy as np

from .linalg import _check_shape, _deviation, _frozen, _phi_grid, combine, kron_sum, partial_transpose, tolerance
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


@dataclass(frozen=True, eq=False)
class MatrixBasis:
    """Ordered basis of d^2 matrices; element (j, k) sits at flat index j*d + k.

    The element stack is read-only (:func:`hsbasis.linalg._frozen`: a
    stack the library has just built is adopted, any other copied), so
    instances can be shared freely. Validation, the maps, the expansions
    and the catalogue read one basis sum, ``bell_sum`` = sum g (x) g^*,
    built on first use in O(d^6); the maps and expansions also read its
    partial transpose ``swap_sum`` = sum g (x) g^dag, an O(d^4) index move,
    which the catalogue reads off T instead. Both are kept read-only,
    16 d^4 bytes each, for as long as the basis lives, so a validated or
    rotated basis keeps the first and the completeness residual read off it.
    """

    d: int
    elements: np.ndarray  # shape (d*d, d, d), complex
    kind: str = "custom"

    def __post_init__(self) -> None:
        d = check_dim(self.d)
        _hold(self, d=d, elements=_frozen(self.elements, (d * d, d, d), "basis elements"))

    @cached_property
    def bell_sum(self) -> np.ndarray:
        """sum g (x) g^* = d^2 |Phi+><Phi+|; also the superoperator sandwich_sum(g, g^dag)."""
        return _frozen(kron_sum(self.elements, self.elements.conj()), built=True)

    @cached_property
    def swap_sum(self) -> np.ndarray:
        """sum g (x) g^dag = d SWAP, bell_sum transposed on party 2; also sandwich_sum(g, g^*)."""
        return _frozen(partial_transpose(self.bell_sum, 2, self.d), built=True)

    @cached_property
    def completeness_residual(self) -> float:
        """||bell_sum - d^2 |Phi+><Phi+|||_F, the residual validate_basis checks."""
        return _deviation(self.bell_sum, self.d, _phi_grid(self.d))

    def element(self, j: int, k: int) -> np.ndarray:
        return self.elements[j * self.d + k]

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class BasisSplit:
    """Flat indices of the d purely diagonal and d(d-1) purely off-diagonal elements."""

    diagonal: tuple[int, ...]
    offdiagonal: tuple[int, ...]


def check_dim(d: int) -> int:
    """d as a Python int, so d * d cannot overflow; ValueError unless an int or np.integer >= 2."""
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise ValueError(f"dimension must be an integer of at least 2, got {d!r}")
    return int(d)


def _hold(record, **fields) -> None:
    """Set ``fields`` on the frozen dataclass ``record``, the one place a record writes itself.

    The record rule: every record passes its d as :func:`check_dim` returns it, checked
    before any shape, and each array as :func:`hsbasis.linalg._frozen` holds it, so no
    record shares or writes a caller's array.
    """
    for name, value in fields.items():
        object.__setattr__(record, name, value)


_NAMED_CACHE_SIZE = 12
"""Entries of the named-basis cache of :func:`_shared` and of the Gell-Mann y cache."""


@lru_cache(maxsize=_NAMED_CACHE_SIZE)
def _named_basis(build, d: int) -> MatrixBasis:
    return build(d)


def _shared(build):
    """Serve the named constructor ``build`` from one instance per (kind, d).

    Every named constructor, so also ``NAMED_BASES`` and the CLI, returns
    one shared read-only basis per (kind, d) from one least-recently-used
    cache, so its elements, sums and residual are built once per process;
    at most _NAMED_CACHE_SIZE bases (three kinds at four dimensions) of up
    to three 16 d^4-byte arrays each stay alive. Worst case: 12 bases x 3
    arrays x 16 d^4 bytes, about 0.5 GB when the three kinds loop over
    d = 29...32. The cache is bounded by entries only: lru_cache cannot
    weigh its entries, a byte bound would need a cache of its own, and a
    basis its caller keeps holds its arrays whether cached or not; a
    process that sweeps large d can call ``_named_basis.cache_clear()``.
    The dimension is checked before the lookup, so ``4.0`` or ``True``
    still raises instead of hashing equal to a cached 4 or 1, and the key
    always holds a Python int.
    """

    @wraps(build)
    def constructor(d: int) -> MatrixBasis:
        return _named_basis(build, check_dim(d))

    return constructor


@_shared
def standard_basis(d: int) -> MatrixBasis:
    """Matrix units scaled to the dimension-d normalization: e_jk = sqrt(d) |j><k|."""
    el = np.zeros((d * d, d, d), dtype=complex)
    n = np.arange(d * d)
    el[n, n // d, n % d] = np.sqrt(d)
    return MatrixBasis(d, _frozen(el, built=True), "standard")


@lru_cache(maxsize=_NAMED_CACHE_SIZE, typed=True)
def gellmann_y_elements(d: int) -> np.ndarray:
    """The antisymmetric Gell-Mann elements sqrt(d/2)(-i|k><l| + i|l><k|), k < l, k major.

    Built once per d and returned read-only; the cache is typed, so a
    float d is not served the stack of the equal int.
    """
    r = np.arange(d)
    k, l = np.nonzero(r[:, None] < r)
    n = np.arange(len(k))
    half = np.sqrt(d / 2.0)
    y = np.zeros((len(k), d, d), dtype=complex)
    y[n, k, l] = -1j * half
    y[n, l, k] = 1j * half
    return _frozen(y, built=True)


@_shared
def gellmann_basis(d: int) -> MatrixBasis:
    """Generalized Gell-Mann basis: Hermitian SU(d) generators plus the identity.

    Element (0,0) is the identity. For k < l, element (k,l) is the
    symmetric combination sqrt(d/2)(|k><l| + |l><k|) and element (l,k)
    the antisymmetric one sqrt(d/2)(-i|k><l| + i|l><k|); element (l,l)
    is the diagonal generator sqrt(d/(l(l+1)))(-l|l><l| + sum_{j<l} |j><j|).
    For d=2 this reproduces the Pauli matrices in the order
    (identity, sigma_x, sigma_y, sigma_z).
    """
    el = np.zeros((d * d, d, d), dtype=complex)
    el[0] = np.eye(d)
    r = np.arange(d)
    ks, ls = np.nonzero(r[:, None] < r)
    el[ks * d + ls, ks, ls] = el[ks * d + ls, ls, ks] = np.sqrt(d / 2.0)
    el[ls * d + ks] = gellmann_y_elements(d)
    l, j = np.arange(1, d)[:, None], np.arange(d)
    scale = np.sqrt(d / (l * (l + 1.0)))
    el[l * d + l, j, j] = np.where(j < l, scale, np.where(j == l, -l * scale, 0.0))
    return MatrixBasis(d, _frozen(el, built=True), "gellmann")


@_shared
def weyl_basis(d: int) -> MatrixBasis:
    """Weyl operator basis D_jk = Z^j X^k omega^(-jk/2).

    Z|m> = omega^m |m> and X|m> = |m+1 mod d> with omega = exp(2 pi i/d).
    The half phase is fixed on the principal branch, omega^(1/2) = exp(pi i/d),
    which for even d is one of the two consistent choices; orthogonality does
    not depend on it. For d=2 the elements are the Pauli matrices up to this
    phase: (0,0) -> identity, (0,1) -> sigma_x, (1,0) -> sigma_z,
    (1,1) -> -i ZX = sigma_y.
    """
    j, k, col = np.ogrid[:d, :d, :d]
    row = (col + k) % d
    el = np.zeros((d, d, d, d), dtype=complex)
    # Z^j X^k |col> = omega^(j*row) |row>, then the -jk/2 phase.
    el[j, k, row, col] = np.exp(1j * (np.pi * (2 * j * row - j * k) / d))
    return MatrixBasis(d, _frozen(el.reshape(d * d, d, d), built=True), "weyl")


NAMED_BASES = {
    "standard": standard_basis,
    "gellmann": gellmann_basis,
    "weyl": weyl_basis,
}
"""The built-in constructions by the name used in basis files and on the command line."""


def validate_basis(basis: MatrixBasis) -> IdentityReport:
    """Check orthogonality through the completeness relation of the basis sum.

    The residual, ``MatrixBasis.completeness_residual``, is the Frobenius
    deviation of ``bell_sum`` from d^2 |Phi+><Phi+|. Reshuffled, that is
    the deviation of the completeness tensor G^T G^* from d times the
    identity, G the d^2 x d^2 matrix of rows vec(g). The Gram matrix
    G^* G^T has the same spectrum, so the residual equals the Frobenius
    deviation of Tr(g_p^dag g_q) from d*delta_pq and bounds its largest
    entry from above. The verdict is pass iff it stays within tolerance(d).
    """
    d = basis.d
    check = IdentityCheck(
        id="basis_gram",
        description=(
            f"sum g_jk (x) g_jk^* == {d}^2 |Phi+><Phi+|, "
            f"i.e. Tr(g_jk^dag g_lm) == {d}*delta_jl*delta_km"
        ),
        residual=basis.completeness_residual,
        tolerance=tolerance(d),
    )
    return IdentityReport((check,))


_NOT_ORTHOGONAL = "is not orthogonal with the dimension-d normalization"


def require_orthogonal(basis: MatrixBasis, fault: str) -> None:
    """ValueError with `fault` and the cached completeness residual if validate_basis would fail."""
    if not basis.completeness_residual <= tolerance(basis.d):
        raise ValueError(f"{fault} (completeness residual {basis.completeness_residual:.3e})")


def rotated_basis(basis: MatrixBasis, u) -> MatrixBasis:
    """New basis h_jk = sum_lm U[jk,lm] g_lm for a unitary coefficient matrix.

    ``u`` may be a plain d^2 x d^2 array or any object with a ``coeffs``
    attribute (such as a BasisChange). The result must pass validate_basis,
    whose residual is d ||U^dag U - 1||_F for an orthogonal input basis;
    it is returned holding the ``bell_sum`` and residual that check built.
    """
    n = basis.d * basis.d
    coeffs = _check_shape(getattr(u, "coeffs", u), (n, n), f"coefficient matrix for d={basis.d}")
    rotated = MatrixBasis(basis.d, _frozen(combine(coeffs, basis.elements), built=True))
    require_orthogonal(rotated, "coefficient matrix is not unitary, or the basis not orthogonal")
    return rotated


def split_diag_offdiag(basis: MatrixBasis) -> BasisSplit | None:
    """Partition the elements into purely diagonal and purely off-diagonal ones.

    Returns None when some element mixes diagonal and off-diagonal entries
    (beyond tolerance), has a NaN entry, or the diagonal count is not d.
    """
    d, tol, on = basis.d, tolerance(basis.d), np.eye(basis.d, dtype=bool)
    main, off = (np.linalg.norm(basis.elements[:, mask], axis=1) for mask in (on, ~on))
    diagonal, offdiagonal = off <= tol, (off > tol) & (main <= tol)
    if np.isnan(main + off).any() or not np.all(diagonal | offdiagonal) or diagonal.sum() != d:
        return None
    return BasisSplit(*(tuple(np.flatnonzero(m).tolist()) for m in (diagonal, offdiagonal)))


def random_unitary(n: int, rng=None) -> np.ndarray:
    """Haar-distributed n x n unitary.

    QR decomposition of a complex Gaussian matrix with the R diagonal
    rephased to be positive, which makes the distribution exactly Haar.
    """
    rng = np.random.default_rng(rng)
    z = np.empty((n, n), dtype=complex)
    z.real, z.imag = rng.standard_normal((2, n, n))
    q, r = np.linalg.qr(z * (1 / np.sqrt(2)))
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_basis(d: int, rng=None) -> MatrixBasis:
    """Haar-random rotation of the standard basis, validated and holding its ``bell_sum``."""
    d = check_dim(d)
    return rotated_basis(standard_basis(d), random_unitary(d * d, rng))
