"""Unitary coefficient matrices connecting two orthogonal operator bases.

For bases {g_lm} (source) and {h_jk} (target), both normalized to the
dimension, the coefficients

    S[jk,lm] = (1/d) Tr(g_lm^dag h_jk)   with   h_jk = sum_lm S[jk,lm] g_lm

form a d^2 x d^2 unitary matrix. The transformation to and from the
standard basis plays a special role and exposes a block structure when
the basis splits into diagonal and off-diagonal elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import _NOT_ORTHOGONAL, BasisSplit, MatrixBasis, _hold, check_dim, require_orthogonal
from .linalg import _frozen, hs_gram, tolerance

__all__ = [
    "BasisChange",
    "BlockStructure",
    "change_of_basis",
    "to_standard",
    "from_standard",
    "block_structure",
]


@dataclass(frozen=True, eq=False)
class BasisChange:
    """Coefficient matrix of a basis transformation.

    Row index (j, k) enumerates the target basis and column index (l, m)
    the source basis, both in flat order j*d + k. The matrix is unitary
    and read-only, as every array of the records below.
    """

    d: int
    coeffs: np.ndarray  # (d*d, d*d), complex

    def __post_init__(self) -> None:
        d = check_dim(self.d)
        what = f"coefficient matrix for d={d}"
        _hold(self, d=d, coeffs=_frozen(self.coeffs, (d * d, d * d), what))


@dataclass(frozen=True, eq=False)
class BlockStructure:
    """Diagonal and off-diagonal blocks of a standard-basis transformation; d is read off the
    diagonal block and checked as every record checks its d."""

    diagonal: np.ndarray  # (d, d)
    offdiagonal: np.ndarray  # (d(d-1), d(d-1))

    def __post_init__(self) -> None:
        d = check_dim(len(np.atleast_1d(self.diagonal)))
        n = d * (d - 1)
        _hold(
            self,
            diagonal=_frozen(self.diagonal, (d, d), "diagonal block"),
            offdiagonal=_frozen(self.offdiagonal, (n, n), "offdiagonal block"),
        )


def change_of_basis(target: MatrixBasis, source: MatrixBasis) -> BasisChange:
    """Coefficients S with target_jk = sum_lm S[jk,lm] source_lm.

    Computed by Hilbert-Schmidt projection, S[jk,lm] = (1/d) Tr(g_lm^dag h_jk),
    the unique choice for orthogonal bases.
    """
    if target.d != source.d:
        raise ValueError(
            f"dimension mismatch between bases: target d={target.d}, source d={source.d}"
        )
    require_orthogonal(target, f"target basis {_NOT_ORTHOGONAL}")
    require_orthogonal(source, f"source basis {_NOT_ORTHOGONAL}")
    coeffs = hs_gram(source.elements, target.elements).T * (1 / target.d)
    return BasisChange(target.d, _frozen(coeffs, built=True))


def to_standard(basis: MatrixBasis) -> BasisChange:
    """Coefficients U with g_jk = sqrt(d) sum_lm U[jk,lm] |l><m|.

    Read off directly from the entries: U[jk,lm] = (g_jk)_lm / sqrt(d).
    """
    require_orthogonal(basis, f"input basis {_NOT_ORTHOGONAL}")
    n = basis.d * basis.d
    coeffs = basis.elements.reshape(n, n) * (1 / np.sqrt(basis.d))
    return BasisChange(basis.d, _frozen(coeffs, built=True))


def from_standard(basis: MatrixBasis) -> BasisChange:
    """Inverse transformation, sqrt(d)|j><k| = sum_lm conj(U[lm,jk]) g_lm.

    As a matrix this is exactly the conjugate transpose of :func:`to_standard`.
    """
    return BasisChange(basis.d, _frozen(to_standard(basis).coeffs.conj().T, built=True))


def block_structure(u: BasisChange, split: BasisSplit) -> BlockStructure | None:
    """Extract the d x d diagonal block and the d(d-1) x d(d-1) off-diagonal block.

    ``u`` must come from :func:`to_standard` of a basis admitting ``split``.
    Rows are taken in the ascending flat order given by the split; columns
    follow ascending flat order of the standard-basis indices (l, l) for the
    diagonal block and (l, m), l != m, for the off-diagonal one. Returns None
    when any cross-block entry exceeds tolerance.
    """
    d, c = u.d, u.coeffs
    on = np.eye(d, dtype=bool).ravel()  # the flat indices (l, l)
    diag_cols, off_cols = np.flatnonzero(on), np.flatnonzero(~on)
    diag_rows, off_rows = split.diagonal, split.offdiagonal
    if len(diag_rows) != d or len(off_rows) != d * (d - 1):
        return None
    cross = (c[np.ix_(diag_rows, off_cols)], c[np.ix_(off_rows, diag_cols)])
    if not np.abs(np.concatenate(cross, axis=None)).max(initial=0.0) <= tolerance(d):
        return None
    return BlockStructure(
        diagonal=_frozen(c[np.ix_(diag_rows, diag_cols)], built=True),
        offdiagonal=_frozen(c[np.ix_(off_rows, off_cols)], built=True),
    )
