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

from .bases import BasisSplit, MatrixBasis, validate_basis
from .linalg import hs_gram, tolerance

__all__ = [
    "BasisChange",
    "BlockStructure",
    "change_of_basis",
    "to_standard",
    "from_standard",
    "block_structure",
]


@dataclass(frozen=True)
class BasisChange:
    """Coefficient matrix of a basis transformation.

    Row index (j, k) enumerates the target basis and column index (l, m)
    the source basis, both in flat order j*d + k. The matrix is unitary.
    """

    d: int
    coeffs: np.ndarray  # (d*d, d*d), complex

    def __post_init__(self) -> None:
        coeffs = np.array(self.coeffs, dtype=complex)
        n = self.d * self.d
        if coeffs.shape != (n, n):
            raise ValueError(
                f"coefficient matrix for d={self.d} must be {n}x{n}, got {coeffs.shape}"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)


@dataclass(frozen=True)
class BlockStructure:
    """Diagonal and off-diagonal blocks of a standard-basis transformation."""

    diagonal: np.ndarray  # (d, d)
    offdiagonal: np.ndarray  # (d(d-1), d(d-1))


def _require_valid(basis: MatrixBasis, role: str) -> None:
    report = validate_basis(basis)
    if not report.all_passed:
        raise ValueError(
            f"{role} basis is not orthogonal with the dimension-d normalization "
            f"(completeness residual {report.checks[0].residual:.3e})"
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
    _require_valid(target, "target")
    _require_valid(source, "source")
    return BasisChange(target.d, hs_gram(source.elements, target.elements).T / target.d)


def to_standard(basis: MatrixBasis) -> BasisChange:
    """Coefficients U with g_jk = sqrt(d) sum_lm U[jk,lm] |l><m|.

    Read off directly from the entries: U[jk,lm] = (g_jk)_lm / sqrt(d).
    """
    _require_valid(basis, "input")
    n = basis.d * basis.d
    coeffs = basis.elements.reshape(n, n) / np.sqrt(basis.d)
    return BasisChange(basis.d, coeffs)


def from_standard(basis: MatrixBasis) -> BasisChange:
    """Inverse transformation, sqrt(d)|j><k| = sum_lm conj(U[lm,jk]) g_lm.

    As a matrix this is exactly the conjugate transpose of :func:`to_standard`.
    """
    u = to_standard(basis)
    return BasisChange(basis.d, u.coeffs.conj().T)


def block_structure(u: BasisChange, split: BasisSplit) -> BlockStructure | None:
    """Extract the d x d diagonal block and the d(d-1) x d(d-1) off-diagonal block.

    ``u`` must come from :func:`to_standard` of a basis admitting ``split``.
    Rows are taken in the ascending flat order given by the split; columns
    follow ascending flat order of the standard-basis indices (l, l) for the
    diagonal block and (l, m), l != m, for the off-diagonal one. Returns None
    when any cross-block entry exceeds tolerance.
    """
    d = u.d
    diag_cols = [l * d + l for l in range(d)]
    off_cols = [l * d + m for l in range(d) for m in range(d) if l != m]
    diag_rows = list(split.diagonal)
    off_rows = list(split.offdiagonal)
    if len(diag_rows) != d or len(off_rows) != d * (d - 1):
        return None
    c = u.coeffs
    cross = (c[np.ix_(diag_rows, off_cols)], c[np.ix_(off_rows, diag_cols)])
    if not np.abs(np.concatenate(cross, axis=None)).max(initial=0.0) <= tolerance(d):
        return None
    return BlockStructure(
        diagonal=c[np.ix_(diag_rows, diag_cols)].copy(),
        offdiagonal=c[np.ix_(off_rows, off_cols)].copy(),
    )
