"""Residual/verdict records shared by basis validation and the identity catalogue."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["IdentityCheck", "IdentityReport"]


@dataclass(frozen=True)
class IdentityCheck:
    """Outcome of one numerical check: Frobenius (or absolute) residual vs tolerance."""

    id: str
    description: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        """The verdict; a NaN residual fails."""
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class IdentityReport:
    """An ordered collection of checks with an aggregate verdict."""

    checks: tuple[IdentityCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[IdentityCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __iter__(self):
        return iter(self.checks)

    def __len__(self) -> int:
        return len(self.checks)
