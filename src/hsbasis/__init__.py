"""Orthogonal bases of the Hilbert-Schmidt space of d x d complex matrices.

Constructions of the standard, generalized Gell-Mann, and Weyl operator
bases (all normalized to Tr(g^dag g) = d), unitary transformations
between bases, basis expansions of SWAP, the Bell projector, and the
coherent state, an executable catalogue of the expansion identities, and
basis-expanded maps (trace, transposition, partial transpose,
reshuffling, Choi representation, universal state inversion,
concurrence).

The public names are those in the ``__all__`` of each module below.
"""

from . import bases, identities, linalg, maps, operators, report, transforms
from .bases import *  # noqa: F403
from .identities import *  # noqa: F403
from .linalg import *  # noqa: F403
from .maps import *  # noqa: F403
from .operators import *  # noqa: F403
from .report import *  # noqa: F403
from .transforms import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (bases, identities, linalg, maps, operators, report, transforms)
    for name in module.__all__
]
