"""Exact weight multiplicities for the A-series Lie algebras.

The irreducible character is realized as a (degenerated, generalized)
Schur function in the independent x-indeterminates, expanded against the
Weyl-orbit characters, and solved as an exact linear system.  Independent
combinatorial oracles audit every result.
"""

from .lattice import (
    AlgebraContext,
    DominantWeight,
    LimitError,
    Partition,
    Weight,
    height,
    orbit_size,
    orbit_weights,
    partition_to_dominant,
    sub_Q_lambda1,
)
from .orbitchar import orbit_char_x
from .polyengine import UPoly, XPoly, poly_det
from .schur import elementary_schur, generalized_schur
from .solver import MultiplicityTable, SolverError, dimension, solve_multiplicities
from .weyl import FactorizationReport, verify_factorization, weyl_character_u

__all__ = [
    "AlgebraContext",
    "DominantWeight",
    "FactorizationReport",
    "LimitError",
    "MultiplicityTable",
    "Partition",
    "SolverError",
    "UPoly",
    "Weight",
    "XPoly",
    "dimension",
    "elementary_schur",
    "generalized_schur",
    "height",
    "orbit_char_x",
    "orbit_size",
    "orbit_weights",
    "partition_to_dominant",
    "poly_det",
    "solve_multiplicities",
    "sub_Q_lambda1",
    "verify_factorization",
    "weyl_character_u",
]

__version__ = "0.1.0"
