"""Exact weight multiplicities for the A-series Lie algebras.

The irreducible character is realized as a (degenerated, generalized)
Schur function in the independent x-indeterminates, expanded against the
Weyl-orbit characters, and solved as an exact linear system.  Independent
combinatorial oracles audit every result.
"""

from .lattice import (
    AlgebraContext,
    DominantWeight,
    Partition,
    Weight,
    height,
    orbit_size,
    orbit_weights,
    partition_to_dominant,
    sub_Q_lambda1,
)
from .orbitchar import (
    GeneratorExpr,
    degenerate_x,
    generator_to_x,
    orbit_char_u,
    orbit_char_x,
    reduce_to_generators,
)
from .polyengine import (
    InexactDivisionError,
    UPoly,
    XPoly,
    poly_det,
    poly_divide_exact,
)
from .schur import SchurContext, elementary_schur, generalized_schur, schur_context, star_schur
from .solver import MultiplicityTable, SolverError, dimension, solve_multiplicities
from .weyl import (
    FactorizationReport,
    alternant_matrix,
    verify_factorization,
    weyl_character_u,
)

__all__ = [
    "AlgebraContext",
    "DominantWeight",
    "FactorizationReport",
    "GeneratorExpr",
    "InexactDivisionError",
    "MultiplicityTable",
    "Partition",
    "SchurContext",
    "SolverError",
    "UPoly",
    "Weight",
    "XPoly",
    "alternant_matrix",
    "degenerate_x",
    "dimension",
    "elementary_schur",
    "generalized_schur",
    "generator_to_x",
    "height",
    "orbit_char_u",
    "orbit_char_x",
    "orbit_size",
    "orbit_weights",
    "partition_to_dominant",
    "poly_det",
    "poly_divide_exact",
    "reduce_to_generators",
    "schur_context",
    "solve_multiplicities",
    "star_schur",
    "sub_Q_lambda1",
    "verify_factorization",
    "weyl_character_u",
]

__version__ = "0.1.0"
