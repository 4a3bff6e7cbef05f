"""liepde: exact Lie point symmetry engine for second-order evolution PDEs.

Everything is computed in exact arithmetic over the rationals, extended by
one surd (omega, with omega^2 = R^2 - 4*S) and the inverse of R*V + W; no
floating point appears anywhere.  The package verifies symmetry generators
symbolically, discovers finite symmetry bases at rational parameter
bindings, performs order reductions, and classifies the resulting Lie
algebras.

``__all__`` is the supported library API, grouped as in the README's
"Library API" section; ``liepde.cli.main`` is supported too.  Every other
name in the package's modules is internal.
"""

from .expr import DivisionByZero, Expr, ExprError, InternalError, UnsupportedDivision
from .parser import ParseError, parse, render
from .jet import (EvolutionPDE, StationaryEquation, equation_names, get_equation,
                  make_heat, make_hpz)
from .prolong import VectorField, residual
from .solver import (Binding, BindingError, SymmetryBasis, SymmetryProfile,
                     VerificationRow, profile_basis, solve_determining, verify_basis)
from .linalg import RootExtractionError
from .reduction import (ReducedEquation, ReductionError, ReductionMap, invariants_for,
                        paper_reduction, reduce_pde, reduce_time)
from .algebra import AlgebraPresentation, ClosureError, Verdict, classify, structure_constants
from .fixtures import generator_names, known_basis

__all__ = [
    # equations
    "EvolutionPDE", "StationaryEquation", "make_hpz", "make_heat",
    "get_equation", "equation_names",
    # expressions
    "Expr", "parse", "render",
    # verification
    "VectorField", "residual", "verify_basis", "VerificationRow",
    # discovery
    "Binding", "solve_determining", "SymmetryBasis", "profile_basis",
    "SymmetryProfile",
    # reduction
    "paper_reduction", "invariants_for", "reduce_pde", "reduce_time",
    "ReductionMap", "ReducedEquation",
    # algebra
    "structure_constants", "classify", "AlgebraPresentation", "Verdict",
    # fixtures
    "known_basis", "generator_names",
    # errors
    "ExprError", "InternalError", "DivisionByZero", "UnsupportedDivision",
    "ParseError", "BindingError", "RootExtractionError", "ReductionError",
    "ClosureError",
]

__version__ = "0.1.0"
