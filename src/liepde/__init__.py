"""liepde: exact Lie point symmetry engine for second-order evolution PDEs.

Everything is computed in exact arithmetic over the rationals, extended by
one surd (omega, with omega^2 = R^2 - 4*S) and the inverse of R*V + W; no
floating point appears anywhere.  The package verifies symmetry generators
symbolically, discovers finite symmetry bases at rational parameter
bindings, performs order reductions, and classifies the resulting Lie
algebras.
"""

from .expr import (  # noqa: F401
    Expr, ExprError, InternalError, DivisionByZero, UnsupportedDivision,
    rational, sym, jet, tfun, exp_of, simplify, substitute, differentiate,
    divide_exact, evaluate, evaluate_rational,
)
from .parser import parse, render, ParseError  # noqa: F401
from .jet import (  # noqa: F401
    EvolutionPDE, StationaryEquation, JetOrderError,
    make_hpz, make_heat, total_derivative, eliminate_time_jets,
    equation_names, get_equation,
)
from .prolong import (  # noqa: F401
    VectorField, prolong2, residual, determining_equations,
)
from .solver import (  # noqa: F401
    Binding, BindingError, ansatz, SymmetryBasis, SymmetryProfile,
    solve_determining, verify_basis, profile_basis, span_rank,
)
from .reduction import (  # noqa: F401
    ReductionError, ReductionMap, ReducedEquation,
    invariants_for, reduce_pde, paper_reduction, reduce_time,
    compare_with_printed,
)
from .algebra import (  # noqa: F401
    ClosureError, commutator, AlgebraPresentation, structure_constants,
    Verdict, classify,
)
from .fixtures import known_basis, paper_generator, generator_names  # noqa: F401

__version__ = "0.1.0"
