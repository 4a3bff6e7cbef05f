"""liepde: exact Lie point symmetry engine for second-order evolution PDEs.

Everything is computed in exact arithmetic over the rationals, extended by
one surd (omega, with omega^2 = R^2 - 4*S) and the inverse of R*V + W; no
floating point appears anywhere.  The package verifies symmetry generators
symbolically, discovers finite symmetry bases at rational parameter
bindings, performs order reductions, and classifies the resulting Lie
algebras.

``__all__`` is the supported library API, the names of ``_HOME``, which
maps each to its home module; ``liepde.cli.main`` is supported too.  Every
other name in the package's modules is internal.

``import liepde`` imports none of the package's modules: each name of
``__all__`` is looked up in its home module on every access (PEP 562), so
a command pays only for the modules it uses, and the name always reads the
home module's current value.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOME = {name: module for module, names in (
    ("expr", ("Expr", "ExprError", "InternalError", "DivisionByZero",
              "UnsupportedDivision")),
    ("parser", ("parse", "render", "ParseError")),
    ("jet", ("EvolutionPDE", "StationaryEquation", "make_hpz", "make_heat",
             "get_equation", "equation_names")),
    ("prolong", ("VectorField", "residual", "verify_basis", "VerificationRow")),
    ("solver", ("Binding", "solve_determining", "SymmetryBasis", "profile_basis",
                "SymmetryProfile", "BindingError")),
    ("linalg", ("RootExtractionError",)),
    ("reduction", ("paper_reduction", "invariants_for", "reduce_pde",
                   "reduce_time", "ReductionMap", "ReducedEquation",
                   "ReductionError")),
    ("algebra", ("structure_constants", "classify", "AlgebraPresentation",
                 "Verdict", "ClosureError")),
    ("fixtures", ("known_basis", "generator_names")),
) for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
