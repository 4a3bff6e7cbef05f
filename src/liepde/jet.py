"""Jet coordinates, total derivatives and evolution equations.

An :class:`EvolutionPDE` is a scalar equation solved for the first time
derivative, ``u_t = F(t, spatial variables, u, spatial jets)``, with F at
most second order.  Total derivatives act on jet expressions;
``eliminate_time_jets`` replaces time-derivative jets through the equation
and its total derivatives, which is what restricting to the solution
manifold means here.  That elimination is the reference path;
``prolong.residual`` works on the manifold from the start and never builds
a time jet.
"""

from __future__ import annotations

from functools import lru_cache

from . import expr as ex
from .expr import Atom, Expr, ExprError, Frozen, Jet


class JetOrderError(ExprError):
    """A total derivative would create a jet above the supported order."""


class EvolutionPDE(Frozen):
    """u_t = rhs with rhs free of time jets and at most second order."""

    variables: tuple[str, ...]
    dependent: str
    rhs: Expr

    def __post_init__(self):
        if self.variables[0] != "t":
            raise ExprError("the first independent variable must be t")
        if self.dependent not in ex.DEPENDENT_NAMES:
            raise ExprError(f"unknown dependent symbol {self.dependent!r}")
        for j in ex.jets_of(self.rhs):
            if j.dep != self.dependent:
                raise ExprError(f"foreign dependent symbol {j.dep!r} in rhs")
            if "t" in j.idx:
                raise ExprError("rhs must not contain time-derivative jets")
            if j.order > 2:
                raise ExprError("rhs must be at most second order")
            if any(v not in self.variables for v in j.idx):
                raise ExprError(f"jet {ex.base_label(j)} uses a variable outside "
                                f"{self.variables}")

    @property
    def spatial(self) -> tuple[str, ...]:
        return self.variables[1:]

    def is_autonomous(self) -> bool:
        return "t" not in ex.atoms_of(self.rhs)

    def render(self) -> str:
        return f"{self.dependent}_t = {ex.to_text(self.rhs)}"


class StationaryEquation(Frozen):
    """lhs = 0 in the spatial variables only (produced by time reduction)."""

    variables: tuple[str, ...]
    dependent: str
    lhs: Expr

    def render(self) -> str:
        return f"{ex.to_text(self.lhs)} = 0"


def make_hpz() -> EvolutionPDE:
    """Constant-parameter Hu-Paz-Zhang master equation over (t, x, y)."""
    u, u_x, u_y = ex.U, ex.jet("u", "x"), ex.jet("u", "y")
    u_xx, u_xy = ex.jet("u", "xx"), ex.jet("u", "xy")
    rhs = (ex.R * u - ex.X * u_y + ex.R * ex.X * u_x + ex.S * ex.Y * u_x
           + ex.V * u_xy + ex.W * u_xx)
    return EvolutionPDE(("t", "x", "y"), "u", rhs)


def make_heat() -> EvolutionPDE:
    """Classical heat equation u_t = u_xx, the (1+1) control case."""
    return EvolutionPDE(("t", "x"), "u", ex.jet("u", "xx"))


def total_derivative(e: Expr, v: str) -> Expr:
    """Total derivative D_v e = de/dv + sum_J u_{J+v} * de/du_J."""
    if v not in ex.VARIABLE_NAMES:
        raise ExprError(f"total derivative direction must be one of {ex.VARIABLE_NAMES}")
    pieces = [ex.partial(e, Atom(v))]
    for j in sorted(ex.jets_of(e)):
        # nonzero: a canonical expression that holds j depends on it
        de = ex.partial(e, j)
        if j.order + 1 > ex.MAX_JET_ORDER:
            raise JetOrderError(
                f"D_{v} of {ex.base_label(j)}: jet order {j.order + 1} is "
                f"above MAX_JET_ORDER = {ex.MAX_JET_ORDER}")
        lifted = tuple(sorted(j.idx + (v,), key=ex.VARIABLE_NAMES.index))
        pieces.append(ex.jet(j.dep, lifted) * de)
    return ex.sum_of(pieces)


def _time_jet_rule(j: Jet, pde: EvolutionPDE) -> Expr:
    """Manifold value of a time jet: u_{K+t} = D_K(rhs), K the index minus one t."""
    rest = list(j.idx)
    rest.remove("t")
    value = pde.rhs
    for v in rest:
        if v == "t":
            # inner time derivative: replace after the spatial ones, recursively
            value = total_derivative(value, "t")
            value = eliminate_time_jets(value, pde)
        else:
            value = total_derivative(value, v)
    return value


def eliminate_time_jets(e: Expr, pde: EvolutionPDE) -> Expr:
    """Substitute every time-derivative jet via the equation.

    Fixed elimination order: u_t first, then mixed second-order time jets,
    then u_tt (whose replacement is cleaned recursively), then third order.
    This is the reference restriction to the solution manifold, used by
    tests that check the residual against the classical criterion;
    ``prolong.residual`` does not call it.
    """
    # each pass removes one time jet and adds none: the rule's value holds
    # no time jet
    while time_jets := sorted(
            (j for j in ex.jets_of(e)
             if j.dep == pde.dependent and "t" in j.idx),
            key=lambda j: (j.order, j.idx.count("t"), j.idx)):
        j = time_jets[0]
        e = ex.subst_many(e, {j: _time_jet_rule(j, pde)})
    return e


# ---------------------------------------------------------------------------
# equation registry
# ---------------------------------------------------------------------------

_REDUCED = {
    "reduced-3.2": "delta3",
    "reduced-3.5": "delta4",
    "reduced-3.7": "delta5",
    "reduced-3.9": "delta6",
}


def equation_names() -> tuple[str, ...]:
    return ("hpz", "heat") + tuple(_REDUCED) + ("stationary-2.6",)


@lru_cache(maxsize=len(equation_names()))
def get_equation(name: str) -> EvolutionPDE | StationaryEquation:
    """Look up a named equation; reduced ones are derived on first use.

    Equations are frozen values, so each is built once per process; an
    unknown name raises and is not cached.
    """
    if name == "hpz":
        return make_hpz()
    if name == "heat":
        return make_heat()
    if name in _REDUCED:
        from . import reduction
        return reduction.paper_reduction(_REDUCED[name]).equation
    if name == "stationary-2.6":
        from . import reduction
        return reduction.reduce_time(make_hpz())
    raise ExprError(
        f"unknown equation {name!r}; known names: {', '.join(equation_names())}")
