"""Second prolongation of point vector fields and determining equations.

A :class:`VectorField` is a point generator

    xi^t d/dt + xi^x d/dx (+ xi^y d/dy) + eta d/du

whose coefficients are jet-free expressions in the base variables and the
dependent symbol.  ``prolong2`` extends it to second-order jet space with
the characteristic formula

    eta^J = D_J(eta - sum_i xi^i u_i) + sum_i xi^i u_{J,i}

computing each total derivative of the characteristic once, extended from
its prefix.

``residual`` applies the prolonged field to ``u_t - F`` on the solution
manifold and vanishes identically exactly when the field is a Lie point
symmetry.  It uses pr v = pr v_Q + xi^i D_i (Olver, *Applications of Lie
Groups to Differential Equations*, GTM 107, Section 5.1): D_i(u_t - F)
vanishes on the equation, so with the spatial characteristic
Q' = eta - sum_a xi^a u_a (a, b spatial) the residual is

    -( D_t^E Q' - sum_J F_{u_J} D_J Q' - (D_t^E xi^t) F - xi^t dF/dt
       + sum_J F_{u_J} L_J ),

    D_t^E = d/dt + sum_K (D_K F) d/du_K    (K spatial, D_() F = F),
    L_() = 0,   L_a = (D_a xi^t) F,
    L_ab = (D_ab xi^t) F + (D_a xi^t)(D_b F) + (D_b xi^t)(D_a F),

where J runs over () and the spatial multi-indices with F_{u_J} nonzero.
L_J is the Leibniz remainder D_J(xi^t u_t) - xi^t u_{J,t} with the time
jets replaced through the equation, so no time jet is ever built; the
value equals the classical criterion with every time jet eliminated.
``verify_basis`` checks named fields this way, one row per field.

``determining_equations`` splits the residual of a field with unknown
t-functions by its monomials in the jets and the point variables x, y, r
and u, and returns the coefficients as a plain list: the field is a
symmetry iff every one vanishes, whatever their order.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations_with_replacement

from . import expr as ex
from .expr import Atom, Expr, ExprError, Frozen, Jet
from .jet import EvolutionPDE, total_derivative


class VectorField(Frozen):
    """Point generator with jet-free coefficients, aligned with ``variables``."""

    variables: tuple[str, ...]
    dependent: str
    xi: tuple[Expr, ...]
    eta: Expr

    def __post_init__(self):
        if len(self.xi) != len(self.variables):
            raise ExprError("one xi coefficient per independent variable")
        for c in self.coefficients():
            for j in ex.jets_of(c):
                if j.order >= 1:
                    raise ExprError(
                        "vector-field coefficients must be jet-free "
                        f"(found {ex.base_label(j)})")
                if j.dep != self.dependent:
                    raise ExprError(f"foreign dependent symbol {j.dep!r}")

    def coefficients(self) -> tuple[Expr, ...]:
        return self.xi + (self.eta,)

    def component(self, v: str) -> Expr:
        return self.xi[self.variables.index(v)]

    def apply_to(self, f: Expr) -> Expr:
        """First-order action on a jet-free function of the base variables."""
        out = ex.ZERO
        for v, c in zip(self.variables, self.xi):
            out = out + c * ex.partial(f, Atom(v))
        return out + self.eta * ex.partial(f, Jet(self.dependent, ()))

    @cached_property
    def jacobian(self) -> tuple[tuple[Expr, ...], ...]:
        """First partials of each coefficient (``xi...``, then ``eta``) in
        each base variable, then in the dependent symbol; computed once per
        field, on first use."""
        wrt = [Atom(v) for v in self.variables] + [Jet(self.dependent, ())]
        return tuple(tuple(ex.partial(c, b) for b in wrt)
                     for c in self.coefficients())

    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coefficients())

    def scaled(self, factor) -> "VectorField":
        factor = ex.as_expr(factor)
        return VectorField(self.variables, self.dependent,
                           tuple(factor * c for c in self.xi),
                           factor * self.eta)

    def plus(self, other: "VectorField") -> "VectorField":
        if (other.variables, other.dependent) != (self.variables, self.dependent):
            raise ExprError("vector fields live on different spaces")
        return VectorField(self.variables, self.dependent,
                           tuple(a + b for a, b in zip(self.xi, other.xi)),
                           self.eta + other.eta)

    def render(self) -> dict[str, str]:
        out = {f"xi_{v}": ex.to_text(c) for v, c in zip(self.variables, self.xi)}
        out["eta"] = ex.to_text(self.eta)
        return out


def _multi_indices(variables: tuple[str, ...]) -> list[tuple[str, ...]]:
    first = [(v,) for v in variables]
    second = [tuple(sorted(c, key=ex.VARIABLE_NAMES.index))
              for c in combinations_with_replacement(variables, 2)]
    return first + second


def _total_derivatives(e: Expr):
    """J -> D_J e, each computed once and extended from its prefix, so
    D_x e serves both D_xx e and D_xy e."""
    derived: dict[tuple[str, ...], Expr] = {(): e}

    def d(J: tuple[str, ...]) -> Expr:
        if J not in derived:
            derived[J] = total_derivative(d(J[:-1]), J[-1])
        return derived[J]
    return d


def prolong2(vf: VectorField) -> dict[tuple[str, ...], Expr]:
    """Extended coefficients eta^J for 1 <= |J| <= 2 over the field's variables."""
    dep = vf.dependent
    characteristic = vf.eta
    for v, c in zip(vf.variables, vf.xi):
        characteristic = characteristic - c * ex.jet(dep, (v,))
    d = _total_derivatives(characteristic)
    out: dict[tuple[str, ...], Expr] = {}
    for J in _multi_indices(vf.variables):
        value = d(J)
        for v, c in zip(vf.variables, vf.xi):
            lifted = tuple(sorted(J + (v,), key=ex.VARIABLE_NAMES.index))
            value = value + c * ex.jet(dep, lifted)
        out[J] = value
    return out


def residual(vf: VectorField, pde: EvolutionPDE) -> Expr:
    """Prolonged action on u_t - F, on the solution manifold.

    Evolutionary form of the module docstring: only spatial jets appear,
    and each total derivative of Q', F and xi^t is taken once.  Zero iff
    the field is a Lie point symmetry of the equation.
    """
    if (vf.variables, vf.dependent) != (pde.variables, pde.dependent):
        raise ExprError("vector field and equation live on different spaces")
    dep, F, xi_t = vf.dependent, pde.rhs, vf.xi[0]
    spatial = pde.spatial
    q = ex.sum_of([vf.eta] + [-c * ex.jet(dep, (a,))
                              for a, c in zip(spatial, vf.xi[1:])])
    DQ, DF, Dxi = (_total_derivatives(q), _total_derivatives(F),
                   _total_derivatives(xi_t))

    def dt_on_manifold(e: Expr) -> Expr:
        # D_t e with u_{K,t} -> D_K F; e has spatial jets only
        return ex.sum_of([ex.partial(e, Atom("t"))] + [
            DF(j.idx) * ex.partial(e, j) for j in ex.jets_of(e)])

    pieces = [dt_on_manifold(xi_t) * F, xi_t * ex.partial(F, Atom("t")),
              -dt_on_manifold(q)]
    for J in ((),) + tuple(_multi_indices(spatial)):
        FJ = ex.partial(F, Jet(dep, J))
        if FJ.is_zero:
            continue
        pieces.append(FJ * DQ(J))
        if len(J) == 1:
            pieces.append(-FJ * (Dxi(J) * F))
        elif len(J) == 2:
            a, b = J
            pieces.append(-FJ * ex.sum_of([
                Dxi(J) * F, Dxi((a,)) * DF((b,)), Dxi((b,)) * DF((a,))]))
    return ex.sum_of(pieces)


class VerificationRow(Frozen):
    name: str
    residual: Expr

    @property
    def ok(self) -> bool:
        return self.residual.is_zero


def verify_basis(named_fields, pde: EvolutionPDE) -> list[VerificationRow]:
    """Symbolic residual check for each (name, field); failures are rows."""
    return [VerificationRow(name, residual(vf, pde)) for name, vf in named_fields]


# ---------------------------------------------------------------------------
# determining equations
# ---------------------------------------------------------------------------

def determining_equations(vf: VectorField, pde: EvolutionPDE) -> list[Expr]:
    """The residual's coefficients of each monomial in the jets and in x,
    y, r: zero for all of them iff ``vf`` is a symmetry."""

    def split_off(b) -> bool:
        return isinstance(b, Jet) or (
            isinstance(b, Atom) and b.name in ("x", "y", "r"))

    return list(ex.split_terms(residual(vf, pde), split_off).values())
