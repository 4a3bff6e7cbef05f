"""Symmetry reduction to (1+1) equations and the time reduction.

For a generator of the class c(t) * (p d/dx + q d/dy + (m x + n y) u d/du)
with parameter constants p, q, m, n, the invariant is r = q x - p y (scaled
to the published characteristic when one matches) and the multiplier is
exp(Q) with Q a quadratic form solving p Q_x + q Q_y = m x + n y.  Writing
u = z(t, r) exp(Q) and eliminating x through r turns the equation into a
(1+1) evolution equation in (t, r); any surviving x or y dependence means
the generator does not reduce the equation, and that is a hard error -- the
absence of residual x, y is the consistency certificate.

The time reduction uses the autonomy generator 2 d/dt + kappa u d/du, i.e.
u = exp(kappa t / 2) z(spatial), and returns the stationary equation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import expr as ex
from . import fixtures
from .expr import Atom, Expr, ExprError, Frozen, InternalError, Jet
from .jet import EvolutionPDE, StationaryEquation, make_hpz, total_derivative
from .prolong import VectorField, residual


class ReductionError(ExprError):
    """The generator does not reduce the equation in the supported way."""


class ReductionMap(Frozen):
    """Invariant r = alpha x + beta y and multiplier exponent Q(x, y)."""

    generator: VectorField
    r: Expr
    alpha: Expr
    beta: Expr
    q_exponent: Expr
    matched_name: str | None = None


class ReducedEquation(Frozen):
    equation: EvolutionPDE
    map: ReductionMap
    certificate: str = "no-residual-xy"

    def paper_form(self, factor: Expr) -> Expr:
        """lhs of the scaled form: factor * (rhs - z_t)."""
        return factor * (self.equation.rhs - ex.jet("z", ("t",)))


def _is_parameter_expr(e: Expr) -> bool:
    return ex.atoms_of(e).issubset(ex.PARAMETER_NAMES) and not ex.jets_of(e) \
        and not ex.tfuns_of(e)


def _strip_common_exp(parts: list[Expr]) -> list[Expr]:
    """Remove one shared exponential factor from the nonzero entries."""
    arg = None
    for e in parts:
        if e.is_zero:
            continue
        groups = ex.exp_groups(e)
        if len(groups) != 1:
            raise ReductionError(
                "generator coefficients mix several exponential factors")
        this = next(iter(groups))
        if arg is None:
            arg = this
        elif this != arg:
            raise ReductionError(
                "generator coefficients carry different exponential factors")
    if arg is None or arg.is_zero:
        return parts
    inv = ex.exp_of(-arg)
    return [e * inv for e in parts]


def invariants_for(vf: VectorField) -> ReductionMap:
    """Invariant and multiplier for a reducing generator of the hpz class."""
    if vf.variables != ("t", "x", "y"):
        raise ReductionError("reduction expects a generator over (t, x, y)")
    if not vf.component("t").is_zero:
        raise ReductionError(
            "only generators with a zero d/dt coefficient reduce this way")
    eta_groups = ex.split_terms(vf.eta, lambda b: isinstance(b, Jet))
    dep_key = ((Jet(vf.dependent, ()), 1),)
    if not (set(eta_groups) <= {dep_key} or vf.eta.is_zero):
        raise ReductionError("eta must be linear in the dependent symbol")
    h = eta_groups.get(dep_key, ex.ZERO)

    p, q, h0 = _strip_common_exp([vf.component("x"), vf.component("y"), h])
    if (p.is_zero and q.is_zero) or not _is_parameter_expr(p) \
            or not _is_parameter_expr(q):
        raise ReductionError(
            "generator is outside the supported class "
            "c(t)*(p dx + q dy + (m x + n y) u du)")
    m = ex.partial(h0, Atom("x"))
    n = ex.partial(h0, Atom("y"))
    if not _is_parameter_expr(m) or not _is_parameter_expr(n) \
            or not (h0 - m * ex.X - n * ex.Y).is_zero:
        raise ReductionError("eta/u must be linear homogeneous in x and y")

    r_natural = q * ex.X - p * ex.Y
    r, matched = r_natural, None
    for name in ("delta3", "delta4", "delta5", "delta6"):
        printed = fixtures.characteristic_r(name)
        try:
            scale = ex.divide_exact(ex.partial(printed, Atom("x")),
                                    ex.partial(r_natural, Atom("x")))
        except ExprError:
            continue
        if (printed - scale * r_natural).is_zero:
            r, matched = printed, name
            break

    # multiplier: p Q_x + q Q_y = m x + n y with Q = q1 x y + q2 y^2 + q3 x^2
    try:
        if not q.is_zero:
            q1 = ex.divide_exact(m, q)
            q2 = ex.divide_exact(n - p * q1, 2 * q)
            q3 = ex.ZERO
        else:
            q1 = ex.divide_exact(n, p)
            q3 = ex.divide_exact(m - q * q1, 2 * p)
            q2 = ex.ZERO
    except ExprError as err:
        raise ReductionError(
            f"multiplier condition is not solvable for this generator: {err}"
        ) from err
    q_exp = q1 * ex.X * ex.Y + q2 * ex.Y ** 2 + q3 * ex.X ** 2

    # internal consistency: the generator annihilates r and matches Q
    if not vf.apply_to(r).is_zero:
        raise InternalError("internal error: generator does not annihilate r")
    cond = vf.component("x") * ex.partial(q_exp, Atom("x")) \
        + vf.component("y") * ex.partial(q_exp, Atom("y")) - h
    if not cond.is_zero:
        raise InternalError("internal error: multiplier condition violated")

    return ReductionMap(
        generator=vf, r=r,
        alpha=ex.partial(r, Atom("x")), beta=ex.partial(r, Atom("y")),
        q_exponent=q_exp, matched_name=matched)


def _d_along(e: Expr, v: str, slope: Expr) -> Expr:
    """Derivative of an expression in (t, x, y, z(t, r)) along x or y,
    where r = alpha x + beta y so every z-jet advances by slope * D_r; the
    expression holds no r atom, so D_r acts on its z-jets alone."""
    return ex.partial(e, Atom(v)) + slope * total_derivative(e, "r")


def reduce_pde(pde: EvolutionPDE, rmap: ReductionMap) -> ReducedEquation:
    """Change variables u = z(t, r) exp(Q) and certify the (1+1) result."""
    if pde.variables != ("t", "x", "y"):
        raise ReductionError("reduction applies to equations over (t, x, y); "
                             "single-spatial-variable equations do not reduce")
    E = ex.exp_of(rmap.q_exponent)
    u0 = ex.Z * E
    ux = _d_along(u0, "x", rmap.alpha)
    uy = _d_along(u0, "y", rmap.beta)
    images = {
        Jet("u", ()): u0,
        Jet("u", ("x",)): ux,
        Jet("u", ("y",)): uy,
        Jet("u", ("x", "x")): _d_along(ux, "x", rmap.alpha),
        Jet("u", ("x", "y")): _d_along(ux, "y", rmap.beta),
        Jet("u", ("y", "y")): _d_along(uy, "y", rmap.beta),
    }
    rhs = ex.subst_many(pde.rhs, images) * ex.exp_of(-rmap.q_exponent)
    # rewrite x through the invariant: x = (r - beta y) / alpha
    x_of_r = ex.divide_exact(ex.RADIAL - rmap.beta * ex.Y, rmap.alpha)
    rhs = ex.subst_many(rhs, {Atom("x"): x_of_r})
    leftover = ex.atoms_of(rhs) & {"x", "y"}
    if leftover:
        raise ReductionError(
            f"generator does not reduce this equation: residual "
            f"{', '.join(sorted(leftover))} dependence survives")
    equation = EvolutionPDE(("t", "r"), "z", rhs)
    return ReducedEquation(equation, rmap)


@lru_cache(maxsize=4)
def paper_reduction(generator: str) -> ReducedEquation:
    """hpz reduced by the published generator ``generator`` (delta3..delta6).

    Derived once per process: the registry's reduced equations and the
    ``reduce`` documents share it.
    """
    vf = fixtures.paper_generator(generator)
    return reduce_pde(make_hpz(), invariants_for(vf))


def reduce_time(pde: EvolutionPDE, kappa: Expr | None = None) -> StationaryEquation:
    """Reduce by 2 d/dt + kappa u d/du, i.e. u = exp(kappa t / 2) z(spatial).

    kappa defaults to R, the scaling that the hpz equation admits; pass 0
    for equations like heat whose time reduction uses plain d/dt.
    """
    if kappa is None:
        kappa = ex.R
    kappa = ex.as_expr(kappa)
    if not pde.is_autonomous():
        raise ReductionError("time reduction needs an autonomous equation")
    gen = VectorField(pde.variables, pde.dependent,
                      (ex.rational(2),) + tuple(ex.ZERO for _ in pde.spatial),
                      kappa * ex.sym(pde.dependent))
    if not residual(gen, pde).is_zero:
        raise ReductionError(
            "2 d/dt + kappa u d/du is not a symmetry of this equation")
    images = {}
    for j in ex.jets_of(pde.rhs) | {Jet(pde.dependent, ())}:
        images[j] = ex.jet("z", j.idx)
    lhs = ex.subst_many(pde.rhs, images) - Fraction(1, 2) * kappa * ex.Z
    return StationaryEquation(pde.spatial, "z", lhs)


def compare_with_printed(reduced: ReducedEquation, printed: Expr,
                         factor: Expr) -> tuple[list[dict], bool]:
    """Term-by-term comparison of the derived equation with a printed form.

    Both sides are split by monomials in the z-jets; each row reports the
    derived and printed coefficients and whether they agree exactly.
    """
    ours = reduced.paper_form(factor)

    def by_jet(e: Expr) -> dict:
        return ex.split_terms(e, lambda b: isinstance(b, Jet))

    ours_map, printed_map = by_jet(ours), by_jet(printed)
    rows = []
    agree = True
    for key in sorted(set(ours_map) | set(printed_map)):
        a = ours_map.get(key, ex.ZERO)
        b = printed_map.get(key, ex.ZERO)
        same = (a - b).is_zero
        agree &= same
        rows.append({
            "monomial": ex.factors_text(key),
            "derived": ex.to_text(a),
            "printed": ex.to_text(b),
            "match": same,
        })
    return rows, agree
