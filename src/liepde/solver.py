"""Solve determining systems: exact discovery.

Discovery works at rational parameter bindings whose discriminant
``R^2 - 4*S`` is a perfect rational square, so the surd and every
exponent are rational and the whole computation stays in exact arithmetic:

1. build the structured ansatz (xi_t = a(t); spatial xi affine; eta equal
   to u times a quadratic form, excluding the infinite family of solution
   symmetries) and collect its determining equations, in any order;
2. the system is linear, homogeneous and first order in the unknown
   t-functions with constant coefficients, ``A g + B g' = 0``, a linear
   DAE; completing it leaves an ODE ``z' = M z`` whose size is the exact
   dimension and whose characteristic polynomial gives every exponent with
   its multiplicity; a free unknown function or an exponent that is not
   rational (complex ones included) is refused;
3. each exponent lam of multiplicity m has exactly m trial solutions
   ``t^k exp(lam t)``, k < m: an exact rational nullspace of sparse
   ``{column: value}`` rows for the sparse elimination in :mod:`linalg`;
4. every returned generator is normalised and re-verified through the
   residual, and the basis is checked to be linearly independent by an
   exact rank computation.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from . import expr as ex
from .expr import Atom, Expr, ExprError, Frozen, InternalError, Jet, TFun
from .jet import EvolutionPDE
from .prolong import VectorField, determining_equations, residual
# verification lives next to the residual and is importable from here too
from .prolong import VerificationRow, verify_basis
from . import linalg
from .linalg import RootExtractionError


class BindingError(ExprError):
    """Invalid parameter binding for the requested operation."""


_BOUND = ex.PARAMETER_NAMES[:4]  # R, S, V, W; omega and delta are derived


class Binding(Frozen):
    """Exact rational values for R, S, V, W (omega, delta derived).

    It keeps its own copy of ``values``, and refuses a name other than R,
    S, V, W and a value other than an ``int`` or ``Fraction`` (not a
    ``bool``).  omega is the square root of R^2 - 4*S and must be exactly
    rational for discovery; reductions additionally need R*V + W nonzero.
    """

    values: dict[str, Fraction] = {}

    def __post_init__(self):
        values = dict(self.values)
        for name, value in values.items():
            if name not in _BOUND:
                raise BindingError(f"unknown parameter {name!r} in binding")
            if value.__class__ not in (int, Fraction):
                raise BindingError(f"{name} = {value!r} is not an int or "
                                   f"a Fraction")
        object.__setattr__(self, "values", values)

    @staticmethod
    def parse(text: str) -> "Binding":
        vals: dict[str, Fraction] = {}
        if text.strip():
            for chunk in text.split(","):
                name, _, rhs = chunk.partition("=")
                name, rhs = name.strip(), rhs.strip()
                if name in vals:
                    raise BindingError(f"parameter {name!r} is given twice")
                try:
                    vals[name] = Fraction(rhs)
                except (ValueError, ZeroDivisionError) as err:
                    raise BindingError(f"bad rational {rhs!r} for {name}") from err
        return Binding(vals)

    def is_empty(self) -> bool:
        return not self.values

    def discriminant(self) -> Fraction:
        r = self.values.get("R", Fraction(0))
        s = self.values.get("S", Fraction(0))
        return r * r - 4 * s

    def omega(self) -> Fraction:
        disc = self.discriminant()
        if disc < 0:
            raise BindingError("R^2 - 4*S must be non-negative")
        if not linalg.is_perfect_square(disc):
            raise BindingError(
                f"R^2 - 4*S = {disc} is not a perfect rational square; "
                f"choose a perfect-square discriminant")
        return Fraction(isqrt(disc.numerator), isqrt(disc.denominator))

    def rv_plus_w(self) -> Fraction:
        return (self.values.get("R", Fraction(0)) * self.values.get("V", Fraction(0))
                + self.values.get("W", Fraction(0)))

    def require_reduction_params(self):
        if self.rv_plus_w() == 0:
            raise BindingError("R*V + W = 0 is a singular-parameter case")
        if self.omega() == 0:
            raise BindingError(
                "R^2 = 4*S is the repeated-root case, out of scope")

    def substitution(self, needed: set[str]) -> dict:
        out: dict = {}
        for name in _BOUND:
            if name in needed:
                if name not in self.values:
                    raise BindingError(f"binding does not set {name}")
                out[Atom(name)] = ex.rational(self.values[name])
        if "omega" in needed:
            out[Atom("omega")] = ex.rational(self.omega())
        if "delta" in needed:
            d = self.rv_plus_w()
            if d == 0:
                raise BindingError("R*V + W = 0: the expression is singular")
            out[Atom("delta")] = ex.rational(Fraction(1, d))
        return out

    def apply(self, e: Expr) -> Expr:
        needed = ex.atoms_of(e).intersection(ex.PARAMETER_NAMES)
        if not needed:
            return e
        return ex.subst_many(e, self.substitution(needed))

    def apply_pde(self, pde: EvolutionPDE) -> EvolutionPDE:
        return EvolutionPDE(pde.variables, pde.dependent, self.apply(pde.rhs))

    def apply_field(self, vf: VectorField) -> VectorField:
        return VectorField(vf.variables, vf.dependent,
                           tuple(self.apply(c) for c in vf.xi),
                           self.apply(vf.eta))

    def as_dict(self) -> dict[str, str]:
        out = {k: str(v) for k, v in sorted(self.values.items())}
        return out


# ---------------------------------------------------------------------------
# ansatz
# ---------------------------------------------------------------------------

def ansatz(pde: EvolutionPDE) -> tuple[list[str], VectorField]:
    """The unknown t-functions and the structured generator shape over them.

    xi_t = a(t); each spatial xi_v = b_v + sum_w b_vw w, affine in the
    spatial variables; eta = u (f + sum_v f_v v + sum_{v<=w} f_vw v w).
    Solution symmetries (an additive phi(t,...) d/du with phi any solution)
    are excluded by construction.  The shape contains every generator this
    engine is asked to find; the names come in the order of the columns of
    the determining system.
    """
    spatial = pde.spatial
    sym = {v: ex.sym(v) for v in spatial}
    xi_terms = [[("a", ex.ONE)]] + [
        [(f"b_{v}", ex.ONE)] + [(f"b_{v}{w}", sym[w]) for w in spatial]
        for v in spatial]
    eta_terms = [("f", ex.ONE)] + [(f"f_{v}", sym[v]) for v in spatial] + [
        (f"f_{v}{w}", sym[v] * sym[w])
        for i, v in enumerate(spatial) for w in spatial[i:]]

    def combination(terms) -> Expr:
        return ex.sum_of([ex.tfun(name) * monomial for name, monomial in terms])

    names = [name for terms in xi_terms + [eta_terms] for name, _ in terms]
    eta = combination(eta_terms) * ex.sym(pde.dependent)
    return names, VectorField(pde.variables, pde.dependent,
                              tuple(map(combination, xi_terms)), eta)


# ---------------------------------------------------------------------------
# discovery
# ---------------------------------------------------------------------------

class SymmetryBasis(Frozen):
    pde: EvolutionPDE
    binding: Binding
    fields: tuple[VectorField, ...]
    exponents: tuple[Fraction, ...]

    @property
    def dimension(self) -> int:
        return len(self.fields)


def _linear_system(equations, unknowns: list[str]):
    """Split determining equations into A g + B g' = 0 over the rationals."""
    index = {name: i for i, name in enumerate(unknowns)}
    a_rows: list[list[Fraction]] = []
    b_rows: list[list[Fraction]] = []
    for eq in equations:
        arow = [Fraction(0)] * len(unknowns)
        brow = [Fraction(0)] * len(unknowns)
        for coeff, factors in eq.terms:
            tf = [(b, p) for b, p in factors if isinstance(b, TFun)]
            rest = [(b, p) for b, p in factors if not isinstance(b, TFun)]
            if len(tf) != 1 or tf[0][1] != 1 or rest:
                raise ExprError(
                    "determining equation is not linear with rational "
                    f"coefficients: {ex.to_text(eq)}")
            base = tf[0][0]
            if base.name not in index:
                raise ExprError(f"unexpected unknown {base.name!r}")
            if base.order == 0:
                arow[index[base.name]] += coeff
            elif base.order == 1:
                brow[index[base.name]] += coeff
            else:
                raise ExprError("determining system is not first order")
        a_rows.append(arow)
        b_rows.append(brow)
    return a_rows, b_rows


def _completion(a_rows, b_rows) -> list[list[Fraction]]:
    """Complete the DAE ``A g + B g' = 0`` to ``z' = M z``; returns ``M``.

    ``[B | A]`` is eliminated over the integers (``linalg.z_rref``) with
    the g'-columns first; rows with their
    pivot in the g-part are constraints ``C g = 0``, whose derivatives
    ``C g' = 0`` are appended until the constraint rank stops growing
    (Kunkel & Mehrmann, *Differential-Algebraic Equations*, 2006).  A
    g'-column without a pivot is a free unknown function.  Otherwise
    ``g' = -N g`` on ``ker C``, whose points are ``g = K z`` for the
    nullspace basis K of C and z = g[F] on its free columns F; so
    ``M = -N[F] K`` is d x d, d = dim ker C being the exact dimension.
    """
    n = len(a_rows[0])
    rows = [{**{j: v for j, v in enumerate(brow) if v},
             **{n + j: v for j, v in enumerate(arow) if v}}
            for arow, brow in zip(a_rows, b_rows)]
    rank = None
    while True:
        rref, pivots = linalg.z_rref(rows)
        # C, written in the g'-columns: as rows of the system these are
        # C g' = 0, and read over the g-columns they are C itself
        constraints = [{j - n: v for j, v in row.items()}
                       for row, pc in zip(rref, pivots) if pc >= n]
        if len(constraints) == rank:
            break
        rank = len(constraints)
        rows = rref + constraints
    if pivots[:n] != list(range(n)):
        raise RootExtractionError(
            "the ansatz admits a free unknown function; the determining "
            "system does not pin it down")
    # g'_i = sum_j minus_n[i][j] g_j, from the integer pivot row of column i
    minus_n = [{j - n: Fraction(-v, row[i]) for j, v in row.items() if j >= n}
               for i, row in enumerate(rref[:n])]
    free = [i for i in range(n) if n + i not in pivots]
    kernel = linalg.q_nullspace(constraints, n)
    return [[sum((v * vec[j] for j, v in minus_n[i].items()), Fraction(0))
             for vec in kernel] for i in free]


def _candidate_exponents(a_rows, b_rows) -> list[tuple[Fraction, int]]:
    """The exponents of the solution space and their multiplicities.

    They are the roots of ``charpoly(M)`` for the completed system
    ``z' = M z``: each exponent lam with algebraic multiplicity m
    contributes exactly the m solutions ``t^k exp(lam t)``, k < m, and the
    multiplicities add up to the dimension d.  A root that is not
    rational, complex ones included, is refused, never dropped.
    """
    m = _completion(a_rows, b_rows)
    charpoly = linalg.charpoly(m)
    pairs = []
    for lam in linalg.rational_roots(charpoly):
        mult = 0
        while linalg.p_eval(charpoly, lam) == 0:
            charpoly = linalg.p_div_exact(charpoly, (-lam, Fraction(1)))
            mult += 1
        pairs.append((lam, mult))
    if len(charpoly) > 1:
        raise RootExtractionError(
            f"{len(charpoly) - 1} of the {len(m)} exponents are not rational "
            "(irrational or complex); exact discovery needs rational "
            "exponents")
    return pairs


def _trial_nullspace(a_rows, b_rows, lam: Fraction, degree: int):
    """Exact nullspace for g_i(t) = exp(lam t) * sum_k c_{ik} t^k trials."""
    n = len(a_rows[0])
    width = n * (degree + 1)

    def col(i: int, k: int) -> int:
        return i * (degree + 1) + k

    rows: list[dict[int, Fraction]] = []
    for arow, brow in zip(a_rows, b_rows):
        for k in range(degree + 1):
            # t^k coefficient of a*g + b*g' with g = sum c_k t^k e^(lam t),
            # kept as a sparse row of its nonzero entries
            row = {}
            for i in range(n):
                value = arow[i] + brow[i] * lam
                if value:
                    row[col(i, k)] = value
                if k + 1 <= degree and brow[i]:
                    row[col(i, k + 1)] = brow[i] * (k + 1)
            if row:
                rows.append(row)
    return linalg.q_nullspace(rows, width), width


def span_rank(vectors) -> int:
    """Exact rank of bound fields or bound expressions over the rationals,
    in the basis of their terms."""
    return linalg.q_rank(linalg.coordinates(vectors))


def _normalize_field(vf: VectorField) -> VectorField:
    """Scale a nonzero field so its first nonzero stacked coordinate
    equals one."""
    lead = next(c for c in vf.coefficients() if c).terms[0][0]
    return vf.scaled(Fraction(1, 1) / lead)


def solve_determining(pde: EvolutionPDE,
                      binding: Binding | None = None) -> SymmetryBasis:
    """Discover the finite symmetry basis within the structured ansatz."""
    binding = binding or Binding()
    if not binding.is_empty():
        binding.omega()  # discovery needs a rational surd; fail fast
    # apply_pde binds every parameter, or refuses one the binding lacks
    params = ex.atoms_of(pde.rhs).intersection(ex.PARAMETER_NAMES)
    bound_pde = binding.apply_pde(pde) if params else pde
    unknowns, vf = ansatz(bound_pde)
    # never empty: the residual of the ansatz holds -f'(t)*u, which no
    # other unknown cancels
    a_rows, b_rows = _linear_system(determining_equations(vf, bound_pde),
                                    unknowns)
    fields: list[VectorField] = []
    exponents: list[Fraction] = []
    for lam, mult in _candidate_exponents(a_rows, b_rows):
        # every solution with exponent lam has degree below its multiplicity
        nullspace, _ = _trial_nullspace(a_rows, b_rows, lam, mult - 1)
        if len(nullspace) != mult:
            raise InternalError(
                f"internal error: exponent {lam} of multiplicity {mult} has "
                f"{len(nullspace)} trial solutions")
        for vec in nullspace:
            mapping = {}
            for i, name in enumerate(unknowns):
                g = ex.ZERO
                for k in range(mult):
                    ck = vec[i * mult + k]
                    if ck:
                        g = g + ex.rational(ck) * ex.T ** k
                mapping[TFun(name, 0)] = g * ex.exp_of(ex.rational(lam) * ex.T)
            candidate = _normalize_field(VectorField(
                vf.variables, vf.dependent,
                tuple(ex.subst_many(c, mapping) for c in vf.xi),
                ex.subst_many(vf.eta, mapping)))
            res = residual(candidate, bound_pde)
            if not res.is_zero:
                raise InternalError(
                    f"internal error: candidate at exponent {lam} failed "
                    f"re-verification with residual {ex.to_text(res)}")
            fields.append(candidate)
            exponents.append(lam)
    # the ansatz maps unknowns to fields injectively and the exponents are
    # distinct, so independent trial vectors give independent fields
    rank = span_rank(fields)
    if rank != len(fields):
        raise InternalError(
            f"internal error: the {len(fields)} discovered generators span "
            f"only {rank} dimensions")
    return SymmetryBasis(bound_pde, binding, tuple(fields), tuple(exponents))


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

class ProfileRow(Frozen):
    """Shape facts of one (1+1) generator against the reduced-equation form."""
    a: Expr                    # xi_t, must depend on t alone
    b: Expr                    # xi_r - a'(t) r / 2, must depend on t alone
    scaling: Expr              # eta / z with the r-dependent part retained
    a_time_only: bool
    b_time_only: bool
    eta_linear: bool

    @property
    def matches(self) -> bool:
        return self.a_time_only and self.b_time_only and self.eta_linear


class SymmetryProfile(Frozen):
    rows: tuple[ProfileRow, ...]
    a_rank: int
    b_rank: int
    f_rank: int

    @property
    def all_match(self) -> bool:
        return all(r.matches for r in self.rows)


def _depends_only_on_t(e: Expr) -> bool:
    deps = ex.atoms_of(e) & set(ex.VARIABLE_NAMES)
    return deps <= {"t"} and not ex.jets_of(e)


def profile_basis(basis: SymmetryBasis) -> SymmetryProfile:
    """Check each generator of a (1+1) basis against the reduced-form shape.

    a = xi_t depends on t only; xi_r - a'(t) r/2 depends on t only; eta is
    linear in the dependent symbol.  Also reports the dimensions of the
    a-, b- and pure-scaling spaces across the basis (3, 2, 1 for an
    equation of maximal symmetry).
    """
    if len(basis.pde.variables) != 2:
        raise ExprError("profiles apply to (1+1) equations only")
    rvar = basis.pde.variables[1]
    dep = basis.pde.dependent
    rows = []
    a_vecs, b_vecs, f_vecs = [], [], []
    for vf in basis.fields:
        a = vf.component("t")
        ap = ex.differentiate(a, "t") if _depends_only_on_t(a) else ex.ZERO
        b = vf.component(rvar) - Fraction(1, 2) * ap * ex.sym(rvar)
        h_groups = ex.split_terms(vf.eta, lambda bb: isinstance(bb, Jet))
        dep_key = ((Jet(dep, ()), 1),)
        eta_linear = set(h_groups) <= {dep_key} or vf.eta.is_zero
        h = h_groups.get(dep_key, ex.ZERO)
        rows.append(ProfileRow(
            a=a, b=b, scaling=h,
            a_time_only=_depends_only_on_t(a),
            b_time_only=_depends_only_on_t(b),
            eta_linear=eta_linear,
        ))
        a_vecs.append(a)
        b_vecs.append(b)
        if a.is_zero and b.is_zero:
            f_vecs.append(h)
    return SymmetryProfile(
        rows=tuple(rows),
        a_rank=span_rank(a_vecs),
        b_rank=span_rank(b_vecs),
        f_rank=span_rank(f_vecs),
    )
