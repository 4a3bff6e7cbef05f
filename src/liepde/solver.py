"""Solve determining systems: verification and exact discovery.

Discovery works at rational parameter bindings whose discriminant
``R^2 - 4*S`` is a perfect rational square, so the surd and every candidate
exponent are rational and the whole computation stays in exact arithmetic:

1. build the structured ansatz (xi_t = a(t); spatial xi affine; eta equal
   to u times a quadratic form, excluding the infinite family of solution
   symmetries) and collect the determining system;
2. the system is linear, homogeneous and first order in the unknown
   t-functions with constant coefficients, ``A g + B g' = 0``; exponents of
   exponential-polynomial solutions can only be roots of the pivot
   polynomials of the pencil ``A + lambda*B`` (at any other lambda the
   pencil has full column rank, forcing the top polynomial coefficient of a
   would-be solution to vanish); the pencil's Gram determinant, sampled by
   integer Bareiss at integer nodes and interpolated, certifies that no
   real exponent is missed;
3. for each candidate exponent, polynomial-times-exponential trial
   solutions up to a degree cap turn the system into an exact rational
   nullspace problem, posed as sparse ``{column: value}`` rows (each row
   touches one or two trial coefficients per unknown) for the sparse
   elimination in :mod:`linalg`;
4. every returned generator is re-verified through the residual, and the
   basis is kept linearly independent via an exact rank computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import expr as ex
from .expr import Atom, Expr, ExprError, Jet, TFun
from .jet import EvolutionPDE
from .prolong import VectorField, determining_equations, residual
from . import linalg
from .linalg import RootExtractionError

__all__ = [
    "Binding", "BindingError", "Ansatz", "SymmetryBasis", "SymmetryProfile",
    "solve_determining", "verify_basis", "profile_basis",
    "coefficient_vector", "span_rank", "DEFAULT_TRIAL_DEGREE",
]

DEFAULT_TRIAL_DEGREE = 2  # covers the heat equation's t^2 generators


class BindingError(ExprError):
    """Invalid parameter binding for the requested operation."""


@dataclass(frozen=True)
class Binding:
    """Exact rational values for R, S, V, W (omega, delta derived).

    omega is the square root of R^2 - 4*S and must be exactly rational for
    discovery; reductions additionally need R*V + W nonzero.
    """

    values: dict[str, Fraction] = field(default_factory=dict)

    @staticmethod
    def parse(text: str) -> "Binding":
        vals: dict[str, Fraction] = {}
        if text.strip():
            for chunk in text.split(","):
                name, _, rhs = chunk.partition("=")
                name, rhs = name.strip(), rhs.strip()
                if name not in ("R", "S", "V", "W", "omega"):
                    raise BindingError(f"unknown parameter {name!r} in binding")
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
        if "omega" in self.values:
            om = self.values["omega"]
            if om * om != self.discriminant():
                raise BindingError(
                    f"omega={om} is inconsistent: omega^2 must equal "
                    f"R^2 - 4*S = {self.discriminant()}")
            if om < 0:
                raise BindingError("omega must be the non-negative square root")
            return om
        disc = self.discriminant()
        if disc < 0:
            raise BindingError("R^2 - 4*S must be non-negative")
        if not linalg.is_perfect_square(disc):
            raise BindingError(
                f"R^2 - 4*S = {disc} is not a perfect rational square; "
                f"choose a perfect-square discriminant")
        return linalg.fraction_sqrt(disc)

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
        for name in ("R", "S", "V", "W"):
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
        needed = ex.atoms_of(e) & {"R", "S", "V", "W", "omega", "delta"}
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

@dataclass(frozen=True)
class Ansatz:
    """Structured generator shape for a (1+1) or (1+2) evolution equation.

    xi_t = a(t); spatial xi coefficients affine in the spatial variables;
    eta = u times a quadratic form in the spatial variables, all with
    unknown functions of t.  Solution symmetries (an additive phi(t,...)
    d/du with phi any solution) are excluded by construction.  The shape
    contains every generator this engine is asked to find.
    """

    pde: EvolutionPDE

    def unknown_names(self) -> list[str]:
        spatial = self.pde.spatial
        names = ["a"]
        for v in spatial:
            names.append(f"b_{v}")
            names.extend(f"b_{v}{w}" for w in spatial)
        names.append("f")
        names.extend(f"f_{v}" for v in spatial)
        quad = []
        for i, v in enumerate(spatial):
            for w in spatial[i:]:
                quad.append(f"f_{v}{w}")
        return names + quad

    def build(self) -> VectorField:
        spatial = self.pde.spatial
        dep = self.pde.dependent
        xi = [ex.tfun("a")]
        for v in spatial:
            coeff = ex.tfun(f"b_{v}")
            for w in spatial:
                coeff = coeff + ex.tfun(f"b_{v}{w}") * ex.sym(w)
            xi.append(coeff)
        h = ex.tfun("f")
        for v in spatial:
            h = h + ex.tfun(f"f_{v}") * ex.sym(v)
        for i, v in enumerate(spatial):
            for w in spatial[i:]:
                h = h + ex.tfun(f"f_{v}{w}") * ex.sym(v) * ex.sym(w)
        return VectorField(self.pde.variables, dep, tuple(xi), h * ex.sym(dep))


# ---------------------------------------------------------------------------
# discovery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymmetryBasis:
    pde: EvolutionPDE
    binding: Binding
    fields: tuple[VectorField, ...]
    exponents: tuple[Fraction, ...]

    @property
    def dimension(self) -> int:
        return len(self.fields)


def _linear_system(system_rows, unknowns: list[str]):
    """Split determining equations into A g + B g' = 0 over the rationals."""
    index = {name: i for i, name in enumerate(unknowns)}
    a_rows: list[list[Fraction]] = []
    b_rows: list[list[Fraction]] = []
    for _, _, eq in system_rows:
        if eq.is_zero:
            continue
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


def _candidate_exponents(a_rows, b_rows) -> list[Fraction]:
    """Rational exponents at which the pencil A + lambda*B can lose rank.

    Candidates come from the Bareiss pivot polynomials (a superset of the
    rank-drop locus, so spurious irrational pivot roots are tolerated); the
    Gram determinant then certifies completeness: after deflating the found
    candidates it must have no further real roots, else exponents would be
    non-rational and discovery must refuse rather than return a truncated
    basis.
    """
    roots: set[Fraction] = set()
    for piv in linalg.pencil_pivots(a_rows, b_rows):
        roots.update(linalg.rational_roots(piv, strict=False))
    gram = linalg.pencil_gram_poly(a_rows, b_rows)
    if not gram:
        raise RootExtractionError(
            "the ansatz admits a free unknown function; the determining "
            "system does not pin it down")
    work = gram
    for lam in sorted(roots):
        while len(work) > 1 and linalg.p_eval(work, lam) == 0:
            work = linalg.p_div_exact(work, (-lam, Fraction(1)))
    if len(work) > 1 and linalg.sturm_root_count(work) > 0:
        raise RootExtractionError(
            "some candidate exponents are not rational; choose parameters "
            "whose discriminant R^2 - 4*S is a perfect rational square")
    return sorted(roots)


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
    if not rows:
        return [], width
    return linalg.q_nullspace(rows, width), width


def coefficient_vector(vf: VectorField, keys: list | None = None):
    """Stacked rational coordinates of a bound field in its term basis.

    Returns (keys, row) with ``row`` a sparse ``{key index: coefficient}``
    dict; pass ``keys`` to reuse a shared basis.
    """
    all_keys = [] if keys is None else list(keys)
    seen = {k: i for i, k in enumerate(all_keys)}
    row: dict[int, Fraction] = {}
    for slot, c in enumerate(vf.coefficients()):
        for factors, coeff in ex.rational_coefficients(c).items():
            key = (slot, factors)
            if key not in seen:
                seen[key] = len(all_keys)
                all_keys.append(key)
            row[seen[key]] = coeff
    return all_keys, row


def span_rank(fields) -> int:
    """Exact rank of the stacked coefficient matrix of bound fields."""
    keys: list = []
    rows = []
    for vf in fields:
        keys, row = coefficient_vector(vf, keys)
        rows.append(row)
    return linalg.q_rank(rows)


def _normalize_field(vf: VectorField) -> VectorField:
    """Scale so the first nonzero stacked coordinate equals one."""
    for c in vf.coefficients():
        if not c.is_zero:
            lead = c.terms[0][0]
            return vf.scaled(Fraction(1, 1) / lead)
    return vf


def solve_determining(pde: EvolutionPDE,
                      binding: Binding | None = None,
                      ansatz: Ansatz | None = None,
                      trial_degree: int = DEFAULT_TRIAL_DEGREE) -> SymmetryBasis:
    """Discover the finite symmetry basis within the structured ansatz."""
    binding = binding or Binding()
    if not binding.is_empty():
        binding.omega()  # discovery needs a rational surd; fail fast
    params = ex.atoms_of(pde.rhs) & {"R", "S", "V", "W", "omega", "delta"}
    if params:
        bound_pde = binding.apply_pde(pde)
        still = ex.atoms_of(bound_pde.rhs) & {"R", "S", "V", "W", "omega", "delta"}
        if still:
            raise BindingError(
                f"discovery needs rational parameters; unbound: {sorted(still)}")
    else:
        bound_pde = pde
    ansatz = ansatz or Ansatz(bound_pde)
    unknowns = ansatz.unknown_names()
    vf = ansatz.build()
    system = determining_equations(vf, bound_pde)
    a_rows, b_rows = _linear_system(system.equations(), unknowns)
    if not a_rows:
        raise ExprError("empty determining system")
    lams = _candidate_exponents(a_rows, b_rows)

    fields: list[VectorField] = []
    exponents: list[Fraction] = []
    rows: list[dict[int, Fraction]] = []
    keys: list = []
    for lam in lams:
        nullspace, _ = _trial_nullspace(a_rows, b_rows, lam, trial_degree)
        for vec in nullspace:
            mapping = {}
            for i, name in enumerate(unknowns):
                g = ex.ZERO
                for k in range(trial_degree + 1):
                    ck = vec[i * (trial_degree + 1) + k]
                    if ck:
                        g = g + ex.rational(ck) * ex.T ** k
                mapping[TFun(name, 0)] = g * ex.exp_of(ex.rational(lam) * ex.T)
            candidate = VectorField(
                vf.variables, vf.dependent,
                tuple(ex.subst_many(c, mapping) for c in vf.xi),
                ex.subst_many(vf.eta, mapping))
            if candidate.is_zero():
                continue
            res = residual(candidate, bound_pde)
            if not res.is_zero:
                raise ExprError(
                    f"internal error: candidate at exponent {lam} failed "
                    f"re-verification with residual {ex.to_text(res)}")
            keys, cand_row = coefficient_vector(candidate, keys)
            if linalg.q_rank(rows + [cand_row]) == len(rows) + 1:
                fields.append(_normalize_field(candidate))
                exponents.append(lam)
                rows.append(cand_row)
    return SymmetryBasis(bound_pde, binding, tuple(fields), tuple(exponents))


# ---------------------------------------------------------------------------
# verification and profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationRow:
    name: str
    residual: Expr

    @property
    def ok(self) -> bool:
        return self.residual.is_zero


def verify_basis(named_fields, pde: EvolutionPDE) -> list[VerificationRow]:
    """Symbolic residual check for each (name, field); failures are rows."""
    return [VerificationRow(name, residual(vf, pde)) for name, vf in named_fields]


@dataclass(frozen=True)
class ProfileRow:
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


@dataclass(frozen=True)
class SymmetryProfile:
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
        a_rank=_expr_rank(a_vecs),
        b_rank=_expr_rank(b_vecs),
        f_rank=_expr_rank(f_vecs),
    )


def _expr_rank(exprs) -> int:
    seen: dict = {}
    rows = []
    for e in exprs:
        coords = ex.rational_coefficients(e)
        rows.append({seen.setdefault(fs, len(seen)): c for fs, c in coords.items()})
    return linalg.q_rank(rows)
