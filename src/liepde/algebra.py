"""Commutators, structure constants and classification of symmetry algebras.

Commutators come from each field's Jacobian, computed once per field.
Structure constants are found by one exact elimination against a monomial
coordinatisation of the coefficient functions, solving for every bracket at
once over the symbolic parameter field; every expansion is re-verified
against the directly computed commutator before it is trusted, and
non-closure is an error naming the offending pair.  Spans, ranks and
projections of subspaces go through the same sparse elimination in
``linalg``, which eliminates a matrix whose entries are all rational over
``Fraction``.

Classification detects the structures this engine meets: abelian nA1,
Heisenberg-Weyl W3/W5, sl(2, R) by the exact signature of its Killing form
(``linalg.inertia``, from the Killing matrix's characteristic polynomial),
and semidirect sums complement (+)s nilradical, where the nilradical is
recovered as the radical of the Killing form and the complement is corrected
into a closing subalgebra (a Levi complement) by two linear solves.  Both
are classified as subalgebras presented in coordinates over the parent:
their constants are solved from the parent's verified tensor and each is
re-verified there, so no vector field is formed again.  When a
structure is outside this list the verdict is "unclassified" with the
computed invariants, never a wrong name.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from . import expr as ex
from .expr import Atom, Expr, ExprError
from . import linalg
from .prolong import VectorField

__all__ = [
    "ClosureError", "commutator", "AlgebraPresentation", "structure_constants",
    "Verdict", "classify",
]


class ClosureError(ExprError):
    """A commutator fell outside the span of the basis."""


def commutator(xf: VectorField, yf: VectorField) -> VectorField:
    """[X, Y], coefficient-wise: [X, Y]^k = sum_v X^v d_v Y^k - Y^v d_v X^k,
    with v over the base variables and the dependent symbol, from the two
    fields' Jacobians (each computed once per field)."""
    if (xf.variables, xf.dependent) != (yf.variables, yf.dependent):
        raise ExprError("vector fields live on different spaces")
    xs = xf.coefficients()
    minus_ys = [-c for c in yf.coefficients()]
    out = [ex.sum_of(_products(xs, dy) + _products(minus_ys, dx))
           for dx, dy in zip(xf.jacobian, yf.jacobian)]
    return VectorField(xf.variables, xf.dependent, tuple(out[:-1]), out[-1])


def _products(coeffs, partials) -> list[Expr]:
    return [c * d for c, d in zip(coeffs, partials)
            if not (c.is_zero or d.is_zero)]


# ---------------------------------------------------------------------------
# coordinatisation over the parameter field
# ---------------------------------------------------------------------------

def _geometric(b) -> bool:
    # geometric part of a monomial: base variables, jets, exponentials;
    # parameters and rational content stay in the coefficient
    return not (isinstance(b, Atom) and b.name in
                ("R", "S", "V", "W", "omega", "delta"))


@dataclass(frozen=True)
class AlgebraPresentation:
    """Basis with the full structure-constant tensor c[i][j][k].

    ``basis`` is empty for a subalgebra presented by its tensor alone (see
    ``_subalgebra``); the dimension is that of the tensor.
    """

    basis: tuple[VectorField, ...]
    constants: tuple[tuple[tuple[Expr, ...], ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.constants)

    @cached_property
    def unit(self) -> tuple[tuple[Expr, ...], ...]:
        """Coordinates of the basis elements themselves."""
        n = self.dimension
        return tuple(tuple(ex.ONE if i == j else ex.ZERO for j in range(n))
                     for i in range(n))

    def is_rational(self) -> bool:
        return all(c.is_rational for row in self.constants for col in row
                   for c in col)

    def bracket_coords(self, i: int, j: int) -> tuple[Expr, ...]:
        return self.constants[i][j]

    def constants_text(self) -> list[dict]:
        out = []
        n = self.dimension
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    c = self.constants[i][j][k]
                    if not c.is_zero:
                        out.append({"i": i + 1, "j": j + 1, "k": k + 1,
                                    "value": ex.to_text(c)})
        return out


def structure_constants(basis) -> AlgebraPresentation:
    """Expand all pairwise commutators in the basis, exactly.

    Verifies linear independence, re-checks every expansion symbolically,
    and re-verifies antisymmetry and the Jacobi identity on the tensor.
    """
    basis = tuple(basis)
    n = len(basis)
    bracket_fields = [commutator(basis[i], basis[j])
                      for i, j in combinations(range(n), 2)]
    coords = linalg.coordinates(basis + tuple(bracket_fields), _geometric)
    columns, bracket_coords = coords[:n], coords[n:]

    nrows = len(set().union(*coords))
    matrix = [[col.get(r, ex.ZERO) for col in columns] for r in range(nrows)]
    sols = linalg.f_solve_unique(
        matrix, [[coords.get(r, ex.ZERO) for r in range(nrows)]
                 for coords in bracket_coords], n)
    pres = AlgebraPresentation(basis, _verified_tensor(
        [f.coefficients() for f in basis],
        [f.coefficients() for f in bracket_fields], sols))
    _check_jacobi(pres)
    return pres


def _verified_tensor(vectors, brackets, sols) -> tuple:
    """The structure-constant tensor from one solution per pair i < j.

    ``vectors`` are the basis elements and ``brackets`` the directly
    computed bracket of each pair, both as sequences of expressions (field
    coefficients, or coordinates over a parent algebra); ``sols`` holds the
    solved expansion of each bracket, None when it is outside the span.
    Every expansion sum_k c^k v_k is re-verified against its bracket before
    it is trusted; a pair that fails raises ``ClosureError`` naming it.
    """
    n = len(vectors)
    zero_row = tuple(ex.ZERO for _ in range(n))
    constants = [[zero_row for _ in range(n)] for _ in range(n)]
    for (i, j), sol, bracket in zip(combinations(range(n), 2), sols,
                                    brackets):
        if sol is None:
            raise ClosureError(
                f"commutator of basis elements {i + 1} and {j + 1} is not in "
                f"the span of the basis")
        try:
            cs = tuple(s.to_expr() for s in sol)
        except ExprError as err:
            raise ClosureError(
                f"structure constant for pair ({i + 1}, {j + 1}) is not "
                f"representable: {err}") from err
        # decisive re-check against the directly computed bracket
        terms = [(c, v) for c, v in zip(cs, vectors) if not c.is_zero]
        if any(ex.sum_of([c * v[slot] for c, v in terms]) != b
               for slot, b in enumerate(bracket)):
            raise ClosureError(
                f"expansion of pair ({i + 1}, {j + 1}) failed re-verification")
        constants[i][j] = cs
        constants[j][i] = tuple(-c for c in cs)
    return tuple(tuple(row) for row in constants)


def _check_jacobi(p: AlgebraPresentation):
    """sum_m c_ij^m c_mk^l + c_jk^m c_mi^l + c_ki^m c_mj^l = 0 for every
    triple i < j < k and every l; products with a zero factor are left
    out."""
    n = p.dimension
    c = p.constants
    for i, j, k in combinations(range(n), 3):
        outer = [(x, c[m][d]) for ab, d in ((c[i][j], k), (c[j][k], i),
                                            (c[k][i], j))
                 for m, x in enumerate(ab) if not x.is_zero]
        for l in range(n):
            if not ex.sum_of([x * row[l] for x, row in outer
                              if not row[l].is_zero]).is_zero:
                raise ExprError(
                    f"Jacobi identity fails on triple ({i+1}, {j+1}, {k+1})")


# ---------------------------------------------------------------------------
# subspace machinery (coordinates are expressions over the basis)
# ---------------------------------------------------------------------------

def _ad_bracket(p: AlgebraPresentation, v: list[Expr], w: list[Expr]) -> list[Expr]:
    n = p.dimension
    pieces: list[list[Expr]] = [[] for _ in range(n)]
    for i in range(n):
        if v[i].is_zero:
            continue
        for j in range(n):
            if w[j].is_zero:
                continue
            nonzero = [(k, c) for k, c in enumerate(p.constants[i][j])
                       if not c.is_zero]
            if nonzero:
                vw = v[i] * w[j]
                for k, c in nonzero:
                    pieces[k].append(vw * c)
    return [ex.sum_of(ps) for ps in pieces]


def _spans(span: list[list[Expr]], vectors: list[list[Expr]]) -> bool:
    """Every vector lies in the span of ``span``: adding them keeps the rank."""
    return linalg.f_rank(span + vectors) == linalg.f_rank(span)


def _independent(prefix: list[list[Expr]],
                 vectors: list[list[Expr]]) -> list[list[Expr]]:
    """The vectors independent of ``prefix`` and of the vectors before them.

    With all of them as columns, these are the pivot columns past ``prefix``.
    """
    pivots = linalg.f_rref([list(row) for row in zip(*prefix, *vectors)])[1]
    return [vectors[c - len(prefix)] for c in pivots if c >= len(prefix)]


def _derived_space(p: AlgebraPresentation) -> list[list[Expr]]:
    return _derived_space_sub(p, p.unit, p.unit)


def _center(p: AlgebraPresentation) -> list[list[Expr]]:
    n = p.dimension
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([p.constants[i][j][k] for i in range(n)])
    return linalg.f_nullspace(rows)


def _killing_matrix(p: AlgebraPresentation) -> list[list[Expr]]:
    n = p.dimension
    c = p.constants
    k = [[ex.ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            # trace of ad(e_i) ad(e_j); products with a zero factor left out
            tr = ex.sum_of([x * c[j][b][a] for a in range(n)
                            for b, x in enumerate(c[i][a])
                            if not (x.is_zero or c[j][b][a].is_zero)])
            k[i][j] = tr
            k[j][i] = tr
    return k


def _is_nilpotent(p: AlgebraPresentation, space: list[list[Expr]]) -> bool:
    """Lower central series of the subalgebra spanned by ``space`` hits zero."""
    current = space
    for _ in range(len(space) + 1):
        if not current:
            return True
        nxt = _derived_space_sub(p, space, current)
        if len(nxt) >= len(current):
            return False  # series stalled above zero
        current = nxt
    return not current


def _derived_space_sub(p, left, right):
    brackets = [_ad_bracket(p, v, w) for v in left for w in right]
    return linalg.f_row_basis(brackets)


def _subalgebra(p: AlgebraPresentation,
                vectors: list[list[Expr]]) -> AlgebraPresentation:
    """The subalgebra spanned by ``vectors`` (coordinates over ``p``),
    presented by its own tensor and no basis fields.

    ``p``'s tensor is verified against its fields and has passed Jacobi, and
    the bracket is bilinear over the parameter field, so the brackets of the
    vectors are read off it: one elimination expands all of them in the
    vectors, each expansion is re-verified in coordinates, and the new
    tensor is checked for Jacobi.
    """
    s = len(vectors)
    brackets = [_ad_bracket(p, vectors[a], vectors[b])
                for a, b in combinations(range(s), 2)]
    sols = linalg.f_solve_unique([list(row) for row in zip(*vectors)],
                                 brackets, s)
    sub = AlgebraPresentation((), _verified_tensor(vectors, brackets, sols))
    _check_jacobi(sub)
    return sub


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    name: str
    mubarakzyanov_label: str | None
    dimension: int
    center_dim: int
    derived_dim: int
    ideal_basis: tuple[tuple[Expr, ...], ...] = ()
    complement_basis: tuple[tuple[Expr, ...], ...] = ()
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "mubarakzyanov_label": self.mubarakzyanov_label,
            "dimension": self.dimension,
            "center_dim": self.center_dim,
            "derived_dim": self.derived_dim,
            "ideal_basis": [[ex.to_text(c) for c in v] for v in self.ideal_basis],
            "complement_basis": [[ex.to_text(c) for c in v]
                                 for v in self.complement_basis],
            "notes": list(self.notes),
        }


_W3_NOTE = ("the three-dimensional Heisenberg-Weyl algebra is labelled A3,3 "
            "here following the source classification; the conventional "
            "Mubarakzyanov label for it is A3,1")


def _heisenberg_check(p: AlgebraPresentation, center, derived) -> bool:
    n = p.dimension
    if n < 3 or n % 2 == 0:
        return False
    if len(center) != 1 or len(derived) != 1:
        return False
    # the derived algebra and every bracket central
    return _spans(center, derived + [_ad_bracket(p, p.unit[i], p.unit[j])
                                     for i, j in combinations(range(n), 2)])


def classify(p: AlgebraPresentation) -> Verdict:
    """Classification verdict with witnesses; see the module docstring."""
    n = p.dimension
    if n > 6:
        return _unclassified(p, "dimension above 6 is out of scope",
                             _center(p), _derived_space(p))
    center = _center(p)
    derived = _derived_space(p)
    cd, dd = len(center), len(derived)

    if dd == 0:
        return Verdict("A1" if n == 1 else f"{n}A1", None, n, cd, dd,
                       notes=("abelian",))

    if _heisenberg_check(p, center, derived):
        name = f"W{n}"
        label = "A3,3" if n == 3 else None
        notes = (_W3_NOTE,) if n == 3 else ()
        return Verdict(name, label, n, cd, dd,
                       ideal_basis=tuple(tuple(v) for v in center),
                       notes=notes)

    if n == 2 and dd == 1:
        return Verdict("A2", "A2,1", n, cd, dd,
                       notes=("the unique non-abelian two-dimensional algebra",))

    if n == 3 and p.is_rational():
        kmat = _killing_matrix(p)
        pos, neg, zero = linalg.inertia(
            [[c.as_fraction() for c in row] for row in kmat])
        if zero == 0 and (pos, neg) == (2, 1):
            return Verdict("sl(2,R)", "A3,8", n, cd, dd,
                           notes=("Killing form nondegenerate with "
                                  "signature (2,1)",))
        if zero == 0:
            return _unclassified(
                p, f"semisimple with Killing signature ({pos},{neg})",
                center, derived)

    semidirect = _try_semidirect(p, center, derived)
    if semidirect is not None:
        return semidirect
    return _unclassified(p, "no recognised structure", center, derived)


def _unclassified(p: AlgebraPresentation, why: str, center,
                  derived) -> Verdict:
    return Verdict("unclassified", None, p.dimension,
                   len(center), len(derived), notes=(why,))


def _try_semidirect(p: AlgebraPresentation, center, derived) -> Verdict | None:
    """Detect complement (+)s nilradical via the Killing-form radical."""
    n = p.dimension
    kmat = _killing_matrix(p)
    radical = linalg.f_nullspace(kmat)
    m = len(radical)
    if not 0 < m < n:
        return None
    if not _is_nilpotent(p, radical):
        return None
    # radical must be an ideal
    if not _spans(radical,
                  [_ad_bracket(p, v, w) for v in p.unit for w in radical]):
        return None
    complement = _levi_complement(p, radical)
    if complement is None:
        return None
    try:
        ideal_verdict = classify(_subalgebra(p, radical))
        comp_verdict = classify(_subalgebra(p, complement))
    except ExprError:
        return None
    if "unclassified" in (ideal_verdict.name, comp_verdict.name):
        return None
    notes = ideal_verdict.notes + comp_verdict.notes + (
        "nilradical recovered as the radical of the Killing form; "
        "complement corrected to close under the bracket",)
    return Verdict(
        f"{comp_verdict.name} (+)s {ideal_verdict.name}",
        None, n, len(center), len(derived),
        ideal_basis=tuple(tuple(v) for v in radical),
        complement_basis=tuple(tuple(v) for v in complement),
        notes=notes)


def _levi_complement(p: AlgebraPresentation,
                     radical: list[list[Expr]]) -> list[list[Expr]] | None:
    """A complement to the nilradical that closes under the bracket.

    Basis elements independent of the radical are corrected by solving two
    rational linear systems: first modulo the derived space of the radical,
    then inside it (classical Levi-Malcev steps for a two-step nilpotent
    radical; the first correction is skipped when the raw complement already
    closes, which also covers symbolic one-dimensional complements).
    """
    lifts = _independent(radical, p.unit)
    if len(lifts) + len(radical) != p.dimension:
        return None
    if _closes(p, lifts):
        return lifts
    if not p.is_rational():
        return None  # symbolic correction not attempted

    rad_z = _derived_space_sub(p, radical, radical)
    stage_one = _independent(rad_z, radical)
    # the filtration matters: corrections are solved first modulo [N, N]
    # (whose stage coordinates the quadratic term cannot touch), then inside
    # [N, N] itself
    for stage_space, lower in ((stage_one, rad_z), (rad_z, stage_one)):
        if not stage_space:
            continue
        lifts = _correct_stage(p, lifts, stage_space, lower) or lifts
        if _closes(p, lifts):
            return lifts
    return lifts if _closes(p, lifts) else None


def _closes(p: AlgebraPresentation, lifts: list[list[Expr]]) -> bool:
    return _spans(lifts, [_ad_bracket(p, lifts[i], lifts[j])
                          for i, j in combinations(range(len(lifts)), 2)])


def _correct_stage(p: AlgebraPresentation, lifts: list[list[Expr]],
                   stage: list[list[Expr]],
                   lower: list[list[Expr]]) -> list[list[Expr]] | None:
    """One Levi correction step: solve for c with the defects killed mod stage.

    Unknowns are the coefficients of the corrections c_i in the stage space;
    for each pair (i, j) the defect of [l_i + c_i, l_j + c_j] closing onto
    the corrected lifts must lose its stage-space component.  ``lower`` is
    the complement of the stage inside the radical and must contain the
    brackets of stage elements, so the quadratic correction term has no
    stage coordinate and the condition is linear.
    """
    s = len(lifts)
    m = len(stage)
    if m == 0:
        return lifts

    pairs = list(combinations(range(s), 2))
    # a bracket [l_i, l_j] per pair, then ad(l_i) stage_k at index i*m + k
    coords = _project(
        [_ad_bracket(p, lifts[i], lifts[j]) for i, j in pairs]
        + [_ad_bracket(p, l, st) for l in lifts for st in stage],
        lifts, stage, lower)
    if coords is None:
        return None
    ad = [d for _, d in coords[len(pairs):]]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for (i, j), (a_coords, defect_stage) in zip(pairs, coords):
        # unknowns: c[i][k] coefficients; equation per stage coordinate:
        # defect + ad(l_i) c_j - ad(l_j) c_i - sum_k a^k c_k  = 0 (mod below)
        for t in range(m):
            row = [Fraction(0)] * (s * m)
            for k in range(m):
                row[j * m + k] += ad[i * m + k][t]
                row[i * m + k] -= ad[j * m + k][t]
            for q in range(s):
                row[q * m + t] -= a_coords[q]
            rows.append(row)
            rhs.append(-defect_stage[t])
    rref, pivots = linalg.q_rref([r + [b] for r, b in zip(rows, rhs)])
    ncols = s * m
    if ncols in pivots:
        return None  # inconsistent
    sol = [Fraction(0)] * ncols
    for row, pc in zip(rref, pivots):
        sol[pc] = row.get(ncols, Fraction(0))
    corrected = []
    for i in range(s):
        vec = list(lifts[i])
        for k in range(m):
            coeff = sol[i * m + k]
            if coeff:
                vec = [a + ex.rational(coeff) * b for a, b in zip(vec, stage[k])]
        corrected.append(vec)
    return corrected


def _project(vectors, lifts, stage, lower):
    """Write each vec = sum a_q lift_q + sum d_t stage_t + (lower part).

    ``lifts + stage + lower`` must be a basis of the whole space.  Returns
    one (a coefficients, stage coefficients) pair of rationals per vector,
    from one elimination, or None when some decomposition is not rational.
    """
    cols_all = lifts + stage + lower
    matrix = [[col[r] for col in cols_all] for r in range(len(cols_all[0]))]
    out = []
    for sol in linalg.f_solve_unique(matrix, vectors):
        if sol is None:
            return None
        try:
            values = [s.to_expr().as_fraction() for s in sol]
        except ExprError:
            return None
        out.append((values[:len(lifts)],
                    values[len(lifts):len(lifts) + len(stage)]))
    return out
