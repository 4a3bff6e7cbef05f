"""Commutators, structure constants and classification of symmetry algebras.

``commutator`` forms [X, Y] from each field's Jacobian, computed once per
field; it serves library callers and is the tests' oracle.  Structure
constants compute no commutator: each basis field is written once in
coordinates over monomial fields m d_k (``linalg.coordinates``, with the
parameters and rational content in the coefficient), and each bracket is
formed in those coordinates, bilinearly, from the monomial brackets
[m d_k, n d_l] = m d_k(n) d_l - n d_l(m) d_k.  These are kept across calls
in a table of at most ``BRACKET_TABLE_SIZE`` entries (about 1.3 MB when
full), so a change of basis, which keeps the monomial fields, reuses all
of them.  One exact elimination over the symbolic parameter field then
expands every bracket at once; every expansion is re-verified as an exact
identity between coordinate rows, which are faithful, before it is
trusted, and non-closure is an error naming the offending pair.

The tensor is held in the field of its constants: as ``Fraction`` when
every constant is rational, else as kernel expressions.  Everything after
it -- brackets, Jacobi, the Killing matrix, centre, derived series,
subalgebras, the Levi correction -- is one body that uses only ``+``,
``*`` and truth tests on the entries, with spans, ranks and solves from
the ``f_*`` eliminations of ``linalg``, which work over the field of
their entries.  Values become expressions only where they are rendered
(``constants_text``, ``Verdict.as_dict``).  Following de Graaf (*Lie
Algebras: Theory and Algorithms*, 2000), brackets of basis elements are
read straight off the tensor: the derived algebra is the row space of the
slices c[i][j] with i < j, [e_i, w] is the tensor contracted with w, and
Jacobi, homogeneous quadratic in c, is checked on the integer tensor D*c.

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

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import lcm

from . import expr as ex
from .expr import Atom, Expr, ExprError, Frozen, Jet
from . import linalg
from .prolong import VectorField


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
# the field of the constants
# ---------------------------------------------------------------------------

def _cleared(p: AlgebraPresentation) -> tuple:
    """The tensor ready for a homogeneous identity such as Jacobi, with its
    zero: a rational tensor times the lcm D of its denominators, over the
    integers, where D*c has integer products and the same zeros; an
    expression tensor as it is."""
    if isinstance(p.zero, Expr):
        return p.constants, p.zero
    tensor = p.constants
    d = lcm(*(x.denominator for row in tensor for col in row for x in col))
    return ([[[x.numerator * (d // x.denominator) for x in col]
              for col in row] for row in tensor], 0)


def _value(x):
    """An elimination result as a constant: a ``FieldFrac`` as its exact
    expression (ExprError when that is not representable), a ``Fraction``
    as it is."""
    return x.to_expr() if isinstance(x, linalg.FieldFrac) else x


def _sum(pieces: list, zero):
    """The sum of ``pieces`` in the ring of ``zero``; expressions are merged
    by one collection."""
    return ex.sum_of(pieces) if isinstance(zero, Expr) else sum(pieces, zero)


# ---------------------------------------------------------------------------
# coordinatisation over the parameter field
# ---------------------------------------------------------------------------

def _geometric(b) -> bool:
    # geometric part of a monomial: base variables, jets, exponentials;
    # parameters and rational content stay in the coefficient
    return not (isinstance(b, Atom) and b.name in ex.PARAMETER_NAMES)


class AlgebraPresentation(Frozen):
    """Basis with the full structure-constant tensor c[i][j][k].

    The constants are all ``Fraction`` or all ``Expr``, and the presentation
    computes in that field, whose zero is ``zero``.  ``structure_constants``
    and ``_subalgebra`` hold them as ``Fraction`` exactly when every one is
    rational.  ``basis`` is empty for a subalgebra presented by its tensor
    alone (see ``_subalgebra``); the dimension is that of the tensor.
    """

    basis: tuple[VectorField, ...]
    constants: tuple[tuple[tuple[Fraction | Expr, ...], ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.constants)

    @cached_property
    def zero(self) -> Fraction | Expr:
        """The zero of the constants' field: ``ex.ZERO`` when some constant
        is an ``Expr``, else ``Fraction(0)``."""
        if any(isinstance(x, Expr) for row in self.constants for col in row
               for x in col):
            return ex.ZERO
        return Fraction(0)

    @cached_property
    def unit(self) -> tuple[tuple, ...]:
        """Coordinates of the basis elements themselves."""
        n, zero = self.dimension, self.zero
        one = ex.ONE if isinstance(zero, Expr) else Fraction(1)
        return tuple(tuple(one if i == j else zero for j in range(n))
                     for i in range(n))

    @cached_property
    def sparse(self) -> tuple:
        """``sparse[i][j]``: the (k, c_ij^k) pairs with c_ij^k nonzero."""
        return tuple(tuple(tuple((k, x) for k, x in enumerate(col) if x)
                           for col in row) for row in self.constants)

    def is_rational(self) -> bool:
        return all(not isinstance(x, Expr) or x.is_rational
                   for row in self.constants for col in row for x in col)

    def constants_text(self) -> list[dict]:
        out = []
        n = self.dimension
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    c = self.constants[i][j][k]
                    if c:
                        out.append({"i": i + 1, "j": j + 1, "k": k + 1,
                                    "value": ex.to_text(ex.as_expr(c))})
        return out


def structure_constants(basis) -> AlgebraPresentation:
    """Expand all pairwise brackets in the basis, exactly.

    The brackets are formed in coordinates over monomial fields, from a
    table of monomial brackets kept across calls and bounded at
    ``BRACKET_TABLE_SIZE`` entries, about 1.3 MB (see
    ``_coordinate_brackets``); no commutator and no Jacobian is computed.
    One elimination expands every bracket in the basis, and each expansion
    is re-verified as an exact identity between coordinate rows, which are
    faithful: two fields are equal exactly when their coordinates are.
    Refuses an empty basis, fields on different spaces and a dependent
    basis, and re-verifies antisymmetry and the Jacobi identity on the
    tensor.
    """
    basis = tuple(basis)
    if not basis:
        raise ExprError("an empty basis has no structure constants")
    if any((f.variables, f.dependent) != (basis[0].variables,
                                          basis[0].dependent) for f in basis):
        raise ExprError("vector fields live on different spaces")
    n = len(basis)
    monomials, rows, zero = _coordinate_brackets(basis)
    vectors, brackets = rows[:n], rows[n:]
    columns = range(len(monomials))
    sols = linalg.f_solve_unique(
        [[v.get(r, zero) for v in vectors] for r in columns],
        [[b.get(r, zero) for r in columns] for b in brackets], n)
    pres = AlgebraPresentation(basis, _verified_tensor(vectors, brackets,
                                                       sols, zero))
    _check_jacobi(pres)
    return pres


def _coordinate_brackets(basis: tuple) -> tuple:
    """The basis and its brackets in coordinates over monomial fields.

    Each field is written once as sparse coordinates over the monomial
    fields m d_k of its terms (``linalg.coordinates``; the parameters and
    rational content stay in the coefficient, see ``_geometric``), and
    each [X_i, X_j] is formed from them bilinearly, out of the table of
    monomial brackets.  Returns the monomial fields as (slot, monomial)
    pairs in column order, the rows -- one per field, then one per pair
    i < j -- and the zero of the one field they are held in.
    """
    space = (basis[0].variables, basis[0].dependent)
    index: dict = {}
    rows, zero = _one_field(linalg.coordinates(basis, _geometric, index))
    monomials = list(index)
    fields = [[(monomials[r], x) for r, x in row.items()] for row in rows]
    rows, zero = _one_field(rows + [
        _bracket(space, fields[i], fields[j], index, zero)
        for i, j in combinations(range(len(basis)), 2)])
    return list(index), rows, zero


# Entries of the monomial-bracket table, chosen from its memory cost: an
# entry holds about 625 bytes (traced with tracemalloc over the entries the
# bases of the heat, reduced and hpz algebras fill), so a full table holds
# about 1.3 MB, near 5% of a classifying process's peak resident memory.
BRACKET_TABLE_SIZE = 2048


@lru_cache(maxsize=BRACKET_TABLE_SIZE)
def _monomial_bracket(variables: tuple[str, ...], dependent: str,
                      a: tuple, b: tuple) -> tuple:
    """[m d_k, n d_l] = m d_k(n) d_l - n d_l(m) d_k (Olver, GTM 107, Ch. 1)
    for the monomial fields a = (k, m) < b = (l, n), in coordinates: its
    ((slot, monomial), coefficient) pairs, a coefficient as ``Fraction``
    when rational, else as an expression in the parameters.

    Kept across calls, least recently used first out, so that every basis
    over the same monomial fields -- any change of basis -- reuses them;
    [b, a] is read as -[a, b], so one order is stored.
    """
    (k, m), (l, n) = a, b
    wrt = [Atom(v) for v in variables] + [Jet(dependent, ())]
    m, n = Expr(((Fraction(1), m),)), Expr(((Fraction(1), n),))
    dn, dm = m * ex.partial(n, wrt[k]), n * ex.partial(m, wrt[l])
    slots = {l: dn - dm} if k == l else {l: dn, k: -dm}
    return tuple(((slot, mono), x.as_fraction() if x.is_rational else x)
                 for slot, e in slots.items()
                 for mono, x in ex.split_terms(e, _geometric).items())


def _one_field(rows: list[dict]) -> tuple[list[dict], Fraction | Expr]:
    """Coordinate rows in one field, with its zero: ``Fraction`` when every
    entry is rational, else ``Expr``."""
    if all(not isinstance(x, Expr) or x.is_rational
           for row in rows for x in row.values()):
        return ([{r: x.as_fraction() if isinstance(x, Expr) else x
                  for r, x in row.items()} for row in rows], Fraction(0))
    return ([{r: ex.as_expr(x) for r, x in row.items()} for row in rows],
            ex.ZERO)


def _bracket(space: tuple, u: list, v: list, index: dict, zero) -> dict:
    """Coordinates {column: value} of [X, Y] from the coordinates ``u`` and
    ``v`` of X and Y, as ((slot, monomial), coefficient) pairs: the sum of
    x y [a, b] over the pairs of monomial fields.  Monomial fields the
    bracket adds to those of the basis extend ``index``."""
    pieces: dict = {}
    for a, x in u:
        for b, y in v:
            if a == b:
                continue
            if a < b:
                xy, entries = x * y, _monomial_bracket(*space, a, b)
            else:
                xy, entries = -(x * y), _monomial_bracket(*space, b, a)
            for key, c in entries:
                r = index.setdefault(key, len(index))
                pieces.setdefault(r, []).append(xy * c)
    return {r: s for r, ps in pieces.items() if (s := _sum(ps, zero))}


def _verified_tensor(vectors, brackets, sols, zero) -> tuple:
    """The structure-constant tensor from one solution per pair i < j.

    ``vectors`` are the basis elements and ``brackets`` the bracket of each
    pair, formed without the expansion, both over the ring of ``zero`` as
    dense sequences or sparse {slot: value} dicts (coordinates over
    monomial fields, or over a parent algebra);
    ``sols`` holds the solved expansion of each bracket, None when it is
    outside the span.  Every expansion sum_k c^k v_k is re-verified against
    its bracket before it is trusted; a pair that fails raises
    ``ClosureError`` naming it.  The constants come back as ``Fraction``
    when all are rational, else as ``Expr``.
    """
    n = len(vectors)
    nonzero = [_nonzero(v) for v in vectors]
    expansions = {}
    for (i, j), sol, bracket in zip(combinations(range(n), 2), sols,
                                    brackets):
        if sol is None:
            raise ClosureError(
                f"commutator of basis elements {i + 1} and {j + 1} is not in "
                f"the span of the basis")
        try:
            cs = tuple(_value(s) for s in sol)
        except ExprError as err:
            raise ClosureError(
                f"structure constant for pair ({i + 1}, {j + 1}) is not "
                f"representable: {err}") from err
        # decisive re-check against the bracket's own coordinates
        pieces: dict = {}
        for c, v in zip(cs, nonzero):
            if c:
                for slot, x in v:
                    pieces.setdefault(slot, []).append(c * x)
        if {slot: e for slot, ps in pieces.items()
                if (e := _sum(ps, zero))} != dict(_nonzero(bracket)):
            raise ClosureError(
                f"expansion of pair ({i + 1}, {j + 1}) failed re-verification")
        expansions[i, j] = cs
    if all(not isinstance(c, Expr) or c.is_rational
           for cs in expansions.values() for c in cs):
        expansions = {ij: tuple(c.as_fraction() if isinstance(c, Expr) else c
                                for c in cs) for ij, cs in expansions.items()}
        zero_row = (Fraction(0),) * n
    else:
        zero_row = (ex.ZERO,) * n
    return tuple(tuple(expansions[i, j] if i < j
                       else tuple(-c for c in expansions[j, i]) if j < i
                       else zero_row for j in range(n)) for i in range(n))


def _nonzero(v) -> list:
    """The (slot, value) pairs of the nonzero entries of a dense sequence
    or a sparse {slot: value} dict."""
    return [(k, x) for k, x in (v.items() if isinstance(v, dict)
                                else enumerate(v)) if x]


def _check_jacobi(p: AlgebraPresentation):
    """sum_m c_ij^m c_mk^l + c_jk^m c_mi^l + c_ki^m c_mj^l = 0 for every
    triple i < j < k and every l; products with a zero factor are left
    out.  The identity is homogeneous quadratic in c, so it is checked on
    ``_cleared(p)``, which is D*c over the integers for rationals."""
    c, zero = _cleared(p)
    for i, j, k in combinations(range(p.dimension), 3):
        outer = [(x, c[m][d]) for ab, d in ((c[i][j], k), (c[j][k], i),
                                            (c[k][i], j))
                 for m, x in enumerate(ab) if x]
        for l in range(p.dimension):
            if _sum([x * row[l] for x, row in outer if row[l]], zero):
                raise ExprError(
                    f"Jacobi identity fails on triple ({i+1}, {j+1}, {k+1})")


# ---------------------------------------------------------------------------
# subspace machinery (coordinates over the basis, in the constants' field)
# ---------------------------------------------------------------------------

def _ad_bracket(p: AlgebraPresentation, v, w) -> list:
    """[v, w] = sum_{i<j} (v_i w_j - v_j w_i) c_ij, by antisymmetry; only
    nonzero coordinates are multiplied."""
    sparse = p.sparse
    ws = [(j, y) for j, y in enumerate(w) if y]
    coeffs: dict = {}
    for i, x in enumerate(v):
        if not x:
            continue
        for j, y in ws:
            if i == j or not sparse[i][j]:
                continue
            xy = x * y
            key, xy = ((i, j), xy) if i < j else ((j, i), -xy)
            coeffs[key] = coeffs[key] + xy if key in coeffs else xy
    pieces: list[list] = [[] for _ in range(p.dimension)]
    for (i, j), a in coeffs.items():
        if a:
            for k, x in sparse[i][j]:
                pieces[k].append(a * x)
    zero = p.zero
    return [_sum(ps, zero) for ps in pieces]


def _ad_unit(p: AlgebraPresentation, i: int, w) -> list:
    """[e_i, w] = sum_j w_j c_ij: the tensor contracted with ``w``."""
    pieces: list[list] = [[] for _ in range(p.dimension)]
    for x, entries in zip(w, p.sparse[i]):
        if x:
            for k, y in entries:
                pieces[k].append(x * y)
    zero = p.zero
    return [_sum(ps, zero) for ps in pieces]


def _spans(p: AlgebraPresentation, span: list, vectors: list) -> bool:
    """Every vector lies in the span of the independent vectors ``span``:
    adding them keeps the rank at ``len(span)``."""
    return linalg.f_rank(span + vectors) == len(span)


def _independent(p: AlgebraPresentation, prefix: list, vectors) -> list:
    """The vectors independent of ``prefix`` and of the vectors before them.

    With all of them as columns, these are the pivot columns past ``prefix``.
    """
    pivots = linalg.f_rref([list(row) for row in zip(*prefix, *vectors)])[1]
    return [vectors[c - len(prefix)] for c in pivots if c >= len(prefix)]


def _derived_space(p: AlgebraPresentation) -> list:
    """The row space of the slices c[i][j], i < j: every [e_i, e_j]."""
    c = p.constants
    return linalg.f_row_basis([list(c[i][j]) for i, j
                               in combinations(range(p.dimension), 2)])


def _center(p: AlgebraPresentation) -> list:
    n = p.dimension
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([p.constants[i][j][k] for i in range(n)])
    return linalg.f_nullspace(rows)


def _killing_matrix(p: AlgebraPresentation) -> list[list]:
    """tr(ad(e_i) ad(e_j)) = sum_{a,b} c_ia^b c_jb^a; products with a zero
    factor left out."""
    n = p.dimension
    c, sparse, zero = p.constants, p.sparse, p.zero
    k = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            tr = _sum([x * c[j][b][a] for a in range(n)
                       for b, x in sparse[i][a] if c[j][b][a]], zero)
            k[i][j] = tr
            k[j][i] = tr
    return k


def _is_nilpotent(p: AlgebraPresentation, space: list) -> bool:
    """Lower central series of the subalgebra spanned by ``space`` hits zero."""
    current, nxt = space, _derived_space_sub(p, space)
    while nxt:
        if len(nxt) >= len(current):
            return False  # series stalled above zero
        current, nxt = nxt, _derived_space_sub(p, space, nxt)
    return True


def _derived_space_sub(p: AlgebraPresentation, left: list,
                       right: list | None = None) -> list:
    """Row basis of [left, right]; of [left, left] from the pairs a < b
    when ``right`` is None."""
    pairs = combinations(left, 2) if right is None else product(left, right)
    return linalg.f_row_basis([_ad_bracket(p, v, w) for v, w in pairs])


def _subalgebra(p: AlgebraPresentation, vectors: list) -> AlgebraPresentation:
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
    sub = AlgebraPresentation(
        (), _verified_tensor(vectors, brackets, sols, p.zero))
    _check_jacobi(sub)
    return sub


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

class Verdict(Frozen):
    """A classification with its witnesses, coordinates over the basis in
    the constants' field; ``as_dict`` renders them as expressions."""

    name: str
    mubarakzyanov_label: str | None
    dimension: int
    center_dim: int
    derived_dim: int
    ideal_basis: tuple[tuple[Fraction | Expr, ...], ...] = ()
    complement_basis: tuple[tuple[Fraction | Expr, ...], ...] = ()
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "mubarakzyanov_label": self.mubarakzyanov_label,
            "dimension": self.dimension,
            "center_dim": self.center_dim,
            "derived_dim": self.derived_dim,
            "ideal_basis": _texts(self.ideal_basis),
            "complement_basis": _texts(self.complement_basis),
            "notes": list(self.notes),
        }


def _texts(vectors) -> list[list[str]]:
    return [[ex.to_text(ex.as_expr(c)) for c in v] for v in vectors]


_W3_NOTE = ("the three-dimensional Heisenberg-Weyl algebra is labelled A3,3 "
            "here following the source classification; the conventional "
            "Mubarakzyanov label for it is A3,1")


def _heisenberg_check(p: AlgebraPresentation, center, derived) -> bool:
    n = p.dimension
    if n < 3 or n % 2 == 0:
        return False
    if len(center) != 1 or len(derived) != 1:
        return False
    # every bracket central: the derived algebra is the span of the c[i][j]
    return _spans(p, center, derived)


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
        pos, neg, zero = linalg.inertia(
            [[ex.as_expr(c).as_fraction() for c in row]
             for row in _killing_matrix(p)])
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
    radical = linalg.f_nullspace(_killing_matrix(p))
    m = len(radical)
    if not 0 < m < n:
        return None
    if not _is_nilpotent(p, radical):
        return None
    # radical must be an ideal: [e_i, w] in it for every i and w in it
    if not _spans(p, radical,
                  [_ad_unit(p, i, w) for i in range(n) for w in radical]):
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


def _levi_complement(p: AlgebraPresentation, radical: list) -> list | None:
    """A complement to the nilradical that closes under the bracket.

    Basis elements independent of the radical are corrected by solving two
    rational linear systems: first modulo the derived space of the radical,
    then inside it (classical Levi-Malcev steps for a two-step nilpotent
    radical; the first correction is skipped when the raw complement already
    closes, which also covers symbolic one-dimensional complements).
    """
    lifts = _independent(p, radical, p.unit)
    if len(lifts) + len(radical) != p.dimension:
        return None
    if _closes(p, lifts):
        return lifts
    if not p.is_rational():
        return None  # symbolic correction not attempted

    rad_z = _derived_space_sub(p, radical)
    stage_one = _independent(p, rad_z, radical)
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


def _closes(p: AlgebraPresentation, lifts: list) -> bool:
    return _spans(p, lifts, [_ad_bracket(p, lifts[i], lifts[j])
                             for i, j in combinations(range(len(lifts)), 2)])


def _correct_stage(p: AlgebraPresentation, lifts: list, stage: list,
                   lower: list) -> list | None:
    """One Levi correction step: solve for c with the defects killed mod stage.

    Unknowns are the coefficients of the corrections c_i in the stage space;
    for each pair (i, j) the defect of [l_i + c_i, l_j + c_j] closing onto
    the corrected lifts must lose its stage-space component.  ``lower`` is
    the complement of the stage inside the radical and must contain the
    brackets of stage elements, so the quadratic correction term has no
    stage coordinate and the condition is linear.  Free unknowns are set to
    zero.
    """
    s = len(lifts)
    m = len(stage)
    if m == 0:
        return lifts

    pairs = list(combinations(range(s), 2))
    # a bracket [l_i, l_j] per pair, then ad(l_i) stage_k at index i*m + k
    coords = _project(
        p, [_ad_bracket(p, lifts[i], lifts[j]) for i, j in pairs]
        + [_ad_bracket(p, l, st) for l in lifts for st in stage],
        lifts, stage, lower)
    if coords is None:
        return None
    ad = [d for _, d in coords[len(pairs):]]
    zero = p.zero
    ncols = s * m
    rows = []
    for (i, j), (a_coords, defect_stage) in zip(pairs, coords):
        # unknowns: c[i][k] coefficients; equation per stage coordinate:
        # defect + ad(l_i) c_j - ad(l_j) c_i - sum_k a^k c_k  = 0 (mod below)
        for t in range(m):
            row = [zero] * (ncols + 1)
            for k in range(m):
                row[j * m + k] += ad[i * m + k][t]
                row[i * m + k] -= ad[j * m + k][t]
            for q in range(s):
                row[q * m + t] -= a_coords[q]
            row[ncols] = -defect_stage[t]
            rows.append(row)
    rref, pivots = linalg.f_rref(rows)
    if ncols in pivots:
        return None  # inconsistent
    sol = [zero] * ncols
    for row, pc in zip(rref, pivots):
        if ncols in row:
            sol[pc] = _value(row[ncols])
    corrected = []
    for i in range(s):
        vec = list(lifts[i])
        for k in range(m):
            coeff = sol[i * m + k]
            if coeff:
                vec = [a + coeff * b for a, b in zip(vec, stage[k])]
        corrected.append(vec)
    return corrected


def _project(p: AlgebraPresentation, vectors, lifts, stage, lower):
    """Write each vec = sum a_q lift_q + sum d_t stage_t + (lower part).

    ``lifts + stage + lower`` must be a basis of the whole space.  Returns
    one (a coefficients, stage coefficients) pair per vector, from one
    elimination, or None when some vector is outside that span.
    """
    cols_all = lifts + stage + lower
    matrix = [[col[r] for col in cols_all] for r in range(len(cols_all[0]))]
    out = []
    for sol in linalg.f_solve_unique(matrix, vectors):
        if sol is None:
            return None
        values = [_value(s) for s in sol]
        out.append((values[:len(lifts)],
                    values[len(lifts):len(lifts) + len(stage)]))
    return out
