"""Commutators, structure constants and classification of symmetry algebras.

``commutator`` forms [X, Y] from each field's Jacobian, computed once per
field; it is internal and remains as the tests' oracle.  Structure
constants compute no commutator: each basis field is written once in
coordinates over monomial fields m d_k (``linalg.coordinates``, with the
parameters and rational content in the coefficient), and each bracket is
formed in those coordinates by one bilinear sum over the nonzero monomial
brackets [m d_k, n d_l] = m d_k(n) d_l - n d_l(m) d_k.  These are kept
across calls in a table keyed by the numbers of the monomial fields,
emptied when a call finds it past ``BRACKET_TABLE_SIZE`` entries (about
0.5 MB), so a change of basis, which keeps the monomial fields, reuses all
of them.  One exact elimination then expands every bracket at once;
every expansion is re-verified as an exact identity between coordinate
rows, which are faithful, before it is trusted: non-closure is an error
naming the offending pair, and a failed re-check an ``InternalError``.

A presentation computes in one ring, which it takes from the type of its
constants and holds as a ``Ring`` record: its zero and one, the sum of a list
of products, whole-row eliminations from ``linalg`` (rref, rank,
nullspace and the solve with its common denominator), the maps
from their results to the constants and to witnesses, and whether the
rational-only steps -- the Killing signature and the Levi correction --
apply.  ``INTEGERS`` is the ring of rational constants, held as
``Fraction`` (as integers in a subalgebra): a rational basis's
coordinates are primitive integer rows with one scale each, the brackets
are integer rows over one denominator, and the solve
(``linalg.z_solve_unique``) and the re-check sum_k N^k R_k = L B_ij are
integer identities; classification runs on the integer tensor D*c with
the fraction-free ``z_*`` eliminations and primitive integer vectors.
``EXPRESSIONS`` is the ring of kernel expressions: the fraction-free
``f_*`` eliminations, whose solutions are (entry, pivot) pairs divided
exactly (``expr.divide_exact``) into the constants they expand.
``structure_constants`` solves in ``INTEGERS`` when every coordinate and
every monomial bracket met is rational.  Following de Graaf (*Lie
Algebras: Theory and Algorithms*, 2000), brackets of basis elements are
read straight off the tensor: the derived algebra is the row space of the
slices c[i][j] with i < j, [e_i, w] is the tensor contracted with w, and
Jacobi, homogeneous quadratic in c, is checked on D*c.  Every presentation
checks, when it is constructed, that its tensor is a Lie algebra.

Everything after the tensor -- brackets, the Killing matrix, centre,
derived series, subalgebras, the Levi correction -- is one body that uses
only ``+``, ``*``, truth tests and the ring's operations.  Spans do not
depend on scale, the Killing signature does not change under c -> D*c,
and the Levi correction is equivariant under rescaling a lift, so each
integer witness is divided back to exactly the vector the field
computation gives.  Values become expressions only where they are
rendered (``constants_text``, ``Verdict.as_dict``).

Classification detects the structures this engine meets: abelian nA1,
Heisenberg-Weyl W3/W5, sl(2, R) by the exact signature of its Killing form
(``linalg.inertia``, from the Killing matrix's characteristic polynomial),
and semidirect sums complement (+)s nilradical, where the nilradical is
recovered as the radical of the Killing form and the complement is corrected
into a closing subalgebra (a Levi complement) by two linear solves.  Both
are classified as subalgebras presented in coordinates over the parent,
by the expansions of their brackets solved from the parent's verified
tensor and each re-verified there, so no vector field is formed again; an
error inside one propagates, and a check that fails only on a bug raises
``InternalError``.  When a structure is outside this list the verdict is
"unclassified" with the computed invariants, never a wrong name.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import gcd, lcm
from threading import Lock

from . import expr as ex
from .expr import Atom, Expr, ExprError, Frozen, InternalError, Jet
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
# the ring of a presentation
# ---------------------------------------------------------------------------

class Ring(Frozen):
    """The ring a presentation computes in (see the module docstring).

    Each operation is a whole function over rows or lists, not a method
    called per element.  The eliminations look ``linalg``'s functions up
    when they run, so a wrapped or replaced one is the one called.
    """

    name: str          # the module attribute holding the record
    zero: object
    one: object
    sum: object        # a list of ring elements -> their sum
    rref: object       # rows -> (reduced rows, pivot columns)
    rank: object
    nullspace: object  # dense rows -> one vector per free column
    solve: object      # (matrix, rhss, ncols) -> (solutions, denominator)
    values: object     # a solution -> its entries, as ring elements
    tensor: object     # verified expansions -> the tensor
    clear: object      # constants -> the tensor classification runs on
    witness: object    # (vector, scale) -> it in the constants' type
    rational: object   # constants -> the rational-only steps apply

    def __reduce__(self):
        return self.name


def _rational_tensor(expansions: dict, den: int, scales: list, n: int):
    """The constants of verified integer expansions, as ``Fraction``: the
    expansion of pair (i, j) in row k is taken to
    c_ij^k = N^k scale_k / (den scale_ij)."""
    zero = Fraction(0)
    return _antisymmetric(
        {ij: tuple(Fraction(x * k.numerator * s.denominator,
                            k.denominator * s.numerator * den)
                   if x else zero for x, k in zip(numerators, scales))
         for (ij, numerators), s in zip(expansions.items(), scales[n:])},
        zero, n)


def _expression_tensor(expansions: dict, den: int, scales: list, n: int):
    """The constants of verified expression expansions (``den`` 1): the
    expansion of pair (i, j) divided by the bracket's scale, the vectors'
    being 1; as ``Fraction`` when every one is rational, else as
    expressions."""
    cs = {ij: xs if s == 1 else tuple(x * Fraction(1, s) for x in xs)
          for (ij, xs), s in zip(expansions.items(), scales[n:])}
    if all(c.is_rational for xs in cs.values() for c in xs):
        return _antisymmetric({ij: tuple(c.as_fraction() for c in xs)
                               for ij, xs in cs.items()}, Fraction(0),
                              n)
    return _antisymmetric(cs, ex.ZERO, n)


def _antisymmetric(expansions: dict, zero, n: int) -> tuple:
    """The tensor with c[i][j] the expansion of pair i < j."""
    zero_row = (zero,) * n
    return tuple(tuple(expansions[i, j] if i < j
                       else tuple(-c if c else c for c in expansions[j, i])
                       if j < i else zero_row for j in range(n))
                 for i in range(n))


def _cleared(c: tuple) -> tuple:
    """D*c over the integers, D the lcm of the denominators: the same zeros,
    spans and Killing signature as c, so homogeneous identities such as
    Jacobi, and classification, are decided on it."""
    d = lcm(*(x.denominator for row in c for col in row for x in col if x))
    return tuple(tuple(tuple(x.numerator * (d // x.denominator) if x else 0
                             for x in col) for col in row) for row in c)


INTEGERS = Ring(
    "INTEGERS", 0, 1, sum,
    rref=lambda rows: linalg.z_rref(rows),
    rank=lambda rows: linalg.q_rank(rows),
    nullspace=lambda rows: linalg.z_nullspace(rows),
    solve=lambda matrix, rhss, ncols=None: linalg.z_solve_unique(
        matrix, rhss, ncols),
    values=tuple,
    tensor=_rational_tensor,
    clear=_cleared,
    witness=lambda v, scale=None: tuple(linalg.q_vector(v, scale)),
    rational=lambda c: True)

EXPRESSIONS = Ring(
    "EXPRESSIONS", ex.ZERO, ex.ONE, ex.sum_of,
    rref=lambda rows: linalg.f_rref(rows),
    rank=lambda rows: linalg.f_rank(rows),
    nullspace=lambda rows: linalg.f_nullspace(rows),
    solve=lambda matrix, rhss, ncols=None: (
        linalg.f_solve_unique(matrix, rhss, ncols), 1),
    values=lambda sol: tuple(ex.divide_exact(*pair) for pair in sol),
    tensor=_expression_tensor,
    clear=lambda c: c,
    witness=lambda v, scale=None: tuple(v),
    rational=lambda c: all(x.is_rational for row in c for col in row
                           for x in col))


# ---------------------------------------------------------------------------
# coordinatisation over the parameter field
# ---------------------------------------------------------------------------

def _geometric(b) -> bool:
    # geometric part of a monomial: base variables, jets, exponentials;
    # parameters and rational content stay in the coefficient
    return not (isinstance(b, Atom) and b.name in ex.PARAMETER_NAMES)


class AlgebraPresentation(Frozen):
    """Basis with the full structure-constant tensor c[i][j][k] of a Lie
    algebra.  ``basis`` is empty for a subalgebra presented by its tensor
    alone (see ``_subalgebra``); the dimension is that of the tensor.

    The ``ring`` comes from the type of the constants: ``INTEGERS`` when
    every one is an ``int`` or a ``Fraction``, ``EXPRESSIONS`` when every
    one is a kernel expression; a mix raises ``ExprError``.  So does a
    tensor that is not a Lie algebra -- empty, not n x n x n, not
    antisymmetric, or failing the Jacobi identity -- checked on
    ``cleared``, so that a rational tensor costs integer arithmetic only.
    """

    basis: tuple[VectorField, ...]
    constants: tuple[tuple[tuple[Fraction | Expr | int, ...], ...], ...]

    def __post_init__(self):
        c, n = self.constants, len(self.constants)
        if not n:
            raise ExprError("the structure-constant tensor is empty")
        if any(len(row) != n or any(len(col) != n for col in row)
               for row in c):
            raise ExprError(f"structure constants are not a {n} x {n} x {n} "
                            f"tensor")
        kinds = {x.__class__ for row in c for col in row for x in col}
        if all(issubclass(k, (int, Fraction)) for k in kinds):
            ring = INTEGERS
        elif all(issubclass(k, Expr) for k in kinds):
            ring = EXPRESSIONS
        else:
            raise ExprError("structure constants are not all elements of "
                            "INTEGERS or EXPRESSIONS")
        object.__setattr__(self, "ring", ring)
        c = self.cleared
        for i in range(n):
            for j in range(i, n):
                if any(x + y for x, y in zip(c[i][j], c[j][i])):
                    raise ExprError(f"structure constants are not "
                                    f"antisymmetric in pair ({i + 1}, "
                                    f"{j + 1})")
        _check_jacobi(self)

    @property
    def dimension(self) -> int:
        return len(self.constants)

    @cached_property
    def unit(self) -> tuple[tuple, ...]:
        """Coordinates of the basis elements themselves."""
        n, zero, one = self.dimension, self.ring.zero, self.ring.one
        return tuple(tuple(one if i == j else zero for j in range(n))
                     for i in range(n))

    @cached_property
    def sparse(self) -> tuple:
        """``sparse[i][j]``: the (k, x) pairs with x the nonzero entries of
        ``cleared[i][j]``."""
        return tuple(tuple(tuple((k, x) for k, x in enumerate(col) if x)
                           for col in row) for row in self.cleared)

    @cached_property
    def cleared(self) -> tuple:
        """The tensor classification runs on: D*c over the integers, D the
        lcm of the denominators, in ``INTEGERS``; the constants themselves
        in ``EXPRESSIONS``."""
        return self.ring.clear(self.constants)

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
    table of monomial brackets kept across calls and emptied past
    ``BRACKET_TABLE_SIZE`` entries, about 0.5 MB (see
    ``_coordinate_brackets``); no commutator and no Jacobian is computed.
    One elimination expands every bracket in the basis -- over the integers
    when every coordinate is rational -- and each expansion is re-verified
    as an exact identity between coordinate rows, which are faithful: two
    fields are equal exactly when their coordinates are.  Refuses an empty
    basis, fields on different spaces and a dependent basis; the
    presentation re-verifies antisymmetry and the Jacobi identity on the
    tensor.
    """
    basis = tuple(basis)
    if not basis:
        raise ExprError("an empty basis has no structure constants")
    if any((f.variables, f.dependent) != (basis[0].variables,
                                          basis[0].dependent) for f in basis):
        raise ExprError("vector fields live on different spaces")
    n = len(basis)
    with _LOCK:
        monomials, rows, scales, ring = _coordinate_brackets(basis)
    vectors, brackets = rows[:n], rows[n:]
    columns = range(len(monomials))
    matrix = [[v.get(r, ring.zero) for v in vectors] for r in columns]
    rhss = [[b.get(r, ring.zero) for r in columns] for b in brackets]
    sols, den = ring.solve(matrix, rhss, n)
    expansions = _verified_expansions(ring, vectors, brackets, sols, den)
    return AlgebraPresentation(basis, ring.tensor(expansions, den, scales, n))


def _coordinate_brackets(basis: tuple, ring: Ring = INTEGERS) -> tuple:
    """The basis and its brackets in coordinates over monomial fields.

    Each field is written once as sparse coordinates over the monomial
    fields m d_k of its terms (``linalg.coordinates``; the parameters and
    rational content stay in the coefficient, see ``_geometric``), and
    each [X_i, X_j] is formed from them (``_bracket``).  Returns the
    monomial fields as (slot, monomial) pairs in column order, the rows --
    one per field, then one per pair i < j -- their scales, and the ring
    of the rows, row r standing for the coordinates row / scales[r]:
    primitive integer rows in ``INTEGERS`` when no term has a parameter
    factor and every monomial bracket met is rational, else the
    coordinates as they are in ``EXPRESSIONS``, where only a bracket's
    scale can differ from 1.
    """
    if len(_TABLE) > BRACKET_TABLE_SIZE:
        for table in (_TABLE, _IDS, _KEYS):
            table.clear()
    space = (basis[0].variables, basis[0].dependent)
    index: dict = {}
    if ring is INTEGERS and all(_geometric(b) for f in basis
                                for e in f.coefficients()
                                for _, fs in e.terms for b, _ in fs):
        coords = linalg.coordinates(basis, None, index)
        rows, scales = map(list, zip(*map(_integer_row, coords)))
    else:
        ring = EXPRESSIONS
        rows = linalg.coordinates(basis, _geometric, index)
        scales = [1] * len(rows)
    ids = [_id(space, key) for key in index]
    columns = {i: r for r, i in enumerate(ids)}
    fields = [[(ids[r], x) for r, x in row.items()] for row in rows]
    for i, j in combinations(range(len(basis)), 2):
        bracket = _bracket(ring, space, fields[i], fields[j], columns)
        if bracket is None:
            return _coordinate_brackets(basis, EXPRESSIONS)
        rows.append(bracket[0])
        scales.append(bracket[1] * scales[i] * scales[j])
    return [_KEYS[i] for i in columns], rows, scales, ring


def _integer_row(row: dict) -> tuple[dict, Fraction]:
    """A row of rational numbers as a primitive integer row and the
    positive scale that takes the row to it."""
    ints = linalg.z_row(row)
    r = next(iter(ints), None)
    return ints, Fraction(ints[r], row[r]) if ints else Fraction(1)


# The monomial-bracket table, kept across calls so that a change of basis
# reuses it: ``_IDS`` numbers each monomial field (space, (slot, monomial))
# on first use, ``_KEYS`` lists them by number, and ``_TABLE`` maps numbers
# a < b to [a, b] (``_monomial_bracket``); ``structure_constants`` holds
# ``_LOCK`` while it uses them.  All three are cleared when a call starts
# with more than ``BRACKET_TABLE_SIZE`` entries, a bound chosen from the
# memory cost: an entry with its share of the numbering holds about 256
# bytes (tracemalloc, over 1053 entries of four classify seeds), 0.5 MB.
BRACKET_TABLE_SIZE = 2048
_IDS: dict = {}
_KEYS: list = []
_TABLE: dict = {}
_LOCK = Lock()


def _id(space: tuple, key: tuple) -> int:
    if (space, key) not in _IDS:
        _KEYS.append(key)
    return _IDS.setdefault((space, key), len(_KEYS) - 1)


def _monomial_bracket(space: tuple, a: int, b: int) -> tuple:
    """[m d_k, n d_l] = m d_k(n) d_l - n d_l(m) d_k (Olver, GTM 107, Ch. 1)
    for the monomial fields numbered a < b, stored in ``_TABLE``: () when it
    is zero, else ``(d, pairs)``, with ``pairs`` its (number, coefficient)
    pairs.  When every coefficient is rational they are integers over the
    one positive denominator d; otherwise d is None and they are
    expressions in the parameters.  It is formed with (k, m) < (l, n), and
    negated when that order is b, a, so that the order of its pairs, and of
    the columns a bracket adds, does not depend on the numbering.
    """
    flip = _KEYS[b] < _KEYS[a]
    (k, m), (l, n) = sorted((_KEYS[a], _KEYS[b]))
    wrt = [Atom(v) for v in space[0]] + [Jet(space[1], ())]
    m, n = Expr(((1, m),)), Expr(((1, n),))
    dn, dm = m * ex.partial(n, wrt[k]), n * ex.partial(m, wrt[l])
    slots = {l: dn - dm} if k == l else {l: dn, k: -dm}
    pairs = [(_id(space, (slot, mono)), -x if flip else x)
             for slot, e in slots.items()
             for mono, x in ex.split_terms(e, _geometric).items()]
    d = None
    if all(x.is_rational for _, x in pairs):
        values = [x.as_fraction() for _, x in pairs]
        d = lcm(*(v.denominator for v in values))
        pairs = [(i, v.numerator * (d // v.denominator))
                 for (i, _), v in zip(pairs, values)]
    entry = _TABLE[a, b] = (d, tuple(pairs)) if pairs else ()
    return entry


def _bracket(ring: Ring, space: tuple, u: list, v: list,
             columns: dict) -> tuple | None:
    """The coordinates of [X, Y] from those of X and Y, ``u`` and ``v`` as
    (monomial field number, value) pairs in ``ring``: the sum of x y [a, b]
    over the pairs of monomial fields whose bracket is not zero.

    Returns the row {column: value} of d times the bracket, for d the lcm
    of the denominators of the monomial brackets met, and d; None in
    ``INTEGERS`` when one of them is not rational.  ``columns`` maps the
    monomial fields to their columns, and those the bracket adds to those
    of the basis extend it.
    """
    ints, d = ring is INTEGERS, 1
    pieces: dict = {}
    for a, x in u:
        for b, y in v:
            if a == b:
                continue
            entry = _TABLE.get((a, b) if a < b else (b, a))
            if entry is None:
                entry = _monomial_bracket(space, min(a, b), max(a, b))
            if not entry:
                continue
            e, entries = entry
            xy = x * y if a < b else -(x * y)
            if e is None:
                if ints:
                    return None
                e = 1
            elif d % e:   # bring the sum so far to a common denominator
                m = e // gcd(d, e)
                pieces = {r: w * m if ints else [z * m for z in w]
                          for r, w in pieces.items()}
                d *= m
            if d != e:
                xy = xy * (d // e)
            for key, c in entries:
                r = columns.setdefault(key, len(columns))
                if ints:
                    pieces[r] = pieces.get(r, 0) + xy * c
                else:
                    pieces.setdefault(r, []).append(xy * c)
    return {r: s for r, w in pieces.items()
            if (s := w if ints else ex.sum_of(w))}, d


def _verified_expansions(ring: Ring, vectors, brackets, sols, den) -> dict:
    """The expansion {(i, j): (N^1, ..., N^n)} of each pair i < j.

    ``vectors`` are the basis elements and ``brackets`` the bracket of each
    pair, formed without the expansion, both as sparse {slot: value} dicts
    (coordinates over monomial fields, or over a parent algebra); ``sols``
    holds the solved expansion of each bracket in ``ring``, None when it is
    outside the span, as values over the common denominator ``den``.  A
    bracket outside the span and a value the ring cannot represent raise
    ``ClosureError`` naming the pair.  Every expansion sum_k N^k v_k is
    re-verified against ``den`` times its bracket before it is trusted: the
    elimination solved these same faithful coordinates, so a pair that
    fails is an engine bug and raises ``InternalError`` naming it.
    """
    n = len(vectors)
    nonzero = [[(k, x) for k, x in v.items() if x] for v in vectors]
    expansions = {}
    for (i, j), sol, bracket in zip(combinations(range(n), 2), sols,
                                    brackets):
        if sol is None:
            raise ClosureError(
                f"commutator of basis elements {i + 1} and {j + 1} is not in "
                f"the span of the basis")
        try:
            cs = ring.values(sol)
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
        target = {slot: x for slot, x in bracket.items() if x}
        if den != 1:
            target = {slot: den * x for slot, x in target.items()}
        if {slot: e for slot, ps in pieces.items()
                if (e := ring.sum(ps))} != target:
            raise InternalError(
                f"internal error: expansion of pair ({i + 1}, {j + 1}) "
                f"failed re-verification")
        expansions[i, j] = cs
    return expansions


def _check_jacobi(p: AlgebraPresentation):
    """sum_m c_ij^m c_mk^l + c_jk^m c_mi^l + c_ki^m c_mj^l = 0 for every
    triple i < j < k and every l; products with a zero factor are left
    out.  The identity is homogeneous quadratic in c, so it is checked on
    ``p.cleared``, D*c over the integers in ``INTEGERS``."""
    s, total = p.sparse, p.ring.sum
    for i, j, k in combinations(range(p.dimension), 3):
        pieces: dict = {}
        for ab, d in ((s[i][j], k), (s[j][k], i), (s[k][i], j)):
            for m, x in ab:
                for l, y in s[m][d]:
                    pieces.setdefault(l, []).append(x * y)
        if any(map(total, pieces.values())):
            raise ExprError(
                f"Jacobi identity fails on triple ({i+1}, {j+1}, {k+1})")


# ---------------------------------------------------------------------------
# subspace machinery (coordinates over the basis, in the presentation's ring)
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
    return list(map(p.ring.sum, pieces))


def _spans(p: AlgebraPresentation, span: list, vectors: list) -> bool:
    """Every vector lies in the span of the independent vectors ``span``:
    adding them keeps the rank at ``len(span)``."""
    return p.ring.rank(span + vectors) == len(span)


def _independent(p: AlgebraPresentation, prefix: list, vectors) -> list:
    """The vectors independent of ``prefix`` and of the vectors before them.

    With all of them as columns, these are the pivot columns past ``prefix``.
    """
    pivots = p.ring.rref([list(row) for row in zip(*prefix, *vectors)])[1]
    return [vectors[c - len(prefix)] for c in pivots if c >= len(prefix)]


def _row_basis(p: AlgebraPresentation, rows: list) -> list:
    """A basis of the span of ``rows``: their reduced rows, dense."""
    zero, n = p.ring.zero, p.dimension
    return [[row.get(c, zero) for c in range(n)]
            for row in p.ring.rref(rows)[0]]


def _derived_space(p: AlgebraPresentation) -> list:
    """The row space of the slices c[i][j], i < j: every [e_i, e_j]."""
    c = p.cleared
    return _row_basis(p, [list(c[i][j]) for i, j
                          in combinations(range(p.dimension), 2)])


def _center(p: AlgebraPresentation) -> list:
    n, zero = p.dimension, p.ring.zero
    rows: dict = {}   # row (j, k) holds c[i][j][k] at column i
    for i, row in enumerate(p.sparse):
        for j, col in enumerate(row):
            for k, x in col:
                rows.setdefault(j * n + k, [zero] * n)[i] = x
    return p.ring.nullspace([rows[r] for r in sorted(rows)] or [[zero] * n])


def _killing_matrix(p: AlgebraPresentation) -> list[list]:
    """tr(ad(e_i) ad(e_j)) = sum_{a,b} c_ia^b c_jb^a; products with a zero
    factor left out."""
    n = p.dimension
    c, sparse, total = p.cleared, p.sparse, p.ring.sum
    k = [[p.ring.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            tr = total([x * c[j][b][a] for a in range(n)
                        for b, x in sparse[i][a] if c[j][b][a]])
            k[i][j] = tr
            k[j][i] = tr
    return k


def _is_nilpotent(p: AlgebraPresentation, space: list, derived: list) -> bool:
    """Lower central series of the subalgebra spanned by ``space``, whose
    derived space is ``derived``, hits zero."""
    current, nxt = space, derived
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
    return _row_basis(p, [_ad_bracket(p, v, w) for v, w in pairs])


def _subalgebra(p: AlgebraPresentation, vectors: list) -> AlgebraPresentation:
    """The subalgebra spanned by ``vectors`` (coordinates over ``p``) in
    the bracket of ``p.cleared``, presented by its verified expansions and
    no basis fields.

    ``p``'s tensor is verified against its fields and has passed Jacobi, and
    the bracket is bilinear over the parameter field, so the brackets of the
    vectors are read off it: one elimination expands all of them in the
    vectors, as numerators over one denominator den, each re-verified in
    coordinates.  They make den*c, the same algebra (scale the basis by
    den), integers in ``INTEGERS``; only its verdict's name and notes are
    read.  The new presentation checks its tensor for Jacobi.
    """
    s = len(vectors)
    brackets = _lift_brackets(p, vectors)
    sols, den = p.ring.solve([list(row) for row in zip(*vectors)], brackets,
                             s)
    return AlgebraPresentation((), _antisymmetric(_verified_expansions(
        p.ring, [dict(enumerate(v)) for v in vectors],
        [dict(enumerate(b)) for b in brackets], sols, den), p.ring.zero, s))


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
    """Classification verdict with witnesses; see the module docstring.

    The verdict is computed on ``p.cleared`` in ``p``'s ring: over the
    integers, spans, ranks and the Killing signature do not change when c
    is scaled, and the witnesses are brought back to c's field."""
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
                       ideal_basis=tuple(map(p.ring.witness, center)),
                       notes=notes)

    if n == 2 and dd == 1:
        return Verdict("A2", "A2,1", n, cd, dd,
                       notes=("the unique non-abelian two-dimensional algebra",))

    if n == 3 and p.ring.rational(p.cleared):
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
    killing = _killing_matrix(p)
    radical = p.ring.nullspace(killing)
    m = len(radical)
    if not 0 < m < n:
        return None
    rad_z = _derived_space_sub(p, radical)   # [N, N]
    if not _is_nilpotent(p, radical, rad_z):
        return None
    # the Killing form is ad-invariant, so its radical, the nullspace of
    # K, is an ideal: K [e_i, w] = 0 for every i and w in it
    rows = [[(a, k) for a, k in enumerate(row) if k] for row in killing]
    if any(p.ring.sum([k * v[a] for a, k in row if v[a]])
           for v in (_ad_bracket(p, e, w) for e in p.unit for w in radical)
           for row in rows):
        raise InternalError("internal error: Killing radical not an ideal")
    levi = _levi_complement(p, radical, rad_z)
    if levi is None:
        return None
    complement, scale = levi
    ideal_verdict = classify(_subalgebra(p, radical))
    comp_verdict = classify(_subalgebra(p, complement))
    if "unclassified" in (ideal_verdict.name, comp_verdict.name):
        return None
    notes = ideal_verdict.notes + comp_verdict.notes + (
        "nilradical recovered as the radical of the Killing form; "
        "complement corrected to close under the bracket",)
    # only the complement can itself be a semidirect sum: a nilpotent
    # radical has a zero Killing form, so it never splits off a complement
    comp_name = comp_verdict.name
    if " (+)s " in comp_name:
        comp_name = f"({comp_name})"
    return Verdict(
        f"{comp_name} (+)s {ideal_verdict.name}",
        None, n, len(center), len(derived),
        ideal_basis=tuple(map(p.ring.witness, radical)),
        complement_basis=tuple(p.ring.witness(v, scale) for v in complement),
        notes=notes)


def _levi_complement(p: AlgebraPresentation, radical: list,
                     rad_z: list) -> tuple | None:
    """A complement to the nilradical that closes under the bracket, and
    the positive integer it is scaled by against the complement over the
    field (1 unless corrected over the integers); ``rad_z`` is the derived
    space [N, N] of the radical.

    Basis elements independent of the radical are corrected by solving two
    rational linear systems: first modulo the derived space of the radical,
    then inside it (classical Levi-Malcev steps for a two-step nilpotent
    radical; the first correction is skipped when the raw complement already
    closes, which also covers symbolic one-dimensional complements).  The
    brackets of the lifts are formed once per set of lifts, for the closure
    test and the next correction.
    """
    lifts = _independent(p, radical, p.unit)
    if len(lifts) + len(radical) != p.dimension:
        raise InternalError("internal error: the lifts do not complete the "
                            "radical")
    brackets = _lift_brackets(p, lifts)
    if _spans(p, lifts, brackets):
        return lifts, 1
    if not p.ring.rational(p.cleared):
        return None  # symbolic correction not attempted

    stage_one = _independent(p, rad_z, radical)
    scale = 1
    # the filtration matters: corrections are solved first modulo [N, N]
    # (whose stage coordinates the quadratic term cannot touch), then inside
    # [N, N] itself
    for stage_space, lower in ((stage_one, rad_z), (rad_z, stage_one)):
        if not stage_space:
            continue
        corrected = _correct_stage(p, lifts, brackets, stage_space, lower)
        if corrected is None:
            continue
        lifts, den = corrected
        scale *= den
        brackets = _lift_brackets(p, lifts)
        if _spans(p, lifts, brackets):
            return lifts, scale
    return None


def _lift_brackets(p: AlgebraPresentation, lifts: list) -> list:
    """[l_i, l_j] for the pairs i < j."""
    return [_ad_bracket(p, lifts[i], lifts[j])
            for i, j in combinations(range(len(lifts)), 2)]


def _correct_stage(p: AlgebraPresentation, lifts: list, brackets: list,
                   stage: list, lower: list) -> tuple | None:
    """One Levi correction step: solve for c with the defects killed mod stage.

    Unknowns are the coefficients of the corrections c_i in the stage space;
    for each pair (i, j) the defect of [l_i + c_i, l_j + c_j] closing onto
    the corrected lifts must lose its stage-space component.  ``brackets``
    are the [l_i, l_j].  ``lower`` is the complement of the stage inside
    the radical and must contain the brackets of stage elements, so the
    quadratic correction term has no stage coordinate and the condition is
    linear.  Free unknowns are set to zero: the solution is read off the
    nullspace vector of the rows [A | defect] at their last column, den
    there.  Returns the corrected lifts, each den times l_i + c_i (den 1
    over a field, a positive integer over the integers), and den.
    """
    s = len(lifts)
    m = len(stage)
    pairs = list(combinations(range(s), 2))
    # a bracket [l_i, l_j] per pair, then ad(l_i) stage_k at index i*m + k
    coords = _project(
        p, brackets + [_ad_bracket(p, l, st) for l in lifts for st in stage],
        lifts, stage, lower)
    ad = [d for _, d in coords[len(pairs):]]
    zero = p.ring.zero
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
            row[ncols] = defect_stage[t]
            rows.append(row)
    null = p.ring.nullspace(rows)
    if not null or not null[-1][ncols]:
        return None  # inconsistent: the last column is a pivot
    *sol, den = null[-1]
    corrected = []
    for i in range(s):
        vec = list(lifts[i]) if den == 1 else [den * a for a in lifts[i]]
        for k in range(m):
            coeff = sol[i * m + k]
            if coeff:
                vec = [a + coeff * b for a, b in zip(vec, stage[k])]
        corrected.append(vec)
    return corrected, den


def _project(p: AlgebraPresentation, vectors, lifts, stage, lower):
    """Write each vec = sum a_q lift_q + sum d_t stage_t + (lower part).

    ``lifts + stage + lower`` is a basis of the whole space (a vector
    outside its span is a bug).  Returns one (a coefficients, stage
    coefficients) pair per vector, from one elimination; over the integers
    they are numerators over one common denominator, which the linear
    conditions of ``_correct_stage`` do not need.
    """
    cols_all = lifts + stage + lower
    matrix = [[col[r] for col in cols_all] for r in range(len(cols_all[0]))]
    out = []
    for sol in p.ring.solve(matrix, vectors)[0]:
        if sol is None:
            raise InternalError("internal error: projection off the basis")
        values = p.ring.values(sol)
        out.append((values[:len(lifts)],
                    values[len(lifts):len(lifts) + len(stage)]))
    return out
