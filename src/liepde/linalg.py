"""Exact linear algebra: rationals, univariate polynomials, symbolic fields.

One sparse Gauss-Jordan loop, ``_rref``, gives the reduced echelon form of
``{column: value}`` rows behind rank, nullspace, row space and solve; each
ring passes its ``clear`` (a pivot row clears its column from a row) and
its ``lead`` (a new pivot row is normalised):

* rational rows are eliminated over the integers, fraction-free: each row
  is scaled once to a primitive integer row, ``_cross`` combines rows by
  cross-multiplication and keeps them primitive, and ``_positive`` makes
  the pivot entry, which every reduced row keeps, positive (Bareiss,
  *Math. Comp.* 22, 1968, without the determinant bookkeeping).  The
  ``z_*`` functions return the integer results themselves: primitive rows
  and nullspace vectors, and solutions as numerators over one common
  denominator; ``q_rank`` and ``q_nullspace`` (the ``z_nullspace`` vectors
  as ``Fraction``s) serve the solver, and ``q_vector`` is the one read-off
  of an integer vector as ``Fraction``s;
* the ``f_*`` functions eliminate over the field of kernel expressions,
  fraction-free too, whatever the entries are (numbers or expressions,
  dense lists or sparse dicts): ``_cross_expr`` cross-multiplies and
  takes the content out of the row it forms (``ex.over_content``: the
  rational gcd and the shared monomial, exponentials aside), and
  ``_positive_expr`` makes the first term of the pivot entry positive.
  A value, an entry over its pivot entry, is divided (``ex.divide_exact``)
  only where a caller reads it.  No polynomial gcd is taken out, so
  entries can swell (a 5x4 matrix of entries of at most 6 terms has run
  past 20 s): one past ``_SWELL_BUDGET`` terms is refused with
  ``ExpressionSwellError``.  The field-only loop over num/den pairs in
  ``tests/helpers.py`` is the reference for the values.

A caller picks the ring by the function it calls: rational rows reach the
integer ring only through ``z_*`` and ``q_*``.  Around them:

* univariate polynomials over ``Fraction``: ``charpoly`` forms the
  characteristic polynomial of a rational matrix by Hessenberg reduction.
  Discovery reads its exponents off it; ``inertia`` reads the signature of
  a symmetric matrix off it by Descartes' rule of signs, which is exact
  for real-rooted polynomials.  ``rational_roots`` factors nothing: with
  the root 0 split off, the rest is a primitive integer polynomial q
  (``z_row``), leading coefficient +-L.  A root a/b of q in lowest terms
  has b | L, so it is on the grid Z/L, and no half point (2k+1)/(2L) is a
  root (with L = bm, 2k+1 = 2ma would be odd and even).  The Sturm chain
  of q (``p_divmod``), evaluated over ``int`` at half points, counts the
  distinct roots between them (``_sign_changes``); bisection within the
  Cauchy bound drops each interval without a root, finishes an interval
  with one root on the sign of the squarefree part q / gcd(q, q') alone,
  and checks each grid point left exactly, in at most (distinct real
  roots) x (bits of the bound) evaluations of the chain or of that part.
  Roots that are not rational are left to the caller.  ``pencil_pivots``
  (fraction-free Bareiss elimination of a pencil ``A + lambda*B``) and
  ``pencil_gram_poly`` (its Gram determinant) have no caller in the
  package: they are named references, kept for perfbench's lookup and,
  for ``pencil_pivots``, as the tests' reference for ``charpoly``;
* ``coordinates`` writes expressions or vector fields as sparse rows over
  shared monomial columns, for the ranks and solves above.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from . import expr as ex
from .expr import Expr, ExprError


# ---------------------------------------------------------------------------
# sparse exact elimination: one loop, over the integers or over a field
# ---------------------------------------------------------------------------

def _items(row):
    """The ``(column, value)`` pairs of a dense list or a sparse dict."""
    return row.items() if isinstance(row, dict) else enumerate(row)


def _width(rows, ncols: int | None) -> int:
    if ncols is not None:
        return ncols
    if rows and isinstance(rows[0], dict):
        raise ValueError("sparse rows need an explicit column count")
    return len(rows[0]) if rows else 0


def z_row(row) -> dict[int, int]:
    """A row of rational numbers -- ``int``, ``Fraction`` or rational
    expressions, dense or sparse -- as a primitive integer row of its
    nonzero entries, a positive multiple of it: times the lcm of their
    denominators, over the gcd of the products.  Scaling a row keeps its
    row space and its solutions."""
    row = {c: v for c, v in _items(row) if v}
    if all(v.__class__ is int for v in row.values()):
        return _primitive(row)
    row = {c: v.as_fraction() if isinstance(v, Expr)
           else v if isinstance(v, (int, Fraction)) else Fraction(v)
           for c, v in row.items()}
    d = lcm(*(v.denominator for v in row.values()))
    return _primitive({c: v.numerator * (d // v.denominator)
                       for c, v in row.items()})


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """An integer row over the gcd of its entries (``gcd()`` of no entries
    is 0, and an empty row stays empty)."""
    g = gcd(*row.values())
    return {c: v // g for c, v in row.items()} if g > 1 else row


def _rref(rows, clear, lead) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of sparse rows, in the ring of the pair
    ``clear``, ``lead``.

    ``rows`` yields fresh ``{column: value}`` dicts of nonzero entries, which
    are consumed.  Rows are reduced one at a time against the pivot rows
    found so far (``clear(row, c, pivot_row)`` clears column ``c``); a
    surviving row becomes the pivot row of its leftmost nonzero column
    (``lead(row, pc)``), which is then cleared from the earlier pivot rows.
    The result has one row per pivot, in column order, zero in every other
    pivot column: a primitive integer row positive at its pivot (``_cross``,
    ``_positive``), or an expression row over its content whose pivot entry
    has a positive first term (``_cross_expr``, ``_positive_expr``); over
    its pivot entry, each is the row of the unique reduced echelon form.
    """
    basis: dict = {}   # pivot column -> its reduced row
    for row in rows:
        # pivot rows are zero in every other pivot column, so one pass over
        # the pivot columns the row starts with clears them all
        for c in [c for c in row if c in basis]:
            row = clear(row, c, basis[c])
        if not row:
            continue
        pc = min(row)
        row = lead(row, pc)
        for c, other in basis.items():
            if pc in other:
                basis[c] = clear(other, pc, row)
        basis[pc] = row
    pivots = sorted(basis)
    return [basis[pc] for pc in pivots], pivots


def _cross(row: dict, c: int, pivot_row: dict) -> dict:
    """Column ``c`` of an integer row cleared by cross-multiplication:
    p*row - a*pivot_row, with a the row's entry and p > 0 the pivot row's
    entry there, both over their gcd, made primitive.  ``row`` is used up;
    only nonzero entries are kept."""
    a, p = row.pop(c), pivot_row[c]
    g = gcd(a, p)
    a, p = a // g, p // g
    if p != 1:
        for j in row:
            row[j] *= p
    for j, v in pivot_row.items():
        if j != c:
            w = row.get(j, 0) - a * v
            if w:
                row[j] = w
            else:
                del row[j]
    return _primitive(row)


def _positive(row: dict, pc: int) -> dict:
    """A primitive integer row, negated unless positive at ``pc``."""
    return row if row[pc] > 0 else {j: -v for j, v in row.items()}


def z_rref(matrix) -> tuple[list[dict[int, int]], list[int]]:
    """Reduced echelon form over the integers of rows of rational numbers
    (``int``, ``Fraction`` or rational expressions; dense lists or sparse
    dicts): one primitive integer row per pivot, positive at its pivot and
    zero in every other pivot column, and the pivot column list."""
    return _rref([z_row(row) for row in matrix], _cross, _positive)


def z_nullspace(matrix, ncols: int | None = None) -> list[list[int]]:
    """Basis of the right nullspace of rows of rational numbers, as
    primitive integer vectors, one per free column in column order: each
    is a positive multiple of the vector ``q_nullspace`` gives, which is 1
    at its free column, its last nonzero entry."""
    ncols = _width(matrix, ncols)
    rref, pivots = z_rref(matrix)
    is_pivot = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in is_pivot:
            continue
        rows = [(row, pc) for row, pc in zip(rref, pivots) if fc in row]
        scale = lcm(*(row[pc] for row, pc in rows))
        v = [0] * ncols
        v[fc] = scale
        for row, pc in rows:
            v[pc] = -row[fc] * (scale // row[pc])
        g = gcd(*v)
        basis.append([x // g for x in v] if g > 1 else v)
    return basis


def z_row_basis(matrix, ncols: int | None = None) -> list[list[int]]:
    """Reduced echelon basis of the row space of rows of rational numbers,
    one dense primitive integer row per pivot: each a positive multiple of
    the reduced echelon row, which is 1 at its first nonzero entry."""
    ncols = _width(matrix, ncols)
    return [[row.get(c, 0) for c in range(ncols)] for row in z_rref(matrix)[0]]


def z_solve_unique(matrix, rhss: list[list], ncols: int | None = None
                   ) -> tuple[list[list[int] | None], int]:
    """``f_solve_unique`` over the integers, for rows of rational numbers.

    Returns one solution per rhs, None for an inconsistent one, as integer
    numerators over one common positive denominator, which is returned
    with them: ``(solutions, den)``.  Raises when the columns of the matrix
    are dependent.  Sparse rows need ``ncols``.
    """
    ncols = _width(matrix, ncols)
    rref, pivots = z_rref(_augmented(matrix, rhss, ncols))
    if pivots[:ncols] != list(range(ncols)):
        raise ExprError("basis is not linearly independent")
    top, below = rref[:ncols], rref[ncols:]
    den = lcm(*(row[pc] for row, pc in zip(top, pivots)))
    scales = [den // row[pc] for row, pc in zip(top, pivots)]
    return [None if any(c in row for row in below)
            else [row.get(c, 0) * s for row, s in zip(top, scales)]
            for c in range(ncols, ncols + len(rhss))], den


def q_rank(rows) -> int:
    """Rank of rows of rational numbers, dense or sparse."""
    return len(z_rref(rows)[1])


def q_nullspace(rows, ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right nullspace of rows of rational numbers, as
    ``Fraction`` vectors, one per free column, 1 there: the ``z_nullspace``
    vectors over their last nonzero entry, which is at that column.

    ``rows`` are dense lists or sparse dicts; sparse rows need ``ncols``.
    The vectors are dense and come in free-column order.
    """
    return [q_vector(v) for v in z_nullspace(rows, ncols)]


def q_vector(v, scale: int | None = None) -> list[Fraction]:
    """An integer vector as ``Fraction``s over ``scale``, by default its
    last nonzero entry."""
    scale = scale or next(x for x in reversed(v) if x)
    return [Fraction(x, scale) for x in v]


def _augmented(matrix, rhss, ncols: int) -> list[dict]:
    """The matrix as ``{column: value}`` rows with right-hand side k in
    column ``ncols + k``."""
    aug = []
    for i, row in enumerate(matrix):
        row = dict(_items(row))
        for k, rhs in enumerate(rhss):
            row[ncols + k] = rhs[i]
        aug.append(row)
    return aug


# ---------------------------------------------------------------------------
# univariate polynomials over Q (coefficient tuples, lowest degree first)
# ---------------------------------------------------------------------------

Poly = tuple[Fraction, ...]


class RootExtractionError(ExprError):
    """Exponent extraction refused: an exponent is not rational (irrational
    or complex), or a free unknown function is left."""


def p_trim(c: list[Fraction]) -> Poly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def p_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return p_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                   for i in range(n)])


def p_scale(a: Poly, s: Fraction) -> Poly:
    return p_trim([c * s for c in a]) if s else ()


def p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return p_trim(out)


def p_eval(a: Poly, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


def p_div_exact(a: Poly, b: Poly) -> Poly:
    """Exact quotient a / b; raises if the division leaves a remainder."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q, r = p_divmod(a, b)
    if r:
        raise ExprError("inexact polynomial division")
    return q


def p_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    rem = list(a)
    while len(rem) >= len(b) and any(rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        k = len(rem) - len(b)
        f = rem[-1] / b[-1]
        q[k] = f
        for i, cb in enumerate(b):
            rem[k + i] -= f * cb
        rem.pop()
    return p_trim(q), p_trim(rem)


def rational_roots(p: Poly) -> list[Fraction]:
    """The distinct rational roots, exactly, in increasing order, by Sturm
    counts on the grid Z/L (module docstring).  Roots that are not rational
    are not returned: a caller that must account for every root deflates
    the ones found and inspects what is left."""
    row = z_row(p)
    if not row:
        return []
    low = min(row)
    roots = [Fraction(0)] if low else []
    q = [row.get(i, 0) for i in range(low, max(row) + 1)]
    if len(q) == 1:
        return roots
    # Sturm chain: q, q', negated remainders, primitive; its sign changes at
    # two non-roots differ by the distinct roots between, squarefree q or not
    chain = [q, [i * c for i, c in enumerate(q)][1:]]
    while True:
        a, b = (tuple(map(Fraction, s)) for s in chain[-2:])
        r = z_row(p_divmod(a, b)[1])
        if not r:
            break
        chain.append([-r.get(i, 0) for i in range(max(r) + 1)])
    # its last member b is gcd(q, q'), so q / b has the roots of q, simple
    simple = z_row(p_div_exact(tuple(map(Fraction, q)), b))
    simple = [simple.get(i, 0) for i in range(max(simple) + 1)]
    big = abs(q[-1])
    # Cauchy: a root k/L has |k/L| < 1 + max|c_i|/L, so |k| < bound
    bound = big + max(map(abs, q[:-1]))

    def changes(j: int) -> int:   # of the chain at the half point (2j+1)/(2L)
        return _sign_changes([_value(s, 2 * j + 1, 2 * big) for s in chain])

    # (lo, changes at lo, hi, changes at hi): the grid points k/L, lo < k <= hi
    intervals = [(-bound, changes(-bound), bound - 1, changes(bound - 1))]
    while intervals:
        lo, at_lo, hi, at_hi = intervals.pop()
        if at_lo == at_hi:
            continue
        if at_lo - at_hi == 1:
            # one root, where ``simple`` changes sign: bisect on that alone
            positive = _value(simple, 2 * lo + 1, 2 * big) > 0
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if (_value(simple, 2 * mid + 1, 2 * big) > 0) == positive:
                    lo = mid
                else:
                    hi = mid
        if hi - lo > 1:
            mid = (lo + hi) // 2
            at_mid = changes(mid)
            intervals += [(lo, at_lo, mid, at_mid), (mid, at_mid, hi, at_hi)]
        elif not _value(q, hi, big):
            roots.append(Fraction(hi, big))
    return sorted(roots)


def _value(s: list[int], a: int, b: int) -> int:
    """``b^deg(s) * s(a/b)`` over the integers, for an integer polynomial
    s: for b > 0, zero exactly where s(a/b) is and of its sign."""
    v, power = 0, 1
    for c in reversed(s):
        v = v * a + c * power
        power *= b
    return v


def is_perfect_square(q: Fraction) -> bool:
    """Whether ``q >= 0`` is the square of a rational."""
    return isqrt(q.numerator) ** 2 == q.numerator and \
        isqrt(q.denominator) ** 2 == q.denominator


# ---------------------------------------------------------------------------
# matrix pencils over Q[lambda]
# ---------------------------------------------------------------------------

def pencil_pivots(a_rows: list[list[Fraction]],
                  b_rows: list[list[Fraction]]) -> list[Poly]:
    """Pivot polynomials of a fraction-free elimination of A + lambda*B.

    The pencil loses column rank at lambda0 only if some returned pivot
    vanishes there; if a column has no pivot at all the pencil is rank
    deficient for every lambda and the caller's ansatz admits a free
    function, which is reported as an error.

    No package code calls it.  It stays because perfbench's tracing looks
    it up by name, and the last pivot of ``lambda*I - M`` is the tests'
    reference for ``charpoly``.
    """
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if nrows else 0
    m: list[list[Poly]] = [
        [p_trim([a_rows[i][j], b_rows[i][j]]) for j in range(ncols)]
        for i in range(nrows)]
    pivots: list[Poly] = []
    prev = (Fraction(1),)
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            raise RootExtractionError(
                "the ansatz admits a free unknown function; the determining "
                "system does not pin it down")
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        pivots.append(piv)
        for i in range(r + 1, nrows):
            if not m[i][c] and piv == prev:
                continue
            head = m[i][c]
            m[i] = [p_div_exact(p_add(p_mul(piv, m[i][j]),
                                      p_scale(p_mul(head, m[r][j]), Fraction(-1))),
                                prev)
                    for j in range(ncols)]
        prev = piv
        r += 1
        if r == nrows:
            break
    return pivots


def charpoly(m: list[list[Fraction]]) -> Poly:
    """``det(lam*I - M)`` of a square rational matrix, as ``Fraction``s.

    ``M`` is brought to upper Hessenberg form ``H`` by similarity (row and
    column swaps, and row operations below the subdiagonal undone on the
    columns), and the characteristic polynomials ``p_k`` of the leading
    k x k blocks of ``H`` follow by the recurrence
    ``p_k = (lam - h_kk) p_{k-1} - sum_i h_ik h_{i+1,i}...h_{k,k-1} p_{i-1}``
    (Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 2.2.9).
    """
    n = len(m)
    h = [[Fraction(v) for v in row] for row in m]
    for c in range(n - 2):
        r = next((i for i in range(c + 1, n) if h[i][c]), None)
        if r is None:
            continue
        s = c + 1
        if r != s:
            h[r], h[s] = h[s], h[r]
            for row in h:
                row[r], row[s] = row[s], row[r]
        pivot_row = h[s]
        for i in range(s + 1, n):
            if h[i][c]:
                u = h[i][c] / pivot_row[c]
                row_i = h[i]
                for j in range(c, n):
                    row_i[j] -= u * pivot_row[j]
                for row in h:
                    row[s] += u * row[i]
    polys: list[list[Fraction]] = [[Fraction(1)]]
    for k in range(1, n + 1):
        hkk, prev = h[k - 1][k - 1], polys[-1]
        p = [Fraction(0)] + prev
        for j, c in enumerate(prev):
            p[j] -= hkk * c
        t = Fraction(1)
        for i in range(1, k):
            t *= h[k - i][k - i - 1]
            if not t:
                break
            f = t * h[k - i - 1][k - 1]
            if f:
                for j, c in enumerate(polys[k - i - 1]):
                    p[j] -= f * c
        polys.append(p)
    return tuple(polys[-1])


def inertia(k: list[list[Fraction]]) -> tuple[int, int, int]:
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    A symmetric matrix has only real eigenvalues, so Descartes' rule of
    signs is exact on its characteristic polynomial p: the sign changes of
    p count the positive roots, those of p(-lam) the negative ones, and the
    multiplicity of the root 0 is the number of vanishing low coefficients.
    """
    p = charpoly(k)
    zero = next(i for i, c in enumerate(p) if c)
    mirrored = [-c if i % 2 else c for i, c in enumerate(p)]
    return _sign_changes(p), _sign_changes(mirrored), zero


def _sign_changes(p) -> int:
    signs = [c > 0 for c in p if c]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def pencil_gram_poly(a_rows: list[list[Fraction]],
                     b_rows: list[list[Fraction]]) -> Poly:
    """det((A + t*B)^T (A + t*B)) as an exact polynomial, by interpolation.

    Its real roots are exactly the real values where the pencil loses column
    rank.  Discovery no longer uses it; it is kept as a reference for
    perfbench's lookup.  The Gram matrix is formed at the ``2n + 1`` nodes
    ``t = -n..n``; its determinant there is ``(-1)^n`` times the constant
    coefficient of its ``charpoly``, and one ``z_rref`` of the Vandermonde
    rows, augmented by those values, gives the coefficients.
    """
    ncols = len(a_rows[0]) if a_rows else 0
    size = 2 * ncols + 1
    rows = []
    for t in range(-ncols, ncols + 1):
        m = [[Fraction(x) + t * y for x, y in zip(ra, rb)]
             for ra, rb in zip(a_rows, b_rows)]
        gram = [[sum(row[p] * row[q] for row in m) for q in range(ncols)]
                for p in range(ncols)]
        det = (-1) ** ncols * charpoly(gram)[0]
        rows.append([Fraction(t) ** k for k in range(size)] + [det])
    return p_trim([Fraction(row.get(size, 0), row[pc])
                   for row, pc in zip(*z_rref(rows))])


# ---------------------------------------------------------------------------
# coordinates of expressions and vector fields
# ---------------------------------------------------------------------------

def coordinates(vectors, keep=None, index=None) -> list[dict]:
    """Sparse coordinate rows of expressions or vector fields.

    A vector is an expression (one slot) or a vector field, whose slots are
    its coefficients ``xi..., eta``.  Each term of slot ``s`` goes to the
    column ``(s, monomial)``, where the monomial is the sub-monomial of the
    factors selected by ``keep``; columns are shared by all vectors and
    numbered in first-seen order.  With ``keep`` None every factor is kept
    and the entries are the rational term coefficients; otherwise an entry
    is the expression summing the remaining parts of its terms.  ``index``,
    when given, is the caller's ``{(slot, monomial): column}`` map, which
    the new columns extend.
    """
    index = {} if index is None else index
    rows = []
    for vec in vectors:
        slots = (vec,) if isinstance(vec, Expr) else vec.coefficients()
        row = {}
        for slot, e in enumerate(slots):
            parts = (((fs, c) for c, fs in e.terms) if keep is None
                     else ex.split_terms(e, keep).items())
            for mono, value in parts:
                row[index.setdefault((slot, mono), len(index))] = value
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# the expression field, fraction-free
# ---------------------------------------------------------------------------

# Most terms in an entry that an expression clear forms.  An elimination
# that answers, in the tests, the classify benchmark or the report, forms
# at most 312 terms (a seeded 4x3 solve with four right-hand sides); on the
# 5x4 matrices of ``TestExpressionSwell`` that swell, entries pass 512
# terms within 0.3 s, then grow past 1000 (Python 3.11, 2 cores).
_SWELL_BUDGET = 512


class ExpressionSwellError(ExprError):
    """A symbolic elimination refused: an entry outgrew the budget."""


def _cross_expr(row: dict, c: int, pivot_row: dict) -> dict:
    """Column ``c`` of an expression row cleared by cross-multiplication:
    p*row - a*pivot_row, with a the row's entry and p the pivot row's
    entry there, over its content (``ex.over_content``).  ``row`` is used
    up; only nonzero entries are kept, and an entry past ``_SWELL_BUDGET``
    terms is refused."""
    a, p = row.pop(c), pivot_row[c]
    if p != 1:
        for j, v in row.items():
            row[j] = _bounded(p * v)
    for j, v in pivot_row.items():
        if j != c:
            w = _bounded(row[j] - a * v if j in row else -(a * v))
            if w:
                row[j] = w
            else:
                del row[j]
    return dict(zip(row, ex.over_content(list(row.values())))) if row else row


def _bounded(e: Expr) -> Expr:
    if len(e.terms) > _SWELL_BUDGET:
        raise ExpressionSwellError(
            f"expression swell: a symbolic elimination formed a field "
            f"element of more than {_SWELL_BUDGET} terms")
    return e


def _positive_expr(row: dict, pc: int) -> dict:
    """An expression row, negated unless the first term of its entry at
    ``pc`` has a positive coefficient."""
    return row if row[pc].terms[0][0] > 0 else {j: -v for j, v in row.items()}


def f_rref(matrix) -> tuple[list[dict], list[int]]:
    """Reduced echelon form over the expression field of a matrix of
    numbers or expressions (dense lists or sparse dicts), fraction-free:
    one sparse expression row per pivot, zero in every other pivot
    column, whose entries over its pivot entry are the row of the unique
    reduced echelon form, and the pivot column list."""
    return _rref(({c: ex.as_expr(v) for c, v in _items(row) if v}
                  for row in matrix), _cross_expr, _positive_expr)


def f_rank(matrix) -> int:
    """Rank over the expression field."""
    return len(f_rref(matrix)[1])


def f_solve_unique(matrix, rhss: list[list],
                   ncols: int | None = None) -> list[list | None]:
    """Unique solution of matrix * x = rhs over the expression field, for
    each rhs in ``rhss``, from one elimination of the matrix augmented by
    every right-hand side.

    Returns per rhs the (entry, pivot) pair of each unknown, whose
    quotient is its value, or None for an inconsistent rhs; raises when
    the columns of the matrix are dependent.  Row operations keep the
    linear relations among columns, so the column of a consistent rhs
    reduces to its solution on the pivot rows of the matrix and is zero
    below them; an inconsistent one keeps an entry below them.  Sparse
    rows need ``ncols``.
    """
    ncols = _width(matrix, ncols)
    rref, pivots = f_rref(_augmented(matrix, rhss, ncols))
    if pivots[:ncols] != list(range(ncols)):
        raise ExprError("basis is not linearly independent")
    top, below = rref[:ncols], rref[ncols:]
    return [None if any(c in row for row in below)
            else [(row.get(c, ex.ZERO), row[pc])
                  for row, pc in zip(top, pivots)]
            for c in range(ncols, ncols + len(rhss))]


def f_nullspace(matrix) -> list[list[Expr]]:
    """Right-nullspace basis over the expression field, one dense
    expression vector per free column in column order: the vector that is
    1 there, when each of its entries is a kernel value; otherwise that
    vector times the product of the distinct non-rational pivot entries it
    reads.  The vector that is 1 at its free column depends on the
    nullspace alone, so a nullspace with a rational basis gets it."""
    ncols = _width(matrix, None)
    rref, pivots = f_rref(matrix)
    is_pivot = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in is_pivot:
            continue
        rows = [(row, pc) for row, pc in zip(rref, pivots) if fc in row]
        v = [ex.ZERO] * ncols
        v[fc] = prod((p for p in dict.fromkeys(row[pc] for row, pc in rows)
                      if not p.is_rational), start=ex.ONE)
        for row, pc in rows:
            v[pc] = -ex.divide_exact(row[fc] * v[fc], row[pc])
        if not v[fc].is_rational:
            try:
                v = [ex.divide_exact(x, v[fc]) for x in v]
            except ex.UnsupportedDivision:
                pass
        basis.append(v)
    return basis


def f_row_basis(matrix) -> list[list[Expr]]:
    """Reduced echelon basis of the row space over the expression field,
    one dense expression row per pivot: the row that is 1 at its pivot,
    times the pivot entry when that is not rational.  Unlike
    ``f_nullspace``, no row is divided by its pivot entry: row bases enter
    only ranks and spans (``algebra._is_nilpotent``, ``_spans``), never a
    subalgebra's presentation, so their scale cannot refuse a verdict."""
    ncols = _width(matrix, None)
    return [[ex.divide_exact(row.get(c, ex.ZERO),
                             row[pc] if row[pc].is_rational else ex.ONE)
             for c in range(ncols)] for row, pc in zip(*f_rref(matrix))]
