"""Exact linear algebra: rationals, univariate polynomials, symbolic fields.

Two sparse Gauss-Jordan eliminations over ``{column: value}`` rows give the
reduced echelon form behind rank, nullspace, row space and solve:

* rational rows are eliminated over the integers, fraction-free: each row
  is scaled once to a primitive integer row, rows are combined by
  cross-multiplication and kept primitive, and every reduced row keeps its
  pivot entry (Bareiss, *Math. Comp.* 22, 1968, without the determinant
  bookkeeping).  The ``z_*`` functions return the integer results
  themselves: primitive rows and nullspace vectors, and solutions as
  numerators over one common denominator; ``q_rank`` and ``q_nullspace``
  (``Fraction`` vectors) serve the solver;
* the ``f_*`` functions eliminate over ``FieldFrac``, num/den pairs of
  kernel expressions, within a swell budget (below), whatever the entries
  are: numbers or expressions, dense lists or sparse dicts.  They return
  ``FieldFrac``s (rref, solve) or denominator-cleared expressions
  (nullspace, row basis).

A caller picks the ring by the function it calls: rational rows go to the
integer loop only through ``z_*`` and ``q_*``.  Around them:

* univariate polynomials over ``Fraction``: ``charpoly`` forms the
  characteristic polynomial of a rational matrix by Hessenberg reduction.
  Discovery reads its exponents off it; ``inertia`` reads the signature of
  a symmetric matrix off it by Descartes' rule of signs, which is exact
  for real-rooted polynomials.
  Rational roots are found exactly from the divisors of the end
  coefficients, within a trial-division budget that refuses loudly; roots
  that are not rational are left to the caller.  ``pencil_pivots``
  (fraction-free Bareiss elimination of a pencil ``A + lambda*B``) and
  ``pencil_gram_poly`` (its Gram determinant) have no caller in the
  package: they are named references, kept for perfbench's lookup and,
  for ``pencil_pivots``, as the tests' reference for ``charpoly``;
* ``coordinates`` writes expressions or vector fields as sparse rows over
  shared monomial columns, for the ranks and solves above;
* field elements over kernel expressions are num/den pairs with a
  canonical zero test on the numerator and no gcd reduction, so their
  terms can swell (a 5x4 matrix of entries of at most 6 terms has run
  past 20 s); an element whose numerator or denominator outgrows
  ``_SWELL_BUDGET`` terms is refused with ``ExpressionSwellError``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from . import expr as ex
from .expr import Expr, ExprError, Frozen


# ---------------------------------------------------------------------------
# sparse exact elimination: over the integers, and over a field
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


def _zrref(rows) -> tuple[list[dict[int, int]], list[int]]:
    """Reduced row echelon form over the integers, fraction-free.

    ``rows`` yields fresh primitive ``{column: int}`` dicts of nonzero
    entries, which are consumed.  Rows are reduced one at a time against
    the pivot rows found so far (``_cross``); a surviving row takes a
    positive entry at its leftmost nonzero column, its pivot, which is then
    cleared from the earlier pivot rows the same way.  The result has one
    primitive row per pivot, in column order, zero in every other pivot
    column and positive at its own: divided by that entry, each is the row
    of the unique reduced echelon form over the rationals.
    """
    basis: dict = {}   # pivot column -> its reduced row, pivot entry kept
    for row in rows:
        # pivot rows are zero in every other pivot column, so one pass over
        # the pivot columns the row starts with clears them all
        for c in [c for c in row if c in basis]:
            row = _cross(row, c, basis[c])
        if not row:
            continue
        pc = min(row)
        if row[pc] < 0:
            row = {j: -v for j, v in row.items()}
        for c, other in basis.items():
            if pc in other:
                basis[c] = _cross(other, pc, row)
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


def _rref(rows, one) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of sparse rows over an exact field.

    ``rows`` yields fresh ``{column: value}`` dicts of nonzero entries, which
    are consumed.  The entries need ``-``, ``*``, ``1/x``, negation and a
    truth value that is false exactly at zero; ``one`` is the field's unit.
    Rows are reduced one at a time against the pivot rows found so far; a
    surviving row is scaled to a unit pivot at its leftmost nonzero column,
    which is then cleared from the earlier pivot rows.  The result is the
    unique reduced echelon basis of the row space, one row per pivot in
    column order, each holding only its nonzero entries.  The package runs
    it over ``FieldFrac`` only (rational rows take ``_zrref``); over
    ``Fraction(1)`` it is the tests' reference for the integer loop.
    """
    basis: dict = {}   # pivot column -> its reduced row, pivot entry left out
    for row in rows:
        for c in [c for c in row if c in basis]:
            _subtract(row, row.pop(c), basis[c])
        if not row:
            continue
        pc = min(row)
        inv = 1 / row.pop(pc)
        row = {j: v * inv for j, v in row.items()}
        for other in basis.values():
            f = other.pop(pc, None)
            if f is not None:
                _subtract(other, f, row)
        basis[pc] = row
    pivots = sorted(basis)
    return [{pc: one, **basis[pc]} for pc in pivots], pivots


def _subtract(row: dict, f, pivot_row: dict):
    """row -= f * pivot_row, in place, keeping only nonzero entries."""
    for j, v in pivot_row.items():
        w = row[j] - f * v if j in row else -(f * v)
        if w:
            row[j] = w
        else:
            del row[j]


def _nullspace(rref, pivots, ncols: int, zero, one) -> list[list]:
    """Right-nullspace basis from a reduced echelon form over a field, one
    dense vector per free column, in column order."""
    is_pivot = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in is_pivot:
            continue
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(rref, pivots):
            if fc in row:
                v[pc] = -row[fc]
        basis.append(v)
    return basis


def z_rref(matrix) -> tuple[list[dict[int, int]], list[int]]:
    """Reduced echelon form over the integers of rows of rational numbers
    (``int``, ``Fraction`` or rational expressions; dense lists or sparse
    dicts): one primitive integer row per pivot, positive at its pivot and
    zero in every other pivot column, and the pivot column list."""
    return _zrref([z_row(row) for row in matrix])


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
    the row ``f_rref`` gives, which is 1 at its first nonzero entry."""
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
    ``Fraction`` vectors, one per free column, 1 there.

    ``rows`` are dense lists or sparse dicts; sparse rows need ``ncols``.
    The vectors are dense and come in free-column order.
    """
    ncols = _width(rows, ncols)
    rref, pivots = z_rref(rows)
    rref = [{j: Fraction(v, row[pc]) for j, v in row.items()}
            for row, pc in zip(rref, pivots)]
    return _nullspace(rref, pivots, ncols, Fraction(0), Fraction(1))


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
    """Exponent extraction refused: an exponent is not rational, a free
    unknown function is left, or a factorisation budget ran out."""


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


_FACTOR_BUDGET = 1_000_000   # largest trial divisor tried by _divisors


def _divisors(n: int) -> list[int] | None:
    """All positive divisors of |n|, or None when factoring exceeds
    ``_FACTOR_BUDGET``."""
    n = abs(n)
    if n == 0:
        return None
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d > _FACTOR_BUDGET:
            return None
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    divs = [1]
    for p, k in factors.items():
        divs = [dv * p ** i for dv in divs for i in range(k + 1)]
    return sorted(set(divs))


def rational_roots(p: Poly) -> list[Fraction]:
    """The distinct rational roots, exactly, in increasing order.

    Roots that are not rational are not returned: a caller that must
    account for every root deflates the ones found and inspects what is
    left.  Raises :class:`RootExtractionError` when factoring the leading or
    constant coefficient exceeds the trial-division budget.
    """
    if len(p) <= 1:
        return []
    roots: list[Fraction] = []
    cur = list(p)
    while cur and cur[0] == 0:  # root at zero
        cur.pop(0)
    if len(cur) < len(p):
        roots.append(Fraction(0))
    cur = p_trim(cur)
    if len(cur) <= 1:
        return roots
    # integer primitive form
    denlcm = lcm(*(c.denominator for c in cur))
    ints = [int(c * denlcm) for c in cur]
    g = gcd(*ints)
    ints = [c // g for c in ints]
    ds0, dsn = _divisors(ints[0]), _divisors(ints[-1])
    if ds0 is None or dsn is None:
        raise RootExtractionError(
            "integer factorisation budget exceeded (trial division up to "
            f"{_FACTOR_BUDGET}) while extracting rational roots")
    work = tuple(Fraction(c) for c in ints)
    roots.extend(cand for cand in {Fraction(s * pp, qq) for pp in ds0
                                   for qq in dsn for s in (1, -1)}
                 if p_eval(work, cand) == 0)
    return sorted(roots)


def is_perfect_square(q: Fraction) -> bool:
    if q < 0:
        return False
    return isqrt(q.numerator) ** 2 == q.numerator and \
        isqrt(q.denominator) ** 2 == q.denominator


def fraction_sqrt(q: Fraction) -> Fraction:
    if not is_perfect_square(q):
        raise ExprError(f"{q} is not a perfect rational square")
    return Fraction(isqrt(q.numerator), isqrt(q.denominator))


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
# fraction field over kernel expressions
# ---------------------------------------------------------------------------

# Most terms in the numerator or the denominator of a ``FieldFrac``.  The
# largest element formed by an elimination that answers, in the tests, the
# classify benchmark and the report, has 182 terms; on the 5x4 matrices of
# ``tests/test_linalg.py::TestExpressionSwell`` that swell, elements pass
# 256 terms within 0.35 s and then grow past 1000 (Python 3.11, 2 cores).
_SWELL_BUDGET = 256


class ExpressionSwellError(ExprError):
    """A symbolic elimination refused: a field element outgrew the budget."""


class FieldFrac(Frozen):
    """num/den with kernel-expression parts; zero when the numerator is.

    No gcd reduction is attempted: the canonical zero test on numerators is
    all correctness needs, and ``_SWELL_BUDGET`` bounds the growth this
    allows, checked as each element is formed.  A rational denominator is
    folded into the numerator, leaving ``ONE``.  The ``f_*`` functions
    eliminate over this field whatever their entries are; rational rows
    take the integer loop through ``z_*`` and ``q_*``.
    """

    num: Expr
    den: Expr

    @staticmethod
    def of(v) -> "FieldFrac":
        """A number or an expression as a field element."""
        return FieldFrac(ex.as_expr(v), ex.ONE)

    def __post_init__(self):
        den = self.den.terms
        if not den:
            raise ex.DivisionByZero("zero denominator in field element")
        if len(den) == 1 and not den[0][1] and den[0][0] != 1:
            # a rational denominator goes into the numerator's coefficients,
            # which the kernel keeps reduced: rational rows then grow no
            # integers past their values
            object.__setattr__(self, "num", self.num * Fraction(1, den[0][0]))
            object.__setattr__(self, "den", ex.ONE)
        if max(len(self.num.terms), len(self.den.terms)) > _SWELL_BUDGET:
            raise ExpressionSwellError(
                f"expression swell: a symbolic elimination formed a field "
                f"element of more than {_SWELL_BUDGET} terms")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __add__(self, o: "FieldFrac") -> "FieldFrac":
        return FieldFrac(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o: "FieldFrac") -> "FieldFrac":
        return FieldFrac(self.num * o.den - o.num * self.den, self.den * o.den)

    def __mul__(self, o: "FieldFrac") -> "FieldFrac":
        return FieldFrac(self.num * o.num, self.den * o.den)

    def __neg__(self) -> "FieldFrac":
        return FieldFrac(-self.num, self.den)

    def __rtruediv__(self, o) -> "FieldFrac":
        """``o / self`` for a rational ``o``; ``1 / x`` is the inverse."""
        if self.is_zero:
            raise ex.DivisionByZero("division by zero field element")
        return FieldFrac(self.den * o, self.num)

    def to_expr(self) -> Expr:
        return ex.divide_exact(self.num, self.den)


_F_ZERO = FieldFrac.of(0)
_F_ONE = FieldFrac.of(1)


def f_rref(matrix) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form over the expression field, as sparse
    ``FieldFrac`` rows, of a matrix of numbers or expressions; ``matrix``
    rows are dense lists or sparse dicts."""
    return _rref(({c: FieldFrac.of(v) for c, v in _items(row) if v}
                  for row in matrix), _F_ONE)


def f_rank(matrix) -> int:
    """Rank over the expression field."""
    return len(f_rref(matrix)[1])


def f_solve_unique(matrix, rhss: list[list],
                   ncols: int | None = None) -> list[list | None]:
    """Unique solution of matrix * x = rhs over the expression field, for
    each rhs in ``rhss``, from one elimination of the matrix augmented by
    every right-hand side.

    Returns one ``FieldFrac`` solution per rhs, None for an inconsistent
    one; raises when the columns of the matrix are dependent.  Row
    operations keep the linear relations among columns, so the column of a
    consistent rhs reduces to its solution on the pivot rows of the matrix
    and is zero below them; an inconsistent one keeps an entry below them.
    Sparse rows need ``ncols``.
    """
    ncols = _width(matrix, ncols)
    rref, pivots = f_rref(_augmented(matrix, rhss, ncols))
    if pivots[:ncols] != list(range(ncols)):
        raise ExprError("basis is not linearly independent")
    top, below = rref[:ncols], rref[ncols:]
    return [None if any(c in row for row in below)
            else [row.get(c, _F_ZERO) for row in top]
            for c in range(ncols, ncols + len(rhss))]


def f_nullspace(matrix) -> list[list[Expr]]:
    """Right-nullspace basis over the expression field, one dense
    denominator-cleared expression vector per free column."""
    ncols = _width(matrix, None)
    return [_cleared(v) for v in _nullspace(*f_rref(matrix), ncols, _F_ZERO,
                                            _F_ONE)]


def f_row_basis(matrix) -> list[list[Expr]]:
    """Reduced echelon basis of the row space over the expression field,
    one dense denominator-cleared expression row per pivot."""
    ncols = _width(matrix, None)
    return [_cleared([row.get(c, _F_ZERO) for c in range(ncols)])
            for row in f_rref(matrix)[0]]


def _cleared(vec: list[FieldFrac]) -> list[Expr]:
    """The vector as expressions, times the product of its distinct
    non-rational denominators."""
    dens: list[Expr] = []
    for v in vec:
        if v and not v.den.is_rational and v.den not in dens:
            dens.append(v.den)
    mult = ex.ONE
    for d in dens:
        mult = mult * d
    return [ex.divide_exact(v.num * mult, v.den) for v in vec]
