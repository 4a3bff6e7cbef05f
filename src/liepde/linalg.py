"""Exact linear algebra: rationals, univariate polynomials, symbolic fields.

Three layers, all division-safe and floating-point free:

* matrices over ``Fraction``: one sparse Gauss-Jordan elimination over
  ``{column: value}`` rows (dense lists are accepted and converted) gives
  the reduced echelon form behind rank, nullspace and solve, and
  determinants are fraction-free (Bareiss) eliminations over the integers
  after clearing one common denominator;
* univariate polynomials over ``Fraction`` used for matrix pencils --
  fraction-free Bareiss elimination collects the pivot polynomials whose
  roots are the only places the pencil can lose rank, the Gram determinant
  of the pencil is interpolated from integer-Bareiss determinants at
  integer nodes, and rational roots are extracted exactly with a
  Sturm-chain guard against silently missed irrational eigenvalues;
* the fraction field over kernel expressions (pairs num/den compared by
  cross-multiplication, no gcd needed at these sizes), for solving and
  nullspaces with symbolic parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from . import expr as ex
from .expr import Expr, ExprError

__all__ = [
    "q_rref", "q_rank", "q_nullspace", "q_solve",
    "Poly", "p_trim", "p_add", "p_mul", "p_eval", "p_div_exact",
    "p_derivative", "sturm_root_count", "rational_roots", "RootExtractionError",
    "pencil_pivots", "FieldFrac", "f_solve_unique", "f_rank", "f_nullspace",
]


# ---------------------------------------------------------------------------
# rational matrices
# ---------------------------------------------------------------------------

Row = dict[int, Fraction]


def _sparse(row) -> Row:
    """A dense list or a ``{column: value}`` dict as a dict of its nonzeros."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    return {c: Fraction(v) for c, v in items if v}


def _width(rows, ncols: int | None) -> int:
    if ncols is not None:
        return ncols
    if rows and isinstance(rows[0], dict):
        raise ValueError("sparse rows need an explicit column count")
    return len(rows[0]) if rows else 0


def q_rref(rows) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form as sparse rows, and the pivot column list.

    ``rows`` are dense lists or sparse ``{column: value}`` dicts.  Rows are
    reduced one at a time against the pivot rows found so far; a surviving
    row is scaled to a unit pivot at its leftmost nonzero column, which is
    then cleared from the earlier pivot rows.  The result is the unique
    reduced echelon basis of the row space, one row per pivot in column
    order, each holding only its nonzero entries.
    """
    basis: dict[int, Row] = {}   # pivot column -> its reduced row
    for raw in rows:
        row = _sparse(raw)
        # pivot rows are zero in every other pivot column, so one pass over
        # the pivot columns the row starts with clears them all
        for c in [c for c in row if c in basis]:
            f = row.pop(c)
            for j, v in basis[c].items():
                if j != c:
                    w = row.get(j, 0) - f * v
                    if w:
                        row[j] = w
                    else:
                        row.pop(j, None)
        if not row:
            continue
        pc = min(row)
        inv = 1 / row[pc]
        row = {j: v * inv for j, v in row.items()}
        for other in basis.values():
            f = other.pop(pc, None)
            if f is not None:
                for j, v in row.items():
                    if j != pc:
                        w = other.get(j, 0) - f * v
                        if w:
                            other[j] = w
                        else:
                            other.pop(j, None)
        basis[pc] = row
    pivots = sorted(basis)
    return [basis[c] for c in pivots], pivots


def q_rank(rows) -> int:
    return len(q_rref(rows)[1])


def q_nullspace(rows, ncols: int | None = None) -> list[list[Fraction]]:
    """Basis of the right nullspace, one vector per free column.

    ``rows`` are dense lists or sparse dicts; sparse rows need ``ncols``.
    The vectors are dense and come in free-column order.
    """
    ncols = _width(rows, ncols)
    rref, pivots = q_rref(rows)
    is_pivot = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in is_pivot:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rref, pivots):
            if fc in row:
                v[pc] = -row[fc]
        basis.append(v)
    return basis


def q_solve(rows, rhs: list[Fraction],
            ncols: int | None = None) -> list[Fraction] | None:
    """Unique solution of rows * x = rhs, or None when inconsistent.

    ``rows`` are dense lists or sparse dicts; sparse rows need ``ncols``.
    Raises on an underdetermined consistent system.
    """
    if not rows:
        return []
    ncols = _width(rows, ncols)
    aug = []
    for row, b in zip(rows, rhs):
        row = _sparse(row)
        if b:
            row[ncols] = Fraction(b)
        aug.append(row)
    rref, pivots = q_rref(aug)
    if ncols in pivots:
        return None
    if len(pivots) < ncols:
        raise ExprError("underdetermined linear system")
    return [row.get(ncols, Fraction(0)) for row in rref]


# ---------------------------------------------------------------------------
# univariate polynomials over Q (coefficient tuples, lowest degree first)
# ---------------------------------------------------------------------------

Poly = tuple[Fraction, ...]


class RootExtractionError(ExprError):
    """Eigenvalue extraction failed or found non-rational real exponents."""


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


def p_derivative(a: Poly) -> Poly:
    return p_trim([a[i] * i for i in range(1, len(a))])


def _p_gcd(a: Poly, b: Poly) -> Poly:
    while b:
        a, b = b, p_divmod(a, b)[1]
    if not a:
        return ()
    return p_scale(a, 1 / a[-1])


def _sign_changes(values: list[Fraction]) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for i in range(len(signs) - 1)
               if (signs[i] > 0) != (signs[i + 1] > 0))


def sturm_root_count(p: Poly) -> int:
    """Number of distinct real roots (Sturm chain over the whole line)."""
    if len(p) <= 1:
        return 0
    p0 = p_div_exact(p, _p_gcd(p, p_derivative(p)))  # squarefree part
    chain = [p0, p_derivative(p0)]
    while chain[-1]:
        rem = p_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(p_scale(rem, Fraction(-1)))
    at_minus = []
    at_plus = []
    for q in chain:
        if not q:
            continue
        lead = q[-1]
        deg = len(q) - 1
        at_plus.append(lead)
        at_minus.append(lead if deg % 2 == 0 else -lead)
    return _sign_changes(at_minus) - _sign_changes(at_plus)


def _divisors(n: int, budget: int = 1_000_000) -> list[int] | None:
    """All positive divisors of |n|, or None when factoring exceeds budget."""
    n = abs(n)
    if n == 0:
        return None
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        if d > budget:
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


def rational_roots(p: Poly, strict: bool = True) -> list[Fraction]:
    """All rational roots, exactly.

    With ``strict`` (the default), raises :class:`RootExtractionError` if
    real non-rational roots remain (or could remain because integer
    factorisation exceeded its budget).  Non-strict mode returns whatever
    was found, for polynomials that are only candidate supersets.
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
    denlcm = 1
    for c in cur:
        denlcm = denlcm * c.denominator // _gcd(denlcm, c.denominator)
    ints = [int(c * denlcm) for c in cur]
    g = 0
    for c in ints:
        g = _gcd(g, c)
    ints = [c // g for c in ints]
    a0, an = ints[0], ints[-1]
    ds0, dsn = _divisors(a0), _divisors(an)
    incomplete = ds0 is None or dsn is None
    work = tuple(Fraction(c) for c in ints)
    if not incomplete:
        cands = sorted({Fraction(s * pp, qq) for pp in ds0 for qq in dsn
                        for s in (1, -1)})
        for cand in cands:
            while len(work) > 1 and p_eval(work, cand) == 0:
                roots.append(cand)
                work = p_div_exact(work, (-cand, Fraction(1)))
    if strict and len(work) > 1 and sturm_root_count(work) > 0:
        raise RootExtractionError(
            "the exponent polynomial has real non-rational roots; choose "
            "parameters whose discriminant R^2 - 4*S is a perfect rational "
            "square" if not incomplete else
            "integer factorisation budget exceeded while extracting exponents")
    return sorted(set(roots))


def _gcd(a: int, b: int) -> int:
    a, b = abs(a), abs(b)
    while b:
        a, b = b, a % b
    return a


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


def q_det(rows: list[list[Fraction]]) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) integer elimination.

    The entries are first scaled by their common denominator ``d``, so every
    Bareiss division is an exact integer division; the determinant is the
    integer one divided by ``d**n``.
    """
    n = len(rows)
    rows = [[Fraction(v) for v in row] for row in rows]
    den = lcm(1, *(v.denominator for row in rows for v in row))
    m = [[v.numerator * (den // v.denominator) for v in row] for row in rows]
    sign, prev = 1, 1
    for k in range(n):
        pr = next((i for i in range(k, n) if m[i][k]), None)
        if pr is None:
            return Fraction(0)
        if pr != k:
            m[k], m[pr] = m[pr], m[k]
            sign = -sign
        top = m[k]
        piv = top[k]
        for i in range(k + 1, n):
            row = m[i]
            head = row[k]
            for j in range(k + 1, n):
                row[j] = (piv * row[j] - head * top[j]) // prev
        prev = piv
    return Fraction(sign * prev, den ** n)


def pencil_gram_poly(a_rows: list[list[Fraction]],
                     b_rows: list[list[Fraction]]) -> Poly:
    """det((A + t*B)^T (A + t*B)) as an exact polynomial, by interpolation.

    Its real roots are exactly the real values where the pencil loses column
    rank, so it certifies that a candidate exponent set is complete.  One
    common denominator ``d`` makes ``A`` and ``B`` integer; the Gram matrix
    is then ``G0 + t*G1 + t^2*G2`` with ``G0 = A^T A``,
    ``G1 = A^T B + B^T A`` and ``G2 = B^T B`` formed once, and each of the
    ``2n + 1`` integer nodes takes an integer determinant, divided by
    ``d^(2n)``.
    """
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if nrows else 0
    d = lcm(1, *(Fraction(v).denominator
                 for rows in (a_rows, b_rows) for row in rows for v in row))
    a = [[int(v * d) for v in row] for row in a_rows]
    b = [[int(v * d) for v in row] for row in b_rows]

    def cross(x, y):
        return [[sum(x[i][p] * y[i][q] for i in range(nrows))
                 for q in range(ncols)] for p in range(ncols)]

    g0 = cross(a, a)
    ab = cross(a, b)
    g1 = [[ab[p][q] + ab[q][p] for q in range(ncols)] for p in range(ncols)]
    g2 = cross(b, b)
    degree = 2 * ncols
    samples = []
    k = 0
    while len(samples) < degree + 1:
        samples.append(k)
        if k > 0:
            samples.append(-k)
        k += 1
    samples = samples[:degree + 1]
    scale = d ** degree
    values = []
    for lam in samples:
        gram = [[c0 + lam * (c1 + lam * c2) for c0, c1, c2 in zip(r0, r1, r2)]
                for r0, r1, r2 in zip(g0, g1, g2)]
        values.append(q_det(gram) / scale)
    return _lagrange([Fraction(lam) for lam in samples], values)


def _lagrange(xs: list[Fraction], ys: list[Fraction]) -> Poly:
    """The interpolating polynomial through distinct nodes ``xs``.

    Each Lagrange basis numerator is the node polynomial prod (x - x_j),
    formed once, divided exactly by its own factor (x - x_i).
    """
    nodes: Poly = (Fraction(1),)
    for xj in xs:
        nodes = p_mul(nodes, (-xj, Fraction(1)))
    out = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi == 0:
            continue
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                den *= xi - xj
        scale = yi / den
        for k, c in enumerate(p_div_exact(nodes, (-xi, Fraction(1)))):
            out[k] += c * scale
    return p_trim(out)


# ---------------------------------------------------------------------------
# fraction field over kernel expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FieldFrac:
    """num/den with kernel-expression parts; equality by cross-multiplication.

    No gcd reduction is attempted; the systems solved here are tiny and the
    canonical zero test on numerators is all correctness needs.
    """

    num: Expr
    den: Expr

    @staticmethod
    def of(v) -> "FieldFrac":
        if isinstance(v, FieldFrac):
            return v
        return FieldFrac(ex.as_expr(v), ex.ONE)

    def __post_init__(self):
        if self.den.is_zero:
            raise ex.DivisionByZero("zero denominator in field element")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def add(self, o: "FieldFrac") -> "FieldFrac":
        return FieldFrac(self.num * o.den + o.num * self.den, self.den * o.den)

    def sub(self, o: "FieldFrac") -> "FieldFrac":
        return FieldFrac(self.num * o.den - o.num * self.den, self.den * o.den)

    def mul(self, o: "FieldFrac") -> "FieldFrac":
        return FieldFrac(self.num * o.num, self.den * o.den)

    def div(self, o: "FieldFrac") -> "FieldFrac":
        if o.is_zero:
            raise ex.DivisionByZero("division by zero field element")
        return FieldFrac(self.num * o.den, self.den * o.num)

    def to_expr(self) -> Expr:
        return ex.divide_exact(self.num, self.den)


def f_solve_unique(matrix: list[list[Expr]], rhs: list[Expr]) -> list[FieldFrac] | None:
    """Unique solution of an (over)determined system over the expression field.

    Returns None when inconsistent; raises when the columns are dependent.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [[FieldFrac.of(matrix[i][j]) for j in range(ncols)] + [FieldFrac.of(rhs[i])]
           for i in range(nrows)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if not aug[i][c].is_zero), None)
        if pr is None:
            raise ExprError("dependent columns: basis is not linearly independent")
        aug[r], aug[pr] = aug[pr], aug[r]
        piv = aug[r][c]
        aug[r] = [v.div(piv) for v in aug[r]]
        for i in range(nrows):
            if i != r and not aug[i][c].is_zero:
                f = aug[i][c]
                aug[i] = [a.sub(f.mul(b)) for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    if len(pivots) < ncols:
        raise ExprError("dependent columns: basis is not linearly independent")
    for i in range(len(pivots), nrows):
        if not aug[i][ncols].is_zero:
            return None
    return [aug[r][ncols] for r in range(ncols)]


def f_rank(matrix: list[list[Expr]]) -> int:
    """Rank over the expression field via division-free cross-multiplication."""
    m = [[ex.as_expr(v) for v in row] for row in matrix]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank = 0
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if not m[i][c].is_zero), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            if not m[i][c].is_zero:
                f = m[i][c]
                m[i] = [piv * a - f * b for a, b in zip(m[i], m[r])]
        rank += 1
        r += 1
        if r == nrows:
            break
    return rank


def f_nullspace(matrix: list[list[Expr]]) -> list[list[Expr]]:
    """Right-nullspace basis with denominator-cleared expression entries."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    m = [[FieldFrac.of(v) for v in row] for row in matrix]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if not m[i][c].is_zero), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [v.div(piv) for v in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero:
                f = m[i][c]
                m[i] = [a.sub(f.mul(b)) for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[list[Expr]] = []
    for fc in free:
        vec = [FieldFrac.of(0)] * ncols
        vec[fc] = FieldFrac.of(1)
        for row, pc in enumerate(pivots):
            vec[pc] = FieldFrac(ex.ZERO, ex.ONE).sub(m[row][fc])
        # clear denominators: multiply through by the distinct denominators
        dens: list[Expr] = []
        for v in vec:
            if not v.is_zero and not v.den.is_rational and v.den not in dens:
                dens.append(v.den)
        mult = ex.ONE
        for d in dens:
            mult = mult * d
        cleared = []
        for v in vec:
            cleared.append(ex.divide_exact(v.num * mult, v.den))
        basis.append(cleared)
    return basis
