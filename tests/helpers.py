"""Test-only references: exact evaluation of kernel expressions at rational
points, the independent oracle of the canonical-form tests, the named
coefficient functions of the published hpz basis, rational roots by
divisor enumeration, and the sparse Gauss-Jordan loop over a field that
``linalg.f_rref`` must reproduce element for element."""

from fractions import Fraction
from math import isqrt, lcm

from liepde import fixtures as fx
from liepde.expr import DivisionByZero, ExpFactor, ExprError, base_label


def evaluate(e, binding) -> dict:
    """Exact evaluation at rational points.

    Exponentials stay formal: the result maps each exponent q (a rational)
    to the rational coefficient of exp(q); distinct exponents are linearly
    independent, so the dict is zero iff it is empty.  Binding keys are the
    rendered labels of atoms, jets and t-functions (e.g. ``"u_xx"``, ``"a'"``).
    """
    out: dict[Fraction, Fraction] = {}
    for c, fs in e.terms:
        val = Fraction(c)
        expo = Fraction(0)
        for b, p in fs:
            if isinstance(b, ExpFactor):
                inner = evaluate(b.arg, binding)
                if any(k != 0 for k in inner):
                    raise ExprError("nested exponential cannot be evaluated")
                expo += p * inner.get(Fraction(0), Fraction(0))
                continue
            label = base_label(b)
            if label not in binding:
                raise ExprError(f"no value bound for {label!r}")
            bv = Fraction(binding[label])
            if bv == 0 and p < 0:
                raise DivisionByZero(f"{label!r} bound to zero and inverted")
            val *= bv ** p
        out[expo] = out.get(expo, Fraction(0)) + val
        if out[expo] == 0:
            del out[expo]
    return out


def evaluate_rational(e, binding) -> Fraction:
    val = evaluate(e, binding)
    if any(k != 0 for k in val):
        raise ExprError("value involves a non-trivial exponential")
    return val.get(Fraction(0), Fraction(0))


def coefficient_functions() -> dict:
    """The coefficient functions of the published basis by name; delta
    stands for (R*V+W)^-1."""
    return {"A1": fx._A1, "A2": fx._A2, "B1": fx._B1, "B2": fx._B2,
            "C": fx._C, "C1": fx._C1, "C2": fx._C2, "C3": fx._C3,
            "C4": fx._C4, "E": fx._E, "E1": fx._E1, "E2": fx._E2,
            "E3": fx._E3, "E4": fx._E4}


def divisor_roots(p) -> list[Fraction]:
    """The distinct rational roots of a polynomial over Q (coefficients
    lowest degree first), in increasing order, by the rational root
    theorem: 0 when low coefficients vanish, and each +-a/b that is a root,
    for a dividing the lowest nonzero coefficient and b the leading one of
    the primitive integer form.  The reference for
    ``linalg.rational_roots``; trial division keeps it to small
    coefficients."""
    cs = [Fraction(c) for c in p]
    while cs and not cs[-1]:
        cs.pop()
    if len(cs) <= 1:
        return []
    low = next(i for i, c in enumerate(cs) if c)
    cs = cs[low:]
    den = lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    n = len(ints) - 1
    roots = {Fraction(0)} if low else set()
    for a in _divisors(ints[0]):
        for b in _divisors(ints[-1]):
            for s in (a, -a):
                # b^n times the value at s/b
                if not sum(c * s ** i * b ** (n - i)
                           for i, c in enumerate(ints)):
                    roots.add(Fraction(s, b))
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    """The positive divisors of |n| > 0, by trial division."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


def field_rref(rows, one) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of sparse rows over an exact field.

    ``rows`` yields fresh ``{column: value}`` dicts of nonzero entries, which
    are consumed.  The entries need ``-``, ``*``, ``1/x``, negation and a
    truth value that is false exactly at zero; ``one`` is the field's unit.
    Rows are reduced one at a time against the pivot rows found so far; a
    surviving row is scaled to a unit pivot at its leftmost nonzero column,
    which is then cleared from the earlier pivot rows.  The result is the
    unique reduced echelon basis of the row space, one row per pivot in
    column order, each holding only its nonzero entries.  Over
    ``FieldFrac`` it is the reference for ``linalg.f_rref``, which must do
    these field operations in this order: every num/den it forms, and the
    key order of every row, are compared with this loop's.
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
