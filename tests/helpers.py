"""Test-only references: exact evaluation of kernel expressions at rational
points, the independent oracle of the canonical-form tests, the named
coefficient functions of the published hpz basis, and rational roots by
divisor enumeration."""

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
