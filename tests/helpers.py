"""Test-only references: exact evaluation of kernel expressions at rational
points, the independent oracle of the canonical-form tests, and the named
coefficient functions of the published hpz basis."""

from fractions import Fraction

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
