"""Characteristic-polynomial and rational-root oracles from sympy.

Discovery completes the determining system ``A g + B g' = 0`` to
``z' = M z`` and reads every exponent and multiplicity off
``charpoly(M)``, computed by Hessenberg reduction of ``M``.
sympy computes the same polynomial independently, and its roots are
compared with the known exponents.  The exponents are the rational roots
``rational_roots`` finds by Sturm counts; sympy's factorisation over Q
gives them independently, on seeded polynomials with large coefficients.
sympy is a test-time oracle only; the package does not import it.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from liepde import expr as ex  # noqa: E402
from liepde.jet import EvolutionPDE, get_equation  # noqa: E402
from liepde.linalg import charpoly, p_mul, rational_roots  # noqa: E402
from liepde.solver import Binding, _completion  # noqa: E402

from conftest import determining_dae  # noqa: E402

I = sympy.I
# (equation, binding, roots of charpoly(M) with multiplicities)
CASES = [
    ("hpz", "R=5,S=4,V=1,W=1", {0: 2, 1: 1, -1: 1, 4: 1, -4: 1}),
    ("hpz", "R=-4,S=3,V=0,W=1", {0: 2, 1: 1, -1: 1, 2: 1, -2: 1, 3: 1, -3: 1}),
    ("heat", "", {0: 6}),
    # u_xx + x^2*u, point-equivalent to heat with imaginary exponents
    ("x2u", "", {0: 2, 2 * I: 1, -2 * I: 1, 4 * I: 1, -4 * I: 1}),
]


def _equation(name):
    if name == "x2u":
        return EvolutionPDE(("t", "x"), "u",
                            ex.jet("u", "xx") + ex.X ** 2 * ex.jet("u", ""))
    return get_equation(name)


@pytest.mark.parametrize("name, params, roots", CASES,
                         ids=[f"{c[0]}-{c[1] or 'unbound'}" for c in CASES])
def test_charpoly_matches_sympy(name, params, roots):
    m = _completion(*determining_dae(_equation(name), Binding.parse(params)))
    lam = sympy.Symbol("lambda")
    oracle = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                            for v in row] for row in m]).charpoly(lam)
    ours = [sympy.Rational(c.numerator, c.denominator)
            for c in reversed(charpoly(m))]
    assert ours == oracle.all_coeffs()
    assert sympy.roots(oracle.as_expr(), lam) == roots


def _big_fraction(rng) -> Fraction:
    return Fraction(rng.randint(-10 ** 15, 10 ** 15), rng.randint(1, 10 ** 9))


@pytest.mark.parametrize("seed", range(4))
def test_rational_roots_match_sympy(seed):
    # products of roots with 15-digit numerators and 9-digit denominators,
    # 0 and repeats among them, and quadratics of 15-digit coefficients,
    # whose roots are mostly irrational or complex
    rng = random.Random(seed)
    x = sympy.Symbol("x")
    for _ in range(25):
        p = (_big_fraction(rng) or Fraction(1),)
        for _ in range(rng.randint(0, 4)):
            kind = rng.random()
            if kind < 0.1:
                f = (Fraction(0), Fraction(1))
            elif kind < 0.6:
                f = (-_big_fraction(rng), Fraction(1))
            else:
                f = (_big_fraction(rng), _big_fraction(rng), Fraction(1))
            p = p_mul(p, f)
            if rng.random() < 0.2:
                p = p_mul(p, f)
        poly = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                   for i, c in enumerate(p))
        linear = [sympy.Poly(factor, x).all_coeffs()
                  for factor, _ in sympy.factor_list(poly)[1]
                  if sympy.degree(factor, x) == 1]
        oracle = sorted(-b / a for a, b in linear)
        assert [sympy.Rational(r.numerator, r.denominator)
                for r in rational_roots(p)] == oracle, p
