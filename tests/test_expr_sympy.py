"""Independent normal-form oracle: multivariate division in sympy.

The kernel keeps values over Q(R, S, V, W)(omega, delta) canonical with the
rules omega^2 -> R^2 - 4*S and R*V*delta -> 1 - W*delta.  Their leading
monomials are coprime under grevlex, so the two polynomials
omega^2 - R^2 + 4*S and delta*(R*V + W) - 1 are a Groebner basis, and the
remainder of ``sympy.reduced`` by them is the unique normal form.  The
kernel's value of a monomial, and of a product of small expressions, must
be that remainder.  sympy is a test-time oracle only; the package does not
import it.
"""

import random

import pytest

sympy = pytest.importorskip("sympy")

from liepde import expr as ex  # noqa: E402

from conftest import random_fraction  # noqa: E402

NAMES = ("omega", "delta", "R", "S", "V", "W", "x")
SYMBOLS = {name: sympy.Symbol(name) for name in NAMES}
ATOMS = {name: ex.sym(name) for name in NAMES}
o, d, R, S, V, W = (SYMBOLS[n] for n in NAMES[:6])
BASIS = [o ** 2 - R ** 2 + 4 * S, d * (R * V + W) - 1]


def to_sympy(e):
    """A kernel value free of exponentials, jets and negative powers."""
    out = sympy.Integer(0)
    for c, fs in e.terms:
        term = sympy.Rational(c.numerator, c.denominator)
        for b, p in fs:
            term *= SYMBOLS[b.name] ** p
        out += term
    return out


def oracle(f):
    """The normal form of a sympy polynomial by the Groebner basis."""
    _, remainder = sympy.reduced(f, BASIS, *SYMBOLS.values(), order="grevlex")
    return sympy.expand(remainder)


def random_monomial(rng, top):
    """(kernel, sympy) pair of c * prod name^p with each p <= ``top[name]``."""
    c = random_fraction(rng)
    ours = ex.rational(c)
    theirs = sympy.Rational(c.numerator, c.denominator)
    for name, most in zip(NAMES, top):
        p = rng.randint(0, most)
        ours = ours * ATOMS[name] ** p
        theirs *= SYMBOLS[name] ** p
    return ours, theirs


def assert_normal(ours, theirs):
    assert sympy.expand(to_sympy(ours) - oracle(theirs)) == 0, theirs


@pytest.mark.parametrize("seed", range(4))
def test_monomials_are_in_normal_form(seed):
    rng = random.Random(seed)
    for _ in range(60):
        assert_normal(*random_monomial(rng, (7, 6, 7, 2, 7, 2, 2)))


@pytest.mark.parametrize("seed", range(4))
def test_products_of_small_expressions_are_in_normal_form(seed):
    rng = random.Random(100 + seed)
    for _ in range(10):
        sides = []
        for _ in range(2):
            ours, theirs = ex.ZERO, sympy.Integer(0)
            for _ in range(rng.randint(1, 3)):
                a, b = random_monomial(rng, (3, 2, 3, 1, 3, 1, 1))
                ours, theirs = ours + a, theirs + b
            sides.append((ours, theirs))
        (a, fa), (b, fb) = sides
        assert_normal(a * b, fa * fb)
