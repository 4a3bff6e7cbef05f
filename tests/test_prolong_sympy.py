"""Independent prolongation oracle: the characteristic formula in sympy.

eta^J = D_J(eta - sum_i xi^i u_i) + sum_i xi^i u_{J,i}, with jets as plain
sympy symbols and D_v = d/dv + sum_K u_{K+v} d/du_K.  ``prolong2`` and
``residual`` are compared with it on random polynomial generators by
evaluating both at random rational points.  sympy is a test-time oracle
only; the package does not import it.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

sympy = pytest.importorskip("sympy")

from liepde import expr as ex  # noqa: E402
from liepde.jet import EvolutionPDE  # noqa: E402
from liepde.parser import parse  # noqa: E402
from liepde.prolong import VectorField, prolong2, residual  # noqa: E402

from conftest import random_fraction  # noqa: E402

VARS = ("t", "x", "y")


def label(idx):
    idx = tuple(sorted(idx, key=VARS.index))
    return "u_" + "".join(idx) if idx else "u"


JET_SYMBOLS = {label(idx): sympy.Symbol(label(idx))
               for order in range(4)
               for idx in combinations_with_replacement(VARS, order)}
BASE_SYMBOLS = {v: sympy.Symbol(v) for v in VARS}


def total_derivative(f, v):
    out = sympy.diff(f, BASE_SYMBOLS[v])
    for order in range(3):
        for idx in combinations_with_replacement(VARS, order):
            out += JET_SYMBOLS[label(idx + (v,))] * sympy.diff(
                f, JET_SYMBOLS[label(idx)])
    return sympy.expand(out)


def oracle_eta(xi, eta, J):
    q = eta - sum(c * JET_SYMBOLS[label((v,))] for v, c in zip(VARS, xi))
    for v in J:
        q = total_derivative(q, v)
    return sympy.expand(q + sum(c * JET_SYMBOLS[label(J + (v,))]
                                for v, c in zip(VARS, xi)))


def random_polynomial(rng, variables=VARS):
    """(liepde, sympy) pair of one random polynomial in ``variables`` and u."""
    ours, theirs = ex.ZERO, sympy.Integer(0)
    for _ in range(rng.randint(1, 3)):
        c = random_fraction(rng)
        mono_ours, mono_theirs = ex.rational(c), sympy.Rational(c.numerator,
                                                                c.denominator)
        for _ in range(rng.randint(0, 2)):
            name = rng.choice(variables + ("u",))
            mono_ours = mono_ours * ex.sym(name)
            mono_theirs = mono_theirs * (JET_SYMBOLS["u"] if name == "u"
                                         else BASE_SYMBOLS[name])
        ours, theirs = ours + mono_ours, theirs + mono_theirs
    return ours, theirs


def random_generator(rng, variables=VARS):
    n = len(variables)
    pairs = [random_polynomial(rng, variables) for _ in range(n + 1)]
    vf = VectorField(variables, "u", tuple(p[0] for p in pairs[:n]), pairs[n][0])
    return vf, [p[1] for p in pairs[:n]], pairs[n][1]


def random_point(rng):
    point = {v: random_fraction(rng) for v in VARS}
    point.update({name: random_fraction(rng) for name in JET_SYMBOLS})
    point.update({"R": 5, "S": 4, "V": 1, "W": 1})
    return point


def oracle_value(e, point):
    value = e.subs({s: sympy.Rational(point[name].numerator,
                                      point[name].denominator)
                    for name, s in {**BASE_SYMBOLS, **JET_SYMBOLS}.items()})
    return Fraction(int(value.p), int(value.q))


@pytest.mark.parametrize("seed", range(4))
def test_prolong2_matches_oracle(seed):
    rng = random.Random(seed)
    vf, xi, eta = random_generator(rng)
    extended = prolong2(vf)
    points = [random_point(rng) for _ in range(3)]
    for J, ours in extended.items():
        theirs = oracle_eta(xi, eta, J)
        for point in points:
            assert ex.evaluate_rational(ours, point) == oracle_value(theirs, point)


def hpz_case(hpz, binding):
    # hpz at R=5, S=4, V=1, W=1
    pde = binding.apply_pde(hpz)
    u = JET_SYMBOLS
    x, y = BASE_SYMBOLS["x"], BASE_SYMBOLS["y"]
    rhs = (5 * u["u"] - x * u["u_y"] + 5 * x * u["u_x"] + 4 * y * u["u_x"]
           + u["u_xy"] + u["u_xx"])
    return pde, rhs


def t_dependent_case():
    # non-autonomous (1+1): dF/dt != 0, and a t-dependent xi^t changes
    # D_t xi^t, so both of those residual terms are exercised
    pde = EvolutionPDE(("t", "x"), "u", parse("t*u_xx + t^2*x*u_x + t*x*u"))
    u = JET_SYMBOLS
    t, x = BASE_SYMBOLS["t"], BASE_SYMBOLS["x"]
    rhs = t * u["u_xx"] + t ** 2 * x * u["u_x"] + t * x * u["u"]
    return pde, rhs


@pytest.mark.parametrize("case, seed", [
    *(pytest.param("hpz", seed, id=str(seed)) for seed in range(3)),
    pytest.param("t-dependent", 3, id="t-dependent"),
])
def test_residual_matches_oracle(case, seed, hpz, binding):
    # theta = F - u_t; the time jets u_t and u_ta (a spatial) are replaced
    # through the equation after prolonging
    pde, rhs = hpz_case(hpz, binding) if case == "hpz" else t_dependent_case()
    variables = pde.variables
    u = JET_SYMBOLS
    assert sympy.expand(sympy.sympify(ex.to_text(pde.rhs).replace("^", "**"),
                                      locals=JET_SYMBOLS)) == sympy.expand(rhs)
    theta = rhs - u["u_t"]
    rng = random.Random(100 + seed)
    vf, xi, eta = random_generator(rng, variables)
    theirs = sum(c * sympy.diff(theta, BASE_SYMBOLS[v])
                 for v, c in zip(variables, xi))
    theirs += eta * sympy.diff(theta, u["u"])
    for order in (1, 2):
        for J in combinations_with_replacement(variables, order):
            d = sympy.diff(theta, u[label(J)])
            if d != 0:
                theirs += oracle_eta(xi, eta, J) * d
    theirs = sympy.expand(theirs).subs(
        {u["u_t"]: rhs} | {u[label(("t", v))]: total_derivative(rhs, v)
                           for v in variables[1:]})
    theirs = sympy.expand(theirs)
    assert not {s.name for s in theirs.free_symbols if "t" in s.name[2:]}
    ours = residual(vf, pde)
    for _ in range(3):
        point = random_point(rng)
        assert ex.evaluate_rational(ours, point) == oracle_value(theirs, point)
