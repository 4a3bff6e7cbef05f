"""Characteristic-polynomial oracle: sympy's charpoly of the completed DAE.

Discovery completes the determining system ``A g + B g' = 0`` to
``z' = M z`` and reads every exponent and multiplicity off
``charpoly(M)``, computed by fraction-free elimination of ``lam*I - M``.
sympy computes the same polynomial independently, and its roots are
compared with the known exponents.  sympy is a test-time oracle only; the
package does not import it.
"""

import pytest

sympy = pytest.importorskip("sympy")

from liepde import expr as ex  # noqa: E402
from liepde.jet import EvolutionPDE, get_equation  # noqa: E402
from liepde.linalg import charpoly  # noqa: E402
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
