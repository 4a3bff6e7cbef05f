"""sympy oracles for classification: inertia, Killing matrix, centre,
derived algebra and structure constants.

``linalg.inertia`` reads the signature of a symmetric rational matrix off
its characteristic polynomial by Descartes' rule of signs.  sympy computes
the characteristic polynomial independently and counts its positive and
negative roots with Sturm sequences (``Poly.count_roots``), so the oracle
shares neither the polynomial nor the counting rule with the code.

For the heat, reduced-3.2 and bound hpz bases, sympy builds the adjoint
matrices ad(e_i) from liepde's structure-constant tensor and computes the
Killing matrix tr(ad_i ad_j), the dimension of the centre (the common
kernel of every ad(e_j)) and that of the derived algebra (the span of
every ad(e_i) e_j) by its own matrix arithmetic and ranks; liepde reads
them off the tensor.  For seeded triangular mixes of the bound hpz, heat
and reduced-3.2 bases, whose tensors liepde computes over the integers,
sympy forms every commutator by differentiation and solves its expansion
in the basis on its own.  sympy is a test-time oracle only; the package
does not import it.
"""

import random
from fractions import Fraction as Fr
from itertools import combinations

import pytest

sympy = pytest.importorskip("sympy")

from liepde import expr as ex  # noqa: E402
from liepde.algebra import (_center, _coordinate_brackets,  # noqa: E402
                            _derived_space, _killing_matrix,
                            structure_constants)
from liepde.fixtures import known_basis  # noqa: E402
from liepde.jet import get_equation, make_heat  # noqa: E402
from liepde.linalg import inertia  # noqa: E402
from liepde.solver import Binding, solve_determining  # noqa: E402


def _symmetric(rng, n):
    k = [[Fr(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.7:
                k[i][j] = k[j][i] = Fr(rng.randint(-4, 4), rng.randint(1, 3))
    return k


def _low_rank(rng, n):
    """B^T D B with B of r < n rows: rank at most r."""
    r = rng.randint(0, n - 1)
    b = [[Fr(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(n)]
         for _ in range(r)]
    d = [Fr(rng.choice([-3, -1, 1, 2])) for _ in range(r)]
    return [[sum((b[l][i] * d[l] * b[l][j] for l in range(r)), Fr(0))
             for j in range(n)] for i in range(n)]


def _repeated_diagonal(rng, n):
    """A diagonal with repeated entries, zero among them, so every root
    count needs multiplicities."""
    values = [Fr(rng.choice([-2, 0, 1, 3])) for _ in range(n)]
    return [[values[i] if i == j else Fr(0) for j in range(n)]
            for i in range(n)]


def _sympy_matrix(k):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                          for v in row] for row in k])


def _oracle(k):
    """(positive, negative, zero) from sympy's charpoly and Sturm counts.

    The root 0 is divided out first; each square-free factor's positive
    and negative roots are counted and weighted by its multiplicity, since
    a Sturm sequence counts distinct roots.
    """
    lam = sympy.Symbol("lambda")
    coeffs = _sympy_matrix(k).charpoly(lam).all_coeffs()
    zero = 0
    while coeffs[-1] == 0:
        coeffs.pop()
        zero += 1
    pos = neg = 0
    for factor, mult in sympy.Poly(coeffs, lam).sqf_list()[1]:
        pos += mult * factor.count_roots(0, None)
        neg += mult * factor.count_roots(None, 0)
    return pos, neg, zero


MAKERS = {"full": _symmetric, "low-rank": _low_rank,
          "repeated": _repeated_diagonal}


@pytest.mark.parametrize("kind", sorted(MAKERS))
@pytest.mark.parametrize("seed", range(10))
def test_inertia_matches_sympy(kind, seed):
    rng = random.Random(seed)
    for _ in range(4):
        n = rng.randint(1, 6)
        k = MAKERS[kind](rng, n)
        expected = _oracle(k)
        assert sum(expected) == n      # symmetric: every root is real
        assert inertia(k) == expected



def _basis(name):
    binding = Binding.parse("R=5,S=4,V=1,W=1")
    if name == "heat":
        return solve_determining(make_heat()).fields
    if name == "reduced-3.2":
        return solve_determining(get_equation(name), binding).fields
    return [binding.apply_field(f) for f in known_basis()]


def _rational(c):
    c = Fr(c)
    return sympy.Rational(c.numerator, c.denominator)


@pytest.mark.parametrize("name", ["heat", "reduced-3.2", "hpz"])
def test_killing_centre_and_derived_match_sympy(name):
    pres = structure_constants(_basis(name))
    c, n = pres.constants, pres.dimension
    # ad(e_i) e_j = [e_i, e_j] = sum_k c_ij^k e_k: column j of ad(e_i)
    ad = [sympy.Matrix(n, n, lambda k, j: _rational(c[i][j][k]))
          for i in range(n)]
    killing = sympy.Matrix(n, n, lambda i, j: (ad[i] * ad[j]).trace())
    assert sympy.Matrix(n, n, lambda i, j: _rational(
        _killing_matrix(pres)[i][j])) == killing
    stacked, brackets = sympy.Matrix.vstack(*ad), sympy.Matrix.hstack(*ad)
    center = [sympy.Matrix([_rational(v) for v in z]) for z in _center(pres)]
    assert len(center) == n - stacked.rank()
    assert all((stacked * z).is_zero_matrix for z in center)
    derived = [sympy.Matrix([_rational(v) for v in d])
               for d in _derived_space(pres)]
    assert len(derived) == brackets.rank()
    assert sympy.Matrix.hstack(brackets, *derived).rank() == brackets.rank()


NAMES = ("t", "x", "y", "u", "R", "S", "V", "W", "omega")
SYMBOLS = {name: sympy.Symbol(name) for name in NAMES}


def _sympy(e):
    """A kernel expression in sympy, through its rendered text."""
    return sympy.sympify(ex.to_text(e).replace("^", "**"), locals=SYMBOLS)


def _sympy_bracket(xs, ys, wrt):
    """[X, Y]^k = sum_v X^v d_v Y^k - Y^v d_v X^k."""
    return [sum(a * sympy.diff(q, v) - b * sympy.diff(p, v)
                for a, b, v in zip(xs, ys, wrt)) for p, q in zip(xs, ys)]


def _vanishes(e):
    """Zero once omega^2 = R^2 - 4S, which the kernel applies, is used."""
    s = SYMBOLS
    e = e.subs(s["S"], (s["R"] ** 2 - s["omega"] ** 2) / 4)
    return sympy.simplify(sympy.powsimp(sympy.expand(e))) == 0


@pytest.mark.parametrize("name", ["hpz", "heat"])
def test_coordinate_brackets_match_sympy(name):
    fields = (tuple(known_basis()) if name == "hpz"
              else tuple(solve_determining(make_heat()).fields))
    # rational rows are integer rows standing for row / scale
    monomials, rows, scales = _coordinate_brackets(fields)
    wrt = [SYMBOLS[v] for v in fields[0].variables] + [SYMBOLS["u"]]
    theirs = [[_sympy(c) for c in f.coefficients()] for f in fields]
    n = len(fields)
    scales = scales or [1] * len(rows)
    for (i, j), row, scale in zip(combinations(range(n), 2), rows[n:],
                                  scales[n:]):
        ours = [sympy.Integer(0)] * len(wrt)
        for r, value in row.items():
            slot, monomial = monomials[r]
            ours[slot] += _sympy(ex.as_expr(value)
                                 * ex.Expr(((Fr(1) / scale, monomial),)))
        expected = _sympy_bracket(theirs[i], theirs[j], wrt)
        assert all(_vanishes(a - b) for a, b in zip(ours, expected)), (i, j)


def _triangular_mix(rng, fields):
    """Each field scaled, plus a rational multiple of one earlier field."""
    out = []
    for i, field in enumerate(fields):
        mixed = field.scaled(Fr(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)))
        if i:
            other = fields[rng.randrange(i)]
            mixed = mixed.plus(other.scaled(Fr(rng.randint(-3, 3), 2)))
        out.append(mixed)
    return out


def _expansion_in_sympy(theirs, bracket, unknowns):
    """The unique c with sum_k c_k X_k = bracket, solved by sympy: every
    slot is expanded, its exponentials combined, and the coefficient of
    each distinct monomial of the variables and exp(...) in each slot set
    to zero."""
    equations: dict = {}
    for slot, target in enumerate(bracket):
        e = sum(c * x[slot] for c, x in zip(unknowns, theirs)) - target
        for term in sympy.Add.make_args(sympy.powsimp(sympy.expand(e))):
            coeff, monomial = term.as_independent(*unknowns, as_Add=False)
            number, monomial = coeff.as_coeff_Mul()
            key = slot, monomial
            equations[key] = equations.get(key, 0) + number * term / coeff
    [solution] = sympy.linsolve(list(equations.values()), unknowns)
    assert not solution.free_symbols
    return solution


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", ["hpz", "heat", "reduced-3.2"])
def test_integer_tensor_matches_sympy_expansion(name, seed):
    # the bound hpz, heat and reduced bases have rational coordinates, so
    # structure_constants forms their brackets, solve and re-check over the
    # integers; sympy forms each commutator by differentiation and solves
    # its expansion on its own
    fields = _triangular_mix(random.Random(seed), _basis(name))
    assert _coordinate_brackets(tuple(fields))[2] is not None
    pres = structure_constants(fields)
    wrt = [sympy.Symbol(v) for v in (*fields[0].variables, fields[0].dependent)]
    theirs = [[_sympy(c) for c in f.coefficients()] for f in fields]
    unknowns = sympy.symbols(f"c0:{len(fields)}")
    for i, j in combinations(range(len(fields)), 2):
        bracket = _sympy_bracket(theirs[i], theirs[j], wrt)
        expected = _expansion_in_sympy(theirs, bracket, unknowns)
        assert [_rational(c) for c in pres.constants[i][j]] == list(expected)
