"""Kernel invariants behind the canonical forms: the base order, the zero and
scalar fast paths of ``*`` and ``+``, the fast paths of ``partial`` and
``subst_many``, the coefficient types, and the hash/equality contract."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from liepde import expr as ex
from liepde.expr import (
    DELTA, OMEGA, ONE, R, S, T, U, V, W, X, Y, ZERO, Atom, DivisionByZero,
    ExpFactor, Jet, TFun, exp_of, jet, rational, sym, tfun,
)
from liepde.jet import get_equation
from liepde.parser import parse, render
from liepde.prolong import VectorField, residual

from conftest import random_fraction


# -- reference order ---------------------------------------------------------
# The base order as a separate key function, as the kernel defined it before
# bases became their own sort keys.  Every rendered byte depends on it.

_PARAM_INDEX = {n: i for i, n in enumerate(ex.PARAMETER_NAMES)}
_VAR_INDEX = {n: i for i, n in enumerate(ex.VARIABLE_NAMES)}
_DEP_INDEX = {n: i for i, n in enumerate(ex.DEPENDENT_NAMES)}


def reference_base_key(b) -> tuple:
    if isinstance(b, Atom):
        if b.name in _PARAM_INDEX:
            return (0, "", (_PARAM_INDEX[b.name],), ())
        if b.name in _VAR_INDEX:
            return (3, "", (_VAR_INDEX[b.name],), ())
        return (1, b.name, (), ())
    if isinstance(b, TFun):
        return (2, b.name, (b.order,), ())
    if isinstance(b, ExpFactor):
        return (4, "", (), reference_expr_key(b.arg))
    if isinstance(b, Jet):
        nums = (_DEP_INDEX.get(b.dep, 99), len(b.idx)) + tuple(
            _VAR_INDEX[v] for v in b.idx)
        return (5, b.dep, nums, ())
    raise TypeError(f"unknown base {b!r}")


def reference_expr_key(e) -> tuple:
    return tuple(
        (tuple((reference_base_key(b), p) for b, p in fs),
         (c.numerator, c.denominator))
        for c, fs in e.terms)


def reference_factors_key(fs) -> tuple:
    return tuple((reference_base_key(b), p) for b, p in fs)


def reference_product(a, b) -> tuple:
    """Terms of ``a*b`` by the general loop: every pair of terms through
    ``_normalize_product``, then one ``_collect``."""
    pieces = []
    for c1, f1 in a.terms:
        for c2, f2 in b.terms:
            pieces.extend(ex._normalize_product(c1 * c2, f1 + f2))
    return ex._collect(pieces)


# -- random bases and expressions ----------------------------------------------

CONSTANTS = ("a", "b", "k", "lam", "mu2", "A")
TFUN_NAMES = ("a", "b", "f", "g0")


def random_jet_index(rng):
    letters = [rng.choice(ex.VARIABLE_NAMES) for _ in range(rng.randint(0, 3))]
    return tuple(sorted(letters, key=_VAR_INDEX.get))


def random_exp_arg(rng):
    arg = ZERO
    for _ in range(rng.randint(1, 3)):
        base = rng.choice([T, X, Y, sym("k"), T * X, ONE, OMEGA, R * T])
        arg = arg + random_fraction(rng) * base
    return arg if not arg.is_zero else T


def random_base(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return Atom(rng.choice(ex.PARAMETER_NAMES))
    if kind == 1:
        return Atom(rng.choice(CONSTANTS))
    if kind == 2:
        return TFun(rng.choice(TFUN_NAMES), rng.randint(0, 3))
    if kind == 3:
        return Atom(rng.choice(ex.VARIABLE_NAMES))
    if kind == 4:
        return ExpFactor(random_exp_arg(rng))
    return Jet(rng.choice(ex.DEPENDENT_NAMES), random_jet_index(rng))


def random_expr(rng, terms=4):
    """Sums of monomials over omega, delta, parameters, variables, jets,
    exponentials and inverses of invertible bases."""
    pool = [X, Y, T, R, S, V, W, OMEGA, DELTA, sym("k"),
            jet("u"), jet("u", "x"), jet("u", "xy"), jet("u", "txy"),
            X ** -1, jet("u", "x") ** -2,
            exp_of(Fraction(3, 2) * T), exp_of(-T + 2 * X)]
    e = ZERO
    for _ in range(rng.randint(1, terms)):
        mono = rational(random_fraction(rng))
        for _ in range(rng.randint(0, 4)):
            mono = mono * rng.choice(pool)
        e = e + mono
    return e


class TestBaseOrder:
    def test_natural_order_is_the_reference_order(self):
        rng = random.Random(11)
        bases = [random_base(rng) for _ in range(400)]
        assert sorted(bases) == sorted(bases, key=reference_base_key)
        for _ in range(4000):
            a, b = rng.choice(bases), rng.choice(bases)
            ka, kb = reference_base_key(a), reference_base_key(b)
            assert (a < b) == (ka < kb)
            assert (a == b) == (ka == kb)
            if a == b:
                assert hash(a) == hash(b)

    def test_factor_tuples_sort_like_the_reference(self):
        rng = random.Random(12)
        monomials = []
        for _ in range(300):
            bases = {random_base(rng) for _ in range(rng.randint(0, 4))}
            monomials.append(tuple(sorted(
                (b, rng.choice((-1, 1, 2, 3))) for b in bases)))
        assert sorted(monomials) == sorted(monomials, key=reference_factors_key)

    def test_canonical_terms_are_in_reference_order(self):
        rng = random.Random(13)
        for _ in range(200):
            e = random_expr(rng) * random_expr(rng)
            keys = [reference_factors_key(fs) for _, fs in e.terms]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)

    def test_bases_keep_their_fields(self):
        assert Atom("omega").name == "omega"
        assert (TFun("a", 2).name, TFun("a", 2).order) == ("a", 2)
        j = Jet("u", ("x", "y"))
        assert (j.dep, j.idx, j.order) == ("u", ("x", "y"), 2)
        assert ExpFactor(2 * T).arg == 2 * T
        assert TFun("a") == TFun("a", 0)
        assert Jet("u") == Jet("u", ())
        for b in (Atom("omega"), Atom("lam"), TFun("a", 2), j,
                  ExpFactor(OMEGA * T - 2 * X)):
            assert pickle.loads(pickle.dumps(b)) == b
            assert copy.copy(b) == b and repr(b) == repr(copy.copy(b))

    def test_expressions_round_trip(self):
        rng = random.Random(14)
        exprs = [ZERO, ONE, rational(-7, 3), DELTA * OMEGA,
                 exp_of(R * T) * exp_of(-X), exp_of(exp_of(T) * X) * Y]
        exprs += [random_expr(rng) for _ in range(40)]
        for e in exprs:
            copies = [pickle.loads(pickle.dumps(e, protocol))
                      for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
            copies += [copy.copy(e), copy.deepcopy(e)]
            for c in copies:
                assert c.terms == e.terms and hash(c) == hash(e)
                assert ex.to_text(c) == ex.to_text(e)
            for b in (b for _, fs in e.terms for b, _ in fs
                      if isinstance(b, ExpFactor)):
                assert copy.deepcopy(b) == b and pickle.loads(pickle.dumps(b)) == b


class TestFastPaths:
    def test_scalar_and_zero_operands_match_the_general_product(self):
        rng = random.Random(21)
        for _ in range(300):
            e = random_expr(rng)
            q = random_fraction(rng)
            for k in (q, rational(q), int(q.numerator)):
                general = reference_product(e, ex.as_expr(k))
                assert (e * k).terms == general
                assert (k * e).terms == general
            assert (e * ZERO).terms == reference_product(e, ZERO) == ()
            assert (ZERO * e).terms == ()
            assert (e + ZERO).terms == ex._collect(e.terms) == e.terms
            assert (ZERO + e).terms == e.terms
            assert (e + 0).terms == e.terms


class TestTruthValue:
    def test_false_exactly_at_zero(self):
        assert not ZERO and not rational(0) and not (X - X)
        assert not OMEGA * OMEGA - R ** 2 + 4 * S     # zero after rewriting
        assert ONE and rational(Fraction(-1, 3)) and X and exp_of(T) and DELTA
        rng = random.Random(5)
        for _ in range(200):
            e = random_expr(rng)
            assert bool(e) is not e.is_zero
            assert not e - e
            # a truth test agrees with the number the constant stands for
            if e.is_rational:
                assert bool(e) is bool(e.as_fraction())


class TestHashContract:
    def test_rationals_hash_as_their_value(self):
        for v in (0, 2, -7, Fraction(1, 3), Fraction(-22, 7)):
            e = rational(v)
            assert e == v and hash(e) == hash(v)
            assert v in {e} and e in {v}
            assert {e: "value"}[v] == "value"
            assert {v: "value"}[e] == "value"
        assert 0 in {ZERO} and ZERO in {0} and hash(ZERO) == 0

    def test_equal_expressions_hash_alike(self):
        a = (X + Y) * (X - Y) + OMEGA * OMEGA
        b = X ** 2 - Y ** 2 + R ** 2 - 4 * S
        assert a == b and hash(a) == hash(b)
        assert len({a, b, X, X * 1}) == 2


# -- coefficients and the fast paths of partial and subst_many -------------------

def coefficients(e):
    """Every term coefficient of ``e``, inside exponentials too."""
    for c, fs in e.terms:
        yield c
        for b, _ in fs:
            if isinstance(b, ExpFactor):
                yield from coefficients(b.arg)


def assert_reduced_coefficients(e):
    """An ``int`` exactly when integral, else a ``Fraction`` that is not; so
    never a ``float`` or a ``bool``."""
    for c in coefficients(e):
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), \
            f"coefficient {c!r} of type {type(c).__name__}"


def reference_partial(e, v):
    """``partial`` by the general loop: each factor's derivative times the
    rest of its term, every product through ``_normalize_product``."""
    pieces = []
    for c, fs in e.terms:
        for i, (b, p) in enumerate(fs):
            if b == v:
                db = ONE
            elif isinstance(b, TFun) and v == Atom("t"):
                db = tfun(b.name, b.order + 1)
            elif isinstance(b, ExpFactor):
                db = reference_partial(b.arg, v) * ex._expr_of_base(b)
            else:
                continue
            head = ex._normalize_product(c * p, fs[:i] + ((b, p - 1),) + fs[i + 1:])
            for c1, f1 in head:
                for c2, f2 in db.terms:
                    pieces.extend(ex._normalize_product(c1 * c2, f1 + f2))
    return ex.Expr(ex._collect(pieces))


def reference_subst(e, mapping):
    """``subst_many`` by the general loop: every term rebuilt factor by
    factor with kernel products."""
    pieces = []
    for c, fs in e.terms:
        piece = rational(c)
        for b, p in fs:
            if isinstance(b, ExpFactor):
                piece = piece * exp_of(reference_subst(b.arg, mapping)) ** p
            elif b in mapping:
                piece = piece * ex.as_expr(mapping[b]) ** p
            else:
                piece = piece * ex._expr_of_base(b, p)
        pieces.append(piece)
    return ex.sum_of(pieces)


K = sym("k")
# exponentials (nested, and with parameters in the argument), negative
# powers, omega, delta, R*V*delta, t-functions and a user constant
RICH_POOL = [X, Y, T, R, S, V, W, OMEGA, DELTA, K, U, jet("u", "x"),
             X ** -1, K ** -1, jet("u", "x") ** -2, R * V * DELTA,
             OMEGA * DELTA, DELTA ** 2, tfun("a"), tfun("a", 1),
             exp_of(Fraction(3, 2) * T), exp_of(-T + 2 * X),
             exp_of(OMEGA * X - R * T), exp_of(K * T + DELTA * X),
             exp_of(exp_of(T) * X)]
WRT = [Atom("x"), Atom("y"), Atom("t"), Atom("R"), Atom("V"), Atom("omega"),
       Atom("delta"), Atom("k"), Jet("u", ()), Jet("u", ("x",)), TFun("a")]
BOUND = [Atom(name) for name in ("R", "S", "V", "W", "omega", "delta", "k",
                                 "x")]


def rich_expr(rng, terms=4):
    e = ZERO
    for _ in range(rng.randint(1, terms)):
        mono = rational(random_fraction(rng))
        for _ in range(rng.randint(0, 4)):
            mono = mono * rng.choice(RICH_POOL)
        e = e + mono
    return e


def random_value(rng):
    """A rational, an integer or (now and then) zero."""
    return rng.choice((random_fraction(rng), rng.randint(-4, 4),
                       Fraction(rng.randint(-9, 9), 1)))


class TestCoefficients:
    def test_constants_and_sums(self):
        assert type(ONE.terms[0][0]) is int
        for v in (2, Fraction(4, 2), True, rational(6, 3)):
            assert type(ex.as_expr(v).terms[0][0]) is int
        assert type(rational(3, 6).terms[0][0]) is Fraction
        assert type(rational(7).as_fraction()) is Fraction
        assert rational(0).is_zero and rational(Fraction(0, 3)).is_zero
        for e in (X / 2 + X / 2, X * Fraction(2, 3) * 3, (X + 1) ** 3,
                  OMEGA * OMEGA, R * V * DELTA, -Fraction(1, 2) * X * 4):
            assert_reduced_coefficients(e)

    def test_partial_matches_the_general_loop(self):
        rng = random.Random(31)
        for _ in range(300):
            e = rich_expr(rng)
            for v in WRT:
                got = ex.partial(e, v)
                assert got.terms == reference_partial(e, v).terms
                assert_reduced_coefficients(got)

    def test_rational_bindings_match_the_general_loop(self):
        rng = random.Random(32)
        refusals = 0
        for _ in range(400):
            e = rich_expr(rng)
            mapping = {b: ex.as_expr(random_value(rng))
                       for b in rng.sample(BOUND, rng.randint(1, len(BOUND)))}
            try:
                expected = reference_subst(e, mapping)
            except DivisionByZero:
                refusals += 1
                with pytest.raises(DivisionByZero):
                    ex.subst_many(e, mapping)
                continue
            got = ex.subst_many(e, mapping)
            assert got.terms == expected.terms
            assert_reduced_coefficients(got)
        assert refusals > 0

    def test_other_mappings_take_the_general_loop(self):
        rng = random.Random(33)
        for _ in range(100):
            e = rich_expr(rng)
            mapping = {Atom("x"): 2 * T, Atom("k"): rational(2),
                       Jet("u", ()): X * Y}
            got = ex.subst_many(e, mapping)
            assert got.terms == reference_subst(e, mapping).terms
            assert_reduced_coefficients(got)

    def test_zero_bound_under_a_negative_power(self):
        zero = {Atom("k"): ZERO}
        for e in (K ** -1, X * K ** -2 + Y, exp_of(X * K ** -1) * Y):
            with pytest.raises(DivisionByZero):
                ex.subst_many(e, zero)
            with pytest.raises(DivisionByZero):
                reference_subst(e, zero)
        # an exponential whose argument vanishes leaves the factor 1
        assert ex.subst_many(exp_of(K * T) * X + K, zero) == X

    def test_quotients(self):
        rng = random.Random(34)
        divisors = [rational(3), rational(Fraction(-3, 2)), X, R * V + W,
                    R + S, OMEGA, DELTA, X + 1, exp_of(T) * 2]
        for _ in range(200):
            a = random_expr(rng)
            d = rng.choice(divisors)
            q = ex.divide_exact(a * d, d)
            assert q == a
            assert_reduced_coefficients(q)
            if d.is_rational or d == X:
                assert_reduced_coefficients(ex.divide_exact(a, d))
        assert (6 * X) / 3 == 2 * X
        assert_reduced_coefficients((6 * X + 3) / 3)
        assert_reduced_coefficients((4 * X * Y - 2 * Y) / (2 * Y))

    def test_parsed_text(self):
        rng = random.Random(35)
        for _ in range(100):
            e = random_expr(rng)
            assert_reduced_coefficients(parse(render(e), {"k"}))
        for text in ("4/2*x + 6/4 - 3/3*exp(2/2*t)", "x*1/2 + 1/2*x",
                     "(R*V + W)^-1*(R*V + W)", "omega^3*1/4", "6/3*u_x^-2"):
            assert_reduced_coefficients(parse(text))

    def test_residuals(self):
        rng = random.Random(36)
        for name in ("hpz", "heat", "reduced-3.2"):
            pde = get_equation(name)
            pool = [X, T, sym(pde.dependent), R, OMEGA, DELTA,
                    exp_of(Fraction(1, 2) * X), rational(Fraction(1, 3))]
            for _ in range(4):
                coefficient = [sum((random_fraction(rng) * rng.choice(pool)
                                    * rng.choice(pool) for _ in range(3)),
                                   ZERO)
                               for _ in range(len(pde.variables) + 1)]
                vf = VectorField(pde.variables, pde.dependent,
                                 tuple(coefficient[:-1]), coefficient[-1])
                res = residual(vf, pde)
                assert not res.is_zero
                assert_reduced_coefficients(res)


class TestOverContent:
    """``over_content`` divides expressions by the rational and monomial
    factor all their terms share, the content the fraction-free
    eliminations take out of their rows."""

    def test_rational_content_is_gcd_over_lcm(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        assert ex.over_content([half * X + third, 2 * Y]) == \
            [3 * X + 2, 12 * Y]
        assert ex.over_content([-4 * X, 6 * Y]) == [-2 * X, 3 * Y]

    def test_shared_monomial_at_its_least_positive_power(self):
        assert ex.over_content([R ** 2 * X + R * X ** 3, R * X * Y]) == \
            [R + X ** 2, Y]
        # omega and delta come out like any atom, canonically
        assert ex.over_content([OMEGA * X, OMEGA * DELTA]) == [X, DELTA]

    def test_exponentials_and_negative_powers_stay(self):
        e = exp_of(T)
        assert ex.over_content([e * X, 2 * e * X ** 2]) == [e, 2 * e * X]
        assert ex.over_content([X ** -1, X ** -2]) == [X ** -1, X ** -2]

    def test_no_content_returns_the_list_itself(self):
        exprs = [X + 1, 2 * Y]
        assert ex.over_content(exprs) is exprs
        for q in ex.over_content([Fraction(3, 4) * X, Fraction(9, 8) * Y]):
            assert_reduced_coefficients(q)
