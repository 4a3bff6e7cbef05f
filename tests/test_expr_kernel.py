"""Kernel invariants behind the canonical forms: the base order, the zero and
scalar fast paths of ``*`` and ``+``, and the hash/equality contract."""

import copy
import pickle
import random
from fractions import Fraction

from liepde import expr as ex
from liepde.expr import (
    DELTA, OMEGA, ONE, R, S, T, V, W, X, Y, ZERO, Atom, ExpFactor, Jet, TFun,
    exp_of, jet, rational, sym,
)

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
