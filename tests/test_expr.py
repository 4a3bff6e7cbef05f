"""Kernel canonical forms, arithmetic, calculus, exact evaluation."""

import random
from fractions import Fraction

import pytest

from liepde import expr as ex
from liepde.expr import (
    DELTA, OMEGA, ONE, R, RADIAL, S, T, V, W, X, Y, ZERO, Atom,
    DivisionByZero, UnsupportedDivision,
    differentiate, divide_exact, exp_of, jet, rational, subst_many, sym, tfun,
)

from conftest import TreeGen, random_fraction
from helpers import bounded, evaluate, evaluate_rational


class TestCanonicalForm:
    def test_zero_term_eliminated(self):
        assert X + 0 * Y == X

    def test_unit_factor_eliminated(self):
        assert 1 * X * 1 == X

    def test_surd_square(self):
        assert OMEGA * OMEGA == R ** 2 - 4 * S

    def test_surd_conjugate_product(self):
        # expand, rewrite omega^2 -> R^2 - 4S, cancel R^2 - (R^2 - 4S)
        e = (R + OMEGA) * (R - OMEGA)
        assert e == 4 * S
        # numeric confirmation at R=5, S=4, omega=3: 8 * 2 = 16 = 4 * 4
        val = evaluate_rational(e, {"R": 5, "S": 4, "omega": 3})
        assert val == 16 == 4 * 4

    def test_surd_odd_powers(self):
        assert OMEGA ** 3 == (R ** 2 - 4 * S) * OMEGA
        assert OMEGA ** 4 == (R ** 2 - 4 * S) ** 2

    def test_delta_localisation(self):
        assert DELTA * (R * V + W) == ONE
        assert (2 * (R * V + W)) ** -1 == Fraction(1, 2) * DELTA
        assert DELTA ** -1 == R * V + W
        assert DELTA ** -2 == (R * V + W) ** 2
        # no kernel value holds a negative power of delta
        with pytest.raises(UnsupportedDivision):
            ex._expr_of_base(ex.Atom("delta"), -1)

    def test_delta_cancellation_through_sums(self):
        c2 = 2 * (R * V + W)
        c = Fraction(1, 2) * DELTA * exp_of(T)
        assert c * c2 == exp_of(T)

    def test_exp_merge(self):
        assert exp_of(T) * exp_of(-T) == ONE
        assert exp_of(2 * T) * exp_of(3 * T) == exp_of(5 * T)
        assert exp_of(ZERO) == ONE
        assert exp_of(T) ** 2 == exp_of(2 * T)
        assert exp_of(T) ** -1 == exp_of(-T)

    def test_flattening_sorting(self):
        e1 = (X + Y) + (T + RADIAL)
        e2 = T + (RADIAL + (Y + X))
        assert e1 == e2

    def test_power_expansion(self):
        assert (X + 1) ** 2 == X ** 2 + 2 * X + 1
        assert (X + Y) ** 0 == ONE


class TestOperands:
    """``Expr`` is public: it equals no foreign value, and refuses
    arithmetic with one, and assignment."""

    def test_foreign_values(self):
        assert not X == "x" and X != "x"
        with pytest.raises(TypeError, match="^cannot coerce 0.5 to Expr$"):
            X * 0.5
        with pytest.raises(TypeError, match="^exponents must be integers$"):
            X ** Fraction(1, 2)
        with pytest.raises(ex.ExprError,
                           match="^x is not a rational constant$"):
            X.as_fraction()
        with pytest.raises(AttributeError, match="^Expr is immutable$"):
            X.terms = ()

    def test_number_over_an_expression(self):
        assert 2 / (R * V + W) == 2 * DELTA


class TestDivision:
    def test_division_by_canonical_zero_is_an_error(self):
        zero = OMEGA * OMEGA - R ** 2 + 4 * S
        assert zero.is_zero
        with pytest.raises(DivisionByZero):
            X / zero
        with pytest.raises(DivisionByZero):
            divide_exact(X, zero)

    def test_monomial_inverse(self):
        assert X ** -1 * X ** 2 == X
        assert (2 * X * Y) ** -1 * (2 * X * Y) == ONE

    def test_parameter_not_invertible(self):
        # each refusal names the divisor as written, not its rationalised form
        with pytest.raises(UnsupportedDivision, match=r"by R$"):
            R ** -1
        with pytest.raises(UnsupportedDivision, match=r"by omega$"):
            OMEGA ** -1
        with pytest.raises(UnsupportedDivision, match=r"by R \+ omega$"):
            (R + OMEGA) ** -1

    def test_general_sum_not_invertible(self):
        with pytest.raises(UnsupportedDivision, match=r"by x \+ y$"):
            (X + Y) ** -1

    def test_conjugate_division(self):
        q = divide_exact(4 * S, R + OMEGA)
        assert q == R - OMEGA

    def test_polynomial_quotient(self):
        assert divide_exact(R * V * X + W * X, R * V + W) == X
        assert divide_exact(X ** 2 - Y ** 2, X + Y) == X - Y
        assert (X ** 2 - Y ** 2) / (X - Y) == X + Y

    def test_delta_powers_in_denominator(self):
        k1 = Fraction(1, 2) * (R - OMEGA) * DELTA
        assert divide_exact(k1 * (X + Y), k1) == X + Y

    def test_monomial_divisor_of_a_delta_value(self):
        # R*V*delta has the normal form 1 - W*delta, whose terms R does not
        # divide; the quotient V*delta is still found
        assert divide_exact(R * V * DELTA, R) == V * DELTA
        assert divide_exact(R * V * DELTA * X, 2 * R * X) == V * DELTA / 2

    def test_surd_quotient(self):
        assert divide_exact(R ** 2 - 4 * S, OMEGA) == OMEGA

    @pytest.mark.parametrize("num, den", [
        (ONE, X + Y), (ONE, 1 + T * Y), (X, 1 - Y ** 2), (X + 1, 1 - T)])
    def test_inexact_quotient_is_refused_at_once(self, num, den):
        err, seconds, _, _ = bounded(divide_exact, num, den)
        assert isinstance(err, UnsupportedDivision)
        assert seconds < 1

    def test_sum_holding_an_exponential_is_refused(self):
        with pytest.raises(UnsupportedDivision):
            divide_exact(T * exp_of(T) + T ** 2, exp_of(T) + T)

    def test_random_exact_quotients(self):
        pool = [R, S, V, W, OMEGA, DELTA, X, Y, T, X ** -1]
        rng = random.Random(505)

        def polynomial():
            out = ZERO
            for _ in range(rng.randint(1, 3)):
                term = rational(random_fraction(rng) or 1)
                for _ in range(rng.randint(0, 3)):
                    term = term * rng.choice(pool)
                out = out + term
            return out

        for _ in range(300):
            q, den = polynomial(), polynomial()
            if not den.is_zero:
                num = q * den
                assert num / den == divide_exact(num, den) == q


class TestCalculus:
    def test_exponential_derivative(self):
        lam = sym("lam")
        assert differentiate(exp_of(lam * T), "t") == lam * exp_of(lam * T)

    def test_coefficient_function_derivative(self):
        # d/dt exp(-(R+omega)t/2) = -(R+omega)/2 * itself
        a2 = exp_of(-Fraction(1, 2) * (R + OMEGA) * T)
        assert differentiate(a2, "t") == -Fraction(1, 2) * (R + OMEGA) * a2

    def test_polynomial_derivative(self):
        assert differentiate(X * Y ** 2, "y") == 2 * X * Y

    def test_differentiate_rejects_jets(self):
        with pytest.raises(ex.ExprError):
            differentiate(jet("u", "x"), "x")

    def test_differentiate_rejects_non_variables(self):
        with pytest.raises(ex.ExprError):
            differentiate(X, "R")

    def test_unknown_function_chain(self):
        a = tfun("a")
        assert differentiate(a * T, "t") == tfun("a", 1) * T + a
        assert differentiate(a, "x") == ZERO


class TestSubstitution:
    def test_polynomial_substitution(self):
        assert subst_many(X ** 2, {Atom("x"): RADIAL + 1}) \
            == RADIAL ** 2 + 2 * RADIAL + 1

    def test_binding_evaluation(self):
        e = R ** 2 - 4 * S
        bound = subst_many(subst_many(e, {Atom("R"): rational(5)}),
                           {Atom("S"): rational(4)})
        assert bound == rational(9)

    def test_surd_substitution_consistency(self):
        e = OMEGA * X + OMEGA ** 2  # canonical: omega x + R^2 - 4S
        step = subst_many(e, {Atom("omega"): rational(3)})
        step = subst_many(step, {Atom("R"): rational(5)})
        step = subst_many(step, {Atom("S"): rational(4)})
        assert step == 3 * X + 9

    def test_substitute_inside_exponentials(self):
        e = exp_of(R * T)
        assert subst_many(e, {Atom("R"): rational(2)}) == exp_of(2 * T)


class TestEvaluation:
    def test_exponentials_stay_formal(self):
        e = 2 * exp_of(R * T) + X
        val = evaluate(e, {"R": 1, "t": 2, "x": 7})
        assert val == {Fraction(0): Fraction(7), Fraction(2): Fraction(2)}

    def test_missing_binding_errors(self):
        with pytest.raises(ex.ExprError):
            evaluate(X, {})


class TestRandomizedProperties:
    N = 1000

    def test_commutativity_and_distributivity(self):
        rng = random.Random(101)
        gen = TreeGen(rng)
        for _ in range(self.N):
            e1 = gen.to_expr(gen.tree(2))
            e2 = gen.to_expr(gen.tree(2))
            e3 = gen.to_expr(gen.tree(2))
            assert e1 + e2 == e2 + e1
            assert e1 * (e2 + e3) == e1 * e2 + e1 * e3

    def test_evaluation_consistency(self):
        # direct Fraction evaluation on the raw tree is the oracle for the
        # canonicalising constructors
        rng = random.Random(202)
        gen = TreeGen(rng)
        for _ in range(600):
            node = gen.tree(3)
            e = gen.to_expr(node)
            point = gen.point()
            assert evaluate_rational(e, point) == gen.direct_value(node, point)

    def test_evaluation_commutes_with_surd_rewrite(self):
        # perfect-square discriminants: omega is rational and evaluation of
        # the rewritten form agrees with direct arithmetic
        rng = random.Random(303)
        squares = [(5, 4, 3), (3, 2, 1), (2, 1, 0), (13, 36, 5),
                   (Fraction(5, 2), Fraction(3, 2), Fraction(1, 2))]
        gen = TreeGen(rng, names=("R", "S", "omega", "x"))
        for _ in range(500):
            node = gen.tree(3)
            e = gen.to_expr(node)
            rv, sv, om = squares[rng.randrange(len(squares))]
            point = {"R": Fraction(rv), "S": Fraction(sv),
                     "omega": Fraction(om), "x": random_fraction(rng)}
            assert Fraction(om) ** 2 == Fraction(rv) ** 2 - 4 * Fraction(sv)
            assert evaluate_rational(e, point) == gen.direct_value(node, point)

    def test_canonical_form_is_stable_under_reassociation(self):
        rng = random.Random(404)
        gen = TreeGen(rng)
        for _ in range(300):
            parts = [gen.to_expr(gen.tree(2)) for _ in range(4)]
            left = ((parts[0] + parts[1]) + parts[2]) + parts[3]
            right = parts[0] + (parts[1] + (parts[2] + parts[3]))
            assert left == right
