"""Grammar, parse errors, and round trips."""

import re
import time
from fractions import Fraction

import pytest

from liepde import fixtures
from liepde.expr import DELTA, OMEGA, R, S, X, Y, ExprError, jet, rational
from liepde.parser import (MAX_DIGITS, MAX_NESTING, MAX_TERMS, ParseError,
                           _power_too_long, parse, render)

from helpers import K2, bounded, coefficient_functions, multiplier_exponent


class TestGrammar:
    def test_equation_right_hand_side(self):
        e = parse("R*x*u_x + y*S*u_x")
        assert e == R * X * jet("u", "x") + S * Y * jet("u", "x")
        assert render(e) == "R*x*u_x + S*y*u_x"

    def test_exp_of_zero(self):
        assert render(parse("exp(0)")) == "1"

    def test_sqrt_maps_to_the_surd(self):
        assert parse("sqrt(R^2 - 4*S)") == OMEGA
        assert parse("sqrt(R*R - S*4)") == OMEGA  # same canonical radicand

    def test_rational_literals(self):
        assert parse("3/4") == rational(3, 4)
        assert parse("-1/2*x") == rational(-1, 2) * X

    def test_negative_exponents(self):
        assert parse("x^-2") == X ** -2
        assert parse("(2*(R*V + W))^-1") == Fraction(1, 2) * DELTA
        assert parse("(R*V*x + W*x)^-1") == DELTA * X ** -1
        assert render(parse("(R*V*x + W*x)^-1")) == "(R*V + W)^-1*x^-1"

    def test_unary_minus_and_parentheses(self):
        assert parse("-x + (y - x)") == Y - 2 * X

    def test_jet_identifiers(self):
        for name in ("u", "u_t", "u_x", "u_y", "u_xx", "u_xy", "u_yy",
                     "u_tx", "u_ty", "u_tt", "z", "z_t", "z_r", "z_rr"):
            parse(name)

    def test_user_constants(self):
        e = parse("lam*exp(lam*t)", constants={"lam"})
        assert render(e) == "lam*exp(lam*t)"

    def test_delta_is_not_a_constant_name(self):
        # delta is the kernel's inverse of R*V + W, not a free constant
        with pytest.raises(ExprError, match="'delta'"):
            parse("delta*(R*V + W)", constants={"delta"})


class TestErrors:
    @pytest.mark.parametrize("text", [
        "sqrt(R)", "sqrt(R^2 - 3*S)", "q + 1", "u_xt", "x +", "(x",
        "1/0", "R^-1", "exp(", "x ^ y",
    ])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse(text)

    @pytest.mark.parametrize("text, message", [
        ("x)", "unexpected trailing input ')' (line 1, column 2)"),
        ("u_q", "bad jet index ('q',) (line 1, column 1)")])
    def test_refusals_name_their_cause(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse(text)

    def test_numbers_at_the_digit_bound(self):
        assert MAX_DIGITS == 1000
        assert parse("9" * 1000) == 10 ** 1000 - 1
        assert parse("1/" + "9" * 1000) == Fraction(1, 10 ** 1000 - 1)
        assert parse("2^3321") == 2 ** 3321            # 1000 digits
        assert parse("(2/3)^-2095*x") == Fraction(3, 2) ** 2095 * X
        for text in ("1" * 1001, "1/" + "1" * 1001, "x^" + "1" * 1001,
                     "2^3322", "(3*x)^2096", "(2/3)^-2096", "10^999*10",
                     "9*10^999 + 1/3", "exp(10^999*10*t)"):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert "1000" in str(err.value)

    def test_oversized_powers_refused_before_computing(self):
        # 2^3321 < 10^1000 < 2^3322; the check itself computes no power
        assert _power_too_long(rational(2), 3322)
        assert not _power_too_long(rational(2), 3321)
        assert _power_too_long(rational(1, 3) * X + 1, 10 ** 12)
        assert not _power_too_long(X + 1, 10 ** 12)

    @pytest.mark.parametrize("text", ["x^\u00b2", "\u00b2", "1/\u00b3",
                                      "\u2460 + x"])
    def test_digits_int_cannot_read_are_unexpected(self, text):
        # superscripts and circled digits pass str.isdigit, not isdecimal
        with pytest.raises(ParseError, match="unexpected character"):
            parse(text)

    def test_every_decimal_digit_is_read(self):
        # int() reads the decimal digits of any script
        assert parse("\u0663*x") == 3 * X
        assert parse("\uff11\uff12") == 12

    def test_deep_nesting_is_a_parse_error(self):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse("(" * 400 + "x" + ")" * 400)
        assert parse("(" * 50 + "x" + ")" * 50) == X

    @pytest.mark.parametrize("opening", ["(", "exp(", "sqrt("])
    def test_nesting_bound(self, opening):
        # parentheses, exp( and sqrt( count alike
        def nested(depth):
            inner = "R^2 - 4*S" if opening == "sqrt(" else "x"
            return opening + "(" * (depth - 1) + inner + ")" * depth
        parse(nested(MAX_NESTING))
        with pytest.raises(ParseError, match=f"more than {MAX_NESTING} levels"):
            parse(nested(MAX_NESTING + 1))

    def test_deepest_exponential_renders(self):
        text = "exp(" * MAX_NESTING + "t" + ")" * MAX_NESTING
        assert render(parse(text)) == text

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("x +\n  %")
        assert err.value.line == 2

    def test_unknown_identifier_lists_reserved_names(self):
        with pytest.raises(ParseError) as err:
            parse("foo")
        msg = str(err.value)
        for name in ("omega", "R", "S", "V", "W"):
            assert name in msg


class TestTermBound:
    """Products and powers are refused, before any multiplication, when
    their term bound passes ``MAX_TERMS``."""

    POWER = rf"^power may have more than {MAX_TERMS} terms, the most a " \
            rf"parsed value may have \(line 1, column (\d+)\)$"
    PRODUCT = POWER.replace("^power", "^product")

    @pytest.mark.parametrize("text, column", [
        ("(x+1)^1000", 6), ("(x+1)^3000", 6), ("(exp(x)+1)^2000", 11),
        ("(x+y+t+1)^40", 10), ("(x+y+t+1)^80*u", 10),
        ("(omega+1)^200", 10), ("omega^" + "9" * 999, 6)])
    def test_large_powers_refused_at_once(self, text, column):
        err, seconds, _, _ = bounded(parse, text)
        assert seconds < 0.1
        assert isinstance(err, ParseError) and re.search(self.POWER, str(err))
        assert (err.line, err.column) == (1, column)

    def test_bound_is_tight_for_a_binomial(self):
        # (x+1)^n has n+1 terms; C(n+1, 1) = n+1 is the bound
        assert MAX_TERMS == 256
        assert len(parse(f"(x+1)^{MAX_TERMS - 1}").terms) == MAX_TERMS
        with pytest.raises(ParseError, match=self.POWER):
            parse(f"(x+1)^{MAX_TERMS}")
        assert len(parse("(x+y+t+1)^9").terms) == 220     # C(12, 3)
        with pytest.raises(ParseError, match=self.POWER):
            parse("(x+y+t+1)^10")                        # C(13, 3) = 286

    def test_products_are_bounded_by_the_product_of_their_sizes(self):
        assert len(parse("(x+1)^127*(y+1)").terms) == MAX_TERMS
        with pytest.raises(ParseError, match=self.PRODUCT) as err:
            parse("(x+1)^128*(y+1)")
        assert err.value.column == 10
        # a monomial times a large value is one term per term
        assert len(parse("x*(y+1)^255*t").terms) == MAX_TERMS

    def test_rewrites_that_split_a_monomial_count(self):
        # omega^(2m) is (R^2 - 4*S)^m, m + 1 terms from one
        assert len(parse(f"omega^{2 * MAX_TERMS - 2}").terms) == MAX_TERMS
        with pytest.raises(ParseError, match=self.POWER):
            parse(f"omega^{2 * MAX_TERMS}")
        with pytest.raises(ParseError, match=self.PRODUCT):
            parse("omega^300*omega^300")
        # (R*V + W)^-1 is delta, and delta*(R*V)^m has m + 1 terms
        assert len(parse("(R*V + W)^-2*R^2*V^2").terms) == 3
        assert len(parse("(R*V + W)^-1*(R*V)^100").terms) == 101
        with pytest.raises(ParseError, match=self.PRODUCT):
            parse("(R*V + W)^-1*(R*V)^300")
        with pytest.raises(ParseError, match=self.POWER):
            parse("((R*V + W)^-1*R*V*x)^300")
        # a monomial power without a rewrite is one term, whatever n
        assert parse("x^" + "9" * 999).terms[0][1][0][1] == 10 ** 999 - 1

    def test_the_kernel_count_is_exact_for_one_monomial(self):
        # delta^5*(R*V)^60 has 61 terms, as the kernel counts them; a count
        # of (min(d, m) + 1)*(m + 1) = 366 would refuse it
        value, seconds, _, _ = bounded(parse, "(R*V + W)^-5*(R*V)^60")
        assert len(value.terms) == 61
        assert seconds < 0.1


class TestRoundTrip:
    def test_nested_exponentials_compare_in_linear_time(self):
        # two equal exponentials built apart are compared and hashed level by
        # level once; deepening one level at a time stops at the first depth
        # where the total passes the budget instead of running 2^depth steps
        start = time.perf_counter()
        for depth in range(1, MAX_NESTING + 1):
            e = parse("exp(" * depth + "t" + ")" * depth)
            again = parse(render(e))
            assert again == e and not again != e
            assert hash(again) == hash(e)
            assert time.perf_counter() - start < 1.0, depth

    def test_simple_round_trips(self):
        for text in ("u_tx + 3*u_yy", "z_rr - z_t + r*z_r",
                     "x^2*y - 4/7*t", "omega*x + omega^2",
                     "exp(-1/2*R*t)*u_x"):
            e = parse(text)
            assert parse(render(e)) == e

    def test_every_fixture_expression_round_trips(self):
        exprs = list(coefficient_functions().values())
        exprs += [fixtures.K1, K2, fixtures.K3]
        for name in ("delta3", "delta4", "delta5", "delta6"):
            exprs.append(fixtures.characteristic_r(name))
            exprs.append(multiplier_exponent(name))
            exprs.append(fixtures.printed_reduced_equation(name)[0])
        exprs.append(fixtures.printed_stationary_equation())
        for vf in fixtures.known_basis():
            exprs.extend(vf.coefficients())
        assert len(exprs) > 30
        for e in exprs:
            assert parse(render(e)) == e
