"""Total derivatives, the solution manifold, and the equation registry."""

import random

import pytest

from liepde import expr as ex
from liepde.expr import R, S, U, V, W, X, Y, jet
from liepde.jet import (EvolutionPDE, JetOrderError, StationaryEquation,
                        eliminate_time_jets, equation_names, get_equation,
                        total_derivative)

from conftest import TreeGen


class TestConstructors:
    def test_hpz_form(self, hpz):
        expected = (R * U - X * jet("u", "y") + R * X * jet("u", "x")
                    + S * Y * jet("u", "x") + V * jet("u", "xy")
                    + W * jet("u", "xx"))
        assert hpz.rhs == expected
        assert hpz.spatial_order() == 2
        assert hpz.is_autonomous()

    def test_hpz_special_binding_drops_terms(self, hpz):
        from liepde.solver import Binding
        b = Binding.parse("R=0,S=0,V=0,W=1")
        bound = b.apply_pde(hpz)
        assert bound.rhs == -X * jet("u", "y") + jet("u", "xx")

    def test_heat_form(self, heat):
        assert heat.render() == "u_t = u_xx"

    def test_rejects_time_jets_in_rhs(self):
        with pytest.raises(ex.ExprError):
            EvolutionPDE(("t", "x"), "u", jet("u", "tx"))

    def test_rejects_third_order_rhs(self):
        with pytest.raises(ex.ExprError):
            EvolutionPDE(("t", "x"), "u", jet("u", "xxx"))


class TestTotalDerivative:
    def test_first_derivatives(self):
        assert total_derivative(U, "x") == jet("u", "x")
        assert total_derivative(X * U, "y") == X * jet("u", "y")

    def test_time_derivative_on_manifold(self, hpz):
        # independent hand application of the chain rule to the rhs
        hand = (R * jet("u", "x")
                - jet("u", "y") - X * jet("u", "xy")
                + R * jet("u", "x") + R * X * jet("u", "xx")
                + S * Y * jet("u", "xx")
                + V * jet("u", "xxy") + W * jet("u", "xxx"))
        assert eliminate_time_jets(
            total_derivative(jet("u", "x"), "t"), hpz) == hand

    def test_order_overflow_is_loud(self):
        with pytest.raises(JetOrderError) as err:
            total_derivative(jet("u", "xxx"), "x")
        assert "u_xxx" in str(err.value)

    def test_commutation_randomized(self):
        # first-order jets only: two more derivatives stay within order 3
        rng = random.Random(11)
        gen = TreeGen(rng, names=("x", "y", "t"))
        jets = [U, jet("u", "x"), jet("u", "y")]
        for _ in range(500):
            e = gen.to_expr(gen.tree(2))
            e = e * jets[rng.randrange(len(jets))] + jets[rng.randrange(2)]
            dxy = total_derivative(total_derivative(e, "x"), "y")
            dyx = total_derivative(total_derivative(e, "y"), "x")
            assert dxy == dyx

    def test_leibniz_randomized(self):
        rng = random.Random(12)
        gen = TreeGen(rng, names=("x", "y"))
        jets = [U, jet("u", "x"), jet("u", "y")]
        for _ in range(500):
            e1 = gen.to_expr(gen.tree(2)) * jets[rng.randrange(3)]
            e2 = gen.to_expr(gen.tree(2)) + jets[rng.randrange(3)]
            v = rng.choice(("x", "y"))
            lhs = total_derivative(e1 * e2, v)
            rhs = total_derivative(e1, v) * e2 + e1 * total_derivative(e2, v)
            assert lhs == rhs


class TestManifold:
    def test_elimination_soundness(self, hpz):
        assert eliminate_time_jets(hpz.residual_expr(), hpz).is_zero

    def test_mixed_time_jets_eliminate(self, hpz):
        for idx in (("t", "x"), ("t", "y")):
            out = eliminate_time_jets(jet("u", idx), hpz)
            assert not any("t" in j.idx for j in ex.jets_of(out))

    def test_heat_elimination(self, heat):
        assert eliminate_time_jets(jet("u", "t"), heat) == jet("u", "xx")


class TestRegistry:
    def test_names(self):
        assert set(equation_names()) == {
            "hpz", "heat", "reduced-3.2", "reduced-3.5", "reduced-3.7",
            "reduced-3.9", "stationary-2.6"}

    def test_reduced_equations_are_evolution_pdes(self):
        for name in ("reduced-3.2", "reduced-3.5", "reduced-3.7", "reduced-3.9"):
            eq = get_equation(name)
            assert isinstance(eq, EvolutionPDE)
            assert eq.variables == ("t", "r")
            assert eq.dependent == "z"

    def test_stationary_entry(self):
        eq = get_equation("stationary-2.6")
        assert isinstance(eq, StationaryEquation)
        assert eq.variables == ("x", "y")

    def test_unknown_name(self):
        with pytest.raises(ex.ExprError):
            get_equation("bogus")

    def test_repeated_lookups_are_equal(self):
        for name in equation_names():
            assert get_equation(name) == get_equation(name)

    def test_unknown_name_is_not_cached(self):
        get_equation("hpz")
        before = get_equation.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ex.ExprError):
                get_equation("bogus")
        assert get_equation.cache_info().currsize == before
        assert before <= len(equation_names())
