"""Reductions: invariants, multipliers, golden forms, certificates, pullback."""

import random
import re
from fractions import Fraction as Fr

import pytest

from liepde import expr as ex
from liepde.expr import OMEGA, R, RADIAL, V, W, X, Y, jet
from liepde.fixtures import (characteristic_r, multiplier_exponent,
                             paper_generator, printed_reduced_equation,
                             printed_stationary_equation)
from liepde.prolong import VectorField
from liepde.reduction import (ReductionError, compare_with_printed,
                              invariants_for, paper_reduction, reduce_pde,
                              reduce_time)
from liepde.solver import Binding

from conftest import random_fraction
from helpers import evaluate, evaluate_rational

ALL_GENERATORS = ("delta3", "delta4", "delta5", "delta6")


class TestInvariants:
    def test_published_characteristics_are_matched(self):
        for name in ALL_GENERATORS:
            rmap = invariants_for(paper_generator(name))
            assert rmap.matched_name == name
            assert (rmap.r - characteristic_r(name)).is_zero

    def test_published_multipliers_are_reproduced(self):
        for name in ALL_GENERATORS:
            rmap = invariants_for(paper_generator(name))
            assert (rmap.q_exponent - multiplier_exponent(name)).is_zero

    def test_generator_annihilates_r(self):
        for name in ALL_GENERATORS:
            vf = paper_generator(name)
            rmap = invariants_for(vf)
            assert vf.apply_to(rmap.r).is_zero

    def test_delta3_explicit_form(self):
        rmap = invariants_for(paper_generator("delta3"))
        assert rmap.r == (R + OMEGA) * Y + 2 * X
        assert rmap.q_exponent.is_zero

    def test_delta4_explicit_form(self):
        rmap = invariants_for(paper_generator("delta4"))
        assert rmap.r == (-R + OMEGA) * Y - 2 * X

    def test_rejects_time_component(self):
        vf = VectorField(("t", "x", "y"), "u",
                         (ex.ONE, ex.ONE, ex.ZERO), ex.ZERO)
        with pytest.raises(ReductionError):
            invariants_for(vf)

    def test_rejects_nonlinear_eta(self):
        vf = VectorField(("t", "x", "y"), "u",
                         (ex.ZERO, ex.ONE, ex.ZERO), ex.U ** 2)
        with pytest.raises(ReductionError):
            invariants_for(vf)

    def test_rejects_zero_spatial_part(self):
        vf = VectorField(("t", "x", "y"), "u",
                         (ex.ZERO, ex.ZERO, ex.ZERO), ex.U)
        with pytest.raises(ReductionError):
            invariants_for(vf)


    @pytest.mark.parametrize("fields, message", [
        ((ex.ZERO, ex.exp_of(ex.T) + ex.exp_of(2 * ex.T), ex.ZERO, ex.ZERO),
         "generator coefficients mix several exponential factors"),
        ((ex.ZERO, ex.exp_of(ex.T), ex.exp_of(2 * ex.T), ex.ZERO),
         "generator coefficients carry different exponential factors"),
        # q = R and m = 1 ask for Q_xy = 1/R, not a kernel value
        ((ex.ZERO, ex.ZERO, R, X * ex.U),
         "multiplier condition is not solvable for this generator: "),
    ])
    def test_refusals_name_their_cause(self, fields, message):
        vf = VectorField(("t", "x", "y"), "u", fields[:3], fields[3])
        with pytest.raises(ReductionError, match="^" + re.escape(message)):
            invariants_for(vf)

    def test_rejects_a_generator_over_other_variables(self):
        vf = VectorField(("t", "x"), "u", (ex.ZERO, ex.ONE), ex.ZERO)
        with pytest.raises(ReductionError, match=r"^reduction expects a "
                           r"generator over \(t, x, y\)$"):
            invariants_for(vf)


class TestReduce:
    def test_delta3_matches_printed_exactly(self, hpz):
        red = reduce_pde(hpz, invariants_for(paper_generator("delta3")))
        expected = (R * ex.Z + Fr(1, 2) * (R - OMEGA) * RADIAL * jet("z", "r")
                    + 2 * (V * (R + OMEGA) + 2 * W) * jet("z", "rr"))
        assert red.equation.rhs == expected
        printed, factor = printed_reduced_equation("delta3")
        rows, agree = compare_with_printed(red, printed, factor)
        assert agree

    def test_delta4_matches_printed_exactly(self, hpz):
        red = reduce_pde(hpz, invariants_for(paper_generator("delta4")))
        expected = (R * ex.Z + Fr(1, 2) * (R + OMEGA) * RADIAL * jet("z", "r")
                    + 2 * (V * (R - OMEGA) + 2 * W) * jet("z", "rr"))
        assert red.equation.rhs == expected

    @pytest.mark.parametrize("name", ["delta5", "delta6"])
    def test_multiplier_reductions_certified_and_compared(self, hpz, name):
        red = reduce_pde(hpz, invariants_for(paper_generator(name)))
        assert red.certificate == "no-residual-xy"
        assert ex.atoms_of(red.equation.rhs) & {"x", "y"} == set()
        printed, factor = printed_reduced_equation(name)
        rows, agree = compare_with_printed(red, printed, factor)
        # the term-by-term report is the deliverable; the printed forms
        # turn out to agree exactly with the independent computation
        assert rows and agree

    def test_certificate_failure_is_loud(self, hpz):
        # d/dx alone does not leave the y u_x terms reducible... it does
        # reduce (r = y); use a generator mixing x into eta that cannot work
        vf = VectorField(("t", "x", "y"), "u",
                         (ex.ZERO, ex.ONE, ex.ZERO), X * Y * ex.U)
        with pytest.raises(ReductionError):
            invariants_for(vf)

    @pytest.mark.parametrize("name", ["delta3", "delta4", "delta5", "delta6"])
    def test_paper_reduction_is_shared(self, hpz, name):
        red = paper_reduction(name)
        assert red == reduce_pde(hpz, invariants_for(paper_generator(name)))
        assert paper_reduction(name) is red

    def test_single_spatial_variable_does_not_reduce(self, heat):
        rmap = invariants_for(paper_generator("delta3"))
        with pytest.raises(ReductionError):
            reduce_pde(heat, rmap)

    def test_surviving_y_is_refused(self):
        # d/dy has the invariant r = x, and y*u keeps its y
        from liepde.jet import EvolutionPDE
        rmap = invariants_for(VectorField(("t", "x", "y"), "u",
                                          (ex.ZERO, ex.ZERO, ex.ONE), ex.ZERO))
        assert rmap.r == X
        with pytest.raises(ReductionError, match=r"^generator does not "
                           r"reduce this equation: residual y dependence "
                           r"survives$"):
            reduce_pde(EvolutionPDE(("t", "x", "y"), "u", Y * ex.U), rmap)

    def test_normalisation_z_t_coefficient(self, hpz):
        for name in ALL_GENERATORS:
            red = reduce_pde(hpz, invariants_for(paper_generator(name)))
            # stored as z_t = rhs: the z_t coefficient of rhs - z_t is -1
            assert ex.Jet("z", ("t",)) not in ex.jets_of(red.equation.rhs)


class TestTimeReduction:
    def test_stationary_form_matches_printed(self, hpz):
        st = reduce_time(hpz)
        assert (st.lhs - printed_stationary_equation()).is_zero
        assert st.variables == ("x", "y")

    def test_heat_time_reduction(self, heat):
        st = reduce_time(heat, ex.ZERO)
        assert st.lhs == jet("z", "xx")

    def test_nonautonomous_is_rejected(self):
        from liepde.jet import EvolutionPDE
        pde = EvolutionPDE(("t", "x"), "u", ex.T * jet("u", "xx"))
        with pytest.raises(ReductionError):
            reduce_time(pde, ex.ZERO)

    def test_non_symmetry_is_rejected(self, heat):
        # x u d/du is no symmetry of the heat equation
        with pytest.raises(ReductionError, match=r"^2 d/dt \+ kappa u d/du "
                           r"is not a symmetry of this equation$"):
            reduce_time(heat, X)

    def test_invariance_identity(self, hpz):
        # u = exp(Rt/2) z  =>  equation residual = exp(Rt/2) * stationary lhs
        st = reduce_time(hpz)
        E = ex.exp_of(R * ex.T * Fr(1, 2))
        images = {ex.Jet("u", ()): ex.Z * E}
        for j in [j for j in ex.jets_of(hpz.rhs) if j.order >= 1]:
            images[j] = jet("z", j.idx) * E
        lhs_sub = ex.subst_many(hpz.rhs, images) - Fr(1, 2) * R * ex.Z * E
        assert (lhs_sub - E * st.lhs).is_zero


class TestSolutionPullback:
    def test_pointwise_pullback(self, hpz):
        """z satisfying the reduced equation at a point pulls back to u
        satisfying the original equation at the matching point, exactly."""
        rng = random.Random(31)
        bindings = []
        while len(bindings) < 10:
            r0 = rng.randint(-6, 6)
            om = rng.randint(0, 5)
            s0 = Fr(r0 * r0 - om * om, 4)
            v0, w0 = rng.randint(-3, 3), rng.randint(1, 4)
            b = Binding({"R": Fr(r0), "S": s0, "V": Fr(v0), "W": Fr(w0)})
            if b.rv_plus_w() != 0 and b.omega() != 0:
                bindings.append(b)
        for b in bindings:
            name = rng.choice(ALL_GENERATORS)
            rmap = invariants_for(paper_generator(name))
            red = reduce_pde(hpz, rmap)
            g = b.apply_pde(red.equation)
            alpha = b.apply(rmap.alpha).as_fraction()
            beta = b.apply(rmap.beta).as_fraction()
            q_exp = b.apply(rmap.q_exponent)

            t0, x0, y0 = (random_fraction(rng) for _ in range(3))
            r_val = alpha * x0 + beta * y0
            z_point = {"t": t0, "r": r_val,
                       "z": random_fraction(rng),
                       "z_r": random_fraction(rng),
                       "z_rr": random_fraction(rng)}
            z_point["z_t"] = evaluate_rational(g.rhs, z_point)

            # u-jet values through u = z(t, r) exp(Q)
            E = ex.exp_of(q_exp)
            u0 = ex.Z * E
            from liepde.reduction import _d_along
            a_e, b_e = ex.rational(alpha), ex.rational(beta)
            ux = _d_along(u0, "x", a_e)
            uy = _d_along(u0, "y", b_e)
            images = {
                ex.Jet("u", ()): u0,
                ex.Jet("u", ("t",)): jet("z", "t") * E,
                ex.Jet("u", ("x",)): ux,
                ex.Jet("u", ("y",)): uy,
                ex.Jet("u", ("x", "x")): _d_along(ux, "x", a_e),
                ex.Jet("u", ("x", "y")): _d_along(ux, "y", b_e),
                ex.Jet("u", ("y", "y")): _d_along(uy, "y", b_e),
            }
            bound_rhs = b.apply(hpz.rhs)
            residual_u = ex.subst_many(
                jet("u", "t") - bound_rhs, images)
            point = dict(z_point)
            point.update({"x": x0, "y": y0})
            assert evaluate(residual_u, point) == {}
