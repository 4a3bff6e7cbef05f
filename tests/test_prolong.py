"""Prolongation formulas, residuals, and determining-system extraction."""

import random
from fractions import Fraction

import pytest

from liepde import expr as ex
from liepde import jet as jet_module
from liepde import prolong as prolong_module
from liepde.expr import ONE, R, T, U, W, X, ZERO, Atom, Jet, exp_of, jet, tfun
from liepde.fixtures import known_basis
from liepde.jet import EvolutionPDE, eliminate_time_jets, get_equation
from liepde.parser import parse
from liepde.prolong import (VectorField, determining_equations, prolong2,
                            residual)
from liepde.solver import ansatz

from conftest import random_fraction
from helpers import coefficient_functions, evaluate, tfuns_of

VARS3 = ("t", "x", "y")


def field3(xi_t, xi_x, xi_y, eta):
    return VectorField(VARS3, "u", (ex.as_expr(xi_t), ex.as_expr(xi_x),
                                    ex.as_expr(xi_y)), ex.as_expr(eta))


class TestProlong2:
    def test_translation_prolongs_to_zero(self):
        ext = prolong2(field3(0, 1, 0, 0))
        assert all(v.is_zero for v in ext.values())

    def test_scaling_prolongs_to_matching_jets(self):
        # u d/du extends with eta^J equal to the matching jet variable
        ext = prolong2(field3(0, 0, 0, U))
        for J, v in ext.items():
            assert v == jet("u", tuple(J))

    def test_delta5_extension_carries_scaling_term(self):
        # d/dx of C(t)(C3 x + C4 y) u contributes the term C(t) C3 u to
        # eta^x; isolate it by zeroing the derivative jets and x, y
        c = coefficient_functions()
        d5 = known_basis()[4]
        eta_x = prolong2(d5)[("x",)]
        bare = eta_x
        for j in sorted([j for j in ex.jets_of(eta_x) if j.order >= 1],
                        key=lambda j: (j.order, j.idx)):
            bare = ex.subst_many(bare, {j: ZERO})
        bare = ex.subst_many(ex.subst_many(bare, {Atom("x"): ZERO}),
                             {Atom("y"): ZERO})
        assert bare == c["C"] * c["C3"] * U

    def test_rejects_jet_coefficients(self):
        with pytest.raises(ex.ExprError):
            field3(0, jet("u", "x"), 0, 0)

    def test_rejects_a_foreign_dependent_symbol(self):
        with pytest.raises(ex.ExprError,
                           match="^foreign dependent symbol 'z'$"):
            field3(0, 0, 0, ex.Z)

    def test_fields_on_different_spaces_are_refused(self, hpz):
        heat_field = VectorField(("t", "x"), "u", (ONE, ZERO), ZERO)
        with pytest.raises(ex.ExprError, match="^vector fields live on "
                           "different spaces$"):
            field3(1, 0, 0, 0).plus(heat_field)
        with pytest.raises(ex.ExprError, match="^vector field and equation "
                           "live on different spaces$"):
            residual(heat_field, hpz)

    def test_rejects_repeated_variables(self):
        # a second "t" slot could never be told apart from the first
        with pytest.raises(ex.ExprError, match="^independent variable 't' "
                           "is given twice$"):
            VectorField(("t", "x", "t"), "u", (ex.ONE, ex.ZERO, ex.ZERO),
                        ex.ZERO)


class TestResidual:
    def test_fixture_symmetry(self, hpz):
        d1 = field3(1, 0, 0, U)
        assert residual(d1, hpz).is_zero

    def test_heat_translation(self, heat):
        vf = VectorField(("t", "x"), "u", (ZERO, ONE), ZERO)
        assert residual(vf, heat).is_zero

    def test_non_symmetry_is_nonzero(self, hpz):
        # oracle: evaluate at 20 random rational points under the binding;
        # a vanishing field would be zero at all of them
        vf = field3(0, X, 0, 0)
        res = residual(vf, hpz)
        assert not res.is_zero
        rng = random.Random(7)
        base = {"R": 5, "S": 4, "V": 1, "W": 1, "omega": 3,
                "delta": Fraction(1, 6)}
        hits = 0
        for _ in range(20):
            point = dict(base)
            for k in ("t", "x", "y", "u", "u_x", "u_y", "u_xx", "u_xy", "u_yy"):
                point[k] = random_fraction(rng)
            if evaluate(res, point):
                hits += 1
        assert hits >= 15
        # and the stated -2W u_xx term is present
        coeff = ex.split_terms(
            res, lambda b: isinstance(b, ex.Jet) and b.order >= 1)
        assert coeff[((ex.Jet("u", ("x", "x")), 1),)] == -2 * W

    def test_linearity(self, hpz):
        basis = known_basis()
        a, b = basis[2], basis[5]
        combo = a.scaled(Fraction(3, 2)).plus(b.scaled(-5))
        assert residual(combo, hpz) == \
            residual(a, hpz) * Fraction(3, 2) - residual(b, hpz) * 5

    def test_solution_symmetry(self, hpz):
        # phi = exp(R t) solves u_t = R u (the x,y-independent restriction)
        vf = field3(0, 0, 0, exp_of(R * T))
        assert residual(vf, hpz).is_zero


def full_formula(vf, pde):
    """The criterion with every eta^J of ``prolong2``, zero partials included:
    sum_i xi^i dtheta/dx_i + eta dtheta/du + sum_J eta^J dtheta/du_J on the
    solution manifold, theta = F - u_t."""
    theta = pde.rhs - jet(pde.dependent, ("t",))
    out = ZERO
    for v, c in zip(vf.variables, vf.xi):
        out = out + c * ex.partial(theta, Atom(v))
    out = out + vf.eta * ex.partial(theta, Jet(vf.dependent, ()))
    for J, etaJ in prolong2(vf).items():
        out = out + etaJ * ex.partial(theta, Jet(vf.dependent, J))
    return eliminate_time_jets(out, pde)


def random_coefficient(rng, names, exp_names):
    """A rational combination of monomials of degree <= 2 in ``names``,
    sometimes times exp of a rational multiple of one of ``exp_names``."""
    out = ZERO
    for _ in range(rng.randint(1, 3)):
        mono = ex.rational(random_fraction(rng))
        for _ in range(rng.randint(0, 2)):
            mono = mono * ex.sym(rng.choice(names))
        out = out + mono
    if rng.random() < 0.4:
        out = out * exp_of(random_fraction(rng) * ex.sym(rng.choice(exp_names)))
    return out


def random_field(rng, pde):
    names = pde.variables + (pde.dependent,)
    xi = tuple(random_coefficient(rng, names, pde.variables)
               for _ in pde.variables)
    eta = random_coefficient(rng, names, pde.variables)
    return VectorField(pde.variables, pde.dependent, xi, eta)


REGISTERED = ("hpz", "heat", "reduced-3.2", "reduced-3.5", "reduced-3.7",
              "reduced-3.9")

# every registered equation is autonomous, so dF/dt = 0 there; these make
# the xi^t dF/dt term and the t-dependence of D_t xi^t matter
NON_AUTONOMOUS = {
    "t-potential": "u_xx + t*x*u",
    "t-diffusion": "exp(t)*u_xx + t^2*u_x",
}


RANDOM_FIELD_EQUATIONS = REGISTERED + tuple(NON_AUTONOMOUS)


def equation(name):
    if name in NON_AUTONOMOUS:
        return EvolutionPDE(("t", "x"), "u", parse(NON_AUTONOMOUS[name]))
    return get_equation(name)


class TestRestrictedResidual:
    """``residual`` works on the solution manifold from the start; it must
    equal the criterion summed over every eta^J that ``prolong2`` returns,
    with the time jets eliminated afterwards."""

    @pytest.mark.parametrize("name", RANDOM_FIELD_EQUATIONS)
    def test_random_fields(self, name):
        pde = equation(name)
        rng = random.Random(RANDOM_FIELD_EQUATIONS.index(name) + 11)
        for _ in range(3):
            vf = random_field(rng, pde)
            assert residual(vf, pde) == full_formula(vf, pde)

    def test_published_generators(self, hpz):
        for vf in known_basis():
            assert residual(vf, hpz) == full_formula(vf, hpz)

    @pytest.mark.parametrize("name", ["hpz", "heat", "reduced-3.7"])
    def test_solver_ansatz_field(self, name):
        pde = get_equation(name)
        _, vf = ansatz(pde)
        assert residual(vf, pde) == full_formula(vf, pde)


def _no_time_jets(e, where):
    for j in ex.jets_of(e):
        assert "t" not in j.idx, f"time jet {ex.base_label(j)} in {where}"


class TestNoTimeJets:
    """The residual is built on the solution manifold: no total derivative
    it takes sees or makes a time jet, and no substitution pass runs."""

    def fields(self):
        hpz = get_equation("hpz")
        yield from ((vf, hpz) for vf in known_basis())
        for name in ("hpz", "heat", "reduced-3.7"):
            pde = get_equation(name)
            yield ansatz(pde)[1], pde

    def test_total_derivatives_stay_spatial(self, monkeypatch):
        original = prolong_module.total_derivative
        calls = []

        def spatial_only(e, v, *args, **kwargs):
            _no_time_jets(e, f"the input of D_{v}")
            out = original(e, v, *args, **kwargs)
            _no_time_jets(out, f"the output of D_{v}")
            calls.append(v)
            return out

        monkeypatch.setattr(prolong_module, "total_derivative", spatial_only)
        for vf, pde in self.fields():
            _no_time_jets(residual(vf, pde), "the residual")
        assert calls and "t" not in calls

    def test_no_elimination_pass(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("residual ran a substitution pass")

        monkeypatch.setattr(ex, "subst_many", refuse)
        monkeypatch.setattr(jet_module, "eliminate_time_jets", refuse)
        for vf, pde in self.fields():
            residual(vf, pde)


class TestDeterminingSystem:
    def test_pure_time_ansatz_forces_constant(self, hpz):
        vf = field3(tfun("a"), 0, 0, 0)
        equations = determining_equations(vf, hpz)
        nontrivial = [eq for eq in equations if not eq.is_zero]
        assert nontrivial
        ap = tfun("a", 1)
        for eq in nontrivial:
            q = ex.divide_exact(eq, ap)
            assert not tfuns_of(q), "every equation is a multiple of a'"

    def test_heat_shift_ansatz(self, heat):
        vf = VectorField(("t", "x"), "u", (ZERO, ONE), tfun("g") * U)
        equations = determining_equations(vf, heat)
        nontrivial = [eq for eq in equations if not eq.is_zero]
        assert len(nontrivial) == 1
        eq = nontrivial[0]
        assert eq == -tfun("g", 1) or eq == tfun("g", 1)

    def test_zero_system_iff_symmetry(self, hpz):
        d3 = known_basis()[2]
        assert not any(determining_equations(d3, hpz))

    def test_no_time_jets_in_system(self, hpz):
        vf = field3(tfun("a"), tfun("b") * X, tfun("c"), tfun("f") * U)
        res = residual(vf, hpz)
        assert any(j.order >= 1 for j in ex.jets_of(res))
        for j in ex.jets_of(res):
            assert "t" not in j.idx
        for eq in determining_equations(vf, hpz):
            assert not ex.jets_of(eq)
