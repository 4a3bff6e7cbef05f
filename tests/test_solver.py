"""Discovery, verification reports, and (1+1) profiles."""

from fractions import Fraction as Fr

import pytest

from liepde import expr as ex
from liepde.fixtures import generator_names, known_basis
from liepde.jet import EvolutionPDE, get_equation
from liepde.prolong import residual
from liepde.solver import (Ansatz, Binding, BindingError, profile_basis,
                           solve_determining, span_rank, verify_basis)


class TestBinding:
    def test_parse_and_omega(self, binding):
        assert binding.discriminant() == 5 * 5 - 4 * Fr(4)
        assert binding.omega() == 3
        assert binding.rv_plus_w() == 6

    def test_inconsistent_omega_rejected(self):
        with pytest.raises(BindingError):
            Binding.parse("R=5,S=4,omega=2").omega()

    def test_non_square_discriminant_rejected(self):
        with pytest.raises(BindingError):
            Binding.parse("R=5,S=3").omega()

    def test_negative_discriminant_rejected(self):
        with pytest.raises(BindingError):
            Binding.parse("R=0,S=1").omega()

    def test_degenerate_reduction_guards(self):
        with pytest.raises(BindingError, match="repeated-root"):
            Binding.parse("R=2,S=1,V=1,W=1").require_reduction_params()
        with pytest.raises(BindingError, match="singular"):
            Binding.parse("R=1,S=0,V=1,W=-1").require_reduction_params()

    def test_apply_resolves_delta(self, binding):
        assert binding.apply(ex.DELTA) == ex.rational(Fr(1, 6))
        assert binding.apply(ex.OMEGA) == ex.rational(3)


class TestDiscovery:
    def test_hpz_dimension_six(self, hpz, binding):
        basis = solve_determining(hpz, binding)
        assert basis.dimension == 6
        # candidate exponents of the coefficient exponentials at the binding
        assert {Fr(0), Fr(-4), Fr(-1), Fr(1), Fr(4)} <= set(basis.exponents)

    def test_hpz_span_equals_fixture_span(self, hpz, binding):
        basis = solve_determining(hpz, binding)
        fixture = [binding.apply_field(vf) for vf in known_basis()]
        assert span_rank(fixture) == 6
        assert span_rank(basis.fields) == 6
        assert span_rank(list(fixture) + list(basis.fields)) == 6

    def test_every_generator_reverified(self, hpz, binding):
        basis = solve_determining(hpz, binding)
        for vf in basis.fields:
            assert residual(vf, basis.pde).is_zero

    def test_heat_dimension_six(self, heat):
        assert solve_determining(heat).dimension == 6

    def test_unbound_parameters_rejected(self, hpz):
        with pytest.raises(BindingError):
            solve_determining(hpz, Binding.parse("R=5,S=4"))

    def test_irrational_exponents_refused(self, hpz):
        with pytest.raises(BindingError, match="perfect"):
            solve_determining(hpz, Binding.parse("R=5,S=3,V=1,W=1"))

    def test_small_ansatz_returns_subspace(self, heat):
        # degree cap 0 drops the polynomial-in-t generators, no error
        basis = solve_determining(heat, trial_degree=0)
        assert 0 < basis.dimension < 6

    def test_larger_caps_reveal_nothing_new(self, hpz, heat, binding):
        # raising the trial degree beyond the default must not enlarge the
        # finite symmetry space
        assert solve_determining(heat, trial_degree=4).dimension == 6
        assert solve_determining(hpz, binding, trial_degree=3).dimension == 6

    @pytest.mark.xfail(strict=True, reason=(
        "known completeness bug: u_t = u_xx + x^2*u is point-equivalent to "
        "the heat equation (dimension 6), but its exponents +-2i and +-4i "
        "are imaginary, the Gram-determinant/Sturm certificate only sees "
        "real rank drops, and discovery silently returns dimension 2"))
    def test_imaginary_exponents_not_missed(self):
        pde = EvolutionPDE(("t", "x"), "u",
                           ex.jet("u", "xx") + ex.X ** 2 * ex.jet("u", ""))
        assert solve_determining(pde).dimension == 6


class TestVerifyBasis:
    def test_report_rows(self, hpz):
        rows = verify_basis(zip(generator_names(), known_basis()), hpz)
        assert len(rows) == 6
        assert all(r.ok for r in rows)

    def test_failures_are_rows_not_exceptions(self, hpz):
        from liepde.prolong import VectorField
        bad = VectorField(("t", "x", "y"), "u",
                          (ex.ZERO, ex.X, ex.ZERO), ex.ZERO)
        rows = verify_basis([("bad", bad)], hpz)
        assert len(rows) == 1 and not rows[0].ok


class TestProfiles:
    @pytest.mark.parametrize("name", ["reduced-3.2", "reduced-3.5",
                                      "reduced-3.7", "reduced-3.9"])
    def test_reduced_equations_maximal(self, name, binding):
        basis = solve_determining(get_equation(name), binding)
        assert basis.dimension == 6
        prof = profile_basis(basis)
        assert prof.all_match
        assert (prof.a_rank, prof.b_rank, prof.f_rank) == (3, 2, 1)
        assert sum(1 for row in prof.rows if not row.a.is_zero) == 3

    def test_profile_trivial_generators(self, heat):
        basis = solve_determining(heat)
        prof = profile_basis(basis)
        assert prof.all_match
        # time translation: a = 1, b = 0; scaling u d/du: a = b = 0, f = 1
        shapes = {(str(r.a), str(r.b), str(r.scaling)) for r in prof.rows}
        assert ("1", "0", "0") in shapes
        assert ("0", "0", "1") in shapes

    def test_profile_needs_two_variables(self, hpz, binding):
        basis = solve_determining(hpz, binding)
        with pytest.raises(ex.ExprError):
            profile_basis(basis)


class TestAnsatz:
    def test_contains_fixture_shapes(self, hpz):
        names = Ansatz(hpz).unknown_names()
        assert "a" in names and len(names) == 13
        vf = Ansatz(hpz).build()
        assert vf.component("t") == ex.tfun("a")
