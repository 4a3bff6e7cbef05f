"""Commutators, structure constants, Jacobi, and classification."""

import json
import random
from fractions import Fraction as Fr
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest

import liepde
from liepde import expr as ex, linalg
from liepde import algebra
from liepde.algebra import (BRACKET_TABLE_SIZE, AlgebraPresentation,
                            ClosureError, _ad_bracket, _derived_space,
                            _killing_matrix, _levi_complement, _row_basis,
                            _subalgebra, classify, commutator,
                            structure_constants)
from liepde.cli import _load_basis_file
from liepde.expr import DELTA, OMEGA, R, S, T, U, V, W, X, Y, ZERO, ONE
from liepde.fixtures import known_basis
from liepde.jet import get_equation, make_heat
from liepde.linalg import inertia, q_rank
from liepde.prolong import VectorField
from liepde.solver import Binding, solve_determining

from helpers import triangular_mix


def _fields_from_coords(basis, coords) -> VectorField:
    """The vector field with coordinates ``coords`` over ``basis``."""
    out = basis[0].scaled(coords[0])
    for field, c in zip(basis[1:], coords[1:]):
        out = out.plus(field.scaled(c))
    return out


@pytest.fixture(scope="module")
def basis():
    return known_basis()


@pytest.fixture(scope="module")
def reduced_basis():
    binding = Binding.parse("R=5,S=4,V=1,W=1")
    return solve_determining(get_equation("reduced-3.2"), binding)


class TestCommutator:
    def test_commuting_pair(self, basis):
        d1, d2 = basis[0], basis[1]
        assert commutator(d1, d2).is_zero()

    def test_conjugate_pairs_vanish(self, basis):
        # the W5 pairing: (delta3, delta6) and (delta4, delta5) pair up,
        # the cross brackets vanish
        assert commutator(basis[2], basis[4]).is_zero()  # [d3, d5]
        assert commutator(basis[3], basis[5]).is_zero()  # [d4, d6]

    def test_central_bracket_value(self, basis):
        # [d3, d6] = R omega (R + omega) / (2 (RV + W)) * d2
        coeff = Fr(1, 2) * R * OMEGA * (R + OMEGA) * DELTA
        diff = commutator(basis[2], basis[5]).plus(basis[1].scaled(-coeff))
        assert diff.is_zero()
        # numeric spot check at R=5, S=4, V=1, W=1: 5*3*8 / 12 = 10
        b = Binding.parse("R=5,S=4,V=1,W=1")
        assert b.apply(coeff).as_fraction() == Fr(5 * 3 * 8, 12) == 10

    def test_time_action_on_delta3(self, basis):
        # [d1, d3] = -(R + omega)/2 * d3
        diff = commutator(basis[0], basis[2]).plus(
            basis[2].scaled(Fr(1, 2) * (R + OMEGA)))
        assert diff.is_zero()

    def test_w5_pairing_structure(self, basis):
        # exactly two nonzero central brackets among delta3..delta6
        nonzero = []
        for i, j in combinations(range(2, 6), 2):
            if not commutator(basis[i], basis[j]).is_zero():
                nonzero.append((i + 1, j + 1))
        assert nonzero == [(3, 6), (4, 5)]

    def test_antisymmetry_and_bilinearity_randomized(self, basis):
        rng = random.Random(17)
        for _ in range(60):
            i, j = rng.randrange(6), rng.randrange(6)
            a, b = basis[i], basis[j]
            lhs = commutator(a, b)
            rhs = commutator(b, a).scaled(-1)
            assert lhs.render() == rhs.render()
            c1, c2 = Fr(rng.randint(-4, 4)), Fr(rng.randint(-4, 4))
            combo = commutator(a.scaled(c1).plus(b.scaled(c2)), basis[2])
            split = commutator(a, basis[2]).scaled(c1).plus(
                commutator(b, basis[2]).scaled(c2))
            assert combo.plus(split.scaled(-1)).is_zero()

    @pytest.mark.parametrize("seed", range(4))
    def test_cached_jacobian_matches_apply_to(self, seed):
        # the definition: [X, Y]^k = X(Y^k) - Y(X^k), coefficient-wise
        rng = random.Random(seed)
        pool = [T, X, Y, U, R, OMEGA, DELTA, ex.exp_of(Fr(1, 2) * T),
                ex.exp_of(OMEGA * T - X), ex.exp_of(R * X * DELTA)]

        def coefficient():
            e = ZERO
            for _ in range(rng.randint(0, 3)):
                mono = ex.rational(Fr(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(rng.randint(0, 3)):
                    mono = mono * rng.choice(pool)
                e = e + mono
            return e

        fields = [VectorField(("t", "x", "y"), "u",
                              tuple(coefficient() for _ in range(3)),
                              coefficient()) for _ in range(5)]
        for a in fields:
            for b in fields:
                expected = [a.apply_to(yc) - b.apply_to(xc) for xc, yc
                            in zip(a.coefficients(), b.coefficients())]
                assert list(commutator(a, b).coefficients()) == expected
        assert all(f.jacobian is f.jacobian for f in fields)

    def test_jacobi_all_triples(self, basis):
        for i, j, k in combinations(range(6), 3):
            acc = commutator(commutator(basis[i], basis[j]), basis[k])
            acc = acc.plus(commutator(commutator(basis[j], basis[k]), basis[i]))
            acc = acc.plus(commutator(commutator(basis[k], basis[i]), basis[j]))
            assert acc.is_zero(), (i, j, k)


class TestStructureConstants:
    def test_two_dimensional_example(self):
        vars2 = ("t", "x")
        e1 = VectorField(vars2, "u", (ZERO, ONE), ZERO)          # d/dx
        e2 = VectorField(vars2, "u", (ZERO, X), ZERO)            # x d/dx
        pres = structure_constants([e1, e2])
        assert pres.constants[0][1] == (ONE, ZERO)               # [e1,e2] = e1
        verdict = classify(pres)
        assert verdict.name == "A2"

    def test_non_closure_is_an_error_naming_the_pair(self):
        vars2 = ("t", "x")
        e1 = VectorField(vars2, "u", (ZERO, ONE), ZERO)
        e2 = VectorField(vars2, "u", (ZERO, X ** 2), ZERO)
        with pytest.raises(ClosureError, match="^commutator of basis elements "
                           "1 and 2 is not in the span of the basis$"):
            structure_constants([e1, e2])

    def test_unrepresentable_constant_is_an_error_naming_the_pair(self):
        # [x d/dy, d/dx] = -d/dy = -1/(R + S) times (R + S) d/dy, and
        # 1/(R + S) is not a kernel expression
        vars3 = ("t", "x", "y")
        fields = [VectorField(vars3, "u", (ZERO, ZERO, X), ZERO),
                  VectorField(vars3, "u", (ZERO, ONE, ZERO), ZERO),
                  VectorField(vars3, "u", (ZERO, ZERO, R + S), ZERO)]
        with pytest.raises(ClosureError, match=r"^structure constant for "
                           r"pair \(1, 2\) is not representable: "):
            structure_constants(fields)

    @pytest.mark.parametrize("name", ["hpz", "reduced-3.2"])
    def test_corrupted_constant_fails_the_coordinate_recheck(
            self, name, basis, reduced_basis, monkeypatch):
        # the bracket rows are formed without the expansion, so a wrong
        # solution cannot pass the re-check: a symbolic tensor is solved
        # over the expressions (one value off by one), a rational one over
        # the integers (one numerator off by one)
        fields = basis if name == "hpz" else reduced_basis.fields
        if name == "hpz":
            solve, bump = linalg.f_solve_unique, _bump_pair
        else:
            solve, bump = linalg.z_solve_unique, lambda x: x + 1

        def corrupted(matrix, rhss, ncols=None):
            out = solve(matrix, rhss, ncols)
            sols = out if name == "hpz" else out[0]
            sols[-1] = [bump(sols[-1][0])] + sols[-1][1:]
            return out

        monkeypatch.setattr(linalg, solve.__name__, corrupted)
        n = len(fields)
        with pytest.raises(ex.InternalError, match=rf"^internal error: "
                           rf"expansion of pair \({n - 1}, {n}\) failed "
                           rf"re-verification$"):
            structure_constants(fields)

    def test_dependent_basis_rejected(self, basis):
        with pytest.raises(ex.ExprError,
                           match="^basis is not linearly independent$"):
            structure_constants([basis[1], basis[1].scaled(2)])

    def test_empty_basis_rejected(self):
        with pytest.raises(ex.ExprError,
                           match="^an empty basis has no structure constants$"):
            structure_constants([])

    def test_fields_on_different_spaces_rejected(self):
        plane = VectorField(("t", "x"), "u", (ZERO, ONE), ZERO)
        space = VectorField(("t", "x", "y"), "u", (ZERO, ONE, ZERO), ZERO)
        for fields in ([plane, space], [plane, plane.scaled(X), space]):
            with pytest.raises(ex.ExprError, match="^vector fields live on "
                               "different spaces$"):
                structure_constants(fields)
        # and the reference commutator
        with pytest.raises(ex.ExprError, match="^vector fields live on "
                           "different spaces$"):
            commutator(plane, space)

    def test_parameter_from_an_exponential_keeps_expressions(self):
        # rational coordinates, but [d/dt, exp(R t) d/dx] = R exp(R t) d/dx
        # has the constant R
        vars2 = ("t", "x")
        e1 = VectorField(vars2, "u", (ONE, ZERO), ZERO)
        e2 = VectorField(vars2, "u", (ZERO, ex.exp_of(R * T)), ZERO)
        pres = structure_constants([e1, e2])
        assert pres.constants[0][1] == (ZERO, R)
        assert classify(pres).name == "A2"

    def test_rational_pairs_after_a_symbolic_one_are_expressions(self):
        # pair (1, 2) meets the constant R; pair (2, 3),
        # [exp(R t) d/dx, x d/dx] = exp(R t) d/dx, has rational pieces only
        vars2 = ("t", "x")
        e1 = VectorField(vars2, "u", (ONE, ZERO), ZERO)
        e2 = VectorField(vars2, "u", (ZERO, ex.exp_of(R * T)), ZERO)
        e3 = VectorField(vars2, "u", (ZERO, X), ZERO)
        pres = structure_constants([e1, e2, e3])
        assert pres.ring is algebra.EXPRESSIONS
        assert pres.constants[0][1] == (ZERO, R, ZERO)
        assert pres.constants[1][2] == (ZERO, ONE, ZERO)
        assert pres.constants[0][2] == (ZERO, ZERO, ZERO)
        verdict = classify(pres)
        assert verdict.name == "A1 (+)s 2A1"
        assert verdict.as_dict()["ideal_basis"] == [["0", "1", "0"],
                                                    ["R", "0", "R^2"]]

    def test_cancelling_symbolic_brackets_give_rational_constants(self):
        # [d/dt + d/dy, exp(R t - R y) d/dx] = R e d/dx - R e d/dx = 0
        vars3 = ("t", "x", "y")
        e1 = VectorField(vars3, "u", (ONE, ZERO, ONE), ZERO)
        e2 = VectorField(vars3, "u", (ZERO, ex.exp_of(R * T - R * Y), ZERO),
                         ZERO)
        pres = structure_constants([e1, e2])
        assert pres.ring is algebra.INTEGERS
        assert pres.constants[0][1] == (Fr(0), Fr(0))
        assert classify(pres).name == "2A1"

    def test_w5_tensor(self, basis):
        pres = structure_constants(basis[1:])
        # center and derived algebra are both the delta2 line
        verdict = classify(pres)
        assert verdict.center_dim == 1
        assert verdict.derived_dim == 1

    def test_full_tensor_symbolic(self, basis):
        pres = structure_constants(basis)
        # [d1, .] acts on the ideal spanned by d2..d6
        assert pres.constants[0][2][2] == -Fr(1, 2) * (R + OMEGA)


class TestClassification:
    def test_w5(self, basis):
        verdict = classify(structure_constants(basis[1:]))
        assert verdict.name == "W5"
        assert verdict.dimension == 5

    def test_full_algebra_semidirect(self, basis):
        verdict = classify(structure_constants(basis))
        assert verdict.name == "A1 (+)s W5"
        ideal = verdict.ideal_basis
        assert len(ideal) == 5
        # ideal is span{delta2..delta6}: no delta1 coordinate
        assert all(v[0].is_zero for v in ideal)
        assert len(verdict.complement_basis) == 1

    @pytest.mark.parametrize("factor", [1, R, OMEGA, V])
    def test_change_of_basis_over_the_parameter_field(self, basis, factor):
        # e2 += factor*e1: the Killing radical's nullspace vectors are 1 at
        # their free columns, so its constants stay kernel values
        fields = list(basis)
        fields[1] = basis[1].plus(basis[0].scaled(factor))
        assert classify(structure_constants(fields)).name == "A1 (+)s W5"

    def test_seeded_rational_changes_of_basis(self, basis):
        for seed in range(40):
            fields = triangular_mix(random.Random(seed), basis)
            verdict = classify(structure_constants(fields))
            assert verdict.name == "A1 (+)s W5", seed

    def test_reduced_basis_sl2_w3(self, reduced_basis):
        verdict = classify(structure_constants(reduced_basis.fields))
        assert verdict.name == "sl(2,R) (+)s W3"
        assert verdict.mubarakzyanov_label is None
        # complement = exactly the generators with nonzero time component
        a_parts = [vf.component("t") for vf in reduced_basis.fields]
        for vec in verdict.complement_basis:
            combo = ex.ZERO
            for c, a in zip(vec, a_parts):
                combo = combo + c * a
            assert not combo.is_zero
        for vec in verdict.ideal_basis:
            combo = ex.ZERO
            for c, a in zip(vec, a_parts):
                combo = combo + c * a
            assert combo.is_zero

    def test_w3_label_note(self, reduced_basis):
        verdict = classify(structure_constants(reduced_basis.fields))
        joined = " ".join(verdict.notes)
        assert "A3,3" in joined and "A3,1" in joined

    def test_sl2_killing_signature(self, reduced_basis):
        # the corrected complement alone is sl(2, R) with signature (2, 1)
        pres = structure_constants(reduced_basis.fields)
        verdict = classify(pres)
        comp_fields = [_fields_from_coords(pres.basis, v)
                       for v in verdict.complement_basis]
        sub = classify(structure_constants(comp_fields))
        assert sub.name == "sl(2,R)"
        assert sub.mubarakzyanov_label == "A3,8"

    def test_levi_correction_fault_propagates(self, reduced_basis,
                                              monkeypatch):
        # a fault in the rational solve of the Levi correction, which runs
        # over the integers, must surface, not silently skip the correction
        # and change the verdict
        from liepde import linalg

        def broken(matrix, rhss, ncols=None):
            raise RuntimeError("solve fault")

        pres = structure_constants(reduced_basis.fields)
        monkeypatch.setattr(linalg, "z_solve_unique", broken)
        with pytest.raises(RuntimeError, match="solve fault") as err:
            classify(pres)
        assert "_correct_stage" in [entry.name for entry in err.traceback]

    def test_symbolic_constants_are_not_levi_corrected(self, discovered,
                                                       monkeypatch):
        # a heat basis of the classify benchmark with every other element
        # scaled by delta, 1/delta = R*V + W: c'_ij^k = s_i s_j / s_k c_ij^k.
        # The rational tensor needs the correction; over the expressions it
        # is not attempted, since no budget bounds the delta powers that
        # the read-off divide_exact multiplies out
        pres = structure_constants(_classify_bases(1, discovered)[0])
        n = pres.dimension
        s = [DELTA if i % 2 else ONE for i in range(n)]
        over = [R * V + W if k % 2 else ONE for k in range(n)]
        scaled = liepde.AlgebraPresentation((), tuple(
            tuple(tuple(ex.rational(x) * s[i] * s[j] * over[k]
                        for k, x in enumerate(col))
                  for j, col in enumerate(row))
            for i, row in enumerate(pres.constants)))
        assert scaled.ring is algebra.EXPRESSIONS
        calls = []
        correct = algebra._correct_stage
        monkeypatch.setattr(algebra, "_correct_stage",
                            lambda *args: calls.append(args) or correct(*args))
        assert classify(pres).name == "sl(2,R) (+)s W3" and calls

        def refused(*args):
            pytest.fail("a symbolic Levi correction was attempted")

        monkeypatch.setattr(algebra, "_correct_stage", refused)
        verdict = classify(scaled)
        assert (verdict.name, verdict.notes) == ("unclassified",
                                                 ("no recognised structure",))

    def test_swell_in_a_subalgebra_is_refused_not_unclassified(
            self, reduced_basis, monkeypatch):
        # a refusal inside a subalgebra is a refusal of the whole
        def swelling(p, vectors):
            raise linalg.ExpressionSwellError("expression swell")

        pres = structure_constants(reduced_basis.fields)
        monkeypatch.setattr(algebra, "_subalgebra", swelling)
        with pytest.raises(linalg.ExpressionSwellError):
            classify(pres)

    @pytest.mark.parametrize("error", [ClosureError, ex.InternalError])
    def test_errors_in_a_subalgebra_propagate(self, error, reduced_basis,
                                              monkeypatch):
        # not "unclassified": a closure refusal exits 2 and a failed
        # re-verification 3, as they do from structure_constants
        def failing(p, vectors):
            raise error("in a subalgebra")

        pres = structure_constants(reduced_basis.fields)
        monkeypatch.setattr(algebra, "_subalgebra", failing)
        with pytest.raises(error, match="^in a subalgebra$"):
            classify(pres)

    def test_abelian(self):
        vars2 = ("t", "x")
        e1 = VectorField(vars2, "u", (ZERO, ONE), ZERO)
        e2 = VectorField(vars2, "u", (ONE, ZERO), ZERO)
        verdict = classify(structure_constants([e1, e2]))
        assert verdict.name == "2A1"

    def test_unclassified_never_lies(self):
        # so(3): compact simple, not in the recognised list
        vars3 = ("t", "x", "y")
        e1 = VectorField(vars3, "u", (ZERO, -Y, X), ZERO)
        e2 = VectorField(vars3, "u", (Y, ZERO, -ex.T), ZERO)
        e3 = VectorField(vars3, "u", (-X, ex.T, ZERO), ZERO)
        verdict = classify(structure_constants([e1, e2, e3]))
        assert verdict.name == "unclassified"
        # its Killing form is negative definite
        assert verdict.notes == ("semisimple with Killing signature (0,3)",)

    @pytest.mark.parametrize("n, brackets, why", [
        # filiform: nilpotent, so the Killing radical is the whole algebra
        (4, {(0, 1): 2, (0, 2): 3}, "no recognised structure"),
        (7, {}, "dimension above 6 is out of scope"),
    ])
    def test_tensor_only_presentations_are_unclassified(self, n, brackets,
                                                        why):
        c = [[[Fr(0)] * n for _ in range(n)] for _ in range(n)]
        for (i, j), k in brackets.items():
            c[i][j][k], c[j][i][k] = Fr(1), Fr(-1)
        verdict = classify(AlgebraPresentation(
            (), tuple(tuple(map(tuple, row)) for row in c)))
        assert (verdict.name, verdict.notes) == ("unclassified", (why,))

    @pytest.mark.parametrize("brackets, center, derived", [
        # the Killing radical is not nilpotent
        ({(0, 1): {1: 1, 2: 1}, (0, 2): {1: -1, 2: 1}, (3, 4): {4: 1}}, 0, 3),
        # the radical, W3 (+) A1, is itself unclassified
        ({(1, 2): {3: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 2},
          (0, 4): {4: 1}}, 0, 4),
        # no Levi correction closes the complement
        ({(0, 1): {4: 1}, (0, 2): {2: 1}, (1, 3): {3: 1}}, 1, 3),
    ])
    def test_semidirect_sums_that_name_nothing(self, brackets, center,
                                               derived):
        c = [[[Fr(0)] * 5 for _ in range(5)] for _ in range(5)]
        for (i, j), column in brackets.items():
            for k, value in column.items():
                c[i][j][k], c[j][i][k] = Fr(value), Fr(-value)
        pres = AlgebraPresentation((), tuple(tuple(map(tuple, row))
                                             for row in c))
        for p in (pres, _as_expressions(pres)):
            verdict = classify(p)
            assert (verdict.name, verdict.center_dim, verdict.derived_dim,
                    verdict.notes) == ("unclassified", center, derived,
                                       ("no recognised structure",))

    def test_basis_change_invariance(self, reduced_basis):
        rng = random.Random(23)
        fields = list(reduced_basis.fields)
        n = len(fields)
        for trial in range(10):
            # random unimodular integer matrix from elementary shears
            m = [[Fr(i == j) for j in range(n)] for i in range(n)]
            for _ in range(8):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    c = rng.randint(-2, 2)
                    for k in range(n):
                        m[i][k] += c * m[j][k]
            new_fields = []
            for i in range(n):
                acc = fields[0].scaled(m[i][0])
                for j in range(1, n):
                    acc = acc.plus(fields[j].scaled(m[i][j]))
                new_fields.append(acc)
            verdict = classify(structure_constants(new_fields))
            assert verdict.name == "sl(2,R) (+)s W3", f"trial {trial}"


def _signature(m):
    return inertia([[Fr(v) for v in row] for row in m])


def _symmetric(rng, n, zero_diagonal):
    k = [[Fr(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            if rng.random() < 0.7:
                k[i][j] = k[j][i] = Fr(rng.randint(-4, 4), rng.randint(1, 3))
    return k


def _invertible(rng, n):
    while True:
        p = [[Fr(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
             for _ in range(n)]
        if q_rank(p) == n:
            return p


def _congruent(k, p):
    """P^T K P."""
    n = len(k)
    kp = [[sum(k[i][l] * p[l][j] for l in range(n)) for j in range(n)]
          for i in range(n)]
    return [[sum(p[l][i] * kp[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)]


def _inertia_by_descartes(k):
    """(positive, negative, zero) eigenvalue counts of a symmetric matrix.

    The characteristic polynomial comes from the Faddeev-LeVerrier
    recurrence; its roots are all real, so Descartes' rule of signs counts
    the positive roots (and, on p(-x), the negative ones) exactly.
    """
    n = len(k)
    coeffs = [Fr(1)]                     # x^n, x^(n-1), ..., x^0
    m = [[Fr(0)] * n for _ in range(n)]
    for step in range(1, n + 1):
        m = [[sum(k[i][l] * m[l][j] for l in range(n))
              + (coeffs[-1] if i == j else 0) for j in range(n)]
             for i in range(n)]
        trace = sum(sum(k[i][l] * m[l][i] for l in range(n)) for i in range(n))
        coeffs.append(-trace / step)
    zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        zero += 1

    def changes(cs):
        signs = [c > 0 for c in cs if c != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    degree = len(coeffs) - 1
    mirrored = [c if (degree - i) % 2 == 0 else -c for i, c in enumerate(coeffs)]
    return changes(coeffs), changes(mirrored), zero


class TestKillingSignature:
    """Sylvester's law of inertia: congruence keeps the signature."""

    def test_zero_diagonal_branches(self):
        assert _signature([[0, 1], [1, 0]]) == (1, 1, 0)   # all-zero diagonal
        assert _signature([[0, 1], [1, 2]]) == (1, 1, 0)   # leading zero
        assert _signature([[0, 0], [0, 0]]) == (0, 0, 2)
        assert _signature([]) == (0, 0, 0)

    @pytest.mark.parametrize("seed", range(8))
    def test_diagonal_read_off_and_kept_by_congruence(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 5)
        d = [Fr(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
        expected = (sum(v > 0 for v in d), sum(v < 0 for v in d),
                    sum(v == 0 for v in d))
        diag = [[d[i] if i == j else Fr(0) for j in range(n)]
                for i in range(n)]
        assert _signature(diag) == expected
        assert _signature(_congruent(diag, _invertible(rng, n))) == expected

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("zero_diagonal", [False, True])
    def test_congruence_invariance(self, seed, zero_diagonal):
        rng = random.Random(seed)
        n = rng.randint(2, 5)
        k = _symmetric(rng, n, zero_diagonal)
        p = _invertible(rng, n)
        assert _signature(k) == _inertia_by_descartes(k)
        assert _signature(_congruent(k, p)) == _signature(k)


def _subspaces(pres):
    """The Killing radical, and the Levi complement when there is one."""
    radical = pres.ring.nullspace(_killing_matrix(pres))
    out = [radical]
    if len(radical) < pres.dimension:
        out.append(_levi_complement(
            pres, radical, algebra._derived_space_sub(pres, radical))[0])
    return out


class TestSubalgebras:
    """Subalgebras presented from the parent's tensor, in coordinates."""

    def _check(self, fields):
        # a subalgebra is presented in the bracket of pres.cleared, D*c in
        # INTEGERS (D the common denominator) and c itself in EXPRESSIONS,
        # by its verified expansions: den*c, den the denominator of its own
        # solve, so one positive rational multiple of D times the direct
        # tensor.  Doubling one vector makes den 2 wherever an expansion has
        # an odd coefficient on it.
        pres = structure_constants(fields)
        d = 1 if pres.ring is algebra.EXPRESSIONS else lcm(*(
            x.denominator for row in pres.constants for col in row
            for x in col))
        for space in _subspaces(pres):
            doubled = [space[:k] + [[2 * x for x in v]] + space[k + 1:]
                       for k, v in enumerate(space)]
            for vectors in [space] + doubled:
                direct = structure_constants(
                    [_fields_from_coords(pres.basis, v) for v in vectors])
                sub = _subalgebra(pres, vectors)
                assert sub.dimension == direct.dimension
                got, want = ([ex.as_expr(x) for row in c for col in row
                              for x in col]
                             for c in (sub.constants, direct.constants))
                want = [ex.rational(d) * x for x in want]
                mu = next((x / y for x, y in zip(got, want)
                           if not y.is_zero), ex.ONE)
                assert mu.is_rational and mu.as_fraction() > 0
                assert got == [mu * y for y in want]

    def test_hpz_basis(self, basis):
        self._check(basis)

    def test_w5_fixture(self):
        self._check(_load_basis_file(
            str(Path(__file__).parent.parent / "fixtures" / "w5.json")))

    def test_reduced_basis(self, reduced_basis):
        self._check(reduced_basis.fields)

    @pytest.mark.parametrize("seed", range(3))
    def test_triangular_mixes(self, seed, basis, reduced_basis):
        rng = random.Random(seed)
        bound = Binding.parse("R=3,S=2,V=1,W=2")
        self._check(triangular_mix(rng, [bound.apply_field(f)
                                         for f in basis]))
        self._check(triangular_mix(rng, reduced_basis.fields))

    def _check_corrupted_solve(self, pres, monkeypatch, name, bump):
        radical, complement = _subspaces(pres)
        solve = getattr(linalg, name)

        def corrupted(matrix, rhss, ncols=None):
            out = solve(matrix, rhss, ncols)
            sols = out[0] if name == "z_solve_unique" else out
            sols[-1] = [bump(sols[-1][0])] + sols[-1][1:]
            return out

        monkeypatch.setattr(linalg, name, corrupted)
        for vectors in (radical, complement):
            s = len(vectors)
            with pytest.raises(ex.InternalError, match=rf"^internal error: "
                               rf"expansion of pair \({s - 1}, {s}\) failed "
                               rf"re-verification$"):
                _subalgebra(pres, vectors)

    def test_corrupted_constant_fails_the_coordinate_recheck(
            self, reduced_basis, monkeypatch):
        # the integer tensor classify computes on: z_solve_unique gives
        # integer numerators over one denominator
        pres = structure_constants(reduced_basis.fields)
        self._check_corrupted_solve(AlgebraPresentation((), pres.cleared),
                                    monkeypatch, "z_solve_unique",
                                    lambda x: x + 1)

    def test_corrupted_constant_fails_the_coordinate_recheck_as_expr(
            self, reduced_basis, monkeypatch):
        # the same tensor held as Expr: f_solve_unique gives (entry, pivot)
        # pairs, and the value of one is off by one
        pres = _as_expressions(structure_constants(reduced_basis.fields))
        self._check_corrupted_solve(pres, monkeypatch, "f_solve_unique",
                                    _bump_pair)

def _bump_pair(pair):
    """An (entry, pivot) pair whose quotient is one more."""
    entry, pivot = pair
    return entry + pivot, pivot


def _as_expressions(pres):
    """The same presentation with its rational constants held as ``Expr``."""
    return AlgebraPresentation(pres.basis, tuple(
        tuple(tuple(ex.rational(c) for c in col) for col in row)
        for row in pres.constants))


def _mixes():
    """Seeded triangular mixes of the heat basis, the reduced-3.2 and
    reduced-3.7 bases and the hpz basis bound at R=5, S=4, V=1, W=1, with
    the name each classifies as."""
    binding = Binding.parse("R=5,S=4,V=1,W=1")
    sources = [
        (solve_determining(make_heat()).fields, "sl(2,R) (+)s W3"),
        (solve_determining(get_equation("reduced-3.2"), binding).fields,
         "sl(2,R) (+)s W3"),
        (solve_determining(get_equation("reduced-3.7"), binding).fields,
         "sl(2,R) (+)s W3"),
        ([binding.apply_field(f) for f in known_basis()], "A1 (+)s W5"),
    ]
    return [(triangular_mix(random.Random(seed), fields), name)
            for seed in range(3) for fields, name in sources]


class TestFieldParity:
    """A rational tensor held as Fraction and the same tensor held as Expr
    give the same verdict, witnesses and rendered constants."""

    @pytest.fixture(scope="class")
    def presentations(self):
        return [(structure_constants(fields), name)
                for fields, name in _mixes()]

    def test_rational_tensors_are_held_as_fractions(self, presentations):
        # and so are the witnesses: the eliminations keep the field
        for pres, _ in presentations:
            assert pres.ring is algebra.INTEGERS
            assert all(type(c) is Fr for row in pres.constants
                       for col in row for c in col)
            twin = _as_expressions(pres)
            assert twin.ring is algebra.EXPRESSIONS
            for p, kind in ((pres, Fr), (twin, ex.Expr)):
                verdict = classify(p)
                assert all(type(c) is kind for v in verdict.ideal_basis
                           + verdict.complement_basis for c in v)

    def test_both_fields_give_the_same_output(self, presentations):
        for pres, name in presentations:
            twin = _as_expressions(pres)
            verdict = classify(pres).as_dict()
            assert verdict["name"] == name
            assert classify(twin).as_dict() == verdict
            assert twin.constants_text() == pres.constants_text()

    def test_derived_space_is_the_span_of_every_bracket(self, presentations):
        # the slices c[i][j], i < j, against all n^2 brackets [e_i, e_j]
        for pres, _ in presentations:
            for p in (pres, _as_expressions(pres)):
                brackets = [_ad_bracket(p, u, v) for u in p.unit
                            for v in p.unit]
                assert _derived_space(p) == _row_basis(p, brackets)


class TestScaleInvariance:
    """classify computes on the integer tensor D*c: spans do not depend on
    scale and the Levi correction is equivariant, so c -> mu*c changes
    neither the name, the dimensions nor the witnesses."""

    @pytest.fixture(scope="class")
    def presentations(self):
        return [(structure_constants(fields), name)
                for fields, name in _mixes()]

    @pytest.mark.parametrize("mu", [Fr(2), Fr(-3), Fr(1, 5)])
    def test_scaled_tensors_classify_alike(self, presentations, mu):
        for pres, name in presentations:
            scaled = AlgebraPresentation(pres.basis, tuple(
                tuple(tuple(mu * c for c in col) for col in row)
                for row in pres.constants))
            verdict, other = classify(pres), classify(scaled)
            assert verdict.name == name
            assert (other.name, other.dimension, other.center_dim,
                    other.derived_dim) == (name, verdict.dimension,
                                           verdict.center_dim,
                                           verdict.derived_dim)
            assert other.ideal_basis == verdict.ideal_basis
            assert other.complement_basis == verdict.complement_basis
            assert all(type(c) is Fr for v in other.ideal_basis
                       + other.complement_basis for c in v)


# R*V + W != 0 and R^2 - 4S a nonzero rational square at each binding
BINDINGS = ("R=5,S=4,V=1,W=1", "R=3,S=2,V=1,W=2", "R=-4,S=63/16,V=2,W=-1")


@pytest.fixture(scope="module")
def discovered():
    """The bases of heat and of the four reduced equations at R=5, S=4,
    V=1, W=1."""
    binding = Binding.parse(BINDINGS[0])
    return [solve_determining(make_heat()).fields] + [
        solve_determining(get_equation(name), binding).fields
        for name in ("reduced-3.2", "reduced-3.5", "reduced-3.7",
                     "reduced-3.9")]


def _classify_bases(seed, discovered):
    """The kinds of basis the classify benchmark draws, at one seed:
    triangular mixes of the discovered bases, the symbolic hpz basis and
    its W5 part permuted and scaled, and both bound at a drawn binding and
    mixed."""
    rng = random.Random(seed)
    out = [triangular_mix(rng, fields) for fields in discovered]
    for fields in (known_basis(), known_basis()[1:]):
        perm = rng.sample(range(len(fields)), len(fields))
        out.append([fields[p].scaled(Fr(rng.choice((-3, -1, 1, 2)),
                                        rng.randint(1, 3))) for p in perm])
        bound = Binding.parse(rng.choice(BINDINGS))
        out.append(triangular_mix(rng, [bound.apply_field(f)
                                        for f in fields]))
    return out


class TestCoordinateBrackets:
    """Brackets formed in coordinates from the table of monomial brackets,
    against ``commutator`` as the oracle."""

    def test_earlier_terms_are_brought_to_the_common_denominator(self):
        # [t d/dt, t^2 d/dt] (denominator 1) is summed before
        # [d/dx, exp(x/2) d/dx] (denominator 2)
        vars2 = ("t", "x")
        fields = (VectorField(vars2, "u", (T, ONE), ZERO),
                  VectorField(vars2, "u", (T ** 2, ex.exp_of(X / 2)), ZERO))
        monomials, rows, scales, ring = algebra._coordinate_brackets(fields)
        assert ring is algebra.INTEGERS and scales[2] == 2
        index: dict = {}
        [expected] = linalg.coordinates([commutator(*fields)],
                                        algebra._geometric, index)
        assert {monomials[r]: v / scales[2] for r, v in rows[2].items()} \
            == {key: expected[r].as_fraction() for key, r in index.items()}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tensor_expands_every_commutator(self, seed, discovered):
        for fields in _classify_bases(seed, discovered):
            pres = structure_constants(fields)
            for i, j in combinations(range(len(fields)), 2):
                expansion = _fields_from_coords(fields, pres.constants[i][j])
                assert expansion == commutator(fields[i], fields[j]), (i, j)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cold_warm_and_cleared_tables_agree(self, seed, discovered):
        bases = _classify_bases(seed, discovered)
        table = algebra._monomial_bracket
        table.cache_clear()
        runs, infos = [], []
        for clear in (False, False, True):
            if clear:
                table.cache_clear()
            runs.append([structure_constants(f).constants for f in bases])
            infos.append(table.cache_info())
            assert infos[-1].maxsize == BRACKET_TABLE_SIZE
            assert 0 < infos[-1].currsize <= BRACKET_TABLE_SIZE
        assert runs[0] == runs[1] == runs[2]
        # the warm run computes no monomial bracket again
        assert infos[1].misses == infos[0].misses
        assert infos[1].hits > infos[0].hits


GOLDEN_VERDICTS = Path(__file__).parent / "golden" / "classify_bases.json"


class TestGoldenVerdicts:
    """The rendered constants and verdicts of the 27 bases that
    ``_classify_bases`` draws at seeds 1-3, byte for byte.  The rings are
    compared with each other elsewhere; this pins what both of them give,
    witness scaling included."""

    def test_verdicts_match_the_golden_file(self, discovered):
        records = []
        for seed in (1, 2, 3):
            for k, fields in enumerate(_classify_bases(seed, discovered)):
                pres = structure_constants(fields)
                records.append({"seed": seed, "basis": k,
                                "constants": pres.constants_text(),
                                "verdict": classify(pres).as_dict()})
        text = json.dumps(records, indent=1) + "\n"
        assert text == GOLDEN_VERDICTS.read_text()


def _counted(monkeypatch, names) -> dict:
    """Calls to the ``linalg`` functions ``names``, counted from now on."""
    calls = dict.fromkeys(names, 0)

    def spy(name, function):
        def counted(*args):
            calls[name] += 1
            return function(*args)
        return counted

    for name in names:
        monkeypatch.setattr(linalg, name, spy(name, getattr(linalg, name)))
    return calls


class TestRingChoice:
    """A rational basis is solved and classified in ``INTEGERS`` and never
    reaches the expression elimination ``f_rref``: a fallback to the
    expression field would change no verdict, only the cost.  A tensor held
    as expressions is classified in ``EXPRESSIONS``."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rational_bases_never_reach_the_expression_loop(
            self, seed, discovered, monkeypatch):
        calls = _counted(monkeypatch, ["f_rref"])
        for k, fields in enumerate(_classify_bases(seed, discovered)):
            calls["f_rref"] = 0
            pres = structure_constants(fields)
            classify(pres)
            # 5 and 7: the symbolic hpz basis and its W5 part
            symbolic = k in (5, 7)
            assert (pres.ring is algebra.EXPRESSIONS) == symbolic, k
            assert (calls["f_rref"] > 0) == symbolic, k

    def test_each_ring_runs_its_own_eliminations(self, discovered,
                                                 monkeypatch):
        pres = structure_constants(_classify_bases(1, discovered)[1])
        twin = _as_expressions(pres)
        f_names = ["f_rref", "f_rank", "f_nullspace", "f_solve_unique"]
        calls = _counted(monkeypatch, ["z_rref"] + f_names)
        assert classify(pres).name == "sl(2,R) (+)s W3"
        assert calls["z_rref"] > 0
        assert sum(calls[name] for name in f_names) == 0
        # the twin and its subalgebras, presented by their expansions as
        # Expr, are eliminated with the f_* functions
        verdict = classify(twin)
        assert verdict.name == "sl(2,R) (+)s W3"
        assert sum(calls[name] for name in f_names) > 0
        kinds = {type(c) for v in verdict.ideal_basis
                 + verdict.complement_basis for c in v}
        assert kinds == {ex.Expr}

    def test_the_constructor_takes_the_ring_of_the_constants(self, basis):
        pres = structure_constants(basis[1:])
        twin = _as_expressions(structure_constants(basis[2:4]))
        assert (pres.ring, twin.ring) == (algebra.EXPRESSIONS,
                                          algebra.EXPRESSIONS)
        public = liepde.AlgebraPresentation(pres.basis, pres.constants)
        assert public.ring is algebra.EXPRESSIONS
        assert classify(public) == classify(pres)
        assert AlgebraPresentation((), (((Fr(0),),),)).ring is algebra.INTEGERS
        assert AlgebraPresentation((), (((0,),),)).ring is algebra.INTEGERS

    def test_constants_outside_the_ring_are_refused(self):
        mixed = (((Fr(0), ZERO), (Fr(0), Fr(0))), ((Fr(0),) * 2,) * 2)
        with pytest.raises(ex.ExprError, match="^structure constants are not "
                           "all elements of INTEGERS or EXPRESSIONS$"):
            AlgebraPresentation((), mixed)


class TestRadicalDerivedSpace:
    """[N, N], the derived space of the Killing radical N, is formed once
    per semidirect verdict: the nilpotency test and the Levi correction
    share it."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_formed_once_per_semidirect_verdict(self, seed, discovered,
                                                monkeypatch):
        formed, corrected = [], []
        derived_space_sub = algebra._derived_space_sub
        correct_stage = algebra._correct_stage

        def spy_derived(p, left, right=None):
            if right is None:   # [left, left], not a lower central step
                formed.append(p)
            return derived_space_sub(p, left, right)

        def spy_correct(p, *args):
            corrected.append(p)
            return correct_stage(p, *args)

        monkeypatch.setattr(algebra, "_derived_space_sub", spy_derived)
        monkeypatch.setattr(algebra, "_correct_stage", spy_correct)
        corrections = 0
        for fields in _classify_bases(seed, discovered):
            pres = structure_constants(fields)
            formed.clear()
            corrected.clear()
            if " (+)s " in classify(pres).name:
                assert sum(p is pres for p in formed) == 1
                corrections += any(p is pres for p in corrected)
        # a Levi correction, which reads [N, N] too, ran at least once
        assert corrections > 0


def _tensor(n, brackets):
    """The rational tensor with [e_i, e_j] = sum_k x_k e_k for each
    ((i, j), x) in ``brackets``, i < j counted from 0."""
    c = [[(Fr(0),) * n for _ in range(n)] for _ in range(n)]
    for (i, j), xs in brackets.items():
        c[i][j] = tuple(map(Fr, xs))
        c[j][i] = tuple(-x for x in c[i][j])
    return tuple(map(tuple, c))


def _held_as_expr(constants):
    return tuple(tuple(tuple(ex.rational(x) for x in col) for col in row)
                 for row in constants)


# antisymmetric, with the Killing signature (2, 1) of sl(2,R), but Jacobi
# fails on (1, 2, 3)
NOT_JACOBI = _tensor(3, {(0, 1): (-1, 1, 0), (0, 2): (1, 1, -1),
                         (1, 2): (-1, 0, 0)})
# [h, e] = 2e, [h, f] = -2f, [e, f] = h
SL2 = _tensor(3, {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)})


class TestLieAxioms:
    """Every presentation checks, when it is constructed, that its tensor
    is a Lie algebra, so ``classify`` never names one that is not."""

    @pytest.mark.parametrize("constants, why", [
        (NOT_JACOBI, r"^Jacobi identity fails on triple \(1, 2, 3\)$"),
        # c[0][1] = e2 with c[1][0] = 0
        ((((Fr(0), Fr(0)), (Fr(0), Fr(1))), ((Fr(0), Fr(0)),) * 2),
         r"^structure constants are not antisymmetric in pair \(1, 2\)$"),
        ((((1, 1),),), r"^structure constants are not a 1 x 1 x 1 tensor$"),
        ((), "^the structure-constant tensor is empty$"),
    ], ids=["jacobi", "antisymmetry", "shape", "empty"])
    def test_tensors_that_are_not_lie_algebras_are_refused(self, constants,
                                                           why):
        for held in (constants, _held_as_expr(constants)):
            with pytest.raises(ex.ExprError, match=why):
                AlgebraPresentation((), held)

    def test_a_nonzero_diagonal_is_refused(self):
        c = [list(row) for row in SL2]
        c[1][1] = (Fr(0), Fr(0), Fr(1))
        with pytest.raises(ex.ExprError, match=r"antisymmetric in pair "
                           r"\(2, 2\)$"):
            AlgebraPresentation((), tuple(map(tuple, c)))

    @pytest.mark.parametrize("seed", range(3))
    def test_permuted_scaled_and_expression_tensors_are_accepted(
            self, seed, discovered):
        # c'_ij^k = mu c_{p(i) p(j)}^{p(k)}: the tensor of the basis
        # e_{p(i)} scaled by mu, the same algebra
        rng = random.Random(seed)
        tensors = [SL2] + [structure_constants(
            triangular_mix(rng, fields)).constants
            for fields in discovered[:2]]
        for c in tensors:
            name = classify(AlgebraPresentation((), c)).name
            n = len(c)
            perm = rng.sample(range(n), n)
            mu = Fr(rng.choice((-3, -1, 2)), rng.randint(1, 5))
            permuted = tuple(tuple(tuple(mu * c[perm[i]][perm[j]][perm[k]]
                                         for k in range(n))
                                   for j in range(n)) for i in range(n))
            for held in (permuted, _held_as_expr(permuted)):
                verdict = classify(AlgebraPresentation((), held))
                assert (verdict.name, verdict.dimension) == (name, n)
        assert classify(AlgebraPresentation((), SL2)).name == "sl(2,R)"
