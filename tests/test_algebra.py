"""Commutators, structure constants, Jacobi, and classification."""

import random
from fractions import Fraction as Fr
from itertools import combinations

import pytest

from liepde import expr as ex
from liepde.algebra import (ClosureError, classify, commutator,
                            structure_constants)
from liepde.expr import DELTA, OMEGA, R, X, Y, ZERO, ONE
from liepde.fixtures import known_basis
from liepde.jet import get_equation
from liepde.prolong import VectorField
from liepde.solver import Binding, solve_determining


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
        with pytest.raises(ClosureError, match="1 and 2"):
            structure_constants([e1, e2])

    def test_dependent_basis_rejected(self, basis):
        with pytest.raises(ex.ExprError, match="independent"):
            structure_constants([basis[1], basis[1].scaled(2)])

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
        from liepde.algebra import _fields_from_coords
        pres = structure_constants(reduced_basis.fields)
        verdict = classify(pres)
        comp_fields = [_fields_from_coords(pres, list(v))
                       for v in verdict.complement_basis]
        sub = classify(structure_constants(comp_fields))
        assert sub.name == "sl(2,R)"
        assert sub.mubarakzyanov_label == "A3,8"

    def test_levi_correction_fault_propagates(self, reduced_basis,
                                              monkeypatch):
        # a fault in the rational solve of the Levi correction must surface,
        # not silently skip the correction and change the verdict
        from liepde import linalg

        def broken(rows):
            raise RuntimeError("rref fault")

        pres = structure_constants(reduced_basis.fields)
        monkeypatch.setattr(linalg, "q_rref", broken)
        with pytest.raises(RuntimeError, match="rref fault"):
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
        assert verdict.notes

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
