"""The shipped six-generator basis and the C1/E1 reading resolution."""

from fractions import Fraction

from liepde.expr import OMEGA, R, S, T, V, W, exp_of
from liepde.fixtures import (c1_e1_variants, generator_names, known_basis,
                             paper_generator)
from liepde.prolong import residual

from helpers import coefficient_functions


def test_all_six_residuals_vanish_symbolically(hpz):
    for name, vf in zip(generator_names(), known_basis()):
        assert residual(vf, hpz).is_zero, name


def test_coefficient_relations():
    c = coefficient_functions()
    # A1 = -(R+omega)/2 * A2 and the exponential rates match
    assert c["A1"] == -Fraction(1, 2) * (R + OMEGA) * c["A2"]
    assert c["B1"] == Fraction(1, 2) * (-R + OMEGA) * c["B2"]
    assert c["C2"] == c["E2"] == 2 * (R * V + W)
    assert c["C4"] == c["E4"] == -2 * R * S


def test_c1_e1_ambiguity_resolved_by_residual(hpz):
    variants = c1_e1_variants()
    d5_ok, d6_ok = variants["adopted"]
    assert residual(d5_ok, hpz).is_zero
    assert residual(d6_ok, hpz).is_zero
    d5_bad, d6_bad = variants["rejected"]
    assert not residual(d5_bad, hpz).is_zero
    assert not residual(d6_bad, hpz).is_zero


def test_adopted_reading_is_product_form():
    c = coefficient_functions()
    assert c["C1"] == (R - OMEGA) * W
    assert c["E1"] == (R + OMEGA) * W


def test_generators_named(hpz):
    assert generator_names() == ("delta1", "delta2", "delta3", "delta4",
                                 "delta5", "delta6")
    d1 = paper_generator("delta1")
    assert d1.component("t") == exp_of(T) * exp_of(-T)  # == 1
