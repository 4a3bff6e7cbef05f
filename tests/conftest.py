import os
from fractions import Fraction
from pathlib import Path

import pytest

import liepde
from liepde import expr as ex
from liepde.jet import make_heat, make_hpz
from liepde.prolong import determining_equations
from liepde.solver import Binding, _linear_system, ansatz


@pytest.fixture(scope="session")
def hpz():
    return make_hpz()


@pytest.fixture(scope="session")
def heat():
    return make_heat()


@pytest.fixture(scope="session")
def binding():
    return Binding.parse("R=5,S=4,V=1,W=1")


def child_env(**extra) -> dict:
    """A minimal environment for a fresh ``python -m liepde.cli``: the child
    imports the same liepde as this process, installed or not, and writes
    no bytecode when this process was told not to."""
    env = {"PATH": "/usr/bin:/bin",
           "PYTHONPATH": str(Path(liepde.__file__).resolve().parent.parent)}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return {**env, **extra}


def determining_dae(pde, binding):
    """``(A, B)`` of the determining system ``A g + B g' = 0`` that
    discovery builds for ``pde`` at ``binding``, over the structured
    ansatz."""
    bound = binding.apply_pde(pde)
    unknowns, vf = ansatz(bound)
    return _linear_system(determining_equations(vf, bound), unknowns)


def random_fraction(rng, span=9, den=5):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


class TreeGen:
    """Random expression trees with an independent direct evaluator.

    Trees are built over a fixed atom set and evaluated two ways: through
    the kernel (construct, canonicalise, evaluate) and directly on the tree
    with Fraction arithmetic.  Agreement of the two is the canonicalisation
    oracle.
    """

    def __init__(self, rng, names=("x", "y", "t", "r")):
        self.rng = rng
        self.names = names

    def tree(self, depth=3):
        r = self.rng.random()
        if depth == 0 or r < 0.3:
            if self.rng.random() < 0.5:
                return ("const", random_fraction(self.rng))
            return ("atom", self.rng.choice(self.names))
        if r < 0.55:
            return ("add", self.tree(depth - 1), self.tree(depth - 1))
        if r < 0.8:
            return ("mul", self.tree(depth - 1), self.tree(depth - 1))
        if r < 0.9:
            return ("neg", self.tree(depth - 1))
        return ("pow", self.tree(depth - 1), self.rng.randint(0, 3))

    def to_expr(self, node):
        kind = node[0]
        if kind == "const":
            return ex.rational(node[1])
        if kind == "atom":
            return ex.sym(node[1])
        if kind == "add":
            return self.to_expr(node[1]) + self.to_expr(node[2])
        if kind == "mul":
            return self.to_expr(node[1]) * self.to_expr(node[2])
        if kind == "neg":
            return -self.to_expr(node[1])
        if kind == "pow":
            return self.to_expr(node[1]) ** node[2]
        raise AssertionError(kind)

    def direct_value(self, node, point):
        kind = node[0]
        if kind == "const":
            return node[1]
        if kind == "atom":
            return point[node[1]]
        if kind == "add":
            return self.direct_value(node[1], point) + self.direct_value(node[2], point)
        if kind == "mul":
            return self.direct_value(node[1], point) * self.direct_value(node[2], point)
        if kind == "neg":
            return -self.direct_value(node[1], point)
        if kind == "pow":
            return self.direct_value(node[1], point) ** node[2]
        raise AssertionError(kind)

    def point(self):
        return {n: random_fraction(self.rng) for n in self.names}
