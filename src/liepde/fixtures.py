"""Reference symmetry generators and golden forms for the hpz equation.

The six-generator basis delta1..delta6 ships with the engine as a fixture:
verifying that each has an exactly zero residual against the hpz equation is
part of the acceptance suite.  The coefficient constants C1 and E1 admit two
parenthesisations, ``(R -+ omega)*W`` and ``R -+ omega*W``; only the first
produces symmetries (the residual check settles this, and the
characteristics cross-check agrees), so that reading is the one shipped.
Both variants are exposed for the verification report.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr as ex
from .expr import DELTA, OMEGA, R, S, T, V, W, X, Y, Expr, exp_of
from .prolong import VectorField


HALF = Fraction(1, 2)

# coefficient functions of the published basis; delta stands for (R*V+W)^-1
_A2 = exp_of(-HALF * (R + OMEGA) * T)
_A1 = -HALF * (R + OMEGA) * _A2
_B2 = exp_of(HALF * (-R + OMEGA) * T)
_B1 = HALF * (-R + OMEGA) * _B2
_C = HALF * DELTA * exp_of(-HALF * (-R + OMEGA) * T)
_C1 = (R - OMEGA) * W
_C2 = 2 * (R * V + W)
_C3 = R * (-R + OMEGA)
_C4 = -2 * R * S
_E = HALF * DELTA * exp_of(HALF * (R + OMEGA) * T)
_E1 = (R + OMEGA) * W
_E2 = 2 * (R * V + W)
_E3 = R * (-R - OMEGA)
_E4 = -2 * R * S

K1 = HALF * (R - OMEGA) * DELTA
K3 = HALF * (R + OMEGA) * DELTA

_VARS = ("t", "x", "y")


def _field(xi_t, xi_x, xi_y, eta) -> VectorField:
    return VectorField(_VARS, "u",
                       (ex.as_expr(xi_t), ex.as_expr(xi_x), ex.as_expr(xi_y)),
                       ex.as_expr(eta))


def _delta1() -> VectorField:
    return _field(1, 0, 0, ex.U)


def _delta2() -> VectorField:
    return _field(0, 0, 0, ex.U)


def _delta3() -> VectorField:
    return _field(0, _A1, _A2, 0)


def _delta4() -> VectorField:
    return _field(0, _B1, _B2, 0)


def _delta5(c1: Expr = _C1) -> VectorField:
    return _field(0, _C * c1, _C * _C2, _C * (_C3 * X + _C4 * Y) * ex.U)


def _delta6(e1: Expr = _E1) -> VectorField:
    return _field(0, _E * e1, _E * _E2, _E * (_E3 * X + _E4 * Y) * ex.U)


def generator_names() -> tuple[str, ...]:
    return ("delta1", "delta2", "delta3", "delta4", "delta5", "delta6")


def paper_generator(name: str) -> VectorField:
    builders = {"delta1": _delta1, "delta2": _delta2, "delta3": _delta3,
                "delta4": _delta4, "delta5": _delta5, "delta6": _delta6}
    if name not in builders:
        raise ex.ExprError(
            f"unknown generator {name!r}; known: {', '.join(generator_names())}")
    return builders[name]()


def known_basis() -> tuple[VectorField, ...]:
    """The shipped six-generator symmetry basis of the hpz equation."""
    return tuple(paper_generator(n) for n in generator_names())


def c1_e1_variants() -> dict[str, tuple[VectorField, VectorField]]:
    """delta5/delta6 under both readings of C1/E1.

    ``adopted`` uses (R -+ omega)*W, ``rejected`` uses R -+ omega*W; the
    verification report shows the first has residual zero and the second
    does not.
    """
    return {
        "adopted": (_delta5((R - OMEGA) * W), _delta6((R + OMEGA) * W)),
        "rejected": (_delta5(R - OMEGA * W), _delta6(R + OMEGA * W)),
    }


# ---------------------------------------------------------------------------
# golden reduction data
# ---------------------------------------------------------------------------

_CHARACTERISTICS = {
    "delta3": (R + OMEGA) * Y + 2 * X,
    "delta4": (-R + OMEGA) * Y - 2 * X,
    "delta5": K1 * W * Y - X,
    "delta6": K3 * W * Y - X,
}


def characteristic_r(name: str) -> Expr:
    """Published invariant r for the reductions by delta3..delta6."""
    return _CHARACTERISTICS[name]


# published reduced equations, as lhs expressions equal to zero
_Zv, _Zr, _Zrr, _Zt = ex.Z, ex.jet("z", "r"), ex.jet("z", "rr"), ex.jet("z", "t")
_RR = ex.RADIAL

_PRINTED_REDUCED = {
    "delta3": (R * _Zv + HALF * (R - OMEGA) * _RR * _Zr
               + 2 * (V * (R + OMEGA) + 2 * W) * _Zrr - _Zt),
    "delta4": (R * _Zv + HALF * (R + OMEGA) * _RR * _Zr
               + 2 * (V * (R - OMEGA) + 2 * W) * _Zrr - _Zt),
    "delta5": (R * (_RR ** 2 * (R - OMEGA) + V * (R + OMEGA) + 2 * W) * _Zv
               + _RR * (V * (R ** 2 + R * OMEGA) + W * (3 * R - OMEGA)) * _Zr
               + (V * W * (R + OMEGA) + 2 * W ** 2) * _Zrr
               - 2 * (R * V + W) * _Zt),
    "delta6": (R * (_RR ** 2 * (R + OMEGA) + V * (R - OMEGA) + 2 * W) * _Zv
               + _RR * (V * (R ** 2 - R * OMEGA) + W * (3 * R + OMEGA)) * _Zr
               + (V * W * (R - OMEGA) + 2 * W ** 2) * _Zrr
               - 2 * (R * V + W) * _Zt),
}

# overall factor carried by the z_t term of the printed forms
_PRINTED_FACTORS = {
    "delta3": ex.ONE,
    "delta4": ex.ONE,
    "delta5": 2 * (R * V + W),
    "delta6": 2 * (R * V + W),
}


def printed_reduced_equation(name: str) -> tuple[Expr, Expr]:
    """(lhs-expression, z_t factor) of the published reduced equation."""
    return _PRINTED_REDUCED[name], _PRINTED_FACTORS[name]


def printed_stationary_equation() -> Expr:
    """Published stationary form after the time reduction of hpz."""
    z, z_x, z_y = ex.Z, ex.jet("z", "x"), ex.jet("z", "y")
    z_xx, z_xy = ex.jet("z", "xx"), ex.jet("z", "xy")
    return (HALF * R * z - X * z_y + R * X * z_x + S * Y * z_x
            + V * z_xy + W * z_xx)
