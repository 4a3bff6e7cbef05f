"""sympy oracle for the eliminations over the expression field.

``linalg.f_rank``, ``f_nullspace`` and ``f_solve_unique`` eliminate
fraction-free over kernel expressions.  sympy reduces the same matrices
over the field QQ(R, S, V, W) on its own (``DomainMatrix.rref``, whose
elements are reduced fractions of polynomials), so the oracle shares no
arithmetic with the code.  The matrices are the seeded ones of
``tests/test_linalg.py``: the rank and nullspace draws, the 5x4 matrices
that swell (where liepde answers), and the solves with several right-hand
sides.  sympy is a test-time oracle only; the package does not import it.
"""

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.matrices import DomainMatrix  # noqa: E402

from liepde import expr as ex, linalg  # noqa: E402
from liepde.linalg import f_nullspace, f_rank, f_solve_unique  # noqa: E402

from helpers import (SWELL_SEEDS, rank_case, solve_case,  # noqa: E402
                     swell_case)

FIELD = sympy.QQ.frac_field(*sympy.symbols("R S V W"))
_POSITION = {name: i for i, name in enumerate("RSVW")}


def _element(e):
    """A kernel expression in R, S, V, W as an element of ``FIELD``: its
    terms as a dict of exponent vectors, the numerator over 1."""
    terms = {}
    for c, fs in e.terms:
        exponents = [0] * 4
        for b, p in fs:
            exponents[_POSITION[b.name]] = p
        terms[tuple(exponents)] = sympy.QQ(c.numerator, c.denominator)
    return FIELD.field.field_new(FIELD.field.ring.from_dict(terms))


def _matrix(rows):
    return DomainMatrix([[_element(ex.as_expr(v)) for v in row]
                         for row in rows], (len(rows), len(rows[0])), FIELD)


def _matrices():
    cases = [(f"ranked-{seed}", rank_case(seed)[0]) for seed in range(8)]
    return cases + [(f"swell-{seed}", swell_case(seed))
                    for seed in SWELL_SEEDS]


MATRICES = _matrices()


@pytest.mark.parametrize("name, rows", MATRICES,
                         ids=[name for name, _ in MATRICES])
def test_rank_and_nullspace_match_sympy(name, rows):
    try:
        rank = f_rank(rows)
        null = f_nullspace(rows)
    except linalg.ExpressionSwellError:
        # a refusal is allowed only where the entries swell
        assert name.startswith("swell")
        return
    m = _matrix(rows)
    assert rank == m.rank()
    # the vectors span the nullspace: as many as its dimension, independent,
    # and each annihilated by the matrix
    ncols = len(rows[0])
    assert len(null) == ncols - rank
    if null:
        vectors = _matrix(null)
        assert vectors.rank() == len(null)
        assert (m * vectors.transpose()).is_zero_matrix


@pytest.mark.parametrize("seed", range(8))
def test_solve_matches_sympy(seed):
    m, rhss, _ = solve_case(seed)
    ncols = len(m[0])
    sols = f_solve_unique(m, rhss, ncols)
    for rhs, sol in zip(rhss, sols):
        aug = _matrix([row + [b] for row, b in zip(m, rhs)])
        rref, pivots = aug.rref()
        if ncols in pivots:
            assert sol is None
            continue
        assert list(pivots) == list(range(ncols))
        expected = [rref[i, ncols].element for i in range(ncols)]
        assert [_element(entry) / _element(pivot)
                for entry, pivot in sol] == expected
