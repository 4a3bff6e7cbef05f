"""Exact linear algebra: rational, polynomial and symbolic-field layers."""

import random
import re
from fractions import Fraction as Fr
from math import gcd, isqrt

import pytest

from liepde import expr as ex, linalg
from liepde.expr import ExprError, R, S, V, W
from liepde.linalg import (charpoly, coordinates, f_nullspace, f_rank,
                           f_rref, f_solve_unique, p_div_exact, p_eval,
                           p_mul, pencil_gram_poly, pencil_pivots,
                           q_nullspace, q_rank, rational_roots)
from liepde.algebra import (AlgebraPresentation, _killing_matrix,
                            structure_constants)
from liepde.fixtures import known_basis
from liepde.jet import make_heat
from liepde.prolong import VectorField
from liepde.solver import Binding, solve_determining

from helpers import (SWELL_SEEDS, FieldFrac, at_point, bounded, divisor_roots,
                     dot, field_nullspace, field_rref, rank_case, solve_case,
                     swell_case)


class TestRationalMatrices:
    def test_rank_and_nullspace(self):
        m = [[Fr(1), Fr(2), Fr(3)], [Fr(2), Fr(4), Fr(6)], [Fr(0), Fr(1), Fr(1)]]
        assert q_rank(m) == 2
        ns = q_nullspace(m)
        assert len(ns) == 1
        for row in m:
            assert sum(a * b for a, b in zip(row, ns[0])) == 0

    def test_solve(self):
        assert q_solve([[Fr(2), Fr(0)], [Fr(0), Fr(3)]], [Fr(4), Fr(9)]) == \
            [Fr(2), Fr(3)]
        assert q_solve([[Fr(1)], [Fr(1)]], [Fr(1), Fr(2)]) is None

    def test_det(self):
        # det M = (-1)^n det(-M), and det(-M) is the constant coefficient
        # of charpoly(M) = det(lam*I - M)
        for m, det in (([[Fr(1), Fr(2)], [Fr(3), Fr(4)]], Fr(-2)),
                       ([[Fr(1), Fr(2)], [Fr(2), Fr(4)]], 0)):
            assert (-1) ** len(m) * charpoly(m)[0] == _cofactor_det(m) == det


# (nrows, ncols, density): tall, wide and square, sparse and dense
SHAPES = [(9, 4, 0.3), (9, 4, 0.9), (4, 9, 0.3), (4, 9, 0.9),
          (7, 7, 0.25), (7, 7, 1.0), (12, 10, 0.15), (3, 1, 0.5)]


def _random_matrix(rng, nrows, ncols, density):
    """Random rational matrix with zero rows and rank-deficient rows."""
    rows = []
    for _ in range(nrows):
        pick = rng.random()
        if pick < 0.15:
            rows.append([Fr(0)] * ncols)
        elif pick < 0.35 and len(rows) >= 2:
            a, b = rng.sample(rows, 2)
            c, d = Fr(rng.randint(-3, 3), rng.randint(1, 3)), Fr(rng.randint(-3, 3))
            rows.append([c * x + d * y for x, y in zip(a, b)])
        else:
            rows.append([Fr(rng.randint(-9, 9), rng.randint(1, 4))
                         if rng.random() < density else Fr(0)
                         for _ in range(ncols)])
    return rows


def _sparse(rows):
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def _dense_rref(rows):
    """Column-by-column dense Gauss-Jordan: the reference reduced form."""
    m = [list(r) for r in rows]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [v / m[r][c] for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def q_solve(rows, rhs, ncols=None):
    """Unique solution of rows * x = rhs over the rationals, or None when
    inconsistent, from one integer elimination of the augmented rows;
    raises on an underdetermined consistent system.  Sparse rows need
    ``ncols``.  A one-rhs solve by ``z_rref``, apart from the common
    denominator of ``z_solve_unique``."""
    if not rows:
        return []
    ncols = len(rows[0]) if ncols is None else ncols
    aug = []
    for row, b in zip(rows, rhs):
        row = dict(row if isinstance(row, dict) else enumerate(row))
        row[ncols] = b
        aug.append(row)
    rref, pivots = linalg.z_rref(aug)
    if ncols in pivots:
        return None
    if len(pivots) < ncols:
        raise ExprError("underdetermined linear system")
    return [Fr(row.get(ncols, 0), row[pc]) for row, pc in zip(rref, pivots)]


def _cofactor_det(m):
    if not m:
        return Fr(1)
    return sum((-1) ** j * m[0][j] *
               _cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


class TestSeededRationalMatrices:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_rref_matches_reference_and_is_reduced(self, seed, shape):
        nrows, ncols, density = shape
        rows = _random_matrix(random.Random(seed), nrows, ncols, density)
        ref, ref_pivots = _dense_rref(rows)
        for given in (rows, _sparse(rows)):
            rref, pivots = linalg.z_rref(given)
            assert pivots == ref_pivots
            assert [[Fr(row.get(c, 0), row[pc]) for c in range(ncols)]
                    for row, pc in zip(rref, pivots)] == ref
            for row, pc in zip(rref, pivots):
                assert 0 not in row.values()
                assert min(row) == pc and row[pc] > 0
                assert not set(row) & (set(pivots) - {pc})

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_nullspace_annihilates_and_counts(self, seed, shape):
        nrows, ncols, density = shape
        rows = _random_matrix(random.Random(seed), nrows, ncols, density)
        ns = q_nullspace(rows)
        assert q_nullspace(_sparse(rows), ncols) == ns
        assert q_rank(rows) == q_rank(_sparse(rows))
        assert q_rank(rows) + len(ns) == ncols
        for vec in ns:
            assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in rows)
        assert q_rank(ns) == len(ns)

    def test_sparse_rows_need_a_width(self):
        with pytest.raises(ValueError):
            q_nullspace([{0: Fr(1)}])
        assert q_nullspace([], 2) == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("seed", range(6))
    def test_solve_round_trip(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        while True:
            a = _random_matrix(rng, n + rng.randint(0, 3), n, rng.random())
            if q_rank(a) == n:
                break
        x = [Fr(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        b = [sum(r * v for r, v in zip(row, x)) for row in a]
        assert q_solve(a, b) == x
        assert q_solve(_sparse(a), b, n) == x
        assert q_solve(a + [[Fr(0)] * n], b + [Fr(1)]) is None
        with pytest.raises(ExprError, match="underdetermined"):
            q_solve([row + [Fr(0)] for row in a], b)

    @pytest.mark.parametrize("seed", range(8))
    def test_det_matches_cofactor_expansion(self, seed):
        # the determinant route of pencil_gram_poly
        rng = random.Random(seed)
        for n in range(6):
            m = _random_matrix(rng, n, n, rng.choice((0.3, 1.0)))
            assert (-1) ** n * charpoly(m)[0] == _cofactor_det(m)

    @pytest.mark.parametrize("seed", range(6))
    def test_gram_poly_off_the_nodes(self, seed):
        rng = random.Random(seed)
        ncols = rng.randint(1, 4)
        nrows = ncols + rng.randint(0, 3)
        a = _random_matrix(rng, nrows, ncols, 0.6)
        b = _random_matrix(rng, nrows, ncols, 0.6)
        gram = pencil_gram_poly(a, b)
        # the interpolation nodes are the integers -ncols..ncols
        for lam in (Fr(1, 3), Fr(-7, 2), Fr(5, 4), Fr(ncols + 3), Fr(-40)):
            m = [[x + lam * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
            g = [[sum(row[p] * row[q] for row in m) for q in range(ncols)]
                 for p in range(ncols)]
            assert p_eval(gram, lam) == _cofactor_det(g)


def _pencil_charpoly(m):
    """``det(lam*I - M)`` as the last Bareiss pivot of the pencil
    ``-M + lam*I``, whose elimination never swaps rows (its leading
    principal minors are monic): the reference for ``charpoly``."""
    d = len(m)
    identity = [[Fr(int(i == j)) for j in range(d)] for i in range(d)]
    pivots = pencil_pivots([[-Fr(v) for v in row] for row in m], identity)
    return pivots[-1] if pivots else (Fr(1),)


def _killing_matrix_of(basis):
    """The Killing matrix of D*c, the integer tensor that classification
    works on."""
    cleared = structure_constants(basis).cleared
    k = _killing_matrix(AlgebraPresentation((), cleared))
    assert all(type(v) is int for row in k for v in row)
    return k


class TestCharpoly:
    """Hessenberg reduction against the Bareiss pencil and the cofactor
    determinant."""

    def _check(self, m):
        p = charpoly(m)
        assert all(type(c) is Fr for c in p)
        assert len(p) == len(m) + 1 and p[-1] == 1
        assert p == _pencil_charpoly(m)
        return p

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_matrices(self, seed):
        rng = random.Random(seed)
        for n in range(9):
            m = _random_matrix(rng, n, n, rng.choice((0.3, 0.6, 1.0)))
            p = self._check(m)
            assert (-1) ** n * p[0] == _cofactor_det(m)

    def test_zero_subdiagonal(self):
        # block upper triangular: charpoly is the product of the blocks'
        a, b = [[Fr(1), Fr(2)], [Fr(-3, 2), Fr(4)]], [[Fr(5)]]
        m = [[Fr(1), Fr(2), Fr(7), Fr(1, 3)], [Fr(-3, 2), Fr(4), Fr(0), Fr(2)],
             [Fr(0), Fr(0), Fr(5), Fr(9)], [Fr(0), Fr(0), Fr(0), Fr(-1)]]
        p = self._check(m)
        assert p == p_mul(p_mul(charpoly(a), charpoly(b)), (Fr(1), Fr(1)))
        assert self._check([[Fr(2), Fr(1), Fr(0)], [Fr(0), Fr(3), Fr(1)],
                            [Fr(0), Fr(0), Fr(4)]]) == \
            p_mul(p_mul((Fr(-2), Fr(1)), (Fr(-3), Fr(1))), (Fr(-4), Fr(1)))

    def test_row_swap(self):
        # the subdiagonal entry of the first column is zero and the one
        # below it is not, so the reduction swaps the second and third rows
        # and columns
        m = [[Fr(1), Fr(2), Fr(3)], [Fr(0), Fr(1), Fr(4)], [Fr(5), Fr(6), Fr(0)]]
        p = self._check(m)
        assert -p[0] == _cofactor_det(m) == 1
        m = [[Fr(0), Fr(1), Fr(0), Fr(2)], [Fr(0), Fr(0), Fr(1), Fr(0)],
             [Fr(0), Fr(3), Fr(0), Fr(1)], [Fr(7, 2), Fr(0), Fr(1), Fr(1)]]
        assert self._check(m)[0] == _cofactor_det(m)

    def test_integer_killing_matrices(self):
        binding = Binding.parse("R=5,S=4,V=1,W=1")
        bound = [binding.apply_field(f) for f in known_basis()]
        heat = _killing_matrix_of(solve_determining(make_heat()).fields)
        w5 = _killing_matrix_of(bound[1:])
        for k in (heat, w5, _killing_matrix_of(bound)):
            p = self._check(k)
            assert (-1) ** len(k) * p[0] == _cofactor_det(k)
        assert any(v for row in heat for v in row)
        # W5 is nilpotent: its Killing form vanishes
        assert charpoly(w5) == (Fr(0),) * 5 + (Fr(1),)


class TestPolynomials:
    def test_roots_with_multiplicity_at_zero(self):
        p = p_mul((Fr(0), Fr(1)), p_mul((Fr(0), Fr(1)), (Fr(1), Fr(3))))
        assert rational_roots(p) == [Fr(-1, 3), Fr(0)]

    def test_complex_roots_are_fine(self):
        assert rational_roots((Fr(1), Fr(0), Fr(1))) == []  # x^2 + 1

    def test_irrational_roots_left_to_the_caller(self):
        assert rational_roots((Fr(-2), Fr(0), Fr(1))) == []  # x^2 - 2
        # (x - 1/2)(x^2 - 2): the rational root only
        assert rational_roots(p_mul((Fr(-1, 2), Fr(1)),
                                    (Fr(-2), Fr(0), Fr(1)))) == [Fr(1, 2)]

    def test_repeated_roots_are_isolated_by_the_squarefree_part(self):
        # an interval with one distinct root is bisected on the sign of
        # q / gcd(q, q'): q itself keeps its sign across a double root
        square_minus_two = (Fr(-2), Fr(0), Fr(1))
        third = (Fr(-1), Fr(3))
        p = p_mul(p_mul(square_minus_two, square_minus_two), third)
        assert rational_roots(p) == [Fr(1, 3)]
        q = p_mul(p_mul(third, third), square_minus_two)
        for _ in range(3):
            q = p_mul(q, (Fr(5), Fr(1)))
        assert rational_roots(q) == [Fr(-5), Fr(1, 3)]

    def test_large_prime_root_found_without_factoring(self):
        # a prime above (10^6 + 1)^2, which trial division up to 10^6 does
        # not factor; it is also the largest root the Cauchy bound allows
        prime = 1_000_002_000_007
        assert all(prime % d for d in range(2, isqrt(prime) + 1))
        assert rational_roots((Fr(-prime), Fr(1))) == [prime]

    @pytest.mark.parametrize("n", [1, 2, 7, 10 ** 12 + 39])
    def test_roots_next_to_the_cauchy_bound(self, n):
        # x -+ n: the Cauchy bound is |x| < 1 + n, and the roots +-n are
        # the grid points next to it, on either side
        assert rational_roots((Fr(-n), Fr(1))) == [n]
        assert rational_roots((Fr(n), Fr(1))) == [-n]

    @pytest.mark.parametrize("k", [1, 2, 10 ** 12 + 38, 2 ** 40 * 3 ** 20])
    def test_neighbours_on_a_fine_grid(self, k):
        # (kx - 1)((k+1)x - 1) leads with L = k(k+1), and its roots
        # 1/(k+1) = k/L and 1/k = (k+1)/L are one grid step apart
        p = p_mul((Fr(-1), Fr(k)), (Fr(-1), Fr(k + 1)))
        assert rational_roots(p) == [Fr(1, k + 1), Fr(1, k)]
        # again with 1/k a triple root, and the irrational roots +-sqrt(2)
        q = p_mul(p, p_mul(p_mul((Fr(-1), Fr(k)), (Fr(-1), Fr(k))),
                           (Fr(-2), Fr(0), Fr(1))))
        assert rational_roots(q) == [Fr(1, k + 1), Fr(1, k)]

    def test_constant_and_empty_polynomials(self):
        assert rational_roots(()) == []
        assert rational_roots((Fr(3),)) == []
        assert rational_roots((Fr(0), Fr(0), Fr(5))) == [0]

    @pytest.mark.parametrize("seed", range(4))
    def test_agrees_with_divisor_enumeration(self, seed):
        # products of roots a/b (0 and repeats among them), quadratics with
        # irrational or complex roots, and constants, up to degree 6
        rng = random.Random(seed)
        for _ in range(250):
            p = (Fr(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)),)
            for _ in range(rng.randint(0, 4)):
                if rng.random() < 0.6:
                    f = (Fr(-rng.randint(-30, 30), rng.randint(1, 16)), Fr(1))
                else:
                    f = tuple(Fr(rng.randint(-9, 9)) for _ in range(2)) \
                        + (Fr(rng.randint(1, 4)),)
                p = p_mul(p, f)
                if rng.random() < 0.2:
                    p = p_mul(p, f)
            if len(p) <= 7:
                assert rational_roots(p) == divisor_roots(p), p

    def test_exact_division(self):
        num = p_mul((Fr(-1), Fr(1)), (Fr(2), Fr(5)))
        assert p_div_exact(num, (Fr(-1), Fr(1))) == (Fr(2), Fr(5))


class TestPencil:
    def test_pivot_roots_cover_rank_drops(self):
        a = [[Fr(1), Fr(0)], [Fr(0), Fr(1)], [Fr(1), Fr(1)]]
        b = [[Fr(1), Fr(0)], [Fr(0), Fr(0)], [Fr(0), Fr(0)]]
        roots = set()
        for piv in pencil_pivots(a, b):
            roots.update(rational_roots(piv))
        assert Fr(-1) in roots

    def test_gram_poly_roots_are_rank_drops(self):
        a = [[Fr(1), Fr(0)], [Fr(0), Fr(1)]]
        b = [[Fr(1), Fr(0)], [Fr(0), Fr(2)]]
        gram = pencil_gram_poly(a, b)
        # rank drops exactly at -1 and -1/2
        assert p_eval(gram, Fr(-1)) == 0
        assert p_eval(gram, Fr(-1, 2)) == 0
        assert p_eval(gram, Fr(1)) != 0


class TestCoordinates:
    def test_shared_columns_in_first_seen_order(self):
        x, y = ex.X, ex.Y
        rows = coordinates([2 * x + 3 * x * y, x - y, ex.ZERO])
        assert sorted(rows[0]) == [0, 1]          # columns 0, 1 first seen
        assert sorted(rows[0].values()) == [2, 3]
        (shared,) = [c for c, v in rows[0].items() if v == 2]
        assert rows[1][shared] == 1               # x shares its column
        assert sorted(rows[1].values()) == [-1, 1] and 2 in rows[1]
        assert rows[2] == {}
        assert q_rank(rows) == 2

    def test_field_slots_are_separate_columns(self):
        vf = VectorField(("t", "x"), "u", (ex.X, ex.ONE), ex.X)
        (row,) = coordinates([vf])
        assert row == {0: 1, 1: 1, 2: 1}
        assert coordinates([vf, ex.X]) == [row, {0: 1}]

    def test_keep_sums_the_remaining_parts(self):
        (row,) = coordinates([R * ex.X + S * ex.X + ex.Y],
                             lambda b: b not in (ex.Atom("R"), ex.Atom("S")))
        assert sorted(row) == [0, 1]
        assert sorted(map(ex.to_text, row.values())) == ["1", "R + S"]


class TestExpressionField:
    def test_solve_and_verify(self):
        m = [[R, S], [V, W]]
        rhs = [R * R + S * S, V * R + W * S]
        [sol] = f_solve_unique(m, [rhs])
        # (entry, pivot) pairs, whose quotients are the values
        assert (sol[0][0] - R * sol[0][1]).is_zero
        assert (sol[1][0] - S * sol[1][1]).is_zero

    def test_inconsistent_returns_none(self):
        assert f_solve_unique([[R], [S]], [[R, R]]) == [None]

    def test_rank_and_nullspace(self):
        assert f_rank([[R, S], [2 * R, 2 * S]]) == 1
        ns = f_nullspace([[R, S], [2 * R, 2 * S]])
        assert len(ns) == 1
        assert (R * ns[0][0] + S * ns[0][1]).is_zero

    def test_fieldfrac_arithmetic(self):
        # the num/den field of the reference loop in tests/helpers.py
        a = FieldFrac(R, S)
        b = FieldFrac(V, W)
        s = a + b
        assert (s.num - (R * W + V * S)).is_zero and (s.den - S * W).is_zero
        assert (a - a).is_zero


class TestSeededExpressionField:
    @pytest.mark.parametrize("seed", range(8))
    def test_rank_known_by_construction(self, seed):
        rows, k, _ = rank_case(seed)
        assert f_rank(rows) == k

    @pytest.mark.parametrize("seed", range(8))
    def test_nullspace_annihilates_and_counts(self, seed):
        rows, k, point = rank_case(seed)
        ns = f_nullspace(rows)
        assert k + len(ns) == len(rows[0])
        for vec in ns:
            assert all(dot(row, vec).is_zero for row in rows)
        assert q_rank(at_point(point, ns)) == len(ns)

    @pytest.mark.parametrize("seed", range(8))
    def test_multi_rhs_solve_recovers_known_solutions(self, seed):
        m, rhss, xs = solve_case(seed)
        ncols = len(m[0])
        for given in (m, [{c: v for c, v in enumerate(row) if not v.is_zero}
                          for row in m]):
            sols = f_solve_unique(given, rhss, ncols)
            assert len(sols) == len(xs)
            for sol, x in zip(sols, xs):
                if x is None:
                    assert sol is None
                else:
                    assert all((e - v * p).is_zero
                               for (e, p), v in zip(sol, x))

    def test_nullspace_clears_every_denominator(self):
        # the reduced rows are (1, 0, 1/R) and (0, 1, 1/S)
        assert f_nullspace([[R, ex.ZERO, ex.ONE], [ex.ZERO, S, ex.ONE]]) == \
            [[-S, -R, R * S]]
        # a pivot entry read twice is multiplied in once
        assert f_nullspace([[R, ex.ZERO, ex.ONE], [ex.ZERO, R, ex.ONE]]) == \
            [[-1, -1, R]]

    def test_pivot_entries_have_a_positive_first_term(self):
        assert f_rref([[-R, S]]) == ([{0: R, 1: -S}], [0])

    @pytest.mark.parametrize("unit", [ex.ONE, R], ids=["rational", "R"])
    def test_rows_a_clear_forms_are_over_their_content(self, unit):
        # (1, 3, 5) - (1, 1, 1) = (0, 2, 4) is 2 times (0, 1, 2), and
        # (1, 1, 1) - (0, 1, 2) = (1, 0, -1); times R, each row is over R
        rows = [[unit * v for v in row] for row in ([1, 1, 1], [1, 3, 5])]
        assert f_rref(rows) == ([{0: 1, 2: -1}, {1: 1, 2: 2}], [0, 1])

    def test_dependent_columns_raise(self):
        cols = [[R, S, ex.ONE], [V, ex.ZERO, W]]
        cols.append([R * a + S * b for a, b in zip(*cols)])
        m = [list(row) for row in zip(*cols)]
        with pytest.raises(ExprError, match="independent"):
            f_solve_unique(m, [[ex.ONE, ex.ZERO, ex.ZERO]])


def _big_denominators(rng, nrows, ncols):
    """Random rationals with numerators and denominators up to 10^6, some
    zero, and a dependent row."""
    rows = [[Fr(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
             if rng.random() < 0.7 else Fr(0) for _ in range(ncols)]
            for _ in range(nrows)]
    if nrows > 1:
        c = Fr(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
        rows[-1] = [c * v for v in rows[0]]
    return rows


EDGE_CASES = {
    "empty": ([], 3),
    "zero-row": ([[0, 0, 0]], 3),
    "all-zero": ([[Fr(0), Fr(0)], [Fr(0), Fr(0)], [Fr(0), Fr(0)]], 2),
    "zero-leading": ([[0, 0, Fr(2, 3), 4], [0, 3, 1, 0], [0, 0, 0, 5]], 4),
    "dependent": ([[1, 2, 3], [2, 4, 6], [-1, -2, -3], [Fr(1, 2), 1, Fr(3, 2)]],
                  3),
    "negative": ([[-3, 5, -7], [2, -4, 6], [-1, -1, -1]], 3),
    "denominators-1e6": ([[Fr(1, 10**6), Fr(-3, 999983), 7],
                          [Fr(5, 123456), 1, Fr(-2, 10**6 - 1)]], 3),
}


class TestExpressionSwell:
    """The expression loop refuses an entry past ``_SWELL_BUDGET`` terms as
    a clear forms it: without a budget, ``f_rank`` of these 5x4 rank-3
    matrices, of entries with at most 6 terms, ran past 20 s."""

    REFUSAL = (rf"^expression swell: a symbolic elimination formed a field "
               rf"element of more than {linalg._SWELL_BUDGET} terms$")

    @pytest.mark.parametrize("seed", SWELL_SEEDS)
    def test_swell_answers_or_refuses_within_two_seconds(self, seed):
        rank, seconds, _, _ = bounded(f_rank, swell_case(seed))
        if isinstance(rank, linalg.ExpressionSwellError):
            assert re.match(self.REFUSAL, str(rank))
        else:
            assert rank == 3
        assert seconds < 2

    def test_budget_bounds_every_entry_the_clear_forms(self):
        budget = linalg._SWELL_BUDGET
        at, past = (ex.sum_of([ex.Y ** k for k in range(n)])
                    for n in (budget, budget + 1))
        # the clear forms -e by a subtraction alone, and 2*e on its way
        # to 2*e - 1 by cross-multiplication; an entry it does not form is
        # not bounded
        assert f_rank([[ex.ONE, at], [ex.ONE, ex.ZERO]]) == 2
        assert f_rank([[ex.rational(2), ex.ONE], [ex.ONE, at]]) == 2
        assert f_rank([[ex.ONE, ex.ZERO], [ex.ONE, past]]) == 2
        for rows in ([[ex.ONE, past], [ex.ONE, ex.ZERO]],
                     [[ex.rational(2), ex.ONE], [ex.ONE, past]]):
            with pytest.raises(linalg.ExpressionSwellError,
                               match=self.REFUSAL):
                f_rank(rows)
        assert issubclass(linalg.ExpressionSwellError, ExprError)


def _values(rref, pivots):
    """Fraction-free rows over their pivot entries: the reduced echelon
    rows, each as a {column: value} dict of its nonzero entries."""
    return [{c: ex.divide_exact(v, row[pc]) for c, v in row.items()}
            for row, pc in zip(rref, pivots)]


def _field_cases():
    """The seeded matrices of ``TestSeededExpressionField`` (the rank and
    nullspace draws) and of ``TestExpressionSwell``, dense and sparse, and
    rational matrices of every shape."""
    cases = [(f"ranked-{seed}", rank_case(seed)[0]) for seed in range(8)]
    cases += [(f"swell-{seed}", swell_case(seed)) for seed in SWELL_SEEDS]
    cases += [(f"{name}-sparse", _sparse(rows)) for name, rows in cases]
    for seed, shape in enumerate(SHAPES):
        cases.append((f"rational-{seed}",
                      _random_matrix(random.Random(seed), *shape)))
    return cases


FIELD_CASES = _field_cases()


class TestFieldReference:
    """``f_rref`` gives the reduced echelon form of the field-only loop kept
    in ``tests/helpers.py``, over num/den pairs: the same pivots, and each
    fraction-free row over its pivot entry the reference's row, value for
    value.  Where the reference swells past its budget, the rank known by
    construction is given, or the swell is refused."""

    @staticmethod
    def _reference(rows):
        items = (row.items() if isinstance(row, dict) else enumerate(row)
                 for row in rows)
        try:
            rref, pivots = field_rref(({c: FieldFrac.of(v) for c, v in pairs
                                        if v} for pairs in items),
                                      FieldFrac.of(1))
        except linalg.ExpressionSwellError:
            return "refused"
        return pivots, rref

    @pytest.mark.parametrize("name, rows", FIELD_CASES,
                             ids=[name for name, _ in FIELD_CASES])
    def test_f_rref_matches_the_reference(self, name, rows):
        expected = self._reference(rows)
        try:
            rref, pivots = f_rref(rows)
        except linalg.ExpressionSwellError:
            assert expected == "refused"
            return
        if expected == "refused":
            assert name.startswith("swell") and len(pivots) == 3
        else:
            # a value v/p equals num/den where v*den = num*p
            assert pivots == expected[0]
            for row, pc, unit in zip(rref, pivots, expected[1]):
                assert row.keys() == unit.keys()
                assert all((v * unit[c].den - unit[c].num * row[pc]).is_zero
                           for c, v in row.items())
        assert all(isinstance(v, ex.Expr) and v for row in rref
                   for v in row.values())

    def test_the_cases_include_a_refusal(self):
        # a case where the reference refuses is compared on its rank only
        assert any(self._reference(rows) == "refused"
                   for name, rows in FIELD_CASES if name.startswith("swell"))


class TestIntegerLoop:
    """The elimination over the integers, behind ``z_*`` and ``q_*``;
    the dense Gauss-Jordan ``_dense_rref`` is the reference."""

    @staticmethod
    def _reference(rows):
        rref, pivots = _dense_rref([[Fr(v) for v in row] for row in rows])
        return [{c: v for c, v in enumerate(row) if v} for row in rref], pivots

    def _check(self, rows, ncols):
        ref, pivots = self._reference(rows)
        null = field_nullspace(ref, pivots, ncols, Fr(0), Fr(1))
        assert q_rank(rows) == len(pivots)
        got = q_nullspace(rows, ncols)
        assert got == null
        assert all(type(v) is Fr for vec in got for v in vec)
        # the integer results: positive primitive multiples of the field's
        zrows, zpivots = linalg.z_rref(rows)
        assert zpivots == pivots
        for zrow, row, pc in zip(zrows, ref, pivots):
            assert all(type(v) is int for v in zrow.values())
            assert zrow[pc] > 0 and gcd(*zrow.values()) == 1
            assert {c: Fr(v, zrow[pc]) for c, v in zrow.items()} == row
        znull = linalg.z_nullspace(rows, ncols)
        assert len(znull) == len(null)
        for zvec, vec in zip(znull, null):
            last = max(c for c, v in enumerate(zvec) if v)
            assert all(type(v) is int for v in zvec) and gcd(*zvec) == 1
            assert zvec[last] > 0
            assert [Fr(v, zvec[last]) for v in zvec] == vec
        assert got == [[Fr(v, next(x for x in reversed(zvec) if x))
                        for v in zvec] for zvec in znull]
        self._check_solve(rows, ncols, ref, pivots)

    def _check_solve(self, rows, ncols, ref, pivots):
        """Against the reference reduction of the augmented rows."""
        rng = random.Random(len(rows) * 31 + ncols)
        rhss = [[Fr(rng.randint(-9, 9), rng.randint(1, 9)) for _ in rows]
                for _ in range(2)]
        if rows and len(pivots) == ncols:
            rhss.append([sum(a * b for a, b in zip(row, range(1, ncols + 1)))
                         for row in rows])
        aug = [list(row) + [rhs[i] for rhs in rhss]
               for i, row in enumerate(rows)]
        if len(pivots) < ncols:
            with pytest.raises(ExprError, match="independent"):
                linalg.z_solve_unique(rows, rhss, ncols)
            return
        aref, apivots = self._reference(aug)
        top, below = aref[:ncols], aref[ncols:]
        expected = [None if any(c in row for row in below)
                    else [row.get(c, Fr(0)) for row in top]
                    for c in range(ncols, ncols + len(rhss))]
        assert apivots[:ncols] == list(range(ncols))
        numerators, den = linalg.z_solve_unique(rows, rhss, ncols)
        assert type(den) is int and den > 0
        assert [None if sol is None else [Fr(x, den) for x in sol]
                for sol in numerators] == expected

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_seeded_matrices(self, seed, shape):
        nrows, ncols, density = shape
        rng = random.Random(seed)
        self._check(_random_matrix(rng, nrows, ncols, density), ncols)
        self._check(_big_denominators(rng, nrows, ncols), ncols)

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases(self, case):
        rows, ncols = EDGE_CASES[case]
        self._check(rows, ncols)

    def test_gcd_of_no_entries(self):
        # gcd() of nothing is 0: an empty row stays empty, not divided by 0
        assert gcd() == 0
        assert linalg.z_row([0, Fr(0)]) == {}
        assert linalg.z_row({}) == {}
        assert linalg.z_row([Fr(-4, 6), 0, Fr(8, 3)]) == {0: -1, 2: 4}
        assert linalg.z_rref([[0, 0], [0, 0]]) == ([], [])


class TestRationalEntries:
    """The two rings agree.  The ``f_*`` functions eliminate rational rows
    over the expressions -- held as ``Expr``, as ``Fraction`` or as
    ``int`` -- and give the values the integer elimination gives through
    ``z_*`` and ``q_*``, as ``Expr`` or (entry, pivot) pairs of them."""

    def _check(self, rng, q, ncols):
        nrows = len(q)
        m = [[ex.rational(v) for v in row] for row in q]
        ints = [[int(v) if Fr(v).denominator == 1 else v for v in row]
                for row in q]
        zrows, pivots = linalg.z_rref(q)
        rref = [{c: Fr(v, row[pc]) for c, v in row.items()}
                for row, pc in zip(zrows, pivots)]
        null = [[ex.rational(v) for v in vec] for vec in q_nullspace(q, ncols)]
        rhss = []
        if len(pivots) == ncols:
            x = [Fr(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ncols)]
            good = [sum(a * b for a, b in zip(row, x)) for row in q]
            bad = [Fr(rng.randint(-5, 5)) for _ in range(nrows)]
            rhss = [good, bad]
            numerators, den = linalg.z_solve_unique(q, rhss, ncols)
            expected = [None if sol is None else [Fr(v, den) for v in sol]
                        for sol in numerators]
            assert expected == [x, q_solve(q, bad, ncols)]
        as_exprs = [[ex.rational(v) for v in rhs] for rhs in rhss]
        for rows, given in ((m, as_exprs), (q, rhss), (ints, rhss)):
            f_rows, f_pivots = f_rref(rows)
            assert f_pivots == pivots
            assert all(isinstance(v, ex.Expr) for row in f_rows
                       for v in row.values())
            assert [{c: v.as_fraction() for c, v in row.items()}
                    for row in _values(f_rows, f_pivots)] == rref
            assert f_rank(rows) == len(pivots)
            # the nullspace reads the width off a dense first row
            if rows:
                assert f_nullspace(rows) == null
            if not given:
                with pytest.raises(ex.ExprError, match="independent"):
                    f_solve_unique(rows, [[Fr(0)] * nrows], ncols)
                continue
            sols = f_solve_unique(rows, given, ncols)
            assert all(isinstance(v, ex.Expr) for sol in sols if sol
                       for pair in sol for v in pair)
            assert [None if sol is None else
                    [ex.divide_exact(*pair).as_fraction() for pair in sol]
                    for sol in sols] == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_f_functions_agree_with_the_rational_ones(self, seed):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 4)
        q = [[Fr(rng.randint(-3, 3), rng.randint(1, 3))
              if rng.random() < 0.6 else Fr(0) for _ in range(ncols)]
             for _ in range(nrows)]
        self._check(rng, q, ncols)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_seeded_matrices(self, seed, shape):
        nrows, ncols, density = shape
        rng = random.Random(seed)
        self._check(rng, _random_matrix(rng, nrows, ncols, density), ncols)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("shape", [(7, 7), (12, 10)])
    def test_big_denominators(self, seed, shape):
        # every row a clear forms is taken over its rational content;
        # without that these grow integers without bound
        nrows, ncols = shape
        rng = random.Random(seed)
        self._check(rng, _big_denominators(rng, nrows, ncols), ncols)

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_cases(self, case):
        rows, ncols = EDGE_CASES[case]
        self._check(random.Random(ncols), rows, ncols)

    def test_one_symbolic_entry_takes_the_expression_field(self):
        # rank 2 over the field, although it drops to 1 at R = 4
        m = [[ex.ONE, ex.rational(2)], [ex.rational(2), R]]
        assert f_rank(m) == 2
        assert f_nullspace(m) == []
        [sol] = f_solve_unique(m, [[ex.rational(3), R + 2]])
        assert all((e - p).is_zero for e, p in sol)   # x = y = 1
