"""Exact linear algebra: rational, polynomial and symbolic-field layers."""

import random
from fractions import Fraction as Fr

import pytest

from liepde.expr import ExprError, R, S, V, W
from liepde.linalg import (FieldFrac, RootExtractionError, f_nullspace,
                           f_rank, f_solve_unique, fraction_sqrt,
                           is_perfect_square, p_div_exact, p_eval, p_mul,
                           pencil_gram_poly, pencil_pivots, q_det,
                           q_nullspace, q_rank, q_rref, q_solve,
                           rational_roots, sturm_root_count)


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
        assert q_det([[Fr(1), Fr(2)], [Fr(3), Fr(4)]]) == Fr(-2)
        assert q_det([[Fr(1), Fr(2)], [Fr(2), Fr(4)]]) == 0


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
            rref, pivots = q_rref(given)
            assert pivots == ref_pivots
            assert [[row.get(c, 0) for c in range(ncols)] for row in rref] == ref
            for row, pc in zip(rref, pivots):
                assert 0 not in row.values()
                assert min(row) == pc and row[pc] == 1
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
        rng = random.Random(seed)
        for n in range(6):
            m = _random_matrix(rng, n, n, rng.choice((0.3, 1.0)))
            det = q_det(m)
            assert det == _cofactor_det(m)
            if n >= 2:
                i, j = rng.sample(range(n), 2)
                swapped = list(m)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                assert q_det(swapped) == -det

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


class TestPolynomials:
    def test_roots_with_multiplicity_at_zero(self):
        p = p_mul((Fr(0), Fr(1)), p_mul((Fr(0), Fr(1)), (Fr(1), Fr(3))))
        assert rational_roots(p) == [Fr(-1, 3), Fr(0)]

    def test_irrational_roots_detected(self):
        with pytest.raises(RootExtractionError):
            rational_roots((Fr(-2), Fr(0), Fr(1)))  # x^2 - 2

    def test_complex_roots_are_fine(self):
        assert rational_roots((Fr(1), Fr(0), Fr(1))) == []  # x^2 + 1

    def test_non_strict_mode_tolerates(self):
        roots = rational_roots((Fr(-2), Fr(0), Fr(1)), strict=False)
        assert roots == []

    def test_sturm(self):
        assert sturm_root_count((Fr(-4), Fr(0), Fr(1))) == 2
        assert sturm_root_count((Fr(1), Fr(0), Fr(1))) == 0
        # squarefree handling: (x-1)^2
        assert sturm_root_count((Fr(1), Fr(-2), Fr(1))) == 1

    def test_exact_division(self):
        num = p_mul((Fr(-1), Fr(1)), (Fr(2), Fr(5)))
        assert p_div_exact(num, (Fr(-1), Fr(1))) == (Fr(2), Fr(5))


class TestPencil:
    def test_pivot_roots_cover_rank_drops(self):
        a = [[Fr(1), Fr(0)], [Fr(0), Fr(1)], [Fr(1), Fr(1)]]
        b = [[Fr(1), Fr(0)], [Fr(0), Fr(0)], [Fr(0), Fr(0)]]
        roots = set()
        for piv in pencil_pivots(a, b):
            roots.update(rational_roots(piv, strict=False))
        assert Fr(-1) in roots

    def test_gram_poly_roots_are_rank_drops(self):
        a = [[Fr(1), Fr(0)], [Fr(0), Fr(1)]]
        b = [[Fr(1), Fr(0)], [Fr(0), Fr(2)]]
        gram = pencil_gram_poly(a, b)
        # rank drops exactly at -1 and -1/2
        assert p_eval(gram, Fr(-1)) == 0
        assert p_eval(gram, Fr(-1, 2)) == 0
        assert p_eval(gram, Fr(1)) != 0


class TestPerfectSquares:
    def test_detection(self):
        assert is_perfect_square(Fr(9))
        assert is_perfect_square(Fr(9, 4))
        assert not is_perfect_square(Fr(8))
        assert fraction_sqrt(Fr(9, 4)) == Fr(3, 2)


class TestExpressionField:
    def test_solve_and_verify(self):
        m = [[R, S], [V, W]]
        rhs = [R * R + S * S, V * R + W * S]
        sol = f_solve_unique(m, rhs)
        assert (sol[0].num - R * sol[0].den).is_zero
        assert (sol[1].num - S * sol[1].den).is_zero

    def test_inconsistent_returns_none(self):
        assert f_solve_unique([[R], [S]], [R, R]) is None

    def test_rank_and_nullspace(self):
        assert f_rank([[R, S], [2 * R, 2 * S]]) == 1
        ns = f_nullspace([[R, S], [2 * R, 2 * S]])
        assert len(ns) == 1
        assert (R * ns[0][0] + S * ns[0][1]).is_zero

    def test_fieldfrac_arithmetic(self):
        a = FieldFrac(R, S)
        b = FieldFrac(V, W)
        s = a.add(b)
        assert (s.num - (R * W + V * S)).is_zero and (s.den - S * W).is_zero
        assert a.sub(a).is_zero
