"""Exact linear algebra: rational, polynomial and symbolic-field layers."""

import random
import re
import time
from fractions import Fraction as Fr
from math import gcd, isqrt

import pytest

from liepde import expr as ex, linalg
from liepde.expr import ExprError, R, S, V, W
from liepde.linalg import (FieldFrac, RootExtractionError, charpoly,
                           coordinates, f_nullspace, f_rank, f_row_basis,
                           f_rref, f_solve_unique, fraction_sqrt,
                           is_perfect_square, p_div_exact, p_eval, p_mul,
                           pencil_gram_poly, pencil_pivots, q_nullspace,
                           q_rank, rational_roots)
from liepde.prolong import VectorField
from liepde.solver import Binding


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
    inconsistent, from one elimination of the augmented rows; raises on an
    underdetermined consistent system.  Sparse rows need ``ncols``.  The
    one-rhs reference that ``f_solve_unique`` is checked against."""
    if not rows:
        return []
    ncols = len(rows[0]) if ncols is None else ncols
    aug = []
    for row, b in zip(rows, rhs):
        row = dict(row if isinstance(row, dict) else enumerate(row))
        row[ncols] = b
        aug.append(row)
    rref, pivots = f_rref(aug)
    if ncols in pivots:
        return None
    if len(pivots) < ncols:
        raise ExprError("underdetermined linear system")
    return [row.get(ncols, Fr(0)) for row in rref]


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
            rref, pivots = f_rref(given)
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

    def test_factorisation_budget_refusal_names_the_budget(self):
        # a prime above (10^6 + 1)^2: trial division stops at the budget,
        # 10^6, before it reaches the square root
        prime = 1_000_002_000_007
        assert all(prime % d for d in range(2, isqrt(prime) + 1))
        with pytest.raises(RootExtractionError,
                           match="factorisation budget exceeded"):
            rational_roots((Fr(-prime), Fr(1)))

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
        [sol] = f_solve_unique(m, [rhs])
        assert (sol[0].num - R * sol[0].den).is_zero
        assert (sol[1].num - S * sol[1].den).is_zero

    def test_inconsistent_returns_none(self):
        assert f_solve_unique([[R], [S]], [[R, R]]) == [None]

    def test_rank_and_nullspace(self):
        assert f_rank([[R, S], [2 * R, 2 * S]]) == 1
        ns = f_nullspace([[R, S], [2 * R, 2 * S]])
        assert len(ns) == 1
        assert (R * ns[0][0] + S * ns[0][1]).is_zero

    def test_fieldfrac_arithmetic(self):
        a = FieldFrac(R, S)
        b = FieldFrac(V, W)
        s = a + b
        assert (s.num - (R * W + V * S)).is_zero and (s.den - S * W).is_zero
        assert (a - a).is_zero


PARAMS = (R, S, V, W)


def _poly(rng, density=0.7):
    """Zero, or a random polynomial of degree <= 1 in one of R, S, V, W."""
    if rng.random() > density:
        return ex.ZERO
    return rng.randint(-3, 3) + rng.choice((-2, -1, 1, 2)) * rng.choice(PARAMS)


def _point(rng):
    return Binding({name: Fr(rng.randint(-9, 9) or 1, rng.randint(1, 4))
                    for name in "RSVW"})


def _at(point, rows):
    """The expression matrix evaluated at a rational point."""
    return [[point.apply(v).as_fraction() for v in row] for row in rows]


def _dot(row, vec):
    return sum((a * b for a, b in zip(row, vec)), ex.ZERO)


def _ranked(rng, point, nrows, ncols, k):
    """An nrows x ncols expression matrix of rank k, by construction: k rows
    independent at ``point`` (so symbolically independent), the others
    symbolic combinations of them, in shuffled order."""
    while True:
        base = [[_poly(rng) for _ in range(ncols)] for _ in range(k)]
        if q_rank(_at(point, base)) == k:
            break
    rows = list(base)
    for _ in range(nrows - k):
        coeffs = [rng.choice((-1, 1, 2)) * rng.choice(PARAMS) for _ in range(k)]
        rows.append([_dot(coeffs, [row[j] for row in base])
                     for j in range(ncols)])
    rng.shuffle(rows)
    return rows


class TestSeededExpressionField:
    @pytest.mark.parametrize("seed", range(8))
    def test_rank_known_by_construction(self, seed):
        rng = random.Random(seed)
        ncols = rng.randint(2, 3)
        k = rng.randint(1, ncols)
        rows = _ranked(rng, _point(rng), k + rng.randint(1, 2), ncols, k)
        assert f_rank(rows) == k

    @pytest.mark.parametrize("seed", range(8))
    def test_nullspace_annihilates_and_counts(self, seed):
        rng = random.Random(seed)
        ncols = rng.randint(2, 3)
        k = rng.randint(1, ncols)
        point = _point(rng)
        rows = _ranked(rng, point, k + rng.randint(1, 2), ncols, k)
        ns = f_nullspace(rows)
        assert k + len(ns) == ncols
        for vec in ns:
            assert all(_dot(row, vec).is_zero for row in rows)
        assert q_rank(_at(point, ns)) == len(ns)

    @pytest.mark.parametrize("seed", range(8))
    def test_multi_rhs_solve_recovers_known_solutions(self, seed):
        rng = random.Random(seed)
        ncols = rng.randint(1, 3)
        nrows = ncols + 1
        point = _point(rng)
        while True:
            m = [[_poly(rng) for _ in range(ncols)] for _ in range(nrows)]
            if q_rank(_at(point, m)) == ncols:
                break
        xs = [[_poly(rng) for _ in range(ncols)]
              for _ in range(rng.randint(1, 3))]
        rhss = [[_dot(row, x) for row in m] for x in xs]
        # an rhs independent of the columns at the point is inconsistent
        while True:
            bad = [_poly(rng) for _ in range(nrows)]
            aug = [row + [b] for row, b in zip(m, bad)]
            if q_rank(_at(point, aug)) == ncols + 1:
                break
        at = rng.randint(0, len(xs))
        xs.insert(at, None)
        rhss.insert(at, bad)
        for given in (m, [{c: v for c, v in enumerate(row) if not v.is_zero}
                          for row in m]):
            sols = f_solve_unique(given, rhss, ncols)
            assert len(sols) == len(xs)
            for sol, x in zip(sols, xs):
                if x is None:
                    assert sol is None
                else:
                    assert all((f.num - v * f.den).is_zero
                               for f, v in zip(sol, x))

    def test_nullspace_clears_every_denominator(self):
        # the reduced rows are (1, 0, 1/R) and (0, 1, 1/S)
        assert f_nullspace([[R, ex.ZERO, ex.ONE], [ex.ZERO, S, ex.ONE]]) == \
            [[-S, -R, R * S]]

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
    """The ``FieldFrac`` loop refuses an element past ``_SWELL_BUDGET``
    terms as it is formed: without the budget, ``f_rank`` of these 5x4
    rank-3 matrices, of entries with at most 6 terms, ran past 20 s."""

    REFUSAL = (rf"^expression swell: a symbolic elimination formed a field "
               rf"element of more than {linalg._SWELL_BUDGET} terms$")

    @pytest.mark.parametrize("seed", [0, 3, 4, 7])
    def test_swell_answers_or_refuses_within_two_seconds(self, seed):
        rng = random.Random(seed)
        rows = _ranked(rng, _point(rng), 5, 4, 3)
        start = time.perf_counter()
        try:
            assert f_rank(rows) == 3
        except linalg.ExpressionSwellError as err:
            assert re.match(self.REFUSAL, str(err))
        assert time.perf_counter() - start < 2

    def test_budget_bounds_numerator_and_denominator(self):
        budget = linalg._SWELL_BUDGET
        at, past = (ex.sum_of([ex.X ** k for k in range(n)])
                    for n in (budget, budget + 1))
        assert FieldFrac(at, at).to_expr() == ex.ONE
        for num, den in ((past, ex.ONE), (ex.ONE, past)):
            with pytest.raises(linalg.ExpressionSwellError,
                               match=self.REFUSAL):
                FieldFrac(num, den)
        assert issubclass(linalg.ExpressionSwellError, ExprError)


class TestIntegerLoop:
    """Every rational elimination runs through the fraction-free loop over
    the integers; the field loop over Fraction(1) is the reference."""

    @staticmethod
    def _reference(rows):
        return linalg._rref(({c: Fr(v) for c, v in enumerate(row) if v}
                             for row in rows), Fr(1))

    def _check(self, rows, ncols):
        ref, pivots = self._reference(rows)
        null = linalg._nullspace(ref, pivots, ncols, Fr(0), Fr(1))
        dense = [[row.get(c, Fr(0)) for c in range(ncols)] for row in ref]
        rrefs = [f_rref(rows)]
        vectors = [(q_nullspace(rows, ncols), null)]
        # the other f_* functions read the width off a dense first row
        if rows:
            vectors += [(f_nullspace(rows), null), (f_row_basis(rows), dense)]
            assert f_rank(rows) == len(pivots)
        assert q_rank(rows) == len(pivots)
        for got in rrefs:
            assert got == (ref, pivots)
            assert all(type(v) is Fr for row in got[0] for v in row.values())
        for got, want in vectors:
            assert got == want
            assert all(type(v) is Fr for vec in got for v in vec)
        # the integer results: positive primitive multiples of the field's
        zrows, zpivots = linalg.z_rref(rows)
        assert zpivots == pivots
        for zrow, row, pc in zip(zrows, ref, pivots):
            assert all(type(v) is int for v in zrow.values())
            assert zrow[pc] > 0 and gcd(*zrow.values()) == 1
            assert {c: Fr(v, zrow[pc]) for c, v in zrow.items()} == row
        assert linalg.z_row_basis(rows, ncols) == [
            [zrow.get(c, 0) for c in range(ncols)] for zrow in zrows]
        znull = linalg.z_nullspace(rows, ncols)
        assert len(znull) == len(null)
        for zvec, vec in zip(znull, null):
            last = max(c for c, v in enumerate(zvec) if v)
            assert all(type(v) is int for v in zvec) and gcd(*zvec) == 1
            assert zvec[last] > 0
            assert [Fr(v, zvec[last]) for v in zvec] == vec
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
            for solve in (f_solve_unique, linalg.z_solve_unique):
                with pytest.raises(ExprError, match="independent"):
                    solve(rows, rhss, ncols)
            return
        aref, apivots = self._reference(aug)
        top, below = aref[:ncols], aref[ncols:]
        expected = [None if any(c in row for row in below)
                    else [row.get(c, Fr(0)) for row in top]
                    for c in range(ncols, ncols + len(rhss))]
        assert apivots[:ncols] == list(range(ncols))
        sols = f_solve_unique(rows, rhss, ncols)
        assert sols == expected
        assert all(type(v) is Fr for sol in sols if sol for v in sol)
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
    """The ``f_*`` functions follow the field of their entries: rows of
    numbers give ``Fraction`` results, rows of rational expressions are
    eliminated over ``Fraction`` too but give ``FieldFrac`` or ``Expr``."""

    @pytest.mark.parametrize("seed", range(8))
    def test_f_functions_agree_with_the_rational_ones(self, seed):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 4)
        q = [[Fr(rng.randint(-3, 3), rng.randint(1, 3))
              if rng.random() < 0.6 else Fr(0) for _ in range(ncols)]
             for _ in range(nrows)]
        m = [[ex.rational(v) for v in row] for row in q]
        # integral entries as int: numbers are eliminated over Fraction
        ints = [[int(v) if v.denominator == 1 else v for v in row]
                for row in q]
        assert linalg._field_rows(m)[2].__class__ is Fr
        rref, pivots = f_rref(q)
        dense = [[row.get(c, Fr(0)) for c in range(ncols)] for row in rref]
        f_rows, f_pivots = f_rref(m)
        assert f_pivots == pivots
        assert all(isinstance(v, FieldFrac) for row in f_rows
                   for v in row.values())
        assert [{c: v.to_expr().as_fraction() for c, v in row.items()}
                for row in f_rows] == rref
        # the generic engine over FieldFrac, which symbolic entries take
        generic, _ = linalg._rref(
            ({c: FieldFrac.of(v) for c, v in enumerate(row) if v}
             for row in q), FieldFrac.of(1))
        assert [{c: v.to_expr() for c, v in row.items()} for row in generic] \
            == [{c: v.to_expr() for c, v in row.items()} for row in f_rows]
        assert f_rank(m) == len(pivots)
        assert f_nullspace(m) == [[ex.rational(v) for v in vec]
                                  for vec in q_nullspace(q)]
        assert f_row_basis(m) == [[ex.rational(v) for v in row]
                                  for row in dense]
        # rows of numbers: the same results, as Fraction
        for rows in (q, ints):
            assert f_rref(rows) == (rref, pivots)
            assert f_rank(rows) == len(pivots)
            assert f_nullspace(rows) == q_nullspace(q)
            assert f_row_basis(rows) == dense
            assert all(type(v) is Fr for row in f_rref(rows)[0]
                       for v in row.values())
            assert all(type(v) is Fr for vecs in (f_nullspace(rows),
                                                  f_row_basis(rows))
                       for vec in vecs for v in vec)
        if len(pivots) == ncols:
            x = [Fr(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ncols)]
            good = [sum(a * b for a, b in zip(row, x)) for row in q]
            bad = [Fr(rng.randint(-5, 5)) for _ in range(nrows)]
            expected = q_solve(q, bad)
            sols = f_solve_unique(m, [[ex.rational(v) for v in good],
                                      [ex.rational(v) for v in bad]])
            assert [v.to_expr().as_fraction() for v in sols[0]] == x
            if expected is None:
                assert sols[1] is None
            else:
                assert [v.to_expr().as_fraction() for v in sols[1]] == expected
            for rows in (q, ints):
                sols = f_solve_unique(rows, [good, bad])
                assert sols == [x, expected]
                assert all(type(v) is Fr for sol in sols if sol for v in sol)
        else:
            for rows in (m, q, ints):
                with pytest.raises(ex.ExprError, match="independent"):
                    f_solve_unique(rows, [[Fr(0)] * nrows])

    def test_one_symbolic_entry_takes_the_expression_field(self):
        # rank 2 over the field, although it drops to 1 at R = 4
        m = [[ex.ONE, ex.rational(2)], [ex.rational(2), R]]
        assert isinstance(linalg._field_rows(m)[2], FieldFrac)
        assert f_rank(m) == 2
        assert f_nullspace(m) == []
        [sol] = f_solve_unique(m, [[ex.rational(3), R + 2]])
        assert all((v.num - v.den).is_zero for v in sol)   # x = y = 1
