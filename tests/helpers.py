"""Test-only references: exact evaluation of kernel expressions at rational
points, the independent oracle of the canonical-form tests, the named
coefficient functions and multiplier exponents of the published hpz basis,
the omega and delta rewrites applied one step at a time, rational roots by
divisor enumeration, and the sparse Gauss-Jordan loop over a field, with
num/den pairs of kernel expressions as its field and the nullspace read
off its result: the values ``linalg.f_rref`` must give.  Also the seeded
matrices over Q(R, S, V, W) that the expression eliminations are tested
on, here and against sympy, the seeded triangular changes of basis that
classification is tested under, and ``bounded``, which runs a guarded call
in a child process that limits its own CPU time and memory."""

import pickle
import random
import signal
import subprocess
import sys
from fractions import Fraction
from math import comb, isqrt, lcm

from conftest import child_env
from liepde import expr as ex, fixtures as fx
from liepde.expr import (DivisionByZero, ExpFactor, Expr, ExprError, Frozen,
                         base_label)
from liepde.expr import R, S, V, W, X, Y
from liepde.linalg import ExpressionSwellError, q_rank
from liepde.solver import Binding


def evaluate(e, binding) -> dict:
    """Exact evaluation at rational points.

    Exponentials stay formal: the result maps each exponent q (a rational)
    to the rational coefficient of exp(q); distinct exponents are linearly
    independent, so the dict is zero iff it is empty.  Binding keys are the
    rendered labels of atoms, jets and t-functions (e.g. ``"u_xx"``, ``"a'"``).
    """
    out: dict[Fraction, Fraction] = {}
    for c, fs in e.terms:
        val = Fraction(c)
        expo = Fraction(0)
        for b, p in fs:
            if isinstance(b, ExpFactor):
                inner = evaluate(b.arg, binding)
                if any(k != 0 for k in inner):
                    raise ExprError("nested exponential cannot be evaluated")
                expo += p * inner.get(Fraction(0), Fraction(0))
                continue
            label = base_label(b)
            if label not in binding:
                raise ExprError(f"no value bound for {label!r}")
            bv = Fraction(binding[label])
            if bv == 0 and p < 0:
                raise DivisionByZero(f"{label!r} bound to zero and inverted")
            val *= bv ** p
        out[expo] = out.get(expo, Fraction(0)) + val
        if out[expo] == 0:
            del out[expo]
    return out


def evaluate_rational(e, binding) -> Fraction:
    val = evaluate(e, binding)
    if any(k != 0 for k in val):
        raise ExprError("value involves a non-trivial exponential")
    return val.get(Fraction(0), Fraction(0))


def coefficient_functions() -> dict:
    """The coefficient functions of the published basis by name; delta
    stands for (R*V+W)^-1."""
    return {"A1": fx._A1, "A2": fx._A2, "B1": fx._B1, "B2": fx._B2,
            "C": fx._C, "C1": fx._C1, "C2": fx._C2, "C3": fx._C3,
            "C4": fx._C4, "E": fx._E, "E1": fx._E1, "E2": fx._E2,
            "E3": fx._E3, "E4": fx._E4}


# the published constant K2 = S/(R*V + W), beside fixtures.K1 and K3; only
# the multiplier exponents use it
K2 = S * ex.DELTA

_MULTIPLIERS = {
    "delta3": ex.ZERO,
    "delta4": ex.ZERO,
    "delta5": ((fx.K1 * W * Y - X) * R * fx.K1 * Y
               - fx.HALF * R * (fx.K1 ** 2 * W + K2) * Y ** 2),
    "delta6": ((fx.K3 * W * Y - X) * R * fx.K3 * Y
               - fx.HALF * R * (fx.K3 ** 2 * W + K2) * Y ** 2),
}


def multiplier_exponent(name: str) -> Expr:
    """Published multiplier exponent Q with u = z(t, r) * exp(Q), for the
    reductions by delta3..delta6."""
    return _MULTIPLIERS[name]


def stack_rewrite(coeff, fdict: dict) -> list[tuple]:
    """The omega and delta rewrite rules applied to one monomial one step
    at a time, both results of each step pushed on a stack and nothing
    merged: the reference for the closed forms of
    ``expr._rewrite_monomial``, equal to them after ``expr._collect``.
    Its pieces number about C(min(r, v), d), so keep the powers small.
    """
    omega, r_, s_, v_, w_, delta = (
        ex.Atom(n) for n in ("omega", "R", "S", "V", "W", "delta"))
    out = []
    stack = [(coeff, fdict)]
    while stack:
        c, f = stack.pop()
        om = f.get(omega, 0)
        if om >= 2:
            half, rem = divmod(om, 2)
            g0 = dict(f)
            if rem:
                g0[omega] = rem
            else:
                del g0[omega]
            # (R^2 - 4S)^half expanded binomially
            for j in range(half + 1):
                g = dict(g0)
                if j:
                    g[r_] = g.get(r_, 0) + 2 * j
                k = half - j
                if k:
                    g[s_] = g.get(s_, 0) + k
                stack.append((c * comb(half, j) * (-4) ** k, g))
            continue
        if f.get(delta, 0) >= 1 and f.get(r_, 0) >= 1 and f.get(v_, 0) >= 1:
            g1 = dict(f)
            for b in (r_, v_, delta):
                g1[b] -= 1
                if g1[b] == 0:
                    del g1[b]
            g2 = dict(f)
            for b in (r_, v_):
                g2[b] -= 1
                if g2[b] == 0:
                    del g2[b]
            g2[w_] = g2.get(w_, 0) + 1
            stack.append((c, g1))
            stack.append((-c, g2))
            continue
        out.append((c, f))
    return out


def divisor_roots(p) -> list[Fraction]:
    """The distinct rational roots of a polynomial over Q (coefficients
    lowest degree first), in increasing order, by the rational root
    theorem: 0 when low coefficients vanish, and each +-a/b that is a root,
    for a dividing the lowest nonzero coefficient and b the leading one of
    the primitive integer form.  The reference for
    ``linalg.rational_roots``; trial division keeps it to small
    coefficients."""
    cs = [Fraction(c) for c in p]
    while cs and not cs[-1]:
        cs.pop()
    if len(cs) <= 1:
        return []
    low = next(i for i, c in enumerate(cs) if c)
    cs = cs[low:]
    den = lcm(*(c.denominator for c in cs))
    ints = [int(c * den) for c in cs]
    n = len(ints) - 1
    roots = {Fraction(0)} if low else set()
    for a in _divisors(ints[0]):
        for b in _divisors(ints[-1]):
            for s in (a, -a):
                # b^n times the value at s/b
                if not sum(c * s ** i * b ** (n - i)
                           for i, c in enumerate(ints)):
                    roots.add(Fraction(s, b))
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    """The positive divisors of |n| > 0, by trial division."""
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


def field_rref(rows, one) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of sparse rows over an exact field.

    ``rows`` yields fresh ``{column: value}`` dicts of nonzero entries, which
    are consumed.  The entries need ``-``, ``*``, ``1/x``, negation and a
    truth value that is false exactly at zero; ``one`` is the field's unit.
    Rows are reduced one at a time against the pivot rows found so far; a
    surviving row is scaled to a unit pivot at its leftmost nonzero column,
    which is then cleared from the earlier pivot rows.  The result is the
    unique reduced echelon basis of the row space, one row per pivot in
    column order, each holding only its nonzero entries.  Over
    ``FieldFrac`` it is the reference for ``linalg.f_rref``, whose rows over
    their pivot entries must be these rows.
    """
    basis: dict = {}   # pivot column -> its reduced row, pivot entry left out
    for row in rows:
        for c in [c for c in row if c in basis]:
            _subtract(row, row.pop(c), basis[c])
        if not row:
            continue
        pc = min(row)
        inv = 1 / row.pop(pc)
        row = {j: v * inv for j, v in row.items()}
        for other in basis.values():
            f = other.pop(pc, None)
            if f is not None:
                _subtract(other, f, row)
        basis[pc] = row
    pivots = sorted(basis)
    return [{pc: one, **basis[pc]} for pc in pivots], pivots


def _subtract(row: dict, f, pivot_row: dict):
    """row -= f * pivot_row, in place, keeping only nonzero entries."""
    for j, v in pivot_row.items():
        w = row[j] - f * v if j in row else -(f * v)
        if w:
            row[j] = w
        else:
            del row[j]


def field_nullspace(rref, pivots, ncols: int, zero, one) -> list[list]:
    """Right-nullspace basis from a reduced echelon form over a field, one
    dense vector per free column, in column order."""
    is_pivot = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in is_pivot:
            continue
        v = [zero] * ncols
        v[fc] = one
        for row, pc in zip(rref, pivots):
            if fc in row:
                v[pc] = -row[fc]
        basis.append(v)
    return basis


# Most terms in the numerator or the denominator of a ``FieldFrac``, past
# which it refuses as the field did when the package eliminated over it.
FIELD_BUDGET = 256


class FieldFrac(Frozen):
    """num/den with kernel-expression parts; zero when the numerator is.

    No gcd reduction is attempted: the canonical zero test on numerators is
    all correctness needs, and ``FIELD_BUDGET`` bounds the growth this
    allows, checked as each element is formed.  A rational denominator is
    folded into the numerator, leaving ``ONE``.
    """

    num: Expr
    den: Expr

    @staticmethod
    def of(v) -> "FieldFrac":
        """A number or an expression as a field element."""
        return FieldFrac(ex.as_expr(v), ex.ONE)

    def __post_init__(self):
        den = self.den.terms
        if not den:
            raise DivisionByZero("zero denominator in field element")
        if len(den) == 1 and not den[0][1] and den[0][0] != 1:
            object.__setattr__(self, "num", self.num * Fraction(1, den[0][0]))
            object.__setattr__(self, "den", ex.ONE)
        if max(len(self.num.terms), len(self.den.terms)) > FIELD_BUDGET:
            raise ExpressionSwellError(
                f"expression swell: a field element of more than "
                f"{FIELD_BUDGET} terms")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __add__(self, o: "FieldFrac") -> "FieldFrac":
        return FieldFrac(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o: "FieldFrac") -> "FieldFrac":
        return FieldFrac(self.num * o.den - o.num * self.den, self.den * o.den)

    def __mul__(self, o: "FieldFrac") -> "FieldFrac":
        return FieldFrac(self.num * o.num, self.den * o.den)

    def __neg__(self) -> "FieldFrac":
        return FieldFrac(-self.num, self.den)

    def __rtruediv__(self, o) -> "FieldFrac":
        """``o / self`` for a rational ``o``; ``1 / x`` is the inverse."""
        if not self:
            raise DivisionByZero("division by zero field element")
        return FieldFrac(self.den * o, self.num)

    def to_expr(self) -> Expr:
        return ex.divide_exact(self.num, self.den)


# seeded matrices over Q(R, S, V, W) ------------------------------------------

# the seeds at which a 5x4 matrix of rank 3 swelled past 20 s before the
# eliminations had a budget
SWELL_SEEDS = (0, 3, 4, 7)


def _entry(rng, density=0.7):
    """Zero, or a random polynomial of degree <= 1 in one of R, S, V, W."""
    if rng.random() > density:
        return ex.ZERO
    return rng.randint(-3, 3) + rng.choice((-2, -1, 1, 2)) * rng.choice(
        (R, S, V, W))


def _point(rng):
    return Binding({name: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
                    for name in "RSVW"})


def at_point(point, rows):
    """The expression matrix evaluated at a rational point."""
    return [[point.apply(v).as_fraction() for v in row] for row in rows]


def dot(row, vec):
    return sum((a * b for a, b in zip(row, vec)), ex.ZERO)


def _ranked(rng, point, nrows, ncols, k):
    """An nrows x ncols expression matrix of rank k, by construction: k rows
    independent at ``point`` (so symbolically independent), the others
    symbolic combinations of them, in shuffled order."""
    while True:
        base = [[_entry(rng) for _ in range(ncols)] for _ in range(k)]
        if q_rank(at_point(point, base)) == k:
            break
    rows = list(base)
    for _ in range(nrows - k):
        coeffs = [rng.choice((-1, 1, 2)) * rng.choice((R, S, V, W))
                  for _ in range(k)]
        rows.append([dot(coeffs, [row[j] for row in base])
                     for j in range(ncols)])
    rng.shuffle(rows)
    return rows


def rank_case(seed):
    """(rows, their rank k, the point they are independent at): a matrix
    of 2 or 3 columns and k + 1 or k + 2 rows."""
    rng = random.Random(seed)
    ncols = rng.randint(2, 3)
    k = rng.randint(1, ncols)
    point = _point(rng)
    return _ranked(rng, point, k + rng.randint(1, 2), ncols, k), k, point


def swell_case(seed):
    """A 5x4 matrix of rank 3."""
    rng = random.Random(seed)
    return _ranked(rng, _point(rng), 5, 4, 3)


def solve_case(seed):
    """(m, rhss, xs): an (n+1) x n matrix of independent columns, n <= 3,
    the right-hand sides m*x of one to three known solutions x, and one
    inconsistent right-hand side, whose entry in xs is None."""
    rng = random.Random(seed)
    ncols = rng.randint(1, 3)
    nrows = ncols + 1
    point = _point(rng)
    while True:
        m = [[_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
        if q_rank(at_point(point, m)) == ncols:
            break
    xs = [[_entry(rng) for _ in range(ncols)]
          for _ in range(rng.randint(1, 3))]
    rhss = [[dot(row, x) for row in m] for x in xs]
    # an rhs independent of the columns at the point is inconsistent
    while True:
        bad = [_entry(rng) for _ in range(nrows)]
        aug = [row + [b] for row, b in zip(m, bad)]
        if q_rank(at_point(point, aug)) == ncols + 1:
            break
    at = rng.randint(0, len(xs))
    xs.insert(at, None)
    rhss.insert(at, bad)
    return m, rhss, xs


def triangular_mix(rng, fields):
    """Each field scaled, plus a rational multiple of one earlier field: a
    seeded rational change of basis that keeps the span."""
    out = []
    for i, field in enumerate(fields):
        mixed = field.scaled(Fraction(rng.choice((-3, -1, 1, 2)),
                                      rng.randint(1, 3)))
        if i:
            other = fields[rng.randrange(i)]
            mixed = mixed.plus(other.scaled(Fraction(rng.randint(-3, 3), 2)))
        out.append(mixed)
    return out


_CHILD = """
import contextlib, io, pickle, resource, sys, time
resource.setrlimit(resource.RLIMIT_CPU, (5, 6))
resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))
fn, args = pickle.load(sys.stdin.buffer)
out, err = io.StringIO(), io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        outcome = ("value", fn(*args))
    except Exception as exc:
        outcome = ("raised", type(exc), exc.args, vars(exc))
seconds = time.perf_counter() - start
pickle.dump((outcome, seconds, out.getvalue(), err.getvalue()),
            sys.stdout.buffer)
"""


def bounded(fn, *args):
    """``fn(*args)`` in a fresh interpreter that first limits its own CPU
    time to 5 s and its address space to 512 MiB (``RLIMIT_CPU``,
    ``RLIMIT_AS``), so a guard test whose bound regressed fails in seconds
    instead of running the work it guards against.  ``fn`` and the values
    are pickled; the child runs under ``conftest.child_env``, so it imports
    the same liepde as this process.

    Returns ``(outcome, seconds, stdout, stderr)``: the value, or the
    exception raised, rebuilt with its arguments and attributes; the
    seconds the call took in the child, start-up excluded; and what it
    printed.  A child stopped by a limit fails the calling test."""
    child = subprocess.run(
        [sys.executable, "-c", _CHILD], capture_output=True,
        input=pickle.dumps((fn, args)), env=child_env(), timeout=60)
    if child.returncode:
        cause = (signal.Signals(-child.returncode).name
                 if child.returncode < 0 else f"exit {child.returncode}")
        raise AssertionError(f"the guarded call was stopped ({cause}): "
                             f"{child.stderr.decode()[-500:]}")
    outcome, seconds, out, err = pickle.loads(child.stdout)
    if outcome[0] == "value":
        return outcome[1], seconds, out, err
    _, cls, exc_args, attributes = outcome
    exc = cls.__new__(cls)
    exc.args = exc_args
    exc.__dict__.update(attributes)
    return exc, seconds, out, err
