"""Exact symbolic expression kernel.

Values are immutable, fully expanded sums of terms.  Each term is an exact
rational coefficient times a sorted tuple of factors ``base^exponent``, where
a base is one of

* a named atom: the independent variables ``t, x, y, r``, the parameters
  ``R, S, V, W``, the surd ``omega``, an internal localisation atom
  ``delta`` standing for ``(R*V + W)^-1``, or a user-declared constant;
* an unknown function of ``t`` together with a derivative order (``a``,
  ``a'``, ...), used when assembling determining equations;
* a jet variable ``u_tx`` style (the bare dependent symbol is the
  zero-order jet);
* a single exponential factor ``exp(argument)`` per term (products of
  exponentials are merged, ``exp(0)`` disappears).

Two rewrite rules keep normal forms canonical:

    omega^2        ->  R^2 - 4*S
    R*V*delta      ->  1 - W*delta          (so that delta*(R*V + W) = 1)

Their leading monomials are coprime, so the pair is a Groebner basis of the
ideal it generates and every value has exactly one normal form: equality of
canonical forms decides equality of values for the polynomial/exponential
class this engine works in.  All arithmetic is exact; nothing here ever
touches floating point.

Bases are tuples that begin with their sort key (see the bases section),
so their natural tuple order is the fixed order of factors within a term
and of terms within a sum, and they hash and compare as tuples.  The
kernel keeps no caches: an expression computes its hash on first use and
keeps it, and nothing else is memoised.

Division has one policy.  ``/``, negative powers and every exact quotient
the engine takes go through :func:`divide_exact`, which returns ``num/den``
when the quotient is a value of this kernel and raises
:class:`UnsupportedDivision`, naming the divisor as the caller wrote it, at
once when it is not.  Negative powers of variables, user constants, jets
and exponentials are values; so is ``delta``, the inverse of ``R*V + W``.
Negative powers of the parameters, omega and delta are not, and no
arithmetic builds them.  A divisor that is a sum holding an exponential
(other than one every term shares) is refused.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Union

__all__ = [
    "Atom", "TFun", "Jet", "ExpFactor", "Expr",
    "ExprError", "InternalError", "DivisionByZero", "UnsupportedDivision",
    "rational", "sym", "jet", "tfun", "exp_of", "as_expr",
    "sum_of", "partial", "differentiate", "substitute", "subst_many",
    "evaluate", "evaluate_rational", "divide_exact", "split_terms",
    "atoms_of", "jets_of", "max_jet_order",
    "factors_text", "simplify",
    "ZERO", "ONE", "T", "X", "Y", "RADIAL", "U", "Z",
    "R", "S", "V", "W", "OMEGA", "DELTA",
    "PARAMETER_NAMES", "VARIABLE_NAMES", "DEPENDENT_NAMES", "RESERVED_NAMES",
]

PARAMETER_NAMES = ("R", "S", "V", "W", "omega", "delta")
VARIABLE_NAMES = ("t", "x", "y", "r")
DEPENDENT_NAMES = ("u", "z")
RESERVED_NAMES = ("t", "x", "y", "r", "z", "u", "R", "S", "V", "W", "omega")

Rational = Union[int, Fraction]


class ExprError(Exception):
    """Base class for kernel errors."""


class InternalError(ExprError):
    """An invariant the engine maintains itself was violated (a bug, not a
    usage error or a mathematical refusal)."""


class DivisionByZero(ExprError):
    """Raised when dividing by an expression that canonicalises to zero."""


class UnsupportedDivision(ExprError):
    """Raised when a division has no representable exact result."""


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------
#
# Every base is a tuple that begins with its sort key, so the natural order
# of tuples is the fixed total order on bases that keeps rendered output and
# golden files stable: parameters (category 0, in PARAMETER_NAMES order),
# user constants (1, by name), unknown t-functions (2, by name, then order),
# independent variables (3, in VARIABLE_NAMES order), exponentials (4, by
# the factors and then the (numerator, denominator) of each term of the
# argument), jets (5, by dependent symbol, order, then index letters).
# Equal tuples are equal bases.

_PARAM_INDEX = {n: i for i, n in enumerate(PARAMETER_NAMES)}
_VAR_INDEX = {n: i for i, n in enumerate(VARIABLE_NAMES)}
_DEP_INDEX = {n: i for i, n in enumerate(DEPENDENT_NAMES)}


class Atom(tuple):
    """Named atom, the tuple ``(category, rank, name)``."""
    __slots__ = ()

    def __new__(cls, name: str):
        if name in _PARAM_INDEX:
            return tuple.__new__(cls, (0, _PARAM_INDEX[name], name))
        if name in _VAR_INDEX:
            return tuple.__new__(cls, (3, _VAR_INDEX[name], name))
        return tuple.__new__(cls, (1, name, name))

    name = property(itemgetter(2))

    def __getnewargs__(self):
        return (self.name,)

    def __repr__(self):
        return f"Atom(name={self.name!r})"


class TFun(tuple):
    """Unknown function of t, the tuple ``(2, name, order)``; ``order``
    counts time derivatives."""
    __slots__ = ()

    def __new__(cls, name: str, order: int = 0):
        return tuple.__new__(cls, (2, name, order))

    name = property(itemgetter(1))
    order = property(itemgetter(2))

    def __getnewargs__(self):
        return (self.name, self.order)

    def __repr__(self):
        return f"TFun(name={self.name!r}, order={self.order!r})"


class ExpFactor(tuple):
    """``exp(arg)``, the tuple ``(4, key, arg)``: ``key`` lists each term of
    ``arg`` as ``(factors, (numerator, denominator))``."""
    __slots__ = ()

    def __new__(cls, arg: "Expr"):
        key = tuple([(fs, (c.numerator, c.denominator)) for c, fs in arg.terms])
        return tuple.__new__(cls, (4, key, arg))

    arg = property(itemgetter(2))

    def __getnewargs__(self):
        return (self.arg,)

    def __repr__(self):
        return f"ExpFactor(arg={self.arg!r})"


class Jet(tuple):
    """Jet variable: dependent symbol with a sorted derivative multi-index,
    the tuple ``(5, dep, (dep rank, order, index ranks...), idx)``."""
    __slots__ = ()

    def __new__(cls, dep: str, idx: tuple[str, ...] = ()):
        idx = tuple(idx)
        nums = (_DEP_INDEX.get(dep, 99), len(idx)) + tuple(
            [_VAR_INDEX.get(v, 99) for v in idx])
        return tuple.__new__(cls, (5, dep, nums, idx))

    dep = property(itemgetter(1))
    idx = property(itemgetter(3))

    @property
    def order(self) -> int:
        return len(self[3])

    def __getnewargs__(self):
        return (self.dep, self.idx)

    def __repr__(self):
        return f"Jet(dep={self.dep!r}, idx={self.idx!r})"


Base = Union[Atom, TFun, Jet, ExpFactor]
Factor = tuple[Base, int]
Factors = tuple[Factor, ...]
Term = tuple[Fraction, Factors]


def base_label(b: Base) -> str:
    """Human-readable label used by the renderer and by evaluation bindings."""
    if isinstance(b, Atom):
        return b.name
    if isinstance(b, TFun):
        return b.name + "'" * b.order
    if isinstance(b, Jet):
        return b.dep if not b.idx else b.dep + "_" + "".join(b.idx)
    raise TypeError("exp factors have no atomic label")


# ---------------------------------------------------------------------------
# canonicalisation
# ---------------------------------------------------------------------------

_OMEGA_B = Atom("omega")
_DELTA_B = Atom("delta")
_R_B = Atom("R")
_S_B = Atom("S")
_V_B = Atom("V")
_W_B = Atom("W")
_GUARDED = (_R_B, _S_B, _V_B, _W_B, _OMEGA_B, _DELTA_B)
_T_B = Atom("t")


def _rewrite_monomial(coeff: Fraction, fdict: dict[Base, int]) -> list[tuple[Fraction, dict]]:
    """Exhaustively apply the omega and delta rewrite rules to one monomial.

    Terminates: the omega rule fires at most once per lineage, and the
    R*V*delta rule strictly lowers the combined R,V degree.
    """
    out: list[tuple[Fraction, dict]] = []
    stack = [(coeff, fdict)]
    while stack:
        c, f = stack.pop()
        om = f.get(_OMEGA_B, 0)
        if om >= 2:
            half, rem = divmod(om, 2)
            g0 = dict(f)
            if rem:
                g0[_OMEGA_B] = rem
            else:
                del g0[_OMEGA_B]
            # (R^2 - 4S)^half expanded binomially
            for j in range(half + 1):
                g = dict(g0)
                if j:
                    g[_R_B] = g.get(_R_B, 0) + 2 * j
                k = half - j
                if k:
                    g[_S_B] = g.get(_S_B, 0) + k
                stack.append((c * comb(half, j) * Fraction(-4) ** k, g))
            continue
        if f.get(_DELTA_B, 0) >= 1 and f.get(_R_B, 0) >= 1 and f.get(_V_B, 0) >= 1:
            g1 = dict(f)
            for b in (_R_B, _V_B, _DELTA_B):
                g1[b] -= 1
                if g1[b] == 0:
                    del g1[b]
            g2 = dict(f)
            for b in (_R_B, _V_B):
                g2[b] -= 1
                if g2[b] == 0:
                    del g2[b]
            g2[_W_B] = g2.get(_W_B, 0) + 1
            stack.append((c, g1))
            stack.append((-c, g2))
            continue
        out.append((c, f))
    return out


def _normalize_product(coeff: Fraction, raw: Iterable[Factor]) -> list[Term]:
    """Merge factors, fold exponentials, apply rewrites; may split the term."""
    if coeff == 0:
        return []
    merged: dict[Base, int] = {}
    exp_args: list[Expr] = []
    exp_factor: Factor | None = None
    inverse = False
    for b, p in raw:
        if p == 0:
            continue
        if b.__class__ is ExpFactor:
            exp_args.append(b.arg if p == 1 else b.arg * p)
            exp_factor = (b, p)
        elif b in merged:
            merged[b] += p
        else:
            merged[b] = p
        inverse = inverse or p < 0
    if inverse:
        # only a negative exponent can cancel a factor or invert a parameter
        merged = {b: p for b, p in merged.items() if p != 0}
        for b in _GUARDED:
            if merged.get(b, 0) < 0:
                raise UnsupportedDivision(
                    f"a negative power of {b.name} is not a kernel value")

    # one exp(arg) to the first power is canonical already; else merge
    if len(exp_args) > 1 or (exp_args and exp_factor[1] != 1):
        total = exp_args[0]
        for a in exp_args[1:]:
            total = total + a
        exp_factor = None if total.is_zero else (ExpFactor(total), 1)

    pieces = _rewrite_monomial(coeff, merged)
    terms: list[Term] = []
    for c, f in pieces:
        fs = sorted(f.items())
        if exp_factor is not None:
            fs.append(exp_factor)
        terms.append((c, tuple(fs)))
    return terms


def _collect(pieces: Iterable[Term]) -> tuple[Term, ...]:
    acc: dict[Factors, Fraction] = {}
    for c, fs in pieces:
        if fs in acc:
            acc[fs] += c
        else:
            acc[fs] = c
    out = [(fs, c) for fs, c in acc.items() if c]
    out.sort()
    return tuple([(c, fs) for fs, c in out])


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

class Expr:
    """Canonical immutable expression; see the module docstring."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: tuple[Term, ...]):
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Expr is immutable")

    def __reduce__(self):
        # rebuilt from its canonical terms; the default slot restore would
        # go through __setattr__
        return (Expr, (self.terms,))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = rational(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        # computed on first use; a rational constant hashes as its value,
        # like the int or Fraction it compares equal to
        try:
            return self._hash
        except AttributeError:
            pass
        terms = self.terms
        if not terms:
            h = 0
        elif len(terms) == 1 and not terms[0][1]:
            h = hash(terms[0][0])
        else:
            h = hash(terms)
        object.__setattr__(self, "_hash", h)
        return h

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        # false exactly at zero, like a number, so exact field code can use
        # one truth test for Fraction and Expr entries
        return bool(self.terms)

    @property
    def is_rational(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not self.terms[0][1])

    def as_fraction(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_rational:
            raise ExprError(f"{self} is not a rational constant")
        return self.terms[0][0]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "Expr":
        if not isinstance(other, Expr):
            other = as_expr(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        return Expr(_collect(self.terms + other.terms))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr(tuple((-c, fs) for c, fs in self.terms))

    def __sub__(self, other) -> "Expr":
        return self + (-as_expr(other))

    def __rsub__(self, other) -> "Expr":
        return as_expr(other) + (-self)

    def __mul__(self, other) -> "Expr":
        if not isinstance(other, Expr):
            if isinstance(other, (int, Fraction)):
                return self._scaled(other)
            other = as_expr(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return ZERO
        # a rational factor k only scales: k*c*m is canonical when c*m is
        if len(b) == 1 and not b[0][1]:
            return self._scaled(b[0][0])
        if len(a) == 1 and not a[0][1]:
            return other._scaled(a[0][0])
        pieces: list[Term] = []
        for c1, f1 in a:
            for c2, f2 in b:
                pieces.extend(_normalize_product(c1 * c2, f1 + f2))
        return Expr(_collect(pieces))

    __rmul__ = __mul__

    def _scaled(self, k: Rational) -> "Expr":
        if not k or not self.terms:
            return ZERO
        return self if k == 1 else Expr(tuple([(c * k, fs) for c, fs in self.terms]))

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            raise TypeError("exponents must be integers")
        if n == 0:
            return ONE
        if n < 0:
            return divide_exact(ONE, self) ** -n
        result = ONE
        square = self
        k = n
        while k:
            if k & 1:
                result = result * square
            square = square * square if k > 1 else square
            k >>= 1
        return result

    def __truediv__(self, other) -> "Expr":
        return divide_exact(self, other)

    def __rtruediv__(self, other) -> "Expr":
        return divide_exact(other, self)

    # -- display -------------------------------------------------------------

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"Expr({to_text(self)})"


ZERO = Expr(())
ONE = Expr(((Fraction(1), ()),))


def rational(p: Rational, q: int = 1) -> Expr:
    c = Fraction(p, q) if q != 1 else Fraction(p)
    return Expr(()) if c == 0 else Expr(((c, ()),))


def as_expr(v) -> Expr:
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return rational(v)
    raise TypeError(f"cannot coerce {v!r} to Expr")


def sum_of(pieces: Iterable[Expr]) -> Expr:
    """Sum of expressions, merged by one collection.

    Folding with ``+`` re-merges the growing sum once per piece, which is
    quadratic in the number of pieces; this merges all terms once.
    """
    return Expr(_collect(t for e in pieces for t in e.terms))


def _expr_of_base(b: Base, p: int = 1) -> Expr:
    return Expr(_collect(_normalize_product(Fraction(1), ((b, p),))))


def sym(name: str) -> Expr:
    """Resolve a name to an atom or zero-order jet expression."""
    if name in DEPENDENT_NAMES:
        return _expr_of_base(Jet(name, ()))
    return _expr_of_base(Atom(name))


def jet(dep: str, idx: str | tuple[str, ...] = ()) -> Expr:
    letters = tuple(idx)
    if dep not in DEPENDENT_NAMES:
        raise ExprError(f"unknown dependent symbol {dep!r}")
    if any(v not in _VAR_INDEX for v in letters):
        raise ExprError(f"bad jet index {letters!r}")
    if list(letters) != sorted(letters, key=_VAR_INDEX.get):
        raise ExprError(
            f"jet index {''.join(letters)!r} is not in canonical order "
            f"(t before x before y before r)")
    if len(letters) > 3:
        raise ExprError("jet order above 3 is not supported")
    return _expr_of_base(Jet(dep, letters))


def tfun(name: str, order: int = 0) -> Expr:
    return _expr_of_base(TFun(name, order))


def exp_of(arg) -> Expr:
    arg = as_expr(arg)
    if arg.is_zero:
        return ONE
    return _expr_of_base(ExpFactor(arg))


T, X, Y, RADIAL = sym("t"), sym("x"), sym("y"), sym("r")
R, S, V, W = sym("R"), sym("S"), sym("V"), sym("W")
OMEGA, DELTA = sym("omega"), sym("delta")
U, Z = sym("u"), sym("z")

_D_SUM = R * V + W  # the sum whose inverse is delta


def simplify(e: Expr) -> Expr:
    """Identity on Expr: construction already canonicalises.  Kept as the
    explicit canonicalisation entry point; idempotence is then structural."""
    return as_expr(e)


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

def _omega_split(e: Expr) -> tuple[Expr, Expr]:
    """e = even + omega*odd with omega-free parts (normal form has omega^<=1)."""
    even: list[Term] = []
    odd: list[Term] = []
    for c, fs in e.terms:
        rest = tuple((b, p) for b, p in fs if b != _OMEGA_B)
        if len(rest) != len(fs):
            odd.append((c, rest))
        else:
            even.append((c, fs))
    return Expr(_collect(even)), Expr(_collect(odd))


def _delta_degree(e: Expr) -> int:
    return max([p for _, fs in e.terms for b, p in fs if b == _DELTA_B], default=0)


def _poly_div_exact(num: Expr, den: Expr) -> Expr | None:
    """The polynomial quotient ``num/den``, or None when ``den`` does not
    divide ``num``.

    ``den`` has two or more terms, no monomial factor and no negative power
    or delta; ``num`` is delta-free.  The graded-lex order is
    multiplicative, so when ``den`` divides the remainder its leading term
    divides the remainder's, and the loop stops at the first leading term
    that it does not.  ``num`` may hold negative powers, but as ``den`` has
    no monomial factor a quotient never holds a power below the least one
    in ``num``, so every step lowers the leading monomial in a well-order
    and the loop ends.  A ``den`` holding an exponential gives None:
    products of exponentials are new bases, which would break that order.
    """
    floor: dict[Base, int] = {}
    for _, fs in num.terms:
        for b, p in fs:
            floor[b] = min(p, floor.get(b, 0))
    for _, fs in den.terms:
        for b, _ in fs:
            if b.__class__ is ExpFactor:
                return None
            floor.setdefault(b, 0)
    universe = sorted(floor)

    def grlex(term: Term) -> tuple:
        expo = dict(term[1])
        vec = [expo.get(b, 0) for b in universe]
        return sum(vec), vec

    dc, dfs = max(den.terms, key=grlex)
    quotient: list[Term] = []
    rem = num
    while rem.terms:
        rc, rfs = max(rem.terms, key=grlex)
        qexp = dict(rfs)
        for b, p in dfs:
            qexp[b] = qexp.get(b, 0) - p
            if qexp[b] < floor[b]:
                return None
        qterm = Expr(_collect(_normalize_product(rc / dc, tuple(qexp.items()))))
        quotient.extend(qterm.terms)
        rem = rem - qterm * den
    return Expr(_collect(quotient))


def _content(e: Expr) -> tuple[Fraction, Factors]:
    """The first coefficient and the least power of each base over the
    terms: the monomial that leaves no monomial factor."""
    least = dict(e.terms[0][1])
    for _, fs in e.terms[1:]:
        expo = dict(fs)
        for b in set(least) | set(expo):
            least[b] = min(least.get(b, 0), expo.get(b, 0))
    return e.terms[0][0], tuple([(b, p) for b, p in least.items() if p])


def _divide_monomial(e: Expr, c: Fraction, fs: Factors) -> Expr | None:
    """``e / (c*fs)`` term by term, or None when a term would hold a
    negative power of a parameter."""
    if not fs:
        return e._scaled(1 / c)
    inverse = tuple([(b, -p) for b, p in fs])
    try:
        return Expr(_collect([t for ec, efs in e.terms
                              for t in _normalize_product(ec / c, efs + inverse)]))
    except UnsupportedDivision:
        return None


def divide_exact(num: Expr, den: Expr) -> Expr:
    """Exact quotient ``num/den``, behind ``/`` and negative powers too;
    :class:`UnsupportedDivision`, naming ``den``, when it is not a kernel
    value.

    One normalisation: delta is cleared from both sides and omega
    rationalised out of ``den``; the powers of ``R*V + W`` in ``den`` are
    taken out as powers of delta, and the rest of ``den`` is monomial
    content, divided term by term, times a polynomial with no monomial
    factor, divided by :func:`_poly_div_exact`.
    """
    num, den = as_expr(num), as_expr(den)
    if den.is_zero:
        raise DivisionByZero("division by an expression that simplifies to zero")
    if num.is_zero:
        return ZERO
    divisor = den
    d = _delta_degree(den)
    if d:
        num, den = num * _D_SUM ** d, den * _D_SUM ** d
    even, odd = _omega_split(den)
    if odd.terms:
        conj = even - OMEGA * odd
        num, den = num * conj, den * conj
    k = _delta_degree(num)
    if k:
        num = num * _D_SUM ** k
    while len(den.terms) > 1:
        rest = _poly_div_exact(den, _D_SUM)
        if rest is None:
            break
        den, k = rest, k + 1
    c, m = _content(den)
    num = _divide_monomial(num, c, m)
    poly = _divide_monomial(den, c, m)
    if num is not None and len(poly.terms) > 1:
        num = _poly_div_exact(num, poly)
    if num is None:
        raise UnsupportedDivision(
            f"no exact quotient in the kernel for division by {to_text(divisor)}")
    return num * DELTA ** k if k else num


# ---------------------------------------------------------------------------
# calculus and substitution
# ---------------------------------------------------------------------------

def _dbase(b: Base, v: Base) -> Expr | None:
    """Formal derivative of a base with respect to a base, or None if zero."""
    if b == v:
        return ONE
    if isinstance(b, TFun) and v == _T_B:
        return tfun(b.name, b.order + 1)
    if isinstance(b, ExpFactor):
        da = partial(b.arg, v)
        if da.is_zero:
            return None
        return da * _expr_of_base(b)
    return None


def partial(e: Expr, v: Base | str) -> Expr:
    """Formal partial derivative; jets are independent coordinates."""
    if isinstance(v, str):
        v = _resolve_base(v)
    pieces: list[Term] = []
    for c, fs in e.terms:
        for i, (b, p) in enumerate(fs):
            db = _dbase(b, v)
            if db is None:
                continue
            rest = fs[:i] + ((b, p - 1),) + fs[i + 1:]
            head = _normalize_product(c * p, rest)
            if db is ONE:
                pieces.extend(head)
                continue
            for c1, f1 in head:
                for c2, f2 in db.terms:
                    pieces.extend(_normalize_product(c1 * c2, f1 + f2))
    return Expr(_collect(pieces))


def _resolve_base(name: str) -> Base:
    if name in DEPENDENT_NAMES:
        return Jet(name, ())
    if "_" in name:
        dep, _, suffix = name.partition("_")
        if dep in DEPENDENT_NAMES:
            return Jet(dep, tuple(suffix))
    return Atom(name)


def differentiate(e: Expr, v: str) -> Expr:
    """Partial derivative with respect to an independent-variable atom.

    Parameters and user constants are treated as constants; expressions with
    derivative jets belong to the jet module's total derivative instead.
    """
    if not isinstance(v, str) or v not in VARIABLE_NAMES:
        raise ExprError(
            f"can only differentiate with respect to one of {VARIABLE_NAMES}")
    if max_jet_order(e) >= 1:
        raise ExprError(
            "expression contains jet variables; use the jet module's "
            "total derivative")
    return partial(e, Atom(v))


def subst_many(e: Expr, mapping: Mapping[Base, Expr]) -> Expr:
    """Simultaneous capture-free substitution followed by canonicalisation."""
    if not mapping:
        return e
    pieces: list[Expr] = []
    for c, fs in e.terms:
        piece = rational(c)
        for b, p in fs:
            if isinstance(b, ExpFactor):
                piece = piece * exp_of(subst_many(b.arg, mapping)) ** p
            elif b in mapping:
                piece = piece * as_expr(mapping[b]) ** p
            else:
                piece = piece * _expr_of_base(b, p)
        pieces.append(piece)
    return sum_of(pieces)


def substitute(e: Expr, target: str | Base | Expr, replacement) -> Expr:
    """Substitute an atom or jet variable by an expression."""
    if isinstance(target, str):
        base = _resolve_base(target)
    elif isinstance(target, Expr):
        if len(target.terms) != 1 or target.terms[0][0] != 1 \
                or len(target.terms[0][1]) != 1 or target.terms[0][1][0][1] != 1:
            raise ExprError("substitution target must be a bare atom or jet")
        base = target.terms[0][1][0][0]
    else:
        base = target
    if isinstance(base, ExpFactor):
        raise ExprError("substitution target must be a bare atom or jet")
    return subst_many(e, {base: as_expr(replacement)})


# ---------------------------------------------------------------------------
# exact evaluation
# ---------------------------------------------------------------------------

def evaluate(e: Expr, binding: Mapping[str, Rational]) -> dict[Fraction, Fraction]:
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


def evaluate_rational(e: Expr, binding: Mapping[str, Rational]) -> Fraction:
    val = evaluate(e, binding)
    if any(k != 0 for k in val):
        raise ExprError("value involves a non-trivial exponential")
    return val.get(Fraction(0), Fraction(0))


# ---------------------------------------------------------------------------
# structure queries
# ---------------------------------------------------------------------------

def split_terms(e: Expr, keep: Callable[[Base], bool]) -> dict[Factors, Expr]:
    """Group terms by the sub-monomial of factors selected by ``keep``.

    Returns {selected-factor-tuple: sum of the remaining parts}.
    """
    groups: dict[Factors, list[Term]] = {}
    for c, fs in e.terms:
        key = tuple((b, p) for b, p in fs if keep(b))
        rest = tuple((b, p) for b, p in fs if not keep(b))
        groups.setdefault(key, []).append((c, rest))
    return {k: Expr(_collect(v)) for k, v in groups.items()}


def atoms_of(e: Expr) -> set[str]:
    """Names of all atoms appearing anywhere, including inside exponentials."""
    out: set[str] = set()
    for _, fs in e.terms:
        for b, _ in fs:
            if isinstance(b, Atom):
                out.add(b.name)
            elif isinstance(b, ExpFactor):
                out |= atoms_of(b.arg)
    return out


def jets_of(e: Expr, min_order: int = 0) -> set[Jet]:
    out: set[Jet] = set()
    for _, fs in e.terms:
        for b, _ in fs:
            if isinstance(b, Jet) and b.order >= min_order:
                out.add(b)
            elif isinstance(b, ExpFactor):
                out |= jets_of(b.arg, min_order)
    return out


def tfuns_of(e: Expr) -> set[TFun]:
    out: set[TFun] = set()
    for _, fs in e.terms:
        for b, _ in fs:
            if isinstance(b, TFun):
                out.add(b)
            elif isinstance(b, ExpFactor):
                out |= tfuns_of(b.arg)
    return out


def max_jet_order(e: Expr) -> int:
    jets = jets_of(e)
    return max((j.order for j in jets), default=-1)


def exp_groups(e: Expr) -> dict[Expr, Expr]:
    """Group terms by their exponential argument (ZERO for none)."""
    groups = split_terms(e, lambda b: isinstance(b, ExpFactor))
    out: dict[Expr, Expr] = {}
    for key, coeff in groups.items():
        if not key:
            out[ZERO] = coeff
        else:
            out[key[0][0].arg] = coeff
    return out


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _factor_text(b: Base, p: int) -> str:
    if isinstance(b, ExpFactor):
        body = f"exp({to_text(b.arg)})"
        return body if p == 1 else f"{body}^{p}"
    if isinstance(b, Atom) and b.name == "delta":
        return f"(R*V + W)^{-p}"
    label = base_label(b)
    return label if p == 1 else f"{label}^{p}"


def factors_text(fs: Factors) -> str:
    if not fs:
        return "1"
    return "*".join(_factor_text(b, p) for b, p in fs)


def to_text(e: Expr) -> str:
    """Canonical text; parsing it back yields the same expression."""
    if e.is_zero:
        return "0"
    chunks: list[str] = []
    for i, (c, fs) in enumerate(e.terms):
        mag = abs(c)
        if not fs:
            body = str(mag)
        elif mag == 1:
            body = factors_text(fs)
        else:
            body = f"{mag}*{factors_text(fs)}"
        if i == 0:
            chunks.append(f"-{body}" if c < 0 else body)
        else:
            chunks.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(chunks)
