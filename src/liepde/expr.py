"""Exact symbolic expression kernel.

Values are immutable, fully expanded sums of terms.  Each term is an exact
rational coefficient -- an ``int`` when it is integral, otherwise a reduced
``Fraction`` -- times a sorted tuple of factors ``base^exponent``, where a
base is one of

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
class this engine works in.  A monomial's normal form is written at once,
with P = R*V, m = min(r, v) for R^r V^v, and C the binomial coefficient:

    omega^(2h+e)  =  omega^e sum_{j<=h} C(h,j) R^(2j) (-4S)^(h-j)
    P^m delta^d   =  sum_{j<=m-d} (-1)^j C(d+j-1,j) W^j P^(m-d-j)
                     + sum_{m-d<k<=m, k>=0} C(m,k) (-W)^k delta^(d-m+k)

the second on each of the first's h + 1 branches, in m + 1 terms: the
polynomial part of P^m (P + W)^-d at infinity (none if m < d), and the
Taylor expansion of P^m about P = -W.  All arithmetic is exact; nothing
here ever touches floating point: every quotient of coefficients is
formed as a ``Fraction``.

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

from collections.abc import Callable, Iterable, Mapping
from fractions import Fraction
from math import comb, gcd, lcm
from operator import attrgetter, itemgetter


PARAMETER_NAMES = ("R", "S", "V", "W", "omega", "delta")
VARIABLE_NAMES = ("t", "x", "y", "r")
DEPENDENT_NAMES = ("u", "z")
RESERVED_NAMES = ("t", "x", "y", "r", "z", "u", "R", "S", "V", "W", "omega")
MAX_JET_ORDER = 3

Rational = int | Fraction


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
# frozen records
# ---------------------------------------------------------------------------

_object_setattr = object.__setattr__


class Frozen:
    """Base of the package's immutable records (equations, vector fields,
    bases, verdicts, ...).

    A subclass declares its fields as class annotations, in order, after
    those of the record it extends, each with an optional class-level
    default, shared by every instance that takes it (a record that must
    own a mutable field copies it in ``__post_init__``).  An instance
    takes its fields by position or keyword, runs ``__post_init__``, equals
    only an instance of the same class with equal fields, hashes its fields,
    shows as ``Name(field=value, ...)`` and refuses assignment.  Instances
    keep a ``__dict__``, so ``functools.cached_property`` works on records.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = tuple(cls.__annotations__)
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{
            name: cls.__dict__[name] for name in own if name in cls.__dict__}}
        # the field values of a record: a tuple, or the value of a lone field
        cls._values_of = attrgetter(*cls._fields)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # set one by one: filling ``self.__dict__`` at once would make every
        # later attribute read slower
        for field, value in zip(fields, args):
            _object_setattr(self, field, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values of a call with keywords or defaults."""
        name = cls.__qualname__
        if len(args) > len(cls._fields):
            raise TypeError(f"{name}() takes {len(cls._fields)} arguments, "
                            f"{len(args)} given")
        values = list(args)
        for field in cls._fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError(f"{name}() is missing field {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got unknown or repeated fields "
                            f"{sorted(kwargs)}")
        return values

    def __post_init__(self):
        pass

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values_of(self) == self._values_of(other)

    def __hash__(self) -> int:
        return hash(self._values_of(self))

    def __repr__(self) -> str:
        shown = ", ".join([f"{field}={getattr(self, field)!r}"
                           for field in self._fields])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
    ``arg`` as ``(factors, (numerator, denominator))``.

    The key decides the argument, so equality and the hash read the key
    alone: comparing the argument as well would compare every nested
    exponential twice, at a cost doubling with each level of nesting.
    """
    __slots__ = ()

    def __new__(cls, arg: "Expr"):
        key = tuple([(fs, (c.numerator, c.denominator)) for c, fs in arg.terms])
        return tuple.__new__(cls, (4, key, arg))

    arg = property(itemgetter(2))

    def __eq__(self, other):
        if other.__class__ is ExpFactor:
            return self[1] == other[1]
        return tuple.__eq__(self, other)

    def __hash__(self) -> int:
        return hash(self[1])

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


Base = Atom | TFun | Jet | ExpFactor
Factor = tuple[Base, int]
Factors = tuple[Factor, ...]
Term = tuple[Rational, Factors]


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


def _with(f: dict[Base, int], *powers: Factor) -> dict[Base, int]:
    """A copy of the monomial ``f`` with each base ``b`` of ``powers`` to
    its power p (none at p = 0)."""
    g = dict(f)
    for b, p in powers:
        if p:
            g[b] = p
        else:
            g.pop(b, None)
    return g


def _rewrite_monomial(coeff: Rational, fdict: dict[Base, int]) -> list[tuple[Rational, dict]]:
    """The normal form of one monomial, by the closed forms of the module
    docstring.  The omega branches differ in their power of S, so no two
    pieces share a monomial."""
    branches = [(coeff, fdict)]
    om = fdict.get(_OMEGA_B, 0)
    if om >= 2:
        h, e = divmod(om, 2)
        r, s = fdict.get(_R_B, 0), fdict.get(_S_B, 0)
        branches = [(coeff * comb(h, j) * (-4) ** (h - j),
                     _with(fdict, (_OMEGA_B, e), (_R_B, r + 2 * j),
                           (_S_B, s + h - j)))
                    for j in range(h + 1)]
    d = fdict.get(_DELTA_B, 0)
    if not d:
        return branches
    out: list[tuple[Rational, dict]] = []
    w = fdict.get(_W_B, 0)
    for c, f in branches:
        r, v = f.get(_R_B, 0), f.get(_V_B, 0)
        m = min(r, v)
        if not m:
            out.append((c, f))
            continue
        # the polynomial part, W^j P^(m-d-j), empty when m < d ...
        for j in range(m - d + 1):
            b = comb(d + j - 1, j)
            out.append((-c * b if j & 1 else c * b,
                        _with(f, (_R_B, r - d - j), (_V_B, v - d - j),
                              (_DELTA_B, 0), (_W_B, w + j))))
        # ... and the terms W^k delta^(d-m+k)
        for k in range(max(0, m - d + 1), m + 1):
            b = comb(m, k)
            out.append((-c * b if k & 1 else c * b,
                        _with(f, (_R_B, r - m), (_V_B, v - m),
                              (_DELTA_B, d - m + k), (_W_B, w + k))))
    return out


def normal_form_size(powers: Mapping[str, int]) -> int:
    """The number of terms of the normal form of a monomial with these
    powers of omega, R, V and delta, by atom name (0 if missing): on each
    omega branch j <= h, min(r + 2j, v) + 1 if d > 0, else 1.  O(1) in the
    powers and non-decreasing in each, so it bounds every monomial with
    powers no larger."""
    h = powers.get("omega", 0) // 2
    if not powers.get("delta", 0):
        return h + 1
    r, v = powers.get("R", 0), powers.get("V", 0)
    # the branches j with r + 2j <= v give r + 2j + 1 terms, the rest v + 1
    low = min(h, (v - r) // 2) + 1 if r <= v else 0
    return low * (r + low) + (h + 1 - low) * (v + 1)


def _normalize_product(coeff: Rational, raw: Iterable[Factor]) -> list[Term]:
    """Merge factors, fold exponentials, apply rewrites; may split the term.
    ``coeff`` is nonzero."""
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

    # a monomial that neither rule applies to is its own normal form
    if merged.get(_OMEGA_B, 0) >= 2 or (
            _DELTA_B in merged and _R_B in merged and _V_B in merged):
        pieces = _rewrite_monomial(coeff, merged)
    else:
        pieces = ((coeff, merged),)
    terms: list[Term] = []
    for c, f in pieces:
        fs = sorted(f.items())
        if exp_factor is not None:
            fs.append(exp_factor)
        terms.append((c, tuple(fs)))
    return terms


def _coefficient(q) -> Rational:
    """A rational number as a term coefficient: an ``int`` when it is
    integral, otherwise a ``Fraction``."""
    if q.__class__ is int:
        return q
    if q.__class__ is not Fraction:
        q = Fraction(q)
    return q.numerator if q.denominator == 1 else q


def _collect(pieces: Iterable[Term]) -> tuple[Term, ...]:
    """Sorted terms with like monomials merged, zeros dropped and every
    coefficient as ``_coefficient`` gives it (a sum or product of
    ``Fraction``s can be integral)."""
    acc: dict[Factors, Rational] = {}
    for c, fs in pieces:
        if fs in acc:
            acc[fs] += c
        else:
            acc[fs] = c
    out = [(fs, c) for fs, c in acc.items() if c]
    out.sort()
    return tuple([(c if c.__class__ is int or c.denominator != 1
                   else c.numerator, fs) for fs, c in out])


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

class Expr:
    """Canonical immutable expression; see the module docstring."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: tuple[Term, ...]):
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *a):
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
        return Fraction(self.terms[0][0])

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
        if k == 1:
            return self
        # an integral k stays an int, so int coefficients stay ints
        k = _coefficient(k)
        return Expr(tuple([(c if (c := a * k).__class__ is int
                            or c.denominator != 1 else c.numerator, fs)
                           for a, fs in self.terms]))

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
ONE = Expr(((1, ()),))


def rational(p: Rational, q: int = 1) -> Expr:
    c = _coefficient(Fraction(p, q) if q != 1 else p)
    return Expr(((c, ()),)) if c else ZERO


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
    return Expr(_collect(_normalize_product(1, ((b, p),))))


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
    if len(letters) > MAX_JET_ORDER:
        raise ExprError(f"jet order {len(letters)} is above MAX_JET_ORDER = "
                        f"{MAX_JET_ORDER}")
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
        qterm = Expr(_collect(_normalize_product(Fraction(rc, dc),
                                                 tuple(qexp.items()))))
        quotient.extend(qterm.terms)
        rem = rem - qterm * den
    return Expr(_collect(quotient))


def _content(e: Expr) -> tuple[Rational, Factors]:
    """The first coefficient and the least power of each base over the
    terms: the monomial that leaves no monomial factor."""
    least = dict(e.terms[0][1])
    for _, fs in e.terms[1:]:
        expo = dict(fs)
        for b in set(least) | set(expo):
            least[b] = min(least.get(b, 0), expo.get(b, 0))
    return e.terms[0][0], tuple([(b, p) for b, p in least.items() if p])


def _divide_monomial(e: Expr, c: Rational, fs: Factors) -> Expr | None:
    """``e / (c*fs)`` term by term, or None when a term would hold a
    negative power of a parameter."""
    if not fs:
        return e._scaled(Fraction(1, c))
    inverse = tuple([(b, -p) for b, p in fs])
    try:
        return Expr(_collect([t for ec, efs in e.terms for t in
                              _normalize_product(Fraction(ec, c), efs + inverse)]))
    except UnsupportedDivision:
        return None


def divide_exact(num: Expr, den: Expr) -> Expr:
    """Exact quotient ``num/den``, behind ``/`` and negative powers too;
    :class:`UnsupportedDivision`, naming ``den``, when it is not a kernel
    value.

    One normalisation: delta is cleared from ``den`` and omega
    rationalised out of it; the powers of ``R*V + W`` in ``den`` are taken
    out as powers of delta, and the rest of ``den`` is monomial content,
    divided term by term, times a polynomial with no monomial factor,
    divided by :func:`_poly_div_exact`.  A monomial ``den`` divides ``num``
    term by term as it is; delta is cleared from ``num`` only for the
    polynomial step, or when that fails (``(1 - W*delta)/R`` is
    ``V*delta``, read off ``R*V/R``).
    """
    num, den = as_expr(num), as_expr(den)
    if den.is_zero:
        raise DivisionByZero("division by an expression that simplifies to zero")
    if num.is_zero:
        return ZERO
    if len(den.terms) == 1 and not den.terms[0][1]:
        # a rational divisor only scales
        return num._scaled(Fraction(1, den.terms[0][0]))
    divisor = den
    d = _delta_degree(den)
    if d:
        num, den = num * _D_SUM ** d, den * _D_SUM ** d
    even, odd = _omega_split(den)
    if odd.terms:
        conj = even - OMEGA * odd
        num, den = num * conj, den * conj
    k = 0
    while len(den.terms) > 1:
        rest = _poly_div_exact(den, _D_SUM)
        if rest is None:
            break
        den, k = rest, k + 1
    c, m = _content(den)
    quotient = _divide_monomial(num, c, m) if len(den.terms) == 1 else None
    if quotient is None:
        j = _delta_degree(num)
        if j:
            num, k = num * _D_SUM ** j, k + j
        quotient = _divide_monomial(num, c, m)
        if quotient is not None and len(den.terms) > 1:
            quotient = _poly_div_exact(quotient, _divide_monomial(den, c, m))
    if quotient is None:
        raise UnsupportedDivision(
            f"no exact quotient in the kernel for division by {to_text(divisor)}")
    return quotient * DELTA ** k if k else quotient


def over_content(exprs: list[Expr]) -> list[Expr]:
    """Nonzero expressions over the factor that every term of every one
    shares: the gcd of the rational coefficients over the lcm of their
    denominators, times each base but the exponentials to its least
    positive power."""
    terms = [t for e in exprs for t in e.terms]
    shared = {b: p for b, p in terms[0][1]
              if p > 0 and b.__class__ is not ExpFactor}
    for _, fs in terms[1:]:
        shared = {b: min(p, q) for b, q in fs
                  if q > 0 and (p := shared.get(b))}
    content = Fraction(gcd(*(c.numerator for c, _ in terms)),
                       lcm(*(c.denominator for c, _ in terms)))
    if content == 1 and not shared:
        return exprs
    return [_divide_monomial(e, content, tuple(sorted(shared.items())))
            for e in exprs]


# ---------------------------------------------------------------------------
# calculus and substitution
# ---------------------------------------------------------------------------

def _dbase(b: Base, v: Base) -> Expr | None:
    """Formal derivative of a base other than ``v`` with respect to ``v``,
    or None if zero."""
    if isinstance(b, TFun) and v == _T_B:
        return tfun(b.name, b.order + 1)
    if isinstance(b, ExpFactor):
        da = partial(b.arg, v)
        if da.is_zero:
            return None
        # exp(arg) to the first power, as every canonical term holds it
        return da * Expr(((1, ((b, 1),)),))
    return None


def partial(e: Expr, v: Base) -> Expr:
    """Formal partial derivative by the base ``v``; jets are independent
    coordinates."""
    pieces: list[Term] = []
    for c, fs in e.terms:
        for i, (b, p) in enumerate(fs):
            if b == v:
                # lowering one exponent keeps a canonical monomial canonical
                pieces.append((c * p, fs[:i] + fs[i + 1:] if p == 1
                               else fs[:i] + ((b, p - 1),) + fs[i + 1:]))
                continue
            db = _dbase(b, v)
            if db is None:
                continue
            head = _normalize_product(c * p, fs[:i] + ((b, p - 1),) + fs[i + 1:])
            for c1, f1 in head:
                for c2, f2 in db.terms:
                    pieces.extend(_normalize_product(c1 * c2, f1 + f2))
    return Expr(_collect(pieces))


def subst_many(e: Expr, mapping: Mapping[Base, Expr]) -> Expr:
    """Simultaneous capture-free substitution followed by canonicalisation.

    When every mapped base is an atom bound to a rational number (what
    ``Binding.apply`` passes), the terms are scaled instead of rebuilt
    (``_bind_atoms``)."""
    values = {}
    for b, v in mapping.items():
        v = as_expr(v)
        if b.__class__ is not Atom or not v.is_rational:
            break
        values[b] = v.terms[0][0] if v.terms else 0
    else:
        return _bind_atoms(e, values)
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


def _bind_atoms(e: Expr, values: dict[Atom, Rational]) -> Expr:
    """``subst_many`` of atoms by rational numbers: each bound factor scales
    its term's coefficient, and the factors left keep their order.  Taking
    factors out of a canonical monomial leaves nothing to rewrite, so one
    collection merges the terms that now coincide."""
    pieces: list[Term] = []
    for c, fs in e.terms:
        kept = []
        for b, p in fs:
            if b in values:
                k = values[b]
                if not k and p < 0:
                    raise DivisionByZero(
                        "division by an expression that simplifies to zero")
                c = c * k ** p if p > 0 else c * Fraction(1, k ** -p)
            elif b.__class__ is ExpFactor:
                arg = _bind_atoms(b.arg, values)
                if arg.terms:
                    kept.append((ExpFactor(arg), p))
            else:
                kept.append((b, p))
        if c:
            pieces.append((c, tuple(kept)))
    return Expr(_collect(pieces))


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


def jets_of(e: Expr) -> set[Jet]:
    out: set[Jet] = set()
    for _, fs in e.terms:
        for b, _ in fs:
            if b.__class__ is Jet:
                out.add(b)
            elif b.__class__ is ExpFactor:
                out |= jets_of(b.arg)
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
    """The text of a nonempty monomial."""
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
