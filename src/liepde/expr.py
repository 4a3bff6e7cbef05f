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

Division is deliberately narrow: terms whose non-rational part consists of
independent variables, user constants, jets or exponentials can be
inverted, as can rational multiples of ``R*V + W`` (via ``delta``).
Dividing by anything else raises :class:`UnsupportedDivision` rather than
producing an unsound form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Iterable, Mapping, Union

__all__ = [
    "Atom", "TFun", "Jet", "ExpFactor", "Expr",
    "ExprError", "DivisionByZero", "UnsupportedDivision",
    "rational", "sym", "jet", "tfun", "exp_of", "as_expr",
    "partial", "differentiate", "substitute", "subst_many",
    "evaluate", "evaluate_rational", "divide_exact", "split_terms",
    "rational_coefficients", "atoms_of", "jets_of", "max_jet_order",
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


class DivisionByZero(ExprError):
    """Raised when dividing by an expression that canonicalises to zero."""


class UnsupportedDivision(ExprError):
    """Raised when a division has no representable exact result."""


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class TFun:
    """Unknown function of t; ``order`` counts time derivatives."""
    name: str
    order: int = 0


@dataclass(frozen=True)
class Jet:
    """Jet variable: dependent symbol with a sorted derivative multi-index."""
    dep: str
    idx: tuple[str, ...] = ()

    @property
    def order(self) -> int:
        return len(self.idx)


@dataclass(frozen=True)
class ExpFactor:
    arg: "Expr"


Base = Union[Atom, TFun, Jet, ExpFactor]
Factor = tuple[Base, int]
Factors = tuple[Factor, ...]
Term = tuple[Fraction, Factors]

_PARAM_INDEX = {n: i for i, n in enumerate(PARAMETER_NAMES)}
_VAR_INDEX = {n: i for i, n in enumerate(VARIABLE_NAMES)}
_DEP_INDEX = {n: i for i, n in enumerate(DEPENDENT_NAMES)}


def base_label(b: Base) -> str:
    """Human-readable label used by the renderer and by evaluation bindings."""
    if isinstance(b, Atom):
        return b.name
    if isinstance(b, TFun):
        return b.name + "'" * b.order
    if isinstance(b, Jet):
        return b.dep if not b.idx else b.dep + "_" + "".join(b.idx)
    raise TypeError("exp factors have no atomic label")


@lru_cache(maxsize=None)
def _base_key(b: Base) -> tuple:
    # Total order on bases: parameters, user constants, unknown t-functions,
    # independent variables, exponentials, jets.  The order is fixed so that
    # rendered output and golden files are stable.
    if isinstance(b, Atom):
        if b.name in _PARAM_INDEX:
            return (0, "", (_PARAM_INDEX[b.name],), ())
        if b.name in _VAR_INDEX:
            return (3, "", (_VAR_INDEX[b.name],), ())
        return (1, b.name, (), ())
    if isinstance(b, TFun):
        return (2, b.name, (b.order,), ())
    if isinstance(b, ExpFactor):
        return (4, "", (), _expr_key(b.arg))
    if isinstance(b, Jet):
        nums = (_DEP_INDEX.get(b.dep, 99), len(b.idx)) + tuple(
            _VAR_INDEX[v] for v in b.idx)
        return (5, b.dep, nums, ())
    raise TypeError(f"unknown base {b!r}")


@lru_cache(maxsize=None)
def _expr_key(e: "Expr") -> tuple:
    return tuple(
        (tuple((_base_key(b), p) for b, p in fs), (c.numerator, c.denominator))
        for c, fs in e.terms)


def _factors_key(fs: Factors) -> tuple:
    return tuple((_base_key(b), p) for b, p in fs)


# ---------------------------------------------------------------------------
# canonicalisation
# ---------------------------------------------------------------------------

_OMEGA_B = Atom("omega")
_DELTA_B = Atom("delta")
_R_B = Atom("R")
_S_B = Atom("S")
_V_B = Atom("V")
_W_B = Atom("W")
_GUARDED = (_R_B, _S_B, _V_B, _W_B)


def _rewrite_monomial(coeff: Fraction, fdict: dict[Base, int]) -> list[tuple[Fraction, dict]]:
    """Exhaustively apply the omega and delta rewrite rules to one monomial.

    Terminates: the omega and negative-delta rules each fire at most once per
    lineage, and the R*V*delta rule strictly lowers the combined R,V degree.
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
        de = f.get(_DELTA_B, 0)
        if de < 0:
            k = -de
            g0 = dict(f)
            del g0[_DELTA_B]
            # delta^-k = (R*V + W)^k
            for j in range(k + 1):
                g = dict(g0)
                if j:
                    g[_R_B] = g.get(_R_B, 0) + j
                    g[_V_B] = g.get(_V_B, 0) + j
                if k - j:
                    g[_W_B] = g.get(_W_B, 0) + (k - j)
                stack.append((c * comb(k, j), g))
            continue
        if de >= 1 and f.get(_R_B, 0) >= 1 and f.get(_V_B, 0) >= 1:
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
    for b, p in raw:
        if p == 0:
            continue
        if isinstance(b, ExpFactor):
            exp_args.append(b.arg if p == 1 else b.arg * p)
        else:
            merged[b] = merged.get(b, 0) + p
    merged = {b: p for b, p in merged.items() if p != 0}
    for b in _GUARDED:
        if merged.get(b, 0) < 0:
            raise UnsupportedDivision(
                f"cannot invert the parameter {b.name}; only rational "
                f"multiples of R*V + W have exact inverses")
    if merged.get(_OMEGA_B, 0) < 0:
        raise UnsupportedDivision("cannot invert the surd omega")

    exp_factor: Factor | None = None
    if exp_args:
        total = exp_args[0]
        for a in exp_args[1:]:
            total = total + a
        if not total.is_zero:
            exp_factor = (ExpFactor(total), 1)

    pieces = _rewrite_monomial(coeff, merged)
    terms: list[Term] = []
    for c, f in pieces:
        fs = sorted(f.items(), key=lambda kv: _base_key(kv[0]))
        if exp_factor is not None:
            fs.append(exp_factor)
        terms.append((c, tuple(fs)))
    return terms


def _collect(pieces: Iterable[Term]) -> tuple[Term, ...]:
    acc: dict[Factors, Fraction] = {}
    for c, fs in pieces:
        acc[fs] = acc.get(fs, Fraction(0)) + c
    out = [(c, fs) for fs, c in acc.items() if c != 0]
    out.sort(key=lambda t: _factors_key(t[1]))
    return tuple(out)


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

class Expr:
    """Canonical immutable expression; see the module docstring."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: tuple[Term, ...]):
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", hash(terms))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Expr is immutable")

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = rational(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return self._hash

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

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
        other = as_expr(other)
        return Expr(_collect(self.terms + other.terms))

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr(tuple((-c, fs) for c, fs in self.terms))

    def __sub__(self, other) -> "Expr":
        return self + (-as_expr(other))

    def __rsub__(self, other) -> "Expr":
        return as_expr(other) + (-self)

    def __mul__(self, other) -> "Expr":
        other = as_expr(other)
        pieces: list[Term] = []
        for c1, f1 in self.terms:
            for c2, f2 in other.terms:
                pieces.extend(_normalize_product(c1 * c2, f1 + f2))
        return Expr(_collect(pieces))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            raise TypeError("exponents must be integers")
        if n == 0:
            return ONE
        if n < 0:
            return _invert(self) ** (-n)
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
        return self * (as_expr(other) ** -1)

    def __rtruediv__(self, other) -> "Expr":
        return as_expr(other) * (self ** -1)

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

_D_SUM = R * V + W  # the only sum with an exact inverse (= delta)


def simplify(e: Expr) -> Expr:
    """Identity on Expr: construction already canonicalises.  Kept as the
    explicit canonicalisation entry point; idempotence is then structural."""
    return as_expr(e)


# ---------------------------------------------------------------------------
# division
# ---------------------------------------------------------------------------

def _invert_term(c: Fraction, fs: Factors) -> Expr:
    pieces = _normalize_product(1 / c, tuple((b, -p) for b, p in fs))
    return Expr(_collect(pieces))


def _invert(e: Expr) -> Expr:
    if e.is_zero:
        raise DivisionByZero("division by an expression that simplifies to zero")
    if len(e.terms) == 1:
        c, fs = e.terms[0]
        return _invert_term(c, fs)
    # rational multiple of R*V + W  ->  inverse via delta
    if len(e.terms) == len(_D_SUM.terms):
        shapes = tuple(fs for _, fs in e.terms)
        if shapes == tuple(fs for _, fs in _D_SUM.terms):
            ratio = e.terms[0][0] / _D_SUM.terms[0][0]
            if e == _D_SUM * ratio:
                return DELTA * (1 / ratio)
    raise UnsupportedDivision(
        f"cannot invert {to_text(e)}; only single-term monomials and rational "
        f"multiples of R*V + W are invertible")


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
    d = 0
    for _, fs in e.terms:
        for b, p in fs:
            if b == _DELTA_B:
                d = max(d, p)
    return d


def _grlex_key(fs: Factors, universe: tuple[Base, ...]) -> tuple:
    expo = {b: p for b, p in fs}
    vec = tuple(-expo.get(b, 0) for b in universe)
    return (-sum(expo.get(b, 0) for b in universe), vec)


def _poly_div_exact(num: Expr, den: Expr, max_steps: int = 4000) -> Expr | None:
    """Plain multivariate exact division; None when no plain quotient exists.

    Uses a graded-lex monomial order (multiplicative, so the leading term of
    a product is the product of leading terms and single-divisor division is
    complete for plain polynomial quotients).
    """
    bases: set[Base] = set()
    for e in (num, den):
        for _, fs in e.terms:
            bases.update(b for b, _ in fs)
    universe = tuple(sorted(bases, key=_base_key))

    def lead(e: Expr) -> Term:
        return min(e.terms, key=lambda t: _grlex_key(t[1], universe))

    dc, dfs = lead(den)
    dexp = {b: p for b, p in dfs}
    quotient = ZERO
    rem = num
    steps = 0
    while not rem.is_zero:
        steps += 1
        if steps > max_steps:
            return None
        rc, rfs = lead(rem)
        rexp = {b: p for b, p in rfs}
        qfs = []
        for b, p in dexp.items():
            q = rexp.get(b, 0) - p
            if isinstance(b, ExpFactor) or (q < 0 and isinstance(b, Atom)
                                            and (b in _GUARDED + (_OMEGA_B, _DELTA_B))):
                return None
            qfs.append((b, q))
        for b, p in rexp.items():
            if b not in dexp:
                qfs.append((b, p))
        try:
            qterm = Expr(_collect(_normalize_product(rc / dc, tuple(qfs))))
        except UnsupportedDivision:
            return None
        if qterm.is_zero or len(qterm.terms) != 1:
            return None
        quotient = quotient + qterm
        rem = rem - qterm * den
    return quotient


def divide_exact(num: Expr, den: Expr) -> Expr:
    """Exact division with the supported denominator classes.

    Handles rationals, invertible monomials, rational multiples of powers of
    ``R*V + W`` and plain polynomial quotients (after clearing ``delta`` and
    rationalising ``omega`` out of the denominator).  Raises
    :class:`UnsupportedDivision` when the quotient is not representable.
    """
    num, den = as_expr(num), as_expr(den)
    if den.is_zero:
        raise DivisionByZero("division by an expression that simplifies to zero")
    if num.is_zero:
        return ZERO
    if den.is_rational:
        return num * (1 / den.as_fraction())
    if len(den.terms) == 1:
        try:
            return num * _invert(den)
        except UnsupportedDivision:
            q = _poly_div_exact(num, den)
            if q is not None:
                return q
            raise
    d = _delta_degree(den)
    if d:
        num = num * _D_SUM ** d
        den = den * _D_SUM ** d
    even, odd = _omega_split(den)
    if not odd.is_zero:
        conj = even - OMEGA * odd
        if conj.is_zero:
            raise UnsupportedDivision(f"cannot divide by {to_text(den)}")
        num = num * conj
        den = den * conj
    if den.is_rational:
        return num * (1 / den.as_fraction())
    if len(den.terms) == 1:
        try:
            return num * _invert(den)
        except UnsupportedDivision:
            q = _poly_div_exact(num, den)
            if q is not None:
                return q
            raise
    for j in range(1, 5):
        cand = den * DELTA ** j
        if cand.is_rational:
            return num * DELTA ** j * (1 / cand.as_fraction())
    q = _poly_div_exact(num, den)
    if q is not None:
        return q
    raise UnsupportedDivision(
        f"no exact representable quotient for division by {to_text(den)}")


# ---------------------------------------------------------------------------
# calculus and substitution
# ---------------------------------------------------------------------------

def _dbase(b: Base, v: Base) -> Expr | None:
    """Formal derivative of a base with respect to a base, or None if zero."""
    if b == v:
        return ONE
    if isinstance(b, TFun) and v == Atom("t"):
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
    pieces: list[Expr] = []
    for c, fs in e.terms:
        for i, (b, p) in enumerate(fs):
            db = _dbase(b, v)
            if db is None:
                continue
            rest = fs[:i] + ((b, p - 1),) + fs[i + 1:]
            head = Expr(_collect(_normalize_product(c * p, rest)))
            pieces.append(head * db)
    out = ZERO
    for p in pieces:
        out = out + p
    return out


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
    out = ZERO
    for c, fs in e.terms:
        piece = rational(c)
        for b, p in fs:
            if isinstance(b, ExpFactor):
                piece = piece * exp_of(subst_many(b.arg, mapping)) ** p
            elif b in mapping:
                piece = piece * as_expr(mapping[b]) ** p
            else:
                piece = piece * _expr_of_base(b, p)
        out = out + piece
    return out


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


def rational_coefficients(e: Expr) -> dict[Factors, Fraction]:
    """Terms as {factor-tuple: coefficient}; the expression is its own basis."""
    return {fs: c for c, fs in e.terms}


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
