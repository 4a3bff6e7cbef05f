"""Recursive-descent parser for the expression grammar.

    expr   := ["+"|"-"] term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := base ("^" signed-integer)?
    base   := rational | identifier | "(" expr ")"
            | "exp" "(" expr ")" | "sqrt" "(" expr ")"

Rationals are integer literals or integer/integer.  Identifiers cover the
reserved atoms (t, x, y, r, R, S, V, W, omega), jet variables such as ``u``,
``u_tx`` or ``z_rr`` (subscript letters in canonical order: t, x, y, r), and
any names passed in ``constants`` other than ``delta``, which the kernel
keeps for the inverse of ``R*V + W``.  ``sqrt`` accepts exactly one radicand,
``R^2 - 4*S``, and yields the surd atom omega; anything else is rejected so
that the single-surd canonical form stays sound.

``parse(to_text(e)) == e`` for every canonical expression, and parsing
arbitrary grammar-conformant text canonicalises it.

Numbers are bounded by ``MAX_DIGITS`` decimal digits, so that every parsed
value can be rendered again (Python refuses to convert integers of more than
4300 digits to text).  An integer literal longer than that, a value with a
coefficient whose numerator or denominator is longer, and a power whose base
has a coefficient that, raised to the exponent, would already be longer (it
is refused before it is computed) raise :class:`ParseError`.

A product a*b may have |a|*|b| terms and a power n of a k-term base
C(n+k-1, k-1), each times the terms one monomial splits into under the
kernel's rewrites (``_split``); where that passes ``MAX_TERMS``, the ``*``
or ``^`` raises :class:`ParseError` before anything is multiplied.

Parentheses, ``exp(`` and ``sqrt(`` nest at most ``MAX_NESTING`` deep; a
deeper input raises :class:`ParseError`.  The bound keeps the parser, the
renderer and the prolongation of a generator with exponentials nested that
deep within the interpreter's recursion limit; the work of ``verify`` on
such a generator grows about as the fourth power of the depth.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb

from . import expr as ex
from .expr import Expr, ExprError


MAX_DIGITS = 1000
_LIMIT = 10 ** MAX_DIGITS       # the smallest integer with too many digits
MAX_NESTING = 50
MAX_TERMS = 256


class ParseError(ExprError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_OMEGA_RADICAND = ex.R ** 2 - 4 * ex.S
_PUNCT = "+-*^()/"


def _too_long(e: Expr) -> bool:
    """Whether a coefficient of ``e``, inside exponentials too, has more than
    MAX_DIGITS digits in its numerator or denominator."""
    for c, fs in e.terms:
        if abs(c.numerator) >= _LIMIT or c.denominator >= _LIMIT:
            return True
        if any(isinstance(b, ex.ExpFactor) and _too_long(b.arg) for b, _ in fs):
            return True
    return False


def _power_too_long(base: Expr, n: int) -> bool:
    """Whether some coefficient of ``base`` has a numerator or denominator k
    with |k|^n >= 2^bits(_LIMIT) > _LIMIT, judged without computing it."""
    bits = _LIMIT.bit_length()
    return any(n * (abs(k).bit_length() - 1) >= bits
               for c, _ in base.terms for k in (c.numerator, c.denominator))


def _top(e: Expr, n: int = 1) -> Counter:
    """n times the largest power of each atom in a term of ``e``."""
    top: Counter = Counter()
    for _, fs in e.terms:
        for b, p in fs:
            if isinstance(b, ex.Atom) and n * p > top[b.name]:
                top[b.name] = n * p
    return top


def _split(top: Counter) -> int:
    """The most terms a monomial with at most these powers rewrites into:
    omega^w is (R^2 - 4*S)^(w//2), w//2 + 1 terms raising R by up to w,
    and R*V*delta = 1 - W*delta leaves one term per count i <= d and j of
    its two results, i + j <= m = min(r, v), if delta^d, d > 0."""
    w, d = top["omega"], top["delta"]
    m = min(top["R"] + w, top["V"])
    return (w // 2 + 1) * ((min(d, m) + 1) * (m + 1) if d else 1)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind, self.text, self.line, self.col = kind, text, line, col


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        start_col = col
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(_Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str, constants: frozenset[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.constants = constants

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok)
        return self.advance()

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def integer(self, tok: _Token) -> int:
        if len(tok.text) > MAX_DIGITS:
            self.fail(f"integer literal of {len(tok.text)} digits; at most "
                      f"{MAX_DIGITS} digits are accepted", tok)
        return int(tok.text)

    def bound(self, what: str, monomials: int, top: Counter, tok: _Token):
        """Refuse a product or power of so many monomials before the
        rewrites, with at most these powers, at ``tok``."""
        if monomials * _split(top) > MAX_TERMS:
            self.fail(f"{what} may have more than {MAX_TERMS} terms, the "
                      f"most a parsed value may have", tok)

    # grammar ---------------------------------------------------------------

    def parse_expr(self) -> Expr:
        sign = 1
        if self.peek().kind in "+-":
            sign = -1 if self.advance().kind == "-" else 1
        value = self.parse_term() * sign
        while self.peek().kind in "+-":
            op = self.advance().kind
            term = self.parse_term()
            value = value + term if op == "+" else value - term
        return value

    def parse_term(self) -> Expr:
        value = self.parse_factor()
        while self.peek().kind == "*":
            star = self.advance()
            factor = self.parse_factor()
            self.bound("product", len(value.terms) * len(factor.terms),
                       _top(value) + _top(factor), star)
            value = value * factor
        return value

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        if self.peek().kind == "^":
            caret = self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            n = self.integer(self.expect("int"))
            if _power_too_long(base, n):
                self.fail(f"power has a coefficient of more than {MAX_DIGITS} "
                          f"digits", caret)
            try:
                base = ex.divide_exact(ex.ONE, base) if sign < 0 else base
            except ExprError as err:
                raise ParseError(str(err), caret.line, caret.col) from err
            k = len(base.terms)
            self.bound("power", comb(n + k - 1, k - 1) if k else 0,
                       _top(base, n), caret)
            return base ** n
        return base

    def parse_base(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            num = self.integer(tok)
            if self.peek().kind == "/":
                self.advance()
                den_tok = self.expect("int")
                den = self.integer(den_tok)
                if den == 0:
                    self.fail("zero denominator in rational literal", den_tok)
                return ex.rational(num, den)
            return ex.rational(num)
        if tok.kind == "(":
            self.advance()
            return self.parse_nested(tok)
        if tok.kind == "ident":
            self.advance()
            if tok.text in ("exp", "sqrt") and self.peek().kind == "(":
                self.advance()
                inner = self.parse_nested(tok)
                if tok.text == "exp":
                    return ex.exp_of(inner)
                if inner != _OMEGA_RADICAND:
                    self.fail("sqrt supports only the radicand R^2 - 4*S "
                              "(the surd omega)", tok)
                return ex.OMEGA
            return self.resolve(tok)
        self.fail(f"expected an expression, found {tok.text or 'end of input'!r}",
                  tok)

    def parse_nested(self, tok: _Token) -> Expr:
        """The expression after an opening parenthesis, and its ``)``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"expression nested too deeply: more than {MAX_NESTING} "
                      f"levels of parentheses, exp( and sqrt(", tok)
        inner = self.parse_expr()
        self.expect(")")
        self.depth -= 1
        return inner

    def resolve(self, tok: _Token) -> Expr:
        name = tok.text
        if name in ex.DEPENDENT_NAMES:
            return ex.jet(name)
        if name in ex.RESERVED_NAMES:
            return ex.sym(name)
        if "_" in name:
            dep, _, suffix = name.partition("_")
            if dep in ex.DEPENDENT_NAMES:
                try:
                    return ex.jet(dep, tuple(suffix))
                except ExprError as err:
                    self.fail(str(err), tok)
        if name in self.constants:
            return ex.sym(name)
        self.fail(
            f"unknown identifier {name!r}; reserved names are "
            + ", ".join(ex.RESERVED_NAMES), tok)


def parse(text: str, constants: frozenset[str] | set[str] = frozenset()) -> Expr:
    """Parse grammar text into a canonical expression."""
    if "delta" in constants:
        raise ExprError("'delta' cannot name a constant: the kernel keeps it "
                        "for the inverse of R*V + W")
    parser = _Parser(text, frozenset(constants))
    value = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"unexpected trailing input {tok.text!r}", tok)
    if _too_long(value):
        parser.fail(f"the value has a coefficient of more than {MAX_DIGITS} "
                    f"digits", parser.tokens[0])
    return value


def render(e: Expr) -> str:
    """Canonical text form; inverse of :func:`parse` on canonical forms."""
    return ex.to_text(e)
