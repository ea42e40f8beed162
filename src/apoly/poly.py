"""Exact sparse polynomial arithmetic over the integers.

Two carriers:

* ``UnivarPoly`` -- dense integer polynomial in one variable (called L or v
  depending on context).
* ``BivarPoly`` -- sparse integer polynomial in M and L, keyed by exponent
  pairs (i, j) = (M-exponent, L-exponent).

Each ring operation is written once: sparse + and * are the term kernels
``_add_terms`` and ``_mul_terms``, shared with the Laurent dicts of
``knots``; dense * is the coefficient-list kernel ``_mul_coeffs``, shared
by ``UnivarPoly`` and ``charpoly``; both carriers use one ``_power`` and
one text form, ``format_poly``, which writes coefficients of any length
and which ``parse_poly`` reads back, within the bounds its docstring
lists.

``charpoly`` is the characteristic polynomial of a square matrix of
``UnivarPoly`` entries, and of nothing else: Berkowitz's division-free
algorithm run on the entries' coefficient lists. Each inner product adds
its terms into one list, and a product skips the zeros of both factors,
so the zeros of a shifted entry (the M^s of the two-bridge elimination)
or of a polynomial in M^2 cost nothing. Every result is exact integer
arithmetic with no computer-algebra system.

All values are immutable after construction and every operation is a pure
function, so instances can be shared freely across threads.
"""

from __future__ import annotations

import operator
import re
from math import gcd

__all__ = [
    "UnivarPoly",
    "BivarPoly",
    "PolyParseError",
    "parse_poly",
    "format_poly",
    "gcd_univar",
    "charpoly",
]


def _add_terms(out, g, sign=1):
    """Add sign * g into the term dict out in place, dropping zeros;
    returns out. Keys are exponent tuples, values nonzero integers."""
    for key, c in g.items():
        s = out.get(key, 0) + sign * c
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return out


def _mul_terms(f, g):
    """Product of two term dicts keyed by exponent pairs, zeros dropped."""
    out = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def _mul_coeffs(f, g, out=None):
    """Add the product of the dense coefficient lists f and g into out in
    place, a new list when out is None; returns out. Only pairs of nonzero
    coefficients are multiplied."""
    if out is None:
        out = []
    nonzero = [(b, c) for b, c in enumerate(g) if c]
    if nonzero:
        need = len(f) + nonzero[-1][0]
        if len(out) < need:
            out.extend([0] * (need - len(out)))
        for a, ca in enumerate(f):
            if ca:
                for b, cb in nonzero:
                    out[a + b] += ca * cb
    return out


def _power(base, n, mul=operator.mul):
    """base ** n by square-and-multiply: of either carrier, or, for n >= 1,
    of a term dict whose products mul makes."""
    if n < 0:
        raise ValueError("negative power")
    if n == 0:
        return type(base).const(1)
    result = None
    while True:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if not n:
            return result
        base = mul(base, base)


def _grlex_key(ij):
    # graded-lexicographic with L > M: total degree first, then L-exponent
    i, j = ij
    return (i + j, j)


class UnivarPoly:
    """Integer polynomial in one variable, dense coefficient tuple.

    ``coeffs[k]`` is the coefficient of x^k; trailing zeros are trimmed, the
    zero polynomial has an empty tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(map(int, cs)))

    def __setattr__(self, name, value):
        raise AttributeError("UnivarPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, c):
        return cls([c])

    # -- basics -------------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    def degree(self):
        if self.is_zero:
            raise ValueError("degree of the zero polynomial is undefined")
        return len(self.coeffs) - 1

    def leading_coefficient(self):
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other):
        return isinstance(other, UnivarPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("UnivarPoly", self.coeffs))

    def __repr__(self):
        return f"UnivarPoly({list(self.coeffs)})"

    def __str__(self):
        # the same polynomial in L in format_poly's text form, whose order
        # is that of the L-exponents: no sort
        cs = self.coeffs
        return _text((cs[j], 0, j) for j in range(len(cs) - 1, -1, -1) if cs[j])

    # -- ring operations ----------------------------------------------

    def _plus(self, other, sign):
        if not isinstance(other, UnivarPoly):
            return NotImplemented
        f, g = self.coeffs, other.coeffs
        n = max(len(f), len(g))
        f, g = f + (0,) * (n - len(f)), g + (0,) * (n - len(g))
        return UnivarPoly([x + sign * y for x, y in zip(f, g)])

    def __add__(self, other):
        return self._plus(other, 1)

    def __neg__(self):
        return UnivarPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self._plus(other, -1)

    def __mul__(self, other):
        if isinstance(other, int):
            return UnivarPoly([c * other for c in self.coeffs])
        if not isinstance(other, UnivarPoly):
            return NotImplemented
        return UnivarPoly(_mul_coeffs(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n)

    def __call__(self, x):
        # Horner, highest term first
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, k):
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return UnivarPoly((0,) * k + self.coeffs)

    def derivative(self):
        return UnivarPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    # -- content and division -----------------------------------------

    def content(self):
        if self.is_zero:
            return 0
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def primitive(self):
        """Primitive part with positive leading coefficient."""
        if self.is_zero:
            return self
        g = self.content()
        if self.leading_coefficient() < 0:
            g = -g
        return UnivarPoly([c // g for c in self.coeffs])

    def try_divide(self, d):
        """Exact quotient self / d over the integers, or None."""
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return UnivarPoly()
        rem = list(self.coeffs)
        dd = d.degree()
        dl = d.leading_coefficient()
        if len(rem) - 1 < dd:
            return None
        quot = [0] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            q, r = divmod(c, dl)
            if r:
                return None
            quot[k - dd] = q
            for e, dc in enumerate(d.coeffs):
                rem[k - dd + e] -= q * dc
        if any(rem[:dd]):
            return None
        return UnivarPoly(quot)


def _pseudo_rem(a: UnivarPoly, b: UnivarPoly) -> UnivarPoly:
    """Pseudo-remainder of a by b (b nonzero)."""
    da, db = a.degree() if not a.is_zero else -1, b.degree()
    if da < db:
        return a
    lc = b.leading_coefficient()
    rem = a
    while not rem.is_zero and rem.degree() >= db:
        k = rem.degree() - db
        rem = rem * lc - b.shift(k) * rem.leading_coefficient()
    return rem


def gcd_univar(f: UnivarPoly, g: UnivarPoly) -> UnivarPoly:
    """Primitive gcd over the integers, positive leading coefficient."""
    if f.is_zero and g.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if f.is_zero:
        return g.primitive()
    if g.is_zero:
        return f.primitive()
    cont = gcd(f.content(), g.content())
    a, b = f.primitive(), g.primitive()
    if a.degree() < b.degree():
        a, b = b, a
    while not b.is_zero:
        r = _pseudo_rem(a, b)
        a, b = b, r.primitive()
    # a is primitive with positive leading coefficient; restore the content gcd
    return UnivarPoly([c * cont for c in a.coeffs])


class BivarPoly:
    """Sparse integer polynomial in M and L.

    ``terms`` maps (i, j) exponent pairs to nonzero integer coefficients;
    the zero polynomial is the empty map.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for (i, j), c in dict(terms).items():
                c = int(c)
                if c == 0:
                    continue
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in term ({i},{j})")
                t[(int(i), int(j))] = c
        object.__setattr__(self, "terms", t)

    @classmethod
    def _adopt(cls, terms):
        """The polynomial whose term dict is terms itself, unchecked and
        uncopied: the caller guarantees int keys >= 0, nonzero int values,
        and that nothing else holds the dict."""
        p = object.__new__(cls)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name, value):
        raise AttributeError("BivarPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({(0, 0): c})

    @classmethod
    def term(cls, c, i, j):
        return cls({(i, j): c})

    @classmethod
    def from_univar_m(cls, u: UnivarPoly):
        return cls({(i, 0): c for i, c in enumerate(u.coeffs)})

    # -- basics -------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, BivarPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(("BivarPoly", frozenset(self.terms.items())))

    def __repr__(self):
        return f"BivarPoly({self.terms!r})"

    def __str__(self):
        return format_poly(self)

    def deg_m(self):
        if self.is_zero:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(i for i, _ in self.terms)

    def deg_l(self):
        if self.is_zero:
            raise ValueError("degree of the zero polynomial is undefined")
        return max(j for _, j in self.terms)

    def min_m(self):
        if self.is_zero:
            raise ValueError("zero polynomial")
        return min(i for i, _ in self.terms)

    def min_l(self):
        if self.is_zero:
            raise ValueError("zero polynomial")
        return min(j for _, j in self.terms)

    def content(self):
        return gcd(*self.terms.values())

    # -- ring operations ----------------------------------------------

    def _plus(self, other, sign):
        if isinstance(other, int):
            other = BivarPoly.const(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return BivarPoly._adopt(_add_terms(dict(self.terms), other.terms, sign))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return BivarPoly._adopt({ij: -c for ij, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return BivarPoly({ij: c * other for ij, c in self.terms.items()})
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return BivarPoly._adopt(_mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n)

    # -- normalization ------------------------------------------------

    def normalize(self):
        """The A-normal form: coefficient gcd 1, positive sign on the
        graded-lex leading term (L > M), and no M or L monomial factor.
        """
        terms = self.terms
        if not terms:
            raise ValueError("cannot normalize the zero polynomial")
        ms, ls = zip(*terms)
        i0, j0 = min(ms), min(ls)
        # the shift keeps the graded-lex order, so the sign is read here
        unit = self.content()
        if terms[max(terms, key=_grlex_key)] < 0:
            unit = -unit
        if i0 == j0 == 0 and unit == 1:
            return self
        return BivarPoly._adopt(
            {(i - i0, j - j0): c // unit for (i, j), c in terms.items()}
        )

    # -- evaluation and substitution ----------------------------------

    def eval_m(self, m: int) -> UnivarPoly:
        """Substitute an exact integer for M, yielding a polynomial in L."""
        if self.is_zero:
            return UnivarPoly()
        coeffs = [0] * (self.deg_l() + 1)
        for (i, j), c in self.terms.items():
            coeffs[j] += c * m**i
        return UnivarPoly(coeffs)

    def invert_l(self):
        """Substitute L -> 1/L and clear the denominator by L^deg_l."""
        if self.is_zero:
            return self
        d = self.deg_l()
        return BivarPoly({(i, d - j): c for (i, j), c in self.terms.items()})

    # -- division -----------------------------------------------------

    def _l_coeffs(self):
        """Coefficients as polynomials in M, indexed by L-exponent."""
        out = {}
        for (i, j), c in self.terms.items():
            out.setdefault(j, {})[i] = c
        res = {}
        for j, d in out.items():
            coeffs = [0] * (max(d) + 1)
            for i, c in d.items():
                coeffs[i] = c
            res[j] = UnivarPoly(coeffs)
        return res

    def try_divide(self, d: "BivarPoly"):
        """Exact quotient self / d, or None when d does not divide exactly.

        Division is performed in L with exact coefficient division in Z[M];
        sufficient for the candidate factors used by the analysis modules.
        """
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
            return BivarPoly()
        rem = self._l_coeffs()
        dl = d.deg_l()
        dcoeffs = d._l_coeffs()
        dlead = dcoeffs[dl]
        quot = {}
        while rem:
            rl = max(rem)
            if rl < dl:
                return None
            q = rem[rl].try_divide(dlead)
            if q is None:
                return None
            quot[rl - dl] = q
            for j, dc in dcoeffs.items():
                tgt = rl - dl + j
                cur = rem.get(tgt, UnivarPoly())
                new = cur - q * dc
                if new.is_zero:
                    rem.pop(tgt, None)
                else:
                    rem[tgt] = new
        out = {}
        for j, u in quot.items():
            for i, c in enumerate(u.coeffs):
                if c:
                    out[(i, j)] = c
        return BivarPoly(out)


_L_MINUS_1 = BivarPoly({(0, 1): 1, (0, 0): -1})


def _dot_coeffs(xs, ys):
    """Sum of the products of paired coefficient lists, in one list."""
    out = []
    for x, y in zip(xs, ys):
        _mul_coeffs(x, y, out)
    return out


def charpoly(matrix):
    """Coefficients [1, c_1, ..., c_n] of det(x*I - A), highest degree
    first, for a nonempty square list of rows of UnivarPoly entries.

    Berkowitz's division-free algorithm (Inf. Proc. Letters 18, 1984): the
    characteristic polynomial of each leading principal submatrix is a
    lower-triangular Toeplitz matrix times that of the previous one. It
    runs on the entries' coefficient lists and returns UnivarPoly values.
    """
    a = [[entry.coeffs for entry in row] for row in matrix]
    poly = [[1], [-c for c in a[0][0]]]
    for r in range(1, len(a)):
        row = a[r][:r]
        col = [a[i][r] for i in range(r)]
        # first Toeplitz column: 1, -a_rr, -R C, -R A C, ..., -R A^(r-1) C
        toeplitz = [[1], [-c for c in a[r][r]]]
        for k in range(r):
            toeplitz.append([-c for c in _dot_coeffs(row, col)])
            if k < r - 1:
                col = [_dot_coeffs(a[i][:r], col) for i in range(r)]
        poly = [_dot_coeffs(toeplitz[i::-1], poly) for i in range(r + 2)]
    return [UnivarPoly(c) for c in poly]


# -- text grammar -----------------------------------------------------


class PolyParseError(ValueError):
    """Syntax error in the polynomial text grammar, with 1-based position."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


# Longest integer literal accepted, checked here so that the bound does not
# depend on the interpreter's own int() digit limit (absent before 3.10.7).
# The same bound holds for every coefficient after expansion, where it is
# checked against the integer 10^_MAX_DIGITS, so no str() call is made:
# bit lengths alone cannot tell 4300 from 4301 digits (2^14284 < 10^4300).
_MAX_DIGITS = 4300
_COEFF_BOUND = 10**_MAX_DIGITS

# Deepest nesting accepted, far inside the recursion limit (1 frame a level)
_MAX_DEPTH = 200

# Largest L-exponent accepted in the expanded result. The analysis makes a
# polynomial dense in L, so its cost grows with the L-degree; nothing makes
# a polynomial dense in M, so an M-exponent is bounded only as a coefficient
# is, below _COEFF_BOUND, which keeps it short enough for str() to write.
_MAX_L_EXPONENT = 100_000

# One parse has one budget for its expansions. Before each multiplication
# of two term dicts f and g that a parenthesized power or product makes, or
# that a term's monomial with more than 1024 coefficient bits makes with
# the term's parenthesized factors, the parse is charged
# len(f) * len(g) * max(b, 1024) * max(b, x, 1024), where b = b_f + b_g for
# the bit lengths of the dicts' largest |coefficients| and x = x_f + x_g for
# those of their largest exponents: for each term pair, a product of
# coefficients, whose cost grows as b^2 once b passes about 1024, and a sum
# of exponents, whose cost grows as x, which matters only when the
# exponents are longer than the coefficients. Such a coefficient of b_c
# bits times a later literal of b_n bits is charged 4 * b_c * max(b_n, 1024):
# its cost grows with the product of the two lengths, and a unit of it
# takes about four times as long as a unit of the term-pair charge, whose
# 1024^2 for a pair of short coefficients pays for the interpreter's work.
# The multiplication that would take the sum past the budget is not made,
# so the work before a rejection stays within it, about 2 s:
# (L+M+1)^60*(L+M+1)^60 is charged 2^41.98 and parses, (L-1)^2047 is
# charged 2^42.2 and is rejected, and a chain of 1024-bit literals, the
# longest charged as 1024 bits, is rejected at its 1450th.
_PARSE_BUDGET = 1 << 42

# The first character outside the grammar or integer literal too long to
# accept: either is an error before any grammar error. Only a text longer
# than _MAX_DIGITS can hold such a literal, and a literal is tried only from
# its first digit, so a long one is scanned once, not once a digit.
_BAD_CHAR_RE = re.compile(r"[^\s\dML^*+()-]")
_LEXICAL_ERROR_RE = re.compile(rf"[^\s\dML^*+()-]|(?<!\d)\d{{{_MAX_DIGITS + 1},}}")
# One token per match: an integer, M or L with its optional exponent, or any
# other single character.
_FACTOR_TOKEN_RE = re.compile(r"\s*(\d+|[ML](?:\s*\^\s*\d+)?|\S)")
_PAREN_RE = re.compile(r"[()]")


def _decimal(n):
    """Decimal digits of n >= 0, in blocks short enough for str()'s digit
    limit: a quotient of bounded input can have longer coefficients."""
    if n < _COEFF_BOUND:
        return str(n)
    high, low = divmod(n, _COEFF_BOUND)
    return _decimal(high) + str(low).zfill(_MAX_DIGITS)


def _error(msg, text, offset):
    """Raise PolyParseError at the 1-based line and column of text[offset]."""
    line = text.count("\n", 0, offset) + 1
    raise PolyParseError(msg, line, offset - text.rfind("\n", 0, offset))


def _token_error(msg, text, k):
    """Raise PolyParseError at the k-th token of text, or just past the last
    token when k is the number of tokens. Offsets are found only here."""
    offset = 0
    for n, m in enumerate(_FACTOR_TOKEN_RE.finditer(text)):
        if n == k:
            offset = m.start(1)
            break
        offset = m.end()
    _error(msg, text, offset)


def _check_lexical(text):
    """Raise the lexical error that comes first in text, if any: a
    character outside the grammar, an integer literal longer than
    _MAX_DIGITS or a parenthesis nested deeper than _MAX_DEPTH."""
    bad = (_LEXICAL_ERROR_RE if len(text) > _MAX_DIGITS else _BAD_CHAR_RE).search(text)
    stop = bad.start() if bad else len(text)
    # the depth never exceeds the number of '(' before it
    if text.count("(", 0, stop) > _MAX_DEPTH:
        depth = 0
        for m in _PAREN_RE.finditer(text, 0, stop):
            depth += 1 if m.group() == "(" else -1
            if depth > _MAX_DEPTH:
                _error(f"parentheses nested deeper than {_MAX_DEPTH}", text, m.start())
    if bad:
        tok = bad.group()
        if len(tok) > _MAX_DIGITS:
            _error(f"integer literal of {len(tok)} digits is longer than {_MAX_DIGITS}",
                   text, stop)
        _error(f"unexpected character {tok!r}", text, stop)


def _spend(spent, cost, construct, text, k):
    """spent plus cost; past the parse budget, a PolyParseError for the
    construct ("power" or "product") at the k-th token of text."""
    spent += cost
    if spent > _PARSE_BUDGET:
        _token_error(f"{construct} too large to expand: it passes the parse budget", text, k)
    return spent


def _charge(f, g, spent, construct, text, k):
    """_spend of the charge for multiplying the term dicts f and g."""
    bits = sum(max(map(abs, h.values()), default=0).bit_length() for h in (f, g))
    keys = sum(max(map(max, h), default=0).bit_length() for h in (f, g))
    cost = len(f) * len(g) * max(bits, 1024) * max(bits, keys, 1024)
    return _spend(spent, cost, construct, text, k)


def _power_terms(base, e, spent, text, k):
    """(base^e, spent after it) for the term dict base and the power whose
    '^' is the k-th token of text. Zero and a term with coefficient +-1 are
    powered in closed form, the exponent bounds checked here; any other base
    by _power, each multiplication charged."""
    if e == 0:
        return {(0, 0): 1}, spent
    if len(base) > 1 or any(c * c != 1 for c in base.values()):
        def mul(f, g):
            nonlocal spent
            spent = _charge(f, g, spent, "power", text, k)
            return _mul_terms(f, g)

        return _power(base, e, mul), spent
    power = {}
    for (i, j), c in base.items():  # at most one term
        i, j = i * e, j * e
        if j > _MAX_L_EXPONENT:
            _token_error(f"expanded L-exponent is above {_MAX_L_EXPONENT}", text, k)
        if i >= _COEFF_BOUND:
            _token_error(f"expanded M-exponent is longer than {_MAX_DIGITS} digits", text, k)
        power[(i, j)] = c ** (e & 1)
    return power, spent


def parse_poly(text: str) -> BivarPoly:
    """Parse the polynomial text grammar into a BivarPoly.

    expression := ['+'|'-'] term (('+'|'-') term)*
    term       := factor ('*'? factor)*
    factor     := integer | 'M'['^'n] | 'L'['^'n] | '(' expression ')' ['^'n]

    Whitespace-insensitive; omitted exponents and coefficients mean 1.
    Parenthesized products are accepted on input; canonical printing never
    emits them. Each of these is a PolyParseError at its position: an
    integer literal longer than 4300 digits, a parenthesis nested deeper
    than 200, at its '^', '(', literal or first token a power, product or
    term whose next multiplication would take the parse past its expansion
    budget (see _PARSE_BUDGET), at its '^' a power of one term with
    coefficient +-1 whose L-exponent would be above 100,000 or whose
    M-exponent would be longer than 4300 digits, and, at the first token,
    such an exponent or a coefficient longer than 4300 digits in the
    expanded result. Lexical
    errors (a character outside the grammar, a long literal, deep nesting)
    come before grammar errors, and among each kind the first in the text
    is raised.
    """
    _check_lexical(text)
    tokens = _FACTOR_TOKEN_RE.findall(text)
    tokens.append("")  # the end
    k, spent = 0, 0

    # Returns the term dict {(i, j): c} of the expression starting at
    # tokens[k] and leaves k at the token after it. Integers and powers of
    # M and L multiply into one monomial per term; only parenthesized
    # factors are multiplied as term dicts.
    def expression():
        nonlocal k, spent
        terms = {}
        sign = 1
        tok = tokens[k]
        if tok == "+" or tok == "-":
            sign = -1 if tok == "-" else 1
            k += 1
        while True:
            c, i, j = sign, 0, 0
            product, term = None, k
            while True:
                tok = tokens[k]
                head = tok[:1]
                if head == "M" or head == "L":
                    if len(tok) > 1:
                        e = int(tok.partition("^")[2])  # int() skips the spaces
                    elif tokens[k + 1] == "^":
                        # an integer exponent would be part of this token
                        _token_error("expected exponent after '^'", text, k + 2)
                    else:
                        e = 1
                    if head == "M":
                        i += e
                    else:
                        j += e
                    k += 1
                elif head == "(":
                    start = k
                    k += 1
                    inner = expression()
                    if tokens[k] != ")":
                        _token_error("expected ')'", text, k)
                    k += 1
                    if tokens[k] == "^":
                        etok = tokens[k + 1]
                        if not etok[:1].isdecimal():
                            _token_error("expected exponent after '^'", text, k + 1)
                        e = int(etok)
                        if e != 1:
                            inner, spent = _power_terms(inner, e, spent, text, k)
                        k += 2
                    if product is None:
                        product = inner
                    else:
                        spent = _charge(product, inner, spent, "product", text, start)
                        product = _mul_terms(product, inner)
                elif head.isdecimal():
                    n = int(tok)
                    b = c.bit_length()
                    if b > 1024:  # the monomial times the literal
                        spent = _spend(spent, 4 * b * max(n.bit_length(), 1024), "product", text, k)
                    c *= n
                    k += 1
                else:
                    _token_error("expected a term", text, k)
                tok = tokens[k]
                if tok == "*":
                    k += 1
                elif tok in "^+-)":  # or the end
                    break
            if product is None:
                c += terms.get((i, j), 0)
                if c:
                    terms[(i, j)] = c
                else:
                    terms.pop((i, j), None)
            else:
                if c.bit_length() > 1024:  # the monomial times the product
                    spent = _charge({(i, j): c}, product, spent, "product", text, term)
                _add_terms(terms, {(a + i, b + j): c * v for (a, b), v in product.items()})
            if tok != "+" and tok != "-":
                return terms
            sign = -1 if tok == "-" else 1
            k += 1

    try:
        result = BivarPoly._adopt(expression())
    finally:
        del expression  # it refers to itself through its cell: a cycle
    if tokens[k]:
        _token_error("unexpected trailing input", text, k)
    for (i, j), c in result.terms.items():
        if j > _MAX_L_EXPONENT:
            _token_error(f"expanded L-exponent is above {_MAX_L_EXPONENT}", text, 0)
        if abs(c) >= _COEFF_BOUND:
            # an M-exponent can be longer than str() writes
            msg = (f"expanded coefficient of M^{_decimal(i)}*L^{j} "
                   f"is longer than {_MAX_DIGITS} digits")
            _token_error(msg, text, 0)
        if i >= _COEFF_BOUND:
            _token_error(f"expanded M-exponent is longer than {_MAX_DIGITS} digits", text, 0)
    return result


def format_poly(p: BivarPoly) -> str:
    """Canonical text form: descending graded-lex terms, explicit '^',
    coefficients in full at any length."""
    return _text((p.terms[ij], *ij) for ij in sorted(p.terms, key=_grlex_key, reverse=True))


def _text(terms):
    """format_poly's text of the nonzero terms (c, i, j), c*L^j*M^i, in
    the order given."""
    out = []
    for c, i, j in terms:
        power = ("L" if j == 1 else f"L^{j}") if j else ""
        if i:
            power += ("*" if j else "") + ("M" if i == 1 else f"M^{i}")
        if abs(c) != 1 or not power:
            power = _decimal(abs(c)) + ("*" + power if power else "")
        out.append(("- " if c < 0 else "+ ") + power)
    text = " ".join(out) or "+ 0"
    return text[2:] if text[0] == "+" else "-" + text[2:]

