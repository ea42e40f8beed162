"""Exact sparse polynomial arithmetic over the integers.

Two carriers:

* ``UnivarPoly`` -- dense integer polynomial in one variable (called L or v
  depending on context).
* ``BivarPoly`` -- sparse integer polynomial in M and L, keyed by exponent
  pairs (i, j) = (M-exponent, L-exponent).

Each ring operation is written once: sparse + and * are the term kernels
``_add_terms`` and ``_mul_terms``, shared with the Laurent dicts of
``knots``; both carriers use one ``_power`` and one text form,
``format_poly``, which writes coefficients of any length and which
``parse_poly`` reads back, within the bounds its docstring lists.

Characteristic polynomials of matrices over either carrier are computed
division-free by Berkowitz's algorithm (``charpoly``), so every result is
exact integer arithmetic with no computer-algebra system.

All values are immutable after construction and every operation is a pure
function, so instances can be shared freely across threads.
"""

from __future__ import annotations

import re
from math import comb, gcd

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


def _power(base, n):
    """base ** n by square-and-multiply, for either carrier."""
    if n < 0:
        raise ValueError("negative power")
    result = type(base).const(1)
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


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
        object.__setattr__(self, "coeffs", tuple(int(c) for c in cs))

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
        # the same polynomial in L, in the one canonical text form
        return format_poly(BivarPoly({(0, k): c for k, c in enumerate(self.coeffs)}))

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, UnivarPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivarPoly([self[k] + other[k] for k in range(n)])

    def __neg__(self):
        return UnivarPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return UnivarPoly([c * other for c in self.coeffs])
        if not isinstance(other, UnivarPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return UnivarPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for a, ca in enumerate(self.coeffs):
            if ca == 0:
                continue
            for b, cb in enumerate(other.coeffs):
                out[a + b] += ca * cb
        return UnivarPoly(out)

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
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return g

    # -- ring operations ----------------------------------------------

    def _plus(self, other, sign):
        if isinstance(other, int):
            other = BivarPoly.const(other)
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return BivarPoly(_add_terms(dict(self.terms), other.terms, sign))

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return BivarPoly({ij: -c for ij, c in self.terms.items()})

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return BivarPoly({ij: c * other for ij, c in self.terms.items()})
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return BivarPoly(_mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n)

    # -- normalization ------------------------------------------------

    def normalize(self):
        """The A-normal form: coefficient gcd 1, positive sign on the
        graded-lex leading term (L > M), and no M or L monomial factor.
        """
        if self.is_zero:
            raise ValueError("cannot normalize the zero polynomial")
        i0 = self.min_m()
        j0 = self.min_l()
        cont = self.content()
        shifted = {(i - i0, j - j0): c // cont for (i, j), c in self.terms.items()}
        if shifted[max(shifted, key=_grlex_key)] < 0:
            shifted = {ij: -c for ij, c in shifted.items()}
        return BivarPoly(shifted)

    # -- evaluation and substitution ----------------------------------

    def eval_m(self, m: int) -> UnivarPoly:
        """Substitute an exact integer for M, yielding a polynomial in L."""
        if self.is_zero:
            return UnivarPoly()
        coeffs = [0] * (self.deg_l() + 1)
        if m in (1, -1):
            # a unit's powers are +/-1, so add or subtract by the parity of i
            for (i, j), c in self.terms.items():
                coeffs[j] += -c if m < 0 and i & 1 else c
        else:
            for (i, j), c in self.terms.items():
                coeffs[j] += c * m**i
        return UnivarPoly(coeffs)

    def invert_l(self):
        """Substitute L -> 1/L and clear the denominator by L^deg_l."""
        if self.is_zero:
            return self
        d = self.deg_l()
        return BivarPoly({(i, d - j): c for (i, j), c in self.terms.items()})

    def taylor_at_l1(self, k: int) -> "BivarPoly":
        """The k-th Taylor coefficient at L = 1, a polynomial in M alone.

        Substituting L = 1 + u, the coefficient of u^k is
        sum over terms c_ij M^i L^j of C(j, k) c_ij M^i, summed over the
        sparse terms without making any coefficient dense. Since L - 1 is
        monic in L, (L-1)^k divides self in Z[M][L] exactly when the
        coefficients 0 .. k-1 all vanish.
        """
        out = {}
        for (i, j), c in self.terms.items():
            if j >= k:
                out[(i, 0)] = out.get((i, 0), 0) + comb(j, k) * c
        return BivarPoly(out)

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


def _dot(xs, ys):
    acc = None
    for x, y in zip(xs, ys):
        acc = x * y if acc is None else acc + x * y
    return acc


def charpoly(matrix):
    """Coefficients [1, c_1, ..., c_n] of det(x*I - A), highest degree first.

    Berkowitz's division-free algorithm (Inf. Proc. Letters 18, 1984): the
    characteristic polynomial of each leading principal submatrix is a
    lower-triangular Toeplitz matrix times that of the previous one. The
    entries only need +, - and * (UnivarPoly or BivarPoly here), so the
    result is exact over their ring. ``matrix`` is a nonempty square list
    of rows.
    """
    one = type(matrix[0][0]).const(1)
    poly = [one, -matrix[0][0]]
    for r in range(1, len(matrix)):
        row = matrix[r][:r]
        col = [matrix[i][r] for i in range(r)]
        # first Toeplitz column: 1, -a_rr, -R C, -R A C, ..., -R A^(r-1) C
        toeplitz = [one, -matrix[r][r]]
        for k in range(r):
            toeplitz.append(-_dot(row, col))
            if k < r - 1:
                col = [_dot(matrix[i][:r], col) for i in range(r)]
        poly = [_dot(toeplitz[i::-1], poly) for i in range(r + 2)]
    return poly


# -- text grammar -----------------------------------------------------


class PolyParseError(ValueError):
    """Syntax error in the polynomial text grammar, with 1-based position."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>[ML])|(?P<caret>\^)|(?P<star>\*)"
                       r"|(?P<plus>\+)|(?P<minus>-)|(?P<lparen>\()|(?P<rparen>\))|(?P<bad>\S))")

# Longest integer literal accepted, checked here so that the bound does not
# depend on the interpreter's own int() digit limit (absent before 3.10.7).
# The same bound holds for every coefficient after expansion, where it is
# checked against the integer 10^_MAX_DIGITS, so no str() call is made:
# bit lengths alone cannot tell 4300 from 4301 digits (2^14284 < 10^4300).
_MAX_DIGITS = 4300
_COEFF_BOUND = 10**_MAX_DIGITS

# Deepest nesting accepted, far inside the recursion limit (3 frames a level)
_MAX_DEPTH = 200


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


def _tokenize(text):
    """(kind, text, offset) triples, then an "end" token just past the last."""
    tokens = []
    depth = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok, offset = m.group(kind), m.start(kind)
        if kind == "bad":
            _error(f"unexpected character {tok!r}", text, offset)
        if kind == "int" and len(tok) > _MAX_DIGITS:
            msg = f"integer literal of {len(tok)} digits is longer than {_MAX_DIGITS}"
            _error(msg, text, offset)
        depth += (kind == "lparen") - (kind == "rparen")
        if depth > _MAX_DEPTH:
            _error(f"parentheses nested deeper than {_MAX_DEPTH}", text, offset)
        tokens.append((kind, tok, offset))
    tokens.append(("end", "", m.end() if tokens else 0))
    return tokens


def parse_poly(text: str) -> BivarPoly:
    """Parse the polynomial text grammar into a BivarPoly.

    expression := ['+'|'-'] term (('+'|'-') term)*
    term       := factor ('*'? factor)*
    factor     := integer | 'M'['^'n] | 'L'['^'n] | '(' expression ')' ['^'n]

    Whitespace-insensitive; omitted exponents and coefficients mean 1.
    Parenthesized products are accepted on input; canonical printing never
    emits them. Each of these is a PolyParseError at its position: an
    integer literal longer than 4300 digits, a parenthesis nested deeper
    than 200 and, at the first token, a coefficient of the expanded result
    longer than 4300 digits.
    """
    tokens = _tokenize(text)
    idx = 0

    def peek():
        return tokens[idx]

    def take():
        nonlocal idx
        t = tokens[idx]
        idx += 1
        return t

    def parse_exponent():
        if peek()[0] != "caret":
            return 1
        take()
        etok = take()
        if etok[0] != "int":
            _error("expected exponent after '^'", text, etok[2])
        return int(etok[1])

    # Each rule returns a term dict {(i, j): c}; only the result becomes a
    # BivarPoly. An integer factor may map to 0, which products and sums drop.
    def parse_factor():
        kind, val, offset = peek()
        if kind == "int":
            take()
            return {(0, 0): int(val)}
        if kind == "var":
            take()
            e = parse_exponent()
            return {(e, 0) if val == "M" else (0, e): 1}
        if kind == "lparen":
            take()
            inner = parse_expression()
            if peek()[0] != "rparen":
                _error("expected ')'", text, peek()[2])
            take()
            e = parse_exponent()
            return inner if e == 1 else (BivarPoly(inner) ** e).terms
        _error("expected a term", text, offset)

    def parse_term():
        result = parse_factor()
        while True:
            kind = peek()[0]
            if kind == "star":
                take()
            elif kind not in ("int", "var", "lparen"):
                return result
            result = _mul_terms(result, parse_factor())

    def parse_expression():
        # every term is added into one dict, so a sum of n terms costs O(n)
        terms = {}
        sign = 1
        if peek()[0] in ("plus", "minus"):
            sign = -1 if take()[0] == "minus" else 1
        while True:
            _add_terms(terms, parse_term(), sign)
            if peek()[0] not in ("plus", "minus"):
                return terms
            sign = -1 if take()[0] == "minus" else 1

    result = BivarPoly(parse_expression())
    if peek()[0] != "end":
        _error("unexpected trailing input", text, peek()[2])
    for (i, j), c in result.terms.items():
        if abs(c) >= _COEFF_BOUND:
            msg = f"expanded coefficient of M^{i}*L^{j} is longer than {_MAX_DIGITS} digits"
            _error(msg, text, tokens[0][2])
    return result


def format_poly(p: BivarPoly) -> str:
    """Canonical text form: descending graded-lex terms, explicit '^',
    coefficients in full at any length."""
    if p.is_zero:
        return "0"
    parts = []
    for ij in sorted(p.terms, key=_grlex_key, reverse=True):
        i, j = ij
        c = p.terms[ij]
        factors = []
        if j:
            factors.append("L" if j == 1 else f"L^{j}")
        if i:
            factors.append("M" if i == 1 else f"M^{i}")
        if not factors or abs(c) != 1:
            factors.insert(0, _decimal(abs(c)))
        parts.append(("-" if c < 0 else "+", "*".join(factors)))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out

