"""Exact sparse polynomial arithmetic over the integers.

Two carriers:

* ``UnivarPoly`` -- dense integer polynomial in one variable (called L or v
  depending on context).
* ``BivarPoly`` -- sparse integer polynomial in M and L, keyed by exponent
  pairs (i, j) = (M-exponent, L-exponent).

Each ring operation is written once: sparse + and * are the term kernels
``_add_terms`` and ``_mul_terms``, shared with the Laurent dicts of
``knots``; dense * is the coefficient-list kernel ``_mul_coeffs``, shared
by ``UnivarPoly`` and the characteristic polynomial of ``knots``, and
``_trim`` is the one trim of a coefficient list; both carriers use one
``_power`` and one text form, ``format_poly``, which writes coefficients
of any length and which ``apoly.grammar.parse_poly`` reads back, within
the bounds its docstring lists. Inside apoly a dense polynomial is an
ascending coefficient list with no trailing zero; a ``UnivarPoly`` is
built only where a public function returns one. The constructors take
integers only: a coefficient or exponent that is not an int (a float,
a Fraction, a str) raises TypeError instead of being truncated.

All values are immutable after construction and every operation is a pure
function, so instances can be shared freely across threads.
"""

from __future__ import annotations

import operator
from math import gcd

__all__ = [
    "UnivarPoly",
    "BivarPoly",
    "format_poly",
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


def _trim(f):
    """f without its trailing zeros, in place; returns f."""
    while f and not f[-1]:
        f.pop()
    return f


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
        object.__setattr__(self, "coeffs", tuple(_trim(list(map(operator.index, coeffs)))))

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
                i, j, c = operator.index(i), operator.index(j), operator.index(c)
                if c == 0:
                    continue
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent in term ({i},{j})")
                t[(i, j)] = c
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


_L_MINUS_1 = BivarPoly({(0, 1): 1, (0, 0): -1})


# -- text form --------------------------------------------------------

# Longest decimal integer that str() writes under the interpreter's own
# digit limit, and the longest integer literal apoly.grammar accepts. The
# same bound holds for every coefficient after expansion, where it is
# checked against the integer 10^_MAX_DIGITS, so no str() call is made:
# bit lengths alone cannot tell 4300 from 4301 digits (2^14284 < 10^4300).
_MAX_DIGITS = 4300
_COEFF_BOUND = 10**_MAX_DIGITS


def _decimal(n):
    """Decimal digits of n >= 0, in blocks short enough for str()'s digit
    limit: a quotient of bounded input can have longer coefficients."""
    if n < _COEFF_BOUND:
        return str(n)
    high, low = divmod(n, _COEFF_BOUND)
    return _decimal(high) + str(low).zfill(_MAX_DIGITS)


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

