"""Exact sparse polynomial arithmetic over the integers.

One carrier, ``BivarPoly``: a sparse integer polynomial in M and L, keyed
by exponent pairs (i, j) = (M-exponent, L-exponent). A polynomial in L
alone, such as A(+-1, L) or a cyclotomic factor, is a ``BivarPoly`` whose
terms all have M-exponent 0, and its text is that of any other.

Each ring operation is written once: sparse + and * are the term kernels
``_add_terms`` and ``_mul_terms``, shared with the Laurent dicts of
``knots``; dense * is the coefficient-list kernel ``_mul_coeffs`` of the
characteristic polynomial of ``knots``, and ``_trim`` is the one trim of
a coefficient list; there is one ``_power`` and one text form,
``format_poly``, which writes coefficients of any length and which
``apoly.grammar.parse_poly`` reads back, within the bounds its docstring
lists. Inside apoly a dense polynomial in one variable is an ascending
coefficient list with no trailing zero; ``_in_l`` builds the L-only
``BivarPoly`` where a public function returns one. The constructor takes
integers only: a coefficient or exponent that is not an int (a float, a
Fraction, a str) raises TypeError instead of being truncated.

All values are immutable after construction and every operation is a pure
function, so instances can be shared freely across threads.
"""

from __future__ import annotations

import operator
from functools import reduce
from math import gcd

__all__ = [
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


def _horner(coeffs, x):
    """The value at x of the polynomial with ascending coefficient list coeffs."""
    return reduce(lambda v, c: v * x + c, reversed(coeffs), 0)


def _power(base, n, mul=operator.mul):
    """base ** n by square-and-multiply: of a BivarPoly, or, for n >= 1, of
    a term dict whose products mul makes."""
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

    def eval_m(self, m: int) -> BivarPoly:
        """Substitute an exact integer for M, yielding a polynomial in L:
        a BivarPoly with no term in M."""
        if self.is_zero:
            return self
        coeffs = [0] * (self.deg_l() + 1)
        for (i, j), c in self.terms.items():
            coeffs[j] += c * m**i
        return _in_l(coeffs)

    def invert_l(self):
        """Substitute L -> 1/L and clear the denominator by L^deg_l."""
        if self.is_zero:
            return self
        d = self.deg_l()
        return BivarPoly({(i, d - j): c for (i, j), c in self.terms.items()})


def _in_l(coeffs):
    """The polynomial in L whose ascending coefficients are coeffs."""
    return BivarPoly({(0, j): c for j, c in enumerate(coeffs)})


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
    out = []
    for i, j in sorted(p.terms, key=_grlex_key, reverse=True):
        c = p.terms[i, j]
        power = ("L" if j == 1 else f"L^{j}") if j else ""
        if i:
            power += ("*" if j else "") + ("M" if i == 1 else f"M^{i}")
        if abs(c) != 1 or not power:
            power = _decimal(abs(c)) + ("*" + power if power else "")
        out.append(("- " if c < 0 else "+ ") + power)
    text = " ".join(out) or "+ 0"
    return text[2:] if text[0] == "+" else "-" + text[2:]
