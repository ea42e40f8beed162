"""The polynomial text grammar: ``parse_poly`` and the bounds it keeps.

``parse_poly`` reads the text that ``apoly.poly.format_poly`` writes, and
more: optional ``*``, parenthesized products and powers. Every bound of a
parse lives here: the longest literal, the deepest nesting, the largest
L-exponent and M-exponent, the expansion budget and the result-size cap.

Only the commands that read polynomial text import this module: the CLI's
``_parse_or_exit`` (``analyze``, ``newton``, ``replay``) and ``apoly.db``
(``verify-db``). ``compute`` builds its polynomial and never compiles the
grammar; ``apoly.parse_poly`` loads it on first use.
"""

from __future__ import annotations

import re

from .poly import _COEFF_BOUND, _MAX_DIGITS, BivarPoly, _add_terms, _decimal, _mul_terms, _power

__all__ = ["PolyParseError", "parse_poly"]


class PolyParseError(ValueError):
    """Syntax error in the polynomial text grammar, with 1-based position."""

    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


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

# Most terms a multiplication of the parse may make. The budget bounds the
# work of a product, not its size: (L^0 + ... + L^1023)*(M^0 + ... + M^1023)
# is charged 2^40 and has 2^20 terms, 399 MB at its peak. So, before each
# charged multiplication of f and g, the size of their product is bounded by
# min(len(f) * len(g), (I + 1) * (J + 1)), where I and J are the widths of
# the product's M- and L-exponent ranges, and a bound past _MAX_TERMS is
# rejected. The product of 512 L-powers and 512 M-powers, 2^18 terms, is the
# largest accepted: 0.44 s and 102 MB at its peak, in-process. A sum is
# capped the same way: before each term is added, a sum whose terms so far
# and the term's can number more than _MAX_TERMS is rejected at the term,
# so 16 such products with disjoint supports, each within the budget, do
# not build 2^22 terms.
_MAX_TERMS = 1 << 18

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


def _span(h, axis):
    """Width of the range of the term dict h's exponents on axis, 0 for M
    and 1 for L."""
    exponents = [key[axis] for key in h]
    return max(exponents) - min(exponents)


def _charge(f, g, spent, construct, text, k):
    """_spend of the charge for multiplying the term dicts f and g; past
    the budget, or when their product can have more than _MAX_TERMS terms,
    a PolyParseError for the construct at the k-th token of text."""
    bits = sum(max(map(abs, h.values()), default=0).bit_length() for h in (f, g))
    keys = sum(max(map(max, h), default=0).bit_length() for h in (f, g))
    cost = len(f) * len(g) * max(bits, 1024) * max(bits, keys, 1024)
    spent = _spend(spent, cost, construct, text, k)
    if len(f) * len(g) > _MAX_TERMS and (
        (_span(f, 0) + _span(g, 0) + 1) * (_span(f, 1) + _span(g, 1) + 1) > _MAX_TERMS
    ):
        _token_error(f"{construct} too large to expand: it can have more than "
                     f"{_MAX_TERMS} terms", text, k)
    return spent


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
    budget (see _PARSE_BUDGET) or could make more than 2^18 terms (see
    _MAX_TERMS), at its first token a term that would take its sum past
    2^18 terms, at its '^' a power of one term with
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
            if product is not None and c.bit_length() > 1024:  # the monomial times the product
                spent = _charge({(i, j): c}, product, spent, "product", text, term)
            if c and len(terms) + (1 if product is None else len(product)) > _MAX_TERMS:
                _token_error(f"sum too large to expand: it can have more than {_MAX_TERMS} "
                             "terms", text, term)
            if product is None:
                c += terms.get((i, j), 0)
                if c:
                    terms[(i, j)] = c
                else:
                    terms.pop((i, j), None)
            else:
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
