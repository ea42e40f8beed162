import decimal
import gc
import re
import time
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apoly import grammar
from apoly.grammar import PolyParseError, parse_poly
from apoly.knots import _remainder_gcd
from apoly.poly import (
    BivarPoly,
    _decimal,
    _in_l,
    format_poly,
)

from conftest import (
    L,
    M,
    bivar_polys,
    eval_complex,
    exact_quotient,
    l_coeffs,
    parse_poly_by_tokens,
    poly_expressions,
    rel_residual,
    substitute_surgery,
)

one = BivarPoly.const(1)


class TestArithmetic:
    def test_add_cancellation(self):
        assert (L - one) + one == L

    def test_add_identity(self):
        p = parse_poly("L^2*M - 3")
        assert p + BivarPoly.zero() == p

    def test_add_doubles(self):
        lm = L * M
        assert lm + lm == 2 * lm

    def test_mul_difference_of_squares(self):
        assert (L - one) * (L + one) == parse_poly("L^2 - 1")

    def test_mul_identity(self):
        p = parse_poly("M^3*L - 2*L + 7")
        assert p * one == p

    def test_mul_trefoil_expansion(self):
        assert (L - one) * (L * M**6 + one) == parse_poly("L^2*M^6 - L*M^6 + L - 1")

    @given(bivar_polys(), bivar_polys(), bivar_polys())
    @settings(max_examples=100, deadline=None)
    def test_ring_laws(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @given(bivar_polys(allow_zero=False))
    @settings(max_examples=100, deadline=None)
    def test_normalize_idempotent(self, p):
        nf = p.normalize()
        assert nf.normalize() == nf
        assert_strips_to(p, nf)


class TestDegrees:
    def test_unknot_deg_m(self):
        assert (L - one).deg_m() == 0

    def test_trefoil_factor(self):
        assert (L * M**6 + one).deg_m() == 6

    def test_constant(self):
        p = BivarPoly.const(5)
        assert p.deg_m() == 0 and p.deg_l() == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            BivarPoly.zero().deg_m()


def assert_strips_to(raw, nf):
    """raw == sign * content * M^min_m * L^min_l * nf, with sign = +/-1 and
    nf primitive, free of monomial factors and positive on its graded-lex
    (L > M) leading term."""
    assert nf.content() == 1 and nf.min_m() == 0 and nf.min_l() == 0
    lead = max(nf.terms, key=lambda ij: (ij[0] + ij[1], ij[1]))
    assert nf.terms[lead] > 0
    unit = raw.content() * M ** raw.min_m() * L ** raw.min_l() * nf
    assert raw in (unit, -unit)


class TestNormalize:
    def test_content(self):
        p = 6 * L - BivarPoly.const(6)
        nf = p.normalize()
        assert nf == L - one
        assert p == 6 * nf
        assert_strips_to(p, nf)

    def test_sign_and_monomial(self):
        p = parse_poly("-M^2*L + M^2")
        nf = p.normalize()
        assert nf == L - one
        assert p == -(M**2 * nf)
        assert_strips_to(p, nf)

    def test_already_normal(self):
        nf = (L - one).normalize()
        assert nf == L - one
        assert_strips_to(L - one, nf)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            BivarPoly.zero().normalize()

    @given(bivar_polys(allow_zero=False), st.integers(-9, 9).filter(bool), st.integers(0, 3),
           st.integers(0, 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_definition(self, p, c, i, j):
        # content 1, monomial factor stripped, positive graded-lex leading term
        raw = c * M**i * L**j * p
        nf = raw.normalize()
        assert nf == BivarPoly(nf.terms)
        assert nf.content() == 1 and nf.min_m() == nf.min_l() == 0
        assert nf.terms[max(nf.terms, key=lambda ij: (ij[0] + ij[1], ij[1]))] > 0
        shift, content = M ** raw.min_m() * L ** raw.min_l(), raw.content()
        assert raw in (nf * content * shift, nf * -content * shift)
        assert nf.normalize() is nf


class TestEval:
    def test_eval_m_no_dependence(self):
        assert (L - one).eval_m(1) == L - 1

    def test_eval_m_substitution(self):
        assert (L * M**6 + one).eval_m(-1) == L + 1

    def test_eval_m_square(self):
        p = parse_poly("M^2*L^2 - 2*M*L + 1")
        assert p.eval_m(1) == L**2 - 2 * L + 1

    @given(bivar_polys(), bivar_polys())
    @settings(max_examples=100, deadline=None)
    def test_eval_m_multiplicative(self, p, q):
        for m in (1, -1, 2, -3):
            assert (p * q).eval_m(m) == p.eval_m(m) * q.eval_m(m)

    @given(bivar_polys(), st.integers(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_eval_m_matches_term_sum(self, p, m):
        # a polynomial in L, with no term in M, whose value at each L-power
        # is the sum of c * m^i over its terms
        f = p.eval_m(m)
        assert all(i == 0 for i, _ in f.terms)
        sums = {}
        for (i, j), c in p.terms.items():
            sums[j] = sums.get(j, 0) + c * m**i
        assert f == BivarPoly({(0, j): c for j, c in sums.items()})

    def test_eval_m_rejects_non_integers(self):
        with pytest.raises(TypeError):
            (L * M + one).eval_m(Fraction(1, 2))
        # m is read before anything else, also for the zero polynomial
        for p in (BivarPoly(), L + one):
            with pytest.raises(TypeError):
                p.eval_m(0.5)

    def test_eval_complex_on_curve(self):
        assert eval_complex(L - one, 2.7j, 1.0) == 0

    def test_eval_complex_trefoil_point(self):
        assert abs(eval_complex(L * M**6 + one, 1.0, -1.0)) < 1e-12

    def test_eval_complex_zero_poly(self):
        assert eval_complex(BivarPoly.zero(), 3.0 + 1j, -2.0) == 0


class TestSurgerySubstitution:
    def test_no_m_dependence(self):
        assert substitute_surgery(L - one, 3) == L - 1

    def test_clears_denominator(self):
        assert substitute_surgery(L + M**2, 1) == L**3 + 1

    def test_root_oracle(self):
        # every root v of the substituted polynomial must satisfy
        # p(v^-n, v) = 0
        p = L * M**6 + one
        n = 2
        g = substitute_surgery(p, n)
        for v in np.roots(list(reversed(l_coeffs(g)))):
            v = complex(v)
            if abs(v) < 1e-6:
                continue  # v = 0 is outside C* x C*
            assert rel_residual(p, v ** (-n), v) < 1e-8

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            substitute_surgery(L - one, 0)

    @given(bivar_polys(allow_zero=False, max_exp=3, max_terms=4))
    @settings(max_examples=50, deadline=None)
    def test_root_oracle_random(self, p):
        n = 2
        g = substitute_surgery(p, n)
        if g.is_zero or g.deg_l() == 0:
            return
        for v in np.roots(list(reversed(l_coeffs(g)))):
            v = complex(v)
            if abs(v) < 1e-6:
                continue  # v = 0 is outside C* x C*
            assert rel_residual(p, v ** (-n), v) < 1e-6


class TestUnivarRing:
    # a polynomial in L is a BivarPoly with no term in M: its ring
    # operations against those of coefficient lists
    @given(st.lists(st.integers(-9, 9), max_size=8), st.lists(st.integers(-9, 9), max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_univar_ring_matches_sums(self, f, g):
        product = [0] * (len(f) + len(g))
        for a, ca in enumerate(f):
            for b, cb in enumerate(g):
                product[a + b] += ca * cb
        total = [x + y for x, y in zip(f + [0] * len(g), g + [0] * len(f))]
        difference = [x - y for x, y in zip(f + [0] * len(g), g + [0] * len(f))]
        assert _in_l(f) * _in_l(g) == _in_l(product)
        assert _in_l(f) + _in_l(g) == _in_l(total)
        assert _in_l(f) - _in_l(g) == _in_l(difference)


class TestExactConstructors:
    # a coefficient or exponent that is not an int raises TypeError: int()
    # truncated Fraction(1, 2) and 1.5 and parsed "3"
    @pytest.mark.parametrize("coeffs", [[Fraction(1, 2), 1], [Fraction(2)], ["3", 4], [1.0],
                                        [1, 0.0]])
    def test_univar_rejects_non_integers(self, coeffs):
        # the polynomial in L built from a coefficient list
        with pytest.raises(TypeError):
            _in_l(coeffs)

    @pytest.mark.parametrize("terms", [{(1.5, 0): 2.7}, {(1.5, 0): 2}, {(1, 0): 2.7},
                                       {(1, "0"): 1}, {(0, 0): "3"}, {(0, 1): Fraction(1)}])
    def test_bivar_rejects_non_integers(self, terms):
        with pytest.raises(TypeError):
            BivarPoly(terms)

    def test_integer_types_accepted(self):
        # anything with __index__: bool and numpy's integers
        assert _in_l([np.int64(-3), True, 0]) == L - 3
        assert type(_in_l([np.int64(2)]).terms[0, 0]) is int
        assert BivarPoly({(np.int64(1), True): np.int64(2)}) == 2 * M * L


def gcd_over_z(f, g):
    """apoly.knots' remainder sequence over Z, on polynomials in L."""
    return _in_l(_remainder_gcd(l_coeffs(f), l_coeffs(g)))


def sympy_gcd(f, g):
    """The primitive gcd of two polynomials in L, positive leading
    coefficient, by sympy."""
    x = sympy.Symbol("x")
    d = sympy.gcd(*(sympy.Poly(list(reversed(l_coeffs(h))), x) for h in (f, g)))
    d = d.primitive()[1]
    return _in_l(reversed([int(c) for c in (d if d.LC() > 0 else -d).all_coeffs()]))


class TestUnivarGcd:
    # the remainder sequence of apoly.knots over Z against sympy.gcd

    def test_common_factor(self):
        f, g = L**2 - 1, L - 1
        assert gcd_over_z(f, g) == sympy_gcd(f, g) == L - 1

    def test_coprime(self):
        f = 2 * L**2 + L + 3
        assert gcd_over_z(f, one) == sympy_gcd(f, one) == one

    def test_multiplicities(self):
        f = (L - 1) ** 2 * (L + 2)
        g = (L - 1) * (L + 3)
        assert gcd_over_z(f, g) == sympy_gcd(f, g) == L - 1

    def test_divides_both(self):
        f = (L**2 - 3 * L + 2) * (7 * L + 5)
        g = (L**2 - 3 * L + 2) * (4 * L - 1)
        d = gcd_over_z(f, g)
        assert d == sympy_gcd(f, g)
        assert exact_quotient(f, d) is not None
        assert exact_quotient(g, d) is not None

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=4).filter(any),
           st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any),
           st.lists(st.integers(-9, 9), min_size=1, max_size=5).filter(any))
    @settings(max_examples=100, deadline=None)
    def test_matches_sympy(self, h, f, g):
        f, g = _in_l(f) * _in_l(h), _in_l(g) * _in_l(h)
        assert gcd_over_z(f, g) == sympy_gcd(f, g)


# the grammar's alphabet, a character outside it, and literals at and past
# the 4300-digit bound
GRAMMAR_PIECES = ["M", "L", "^", "*", "+", "-", "(", ")", "0", "1", "2", "7", " ", "\n",
                  "x", "M^", "^2", "9" * 4300, "9" * 4301]


# mostly small exponents, and some at and near the L- and M-exponent bounds
_EXPONENTS = st.one_of(
    st.integers(0, 6), st.integers(0, 6), st.integers(0, 40),
    st.sampled_from([50000, 99999, 100000, 100001, 2**40, 10**4299, 10**4300 - 1]),
)


@st.composite
def metered_texts(draw):
    """Parenthesized powers and products of them, nested up to three deep
    and summed: one-term bases with coefficient +-1 or not, zero, and bases
    of two and three terms."""
    def factor(depth):
        if depth == 0 or draw(st.booleans()):
            text = draw(st.sampled_from(
                ["L-1", "L+M+1", "2*M", "-M*L", "M", "L^3", "L-L", "-1", "3", "M^2*L - L^2"]))
        else:
            text = "*".join(factor(depth - 1) for _ in range(draw(st.integers(1, 3))))
        return f"({text})" + (f"^{draw(_EXPONENTS)}" if draw(st.booleans()) else "")

    return " + ".join(factor(3) for _ in range(draw(st.integers(1, 3))))


@st.composite
def nested_powers(draw):
    """A one-term base raised to a power at each of up to six levels."""
    exponents = draw(st.lists(_EXPONENTS, min_size=1, max_size=6))
    text = draw(st.sampled_from(["M", "L", "-M*L", "M^2*L^3", "-1", "L-L", "2*M"]))
    for e in exponents:
        text = f"({text})^{e}"
    return text + draw(st.sampled_from(["", "*L - 1", " - M"]))


@st.composite
def literal_terms(draw):
    """Sums of terms that multiply integer literals of up to 400 digits,
    zero and one among them, with powers of M and L and, at times, a
    parenthesized factor."""
    def term():
        factors = draw(st.lists(st.sampled_from(
            ["9" * 400, "7" * 200, "3", "0", "1", "M^2", "L", "(L+1)", "(L-M)^3"]),
            min_size=1, max_size=12))
        return "*".join(factors)

    return " - ".join(term() for _ in range(draw(st.integers(1, 3))))


def parse_outcome(parse, text):
    """The terms in order, or the error text with its line and column."""
    try:
        return list(parse(text).terms.items())
    except PolyParseError as exc:
        return str(exc)


class TestGrammar:
    def test_simple(self):
        assert parse_poly("L - 1") == L - one

    def test_expanded_trefoil(self):
        assert parse_poly("L^2*M^6 - L*M^6 + L - 1") == (L - one) * (L * M**6 + one)

    def test_double_plus_rejected(self):
        with pytest.raises(PolyParseError) as exc:
            parse_poly("L + + 1")
        assert exc.value.col == 5

    def test_parenthesized_products(self):
        assert parse_poly("(L-1)*(L+1)") == parse_poly("L^2 - 1")

    def test_error_has_position(self):
        with pytest.raises(PolyParseError) as exc:
            parse_poly("L^2 +\n3 $ 1")
        assert exc.value.line == 2

    def test_trailing_whitespace_does_not_move_end(self):
        with pytest.raises(PolyParseError) as exc:
            parse_poly("L +  \n \t")
        assert (exc.value.line, exc.value.col) == (1, 4)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_error_position_from_offset(self, data):
        # whitespace runs inside the canonical text, then a '$' at index k
        text = format_poly(data.draw(bivar_polys()))
        runs = st.text(alphabet=" \n\t", max_size=3)
        text = "".join(ch + data.draw(runs) for ch in text)
        k = data.draw(st.integers(0, len(text)))
        with pytest.raises(PolyParseError) as exc:
            parse_poly(text[:k] + "$" + text[k:])
        lines = text[:k].split("\n")
        assert str(exc.value).startswith("unexpected character '$'")
        assert (exc.value.line, exc.value.col) == (len(lines), len(lines[-1]) + 1)

    def test_nesting_at_bound_parses(self):
        assert parse_poly("(" * 200 + "L-1" + ")" * 200) == L - one

    @pytest.mark.parametrize("depth", [201, 600])
    def test_nesting_past_bound_rejected(self, depth):
        with pytest.raises(PolyParseError) as exc:
            parse_poly("(" * depth + "L-1" + ")" * depth)
        assert str(exc.value) == "parentheses nested deeper than 200 (line 1, column 201)"

    def test_closed_parentheses_do_not_nest(self):
        assert parse_poly("*".join(["(L)"] * 300)) == L**300

    @given(bivar_polys())
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, p):
        assert parse_poly(format_poly(p)) == p

    @given(poly_expressions())
    @settings(max_examples=100, deadline=None)
    def test_matches_expression_tree(self, expression):
        text, value = expression
        assert parse_poly(text) == value

    def test_expanded_coefficient_at_bound(self):
        # 10^4300 - 1 has 4300 digits and is accepted; (10^2150)^2 has 4301
        assert parse_poly("9" * 4300 + "*L").terms == {(0, 1): 10**4300 - 1}
        with pytest.raises(PolyParseError) as exc:
            parse_poly(f"L + (1{'0' * 2150}*M)^2")
        assert "expanded coefficient of M^2*L^0" in str(exc.value)
        assert (exc.value.line, exc.value.col) == (1, 1)

    @pytest.mark.parametrize(
        "text",
        ["L^100001 - 1", "(L^1000)^101", "L^100000*L", "L^100000000000000000000 - 1",
         "M^3*(L^50001)^2 + 1", "L^2 - 3*M*L^" + "9" * 4300],
    )
    def test_l_exponent_past_bound_rejected(self, text):
        # checked on the sparse terms, at the first token, or at the '^' of a
        # power of one term with coefficient +-1, in both parsers
        column = text.find(")^") + 2 if ")^" in text else 1
        for parse in (parse_poly, parse_poly_by_tokens):
            with pytest.raises(PolyParseError) as exc:
                parse(text)
            assert str(exc.value) == f"expanded L-exponent is above 100000 (line 1, column {column})"

    @pytest.mark.parametrize(
        "text, deg_l",
        [("L^100000 - 1", 100000), ("(L^1000)^100", 100000), ("L^99999*L", 100000),
         ("M^100000000000000000000*L^100000", 100000), ("L^200000 - L^200000 + L", 1)],
    )
    def test_l_exponent_at_bound_accepted(self, text, deg_l):
        # a term that cancels before the end is not checked
        assert parse_poly(text).deg_l() == deg_l

    def test_long_m_exponent_in_coefficient_error(self):
        # an M-exponent past str()'s 4300-digit limit is still written out
        nines = "9" * 4300
        with pytest.raises(PolyParseError) as exc:
            parse_poly(f"M^{nines}*M^{nines}*{nines}*{nines}*L")
        assert f"expanded coefficient of M^{_decimal(2 * (10**4300 - 1))}*L^1" in str(exc.value)

    @pytest.mark.parametrize(
        "text",
        [f"M^{'9' * 4300}*M^{'9' * 4300}*L - 1", f"L + (M^{'9' * 4300})^2",
         f"M^{'9' * 4300}*M - 1", f"(M^{'9' * 4300} + 1)*(M + 1) - 1"],
    )
    def test_m_exponent_past_bound_rejected(self, text):
        # an M-exponent of 4301 digits, at the first token, or at the '^' of
        # a power of one term with coefficient +-1, in both parsers
        column = text.find(")^") + 2 if ")^" in text else 1
        for parse in (parse_poly, parse_poly_by_tokens):
            with pytest.raises(PolyParseError) as exc:
                parse(text)
            assert str(exc.value) == (
                f"expanded M-exponent is longer than 4300 digits (line 1, column {column})"
            )

    def test_m_exponent_at_bound_accepted(self):
        nines = "9" * 4300
        assert parse_poly(f"M^{nines}*L - 1").deg_m() == 10**4300 - 1
        assert parse_poly(f"M^{nines}*M^{nines}*L - M^{nines}*M^{nines}*L + M") == M

    @pytest.mark.parametrize(
        "text, column",
        [("(L-1)^11000000000000000000000000000007", 6), ("(3*M)^1000000000", 6),
         ("L + (L-1)^2047", 10), ("(L+M+1)^200", 8), (f"(M^{'9' * 4300} + L + 1)^100", 4313)],
        ids=["huge-power", "monomial", "binomial", "trinomial", "long-m-exponents"],
    )
    def test_power_past_the_budget(self, text, column):
        # the meter stops the expansion at the '^', in both parsers; the
        # last by its exponent bits, since with 4300-digit exponents a term
        # pair costs far more than its small coefficients
        for parse in (parse_poly, parse_poly_by_tokens):
            with pytest.raises(PolyParseError) as exc:
                parse(text)
            assert str(exc.value) == (
                f"power too large to expand: it passes the parse budget (line 1, column {column})"
            )

    @pytest.mark.parametrize("text", ["(L-1)^1950", "(L+M+1)^115", "(2*M)^65536"])
    def test_powers_within_the_bound_reach_power(self, monkeypatch, text):
        calls = []
        monkeypatch.setattr(grammar, "_power", lambda base, n, mul: calls.append(n) or {})
        parse_poly(text)
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "text, outcome",
        [
            ("(M*L)^99999999999999999999", "expanded L-exponent is above 100000 (line 1, column 6)"),
            ("(L-L)^99999999999999999999", []),
            ("(-M*L^2)^50000", [((50000, 100000), 1)]),
            ("((-M)^3)^3 + (1)^7 + (0)^0", [((9, 0), -1), ((0, 0), 2)]),
            ("(L)^100001 - (L)^100001 + 1", "expanded L-exponent is above 100000 (line 1, column 4)"),
            ("(" * 200 + "M" + (")^" + "9" * 4300) * 200 + "*L - 1",
             "expanded M-exponent is longer than 4300 digits (line 1, column 4505)"),
        ],
        ids=["unit-monomial", "zero", "even-sign", "odd-sign", "cancelled", "nested-200"],
    )
    def test_closed_form_powers(self, monkeypatch, text, outcome):
        # zero and one term with coefficient +-1 are powered without _power
        # and with no charge, and their exponents are checked at the '^':
        # a power past a bound is rejected even when it would cancel
        monkeypatch.setattr(grammar, "_power", lambda base, n, mul: pytest.fail("expanded"))
        monkeypatch.setattr(grammar, "_charge", lambda *args: pytest.fail("charged"))
        for parse in (parse_poly, parse_poly_by_tokens):
            assert parse_outcome(parse, text) == outcome

    def test_power_bound_keeps_results(self):
        assert parse_poly("(L-1)^1950").terms == {
            (0, j): (-1) ** j * comb(1950, j) for j in range(1951)
        }
        assert parse_poly("(L+M+1)^100").terms == {
            (i, j): factorial(100) // (factorial(i) * factorial(j) * factorial(100 - i - j))
            for i in range(101)
            for j in range(101 - i)
        }

    @given(st.lists(st.sampled_from(GRAMMAR_PIECES), max_size=25).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_matches_token_parser(self, text):
        # a power of a power, or a two-digit exponent, is slow in both alike
        assume(len(re.findall(r"\)\s*\^", text)) <= 1)
        assume(not re.search(r"\)\s*\^\s*\d\d", text))
        assert parse_outcome(parse_poly, text) == parse_outcome(parse_poly_by_tokens, text)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("M ^ 2", [((2, 0), 1)]),
            ("1 2", [((0, 0), 2)]),
            ("M2L3", [((1, 1), 6)]),
            ("L^2^3", "unexpected trailing input (line 1, column 4)"),
            ("M--L", "expected a term (line 1, column 3)"),
            ("", "expected a term (line 1, column 1)"),
            ("(" * 201 + "$", "parentheses nested deeper than 200 (line 1, column 201)"),
            ("(L)" * 201 + "$" + "(" * 201, "unexpected character '$' (line 1, column 604)"),
            ("9" * 4301 + " $", "integer literal of 4301 digits is longer than 4300 (line 1, column 1)"),
            ("$ " + "9" * 4301, "unexpected character '$' (line 1, column 1)"),
            ("+", "expected a term (line 1, column 2)"),
        ],
        ids=["spaced-power", "juxtaposed-integers", "juxtaposed-factors", "double-power",
             "double-sign", "empty", "deep-then-bad", "bad-then-deep", "long-then-bad", "bad-then-long", "sign-alone"],
    )
    def test_edge_cases_match_token_parser(self, text, expected):
        assert parse_outcome(parse_poly, text) == expected
        assert parse_outcome(parse_poly_by_tokens, text) == expected

    @given(poly_expressions())
    @settings(max_examples=100, deadline=None)
    def test_adopted_terms_are_valid(self, expression):
        # parse_poly adopts its term dict unchecked: it must be what the
        # checking constructor would have built
        p = parse_poly(expression[0])
        assert BivarPoly(p.terms) == p
        assert all(type(c) is int and c for c in p.terms.values())
        assert all(type(i) is int and type(j) is int and i >= 0 and j >= 0 for i, j in p.terms)

    @pytest.mark.parametrize("n, accepted", [(1448, True), (1449, False)])
    def test_product_bound_at_the_cap(self, monkeypatch, n, accepted):
        # n by 2n pairs of products of under 1024 bits: charged 2n^2 * 2^20
        # against 2^42, so 1448 is the last n inside; both factors are in L,
        # so that the product has 3n - 1 terms, inside the result-size cap
        calls = []
        monkeypatch.setattr(grammar, "_mul_terms", lambda f, g: calls.append((len(f), len(g))) or {})
        left = "(" + " + ".join(f"L^{k}" for k in range(n)) + ")"
        text = left + "*(" + " + ".join(f"L^{k}" for k in range(2 * n)) + ")"
        if accepted:
            assert parse_poly(text).is_zero  # the stub's product
            assert calls == [(n, 2 * n)]
            return
        for parse in (parse_poly, parse_poly_by_tokens):
            with pytest.raises(PolyParseError) as exc:
                parse(text)
            assert str(exc.value) == ("product too large to expand: it passes the parse budget "
                                      f"(line 1, column {len(left) + 2})")
        assert calls == []

    @pytest.mark.parametrize("m, accepted", [(512, True), (513, False)], ids=["at-the-cap", "one-past"])
    def test_result_size_at_the_cap(self, monkeypatch, m, accepted):
        # 512 L-powers times m M-powers have 512 * m terms: 2^18, the cap, is
        # inside, and 512 * 513 is rejected at the second '(' before the
        # product is made, in both parsers
        calls = []
        monkeypatch.setattr(grammar, "_mul_terms", lambda f, g: calls.append((len(f), len(g))) or {})
        left = "(" + " + ".join(f"L^{k}" for k in range(512)) + ")"
        text = left + "*(" + " + ".join(f"M^{k}" for k in range(m)) + ")"
        if accepted:
            assert parse_poly(text).is_zero  # the stub's product
            assert calls == [(512, 512)]
            return
        for parse in (parse_poly, parse_poly_by_tokens):
            with pytest.raises(PolyParseError) as exc:
                parse(text)
            assert str(exc.value) == ("product too large to expand: it can have more than "
                                      f"262144 terms (line 1, column {len(left) + 2})")
        assert calls == []

    def test_sum_at_the_cap(self):
        # one 512 by 512 product, 2^18 terms, parses; a second one with a
        # disjoint support would take the sum past the cap and is rejected
        # at its first token, after it is built, in both parsers
        def product(low):
            return ("(" + " + ".join(f"L^{k}" for k in range(low, low + 512)) + ")*("
                    + " + ".join(f"M^{k}" for k in range(512)) + ")")

        first = product(0)
        assert len(parse_poly(first).terms) == 1 << 18
        text = first + " - " + product(512)
        for parse in (parse_poly, parse_poly_by_tokens):
            with pytest.raises(PolyParseError) as exc:
                parse(text)
            assert str(exc.value) == ("sum too large to expand: it can have more than "
                                      f"262144 terms (line 1, column {len(first) + 4})")

    def test_sum_cap_counts_the_terms_so_far(self, monkeypatch):
        # a cap of 3: each term counts as new, and a cancelled term frees
        # its place; a zero term counts nothing, a product its terms; both
        # parsers agree
        monkeypatch.setattr(grammar, "_MAX_TERMS", 3)
        for parse in (parse_poly, parse_poly_by_tokens):
            assert parse("L + M - L + 1") == M + one
            assert parse("0*(L + M + 1) + L + M + 1") == L + M + one
            for text, column in [("L + M + 1 + L^2", 13), ("L + (M + 1)*(M + 2)", 5)]:
                with pytest.raises(PolyParseError) as exc:
                    parse(text)
                assert str(exc.value) == ("sum too large to expand: it can have more than "
                                          f"3 terms (line 1, column {column})")

    def test_result_size_bound_by_the_exponent_box(self):
        # more term pairs than the cap, but the exponents span a box of
        # (2 * 1023 + 1) * 1 points: inside; and few pairs in a wide box
        wide = "(" + " + ".join(f"L^{k}" for k in range(1024)) + ")"
        assert parse_poly(f"{wide}*{wide}").terms == parse_poly_by_tokens(f"{wide}*{wide}").terms
        assert len(parse_poly("(L^1000 + M^1000)*(L^1000 - M^1000)").terms) == 2

    def test_power_past_the_result_size_cap(self, monkeypatch):
        # the square of 1023 terms spanning a 512 by 512 box has up to 1023^2
        # pairs in a 1023 by 1023 box, both past 2^18: rejected at the '^'
        monkeypatch.setattr(grammar, "_mul_terms", lambda f, g: pytest.fail("multiplied"))
        base = " + ".join([f"L^{k}" for k in range(512)] + [f"M^{k}" for k in range(1, 512)])
        text = f"({base})^2"
        for parse in (parse_poly, parse_poly_by_tokens):
            with pytest.raises(PolyParseError) as exc:
                parse(text)
            assert str(exc.value) == ("power too large to expand: it can have more than "
                                      f"262144 terms (line 1, column {len(base) + 3})")

    @pytest.mark.parametrize(
        "support",
        [{(i, j) for i in range(61) for j in range(61 - i)}, {(0, j) for j in range(861)}],
        ids=["(L+M+1)^60", "(L-1)^860"],
    )
    def test_result_size_cap_keeps_products(self, support):
        # the product of two factors with these supports, as in
        # (L+M+1)^60*(L+M+1)^60 and (L-1)^860*(L-1)^860, has more term pairs
        # than the cap but spans a box inside it
        f = dict.fromkeys(support, 1)
        assert len(f) ** 2 > grammar._MAX_TERMS
        assert grammar._charge(f, f, 0, "product", "", 0) > 0

    @pytest.mark.parametrize("over", [0, 1], ids=["at-the-budget", "one-past"])
    def test_charge_at_the_budget(self, monkeypatch, over):
        # 2048 by 2048 pairs of 2-bit products are charged 2^22 * 1024^2, the
        # budget: a charge equal to it is inside, one unit more is not
        calls = []
        monkeypatch.setattr(grammar, "_mul_terms", lambda f, g: calls.append(1) or {})
        monkeypatch.setattr(grammar, "_PARSE_BUDGET", grammar._PARSE_BUDGET - over)
        factor = "(" + " + ".join(f"L^{k}" for k in range(2048)) + ")"
        text = f"{factor}*{factor}"
        if not over:
            assert parse_poly(text).is_zero
            assert len(calls) == 1
            return
        for parse in (parse_poly, parse_poly_by_tokens):
            with pytest.raises(PolyParseError) as exc:
                parse(text)
            assert str(exc.value).startswith("product too large to expand: ")
        assert calls == []

    @pytest.mark.parametrize(
        "text",
        ["(L-1)^2047", "(L-1)^1000*(L-1)^1000*(L-1)^1000", "(3*M)^1000000000",
         f"(M^{'9' * 4300} - 1)^3000"],
        ids=["power", "product", "monomial", "long-m-exponents"],
    )
    def test_rejected_parse_stays_within_the_budget(self, monkeypatch, text):
        # every charged multiplication but the last is made, their charges
        # sum to at most the budget, and the last would pass it
        def charge(f, g):
            bits = sum(max((abs(c).bit_length() for c in h.values()), default=0) for h in (f, g))
            keys = sum(max((max(key).bit_length() for key in h), default=0) for h in (f, g))
            return len(f) * len(g) * max(bits, 1024) * max(bits, keys, 1024)

        charged, made = [], []
        charge_terms, mul_terms = grammar._charge, grammar._mul_terms
        monkeypatch.setattr(grammar, "_charge", lambda f, g, *args: (
            charged.append(charge(f, g)) or charge_terms(f, g, *args)))
        monkeypatch.setattr(grammar, "_mul_terms", lambda f, g: (
            made.append(charge(f, g)) or mul_terms(f, g)))
        with pytest.raises(PolyParseError):
            parse_poly(text)
        assert made == charged[:-1]
        assert sum(made) <= grammar._PARSE_BUDGET < sum(charged)

    @pytest.mark.parametrize(
        "left, right",
        [
            ("(" + " + ".join(f"L^{k}" for k in range(2048)) + ")", "(L+M+1)^64"),
            ("(31*L - 1)^500", "(31*L - 1)^500"),
            (f"({'9' * 4000}*L + 1)^10", f"({'9' * 4000}*L + 1)^10"),
        ],
        ids=["terms", "pairs-and-bits", "bits"],
    )
    def test_product_bound_before_the_power(self, monkeypatch, left, right):
        # the product is rejected at the right factor's '(', before that
        # factor's '^' in the text, once its power is expanded: _mul_terms
        # runs only for the two powers, once alone and once in parse_poly
        # (the oracle parser imports its own _mul_terms)
        calls = []
        mul_terms = grammar._mul_terms
        monkeypatch.setattr(grammar, "_mul_terms", lambda f, g: calls.append(1) or mul_terms(f, g))
        for factor in (left, right):
            try:
                parse_poly(factor)
            except PolyParseError:  # the bits case: coefficients past 4300 digits
                pass
        alone = len(calls)
        text = f"2*{left} M*{right} + L"
        for parse in (parse_poly, parse_poly_by_tokens):
            with pytest.raises(PolyParseError) as exc:
                parse(text)
            assert str(exc.value) == ("product too large to expand: it passes the parse budget "
                                      f"(line 1, column {len(left) + 6})")
        assert len(calls) == 2 * alone

    def test_triple_product_rejected_at_the_second_factor(self, monkeypatch):
        # once the second power is expanded, before the third is
        calls = []
        mul_terms = grammar._mul_terms
        monkeypatch.setattr(grammar, "_mul_terms", lambda f, g: calls.append(1) or mul_terms(f, g))
        parse_poly("(L-1)^1000")
        alone = len(calls)
        with pytest.raises(PolyParseError) as exc:
            parse_poly("(L-1)^1000*(L-1)^1000*(L-1)^1000")
        assert str(exc.value) == ("product too large to expand: it passes the parse budget "
                                  "(line 1, column 12)")
        assert len(calls) == 3 * alone

    def test_powers_share_one_parse_budget(self, monkeypatch):
        # (L-1)^7 is charged (2*2 + 2*3 + 3*3 + 4*5) * 2^20: with a budget of
        # just that, one is inside and the second is rejected at its '^' in
        # both parsers, and with twice that, two are inside
        monkeypatch.setattr(grammar, "_PARSE_BUDGET", 39 << 20)
        assert parse_poly("(L-1)^7") == (L - one) ** 7
        text = " + ".join(["(L-1)^7"] * 10)
        for parse in (parse_poly, parse_poly_by_tokens):
            with pytest.raises(PolyParseError) as exc:
                parse(text)
            assert str(exc.value) == (
                "power too large to expand: it passes the parse budget (line 1, column 16)"
            )
        monkeypatch.setattr(grammar, "_PARSE_BUDGET", 78 << 20)
        assert parse_poly("(L-1)^7 + (L-1)^7") == 2 * (L - one) ** 7

    @pytest.mark.parametrize("count, accepted", [(2, True), (3, False)])
    def test_products_share_one_parse_budget(self, monkeypatch, count, accepted):
        # a product of two 1448-term factors spends just under half the
        # budget: two are accepted, and the third is rejected at its second
        # '(' (the oracle parser imports its own _mul_terms, which is not
        # stubbed)
        calls = []
        monkeypatch.setattr(grammar, "_mul_terms", lambda f, g: calls.append(1) or {})
        factor = "(" + " + ".join(f"L^{k}" for k in range(1448)) + ")"
        text = " + ".join([f"{factor}*{factor}"] * count)
        if accepted:
            assert parse_poly(text).is_zero  # the stub's products
            assert len(calls) == count
            return
        for parse in (parse_poly, parse_poly_by_tokens):
            with pytest.raises(PolyParseError) as exc:
                parse(text)
            assert str(exc.value) == (
                "product too large to expand: it passes the parse budget "
                f"(line 1, column {2 * (2 * len(factor) + 4) + len(factor) + 2})"
            )
        assert len(calls) == 2

    def test_powers_and_products_share_one_parse_budget(self):
        # the product alone is charged 2^41.85 and each power 2^38.67:
        # 2^42.14 in all
        with pytest.raises(PolyParseError) as exc:
            parse_poly("(L-1)^1000*(L-1)^1000")
        assert str(exc.value) == (
            "product too large to expand: it passes the parse budget (line 1, column 12)"
        )

    def test_products_within_the_bound_keep_results(self):
        assert parse_poly("(L-1)^300*(L+1)^300") == parse_poly("(L^2-1)^300")
        assert parse_poly("2*(L+M)*M*(L-M)^2*(L+1)") == 2 * M * (L + M) * (L - M) ** 2 * (L + one)

    @given(st.one_of(metered_texts(), nested_powers()))
    @settings(max_examples=300, deadline=None)
    def test_meter_matches_token_parser(self, text):
        # under a budget of 2^28, near which these texts fall, both parsers
        # give the same terms in the same order, or the same error
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grammar, "_PARSE_BUDGET", 1 << 28)
            assert parse_outcome(parse_poly, text) == parse_outcome(parse_poly_by_tokens, text)

    def test_long_sum_parses_in_linear_time(self):
        # copying the term dict once per term made this sum take minutes
        text = " + ".join(f"L^{k}" for k in range(20000))
        start = time.perf_counter()
        p = parse_poly(text)
        assert time.perf_counter() - start < 5.0
        assert p.terms == {(0, k): 1 for k in range(20000)}


    @pytest.mark.parametrize("n", [40, 400])
    def test_literal_product_past_the_budget(self, n):
        # a coefficient of b_c bits times a literal of b_n bits is charged
        # 4 * b_c * max(b_n, 1024): 104 literals of 4300 nines are charged
        # just under the budget, and the 105th literal passes it, so 40 reach
        # the expanded-coefficient check; unmetered, the cost was quadratic
        # in n and 400 literals (1.7 MB) took 10.7 s to reach that check
        text = "*".join(["9" * 4300] * n) + "*L"
        if n < 105:
            message = "expanded coefficient of M^0*L^1 is longer than 4300 digits (line 1, column 1)"
        else:
            message = ("product too large to expand: it passes the parse budget "
                       f"(line 1, column {104 * 4301 + 1})")
        for parse in (parse_poly, parse_poly_by_tokens):
            start = time.perf_counter()
            with pytest.raises(PolyParseError) as exc:
                parse(text)
            assert time.perf_counter() - start < 5.0
            assert str(exc.value) == message

    @pytest.mark.parametrize("n, accepted", [(38, True), (39, False)])
    def test_literal_product_times_zero(self, monkeypatch, n, accepted):
        # a later 0 is charged like any literal, 4 * b_c * 1024, and does not
        # undo the charges already made: with a budget of just the charges
        # of 39 literals, the 0 after 38 is inside it and the 0 after 39
        # passes it
        literal = int("9" * 4300)
        charges = [4 * (literal**k).bit_length() * literal.bit_length() for k in range(1, 39)]
        monkeypatch.setattr(grammar, "_PARSE_BUDGET", sum(charges))
        text = "*".join(["9" * 4300] * n) + "*0*L + L"
        for parse in (parse_poly, parse_poly_by_tokens):
            if accepted:
                assert parse(text) == L
            else:
                with pytest.raises(PolyParseError) as exc:
                    parse(text)
                assert str(exc.value) == ("product too large to expand: it passes the parse "
                                          f"budget (line 1, column {39 * 4301 + 1})")

    def test_short_literals_charged_by_the_coefficient(self):
        # a one-digit literal is charged 4 * b_c * 1024, not (b_c + 1024)^2:
        # 22,000 of them after 4299 nines are charged 2^40.2 and parse
        text = "9" * 4299 + "*1" * 22000 + "*L"
        for parse in (parse_poly, parse_poly_by_tokens):
            assert parse(text) == int("9" * 4299) * L

    def test_literal_product_times_parenthesized_factor(self):
        # the term's coefficient times each term of its parenthesized
        # factors is charged too, at the term's first token: unmetered,
        # 39 such literals times 1000 terms took 156 MB before the
        # coefficient check
        factor = "(" + " + ".join(f"L^{j}" for j in range(1000)) + ")"
        text = "L + " + "*".join(["9" * 4300] * 39) + "*" + factor
        for parse in (parse_poly, parse_poly_by_tokens):
            with pytest.raises(PolyParseError) as exc:
                parse(text)
            assert str(exc.value) == ("product too large to expand: it passes the parse budget "
                                      "(line 1, column 5)")

    def test_literals_charged_past_1024_bits(self, monkeypatch):
        # a literal is charged only when the coefficient it multiplies has
        # more than 1024 bits: 150 nines have 499 bits, two 997, three 1495;
        # a literal of 499 bits is charged as one of 1024, four times over
        calls = []
        spend = grammar._spend
        monkeypatch.setattr(grammar, "_spend", lambda s, cost, *args: calls.append(cost) or spend(s, cost, *args))
        for n, bits in ((3, []), (4, [1495]), (6, [1495, 1994, 2492])):
            calls.clear()
            assert parse_poly("*".join(["9" * 150] * n) + "*L") == int("9" * 150) ** n * L
            assert calls == [4 * b * 1024 for b in bits]

    @given(literal_terms())
    @settings(max_examples=200, deadline=None)
    def test_literal_meter_matches_token_parser(self, text):
        # under a budget of 2^26, which five 400-digit literals in one term
        # pass, both parsers give the same terms or the same error
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(grammar, "_PARSE_BUDGET", 1 << 26)
            assert parse_outcome(parse_poly, text) == parse_outcome(parse_poly_by_tokens, text)


class TestParseLeavesNoCycle:
    @pytest.mark.parametrize("parse", [parse_poly, parse_poly_by_tokens])
    def test_no_garbage_left_for_the_collector(self, parse):
        # a recursive closure holds its own cell: each parse left a cycle
        # of the closure, its cells and the token list until a collection
        texts = ["L^2*M^6 - L*M^6 + L - 1", "(L-1)^3*(M+1) - L", "L +", "(L-1", "L^2^3", "x"]
        gc.collect()
        gc.disable()
        try:
            for text in texts:
                try:
                    parse(text)
                except PolyParseError:
                    pass
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestFormat:
    @pytest.mark.parametrize(
        "coeffs, text",
        [
            ([], "0"),
            ([7], "7"),
            ([-3], "-3"),
            ([5, 0, -12], "-12*L^2 + 5"),
            ([1, -2, 0, -1], "-L^3 - 2*L + 1"),
            ([-1, 1], "L - 1"),
            ([0, -1], "-L"),
        ],
    )
    def test_univar_str(self, coeffs, text):
        # a polynomial in L, with no term in M
        assert str(_in_l(coeffs)) == format_poly(_in_l(coeffs)) == text

    @given(st.lists(st.integers(-(10**5000), 10**5000) | st.sampled_from([0, 1, -1]), max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_univar_str_is_format_poly(self, coeffs):
        # a polynomial in L is written by descending L-power, each
        # coefficient in full: the text a unit evaluation's residual has
        parts = []
        for j in range(len(coeffs) - 1, -1, -1):
            c = coeffs[j]
            if c:
                power = {0: "", 1: "L"}.get(j, f"L^{j}")
                digits = str(decimal.Decimal(abs(c)))
                body = power if abs(c) == 1 and power else digits + ("*" + power if power else "")
                parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts) or "+ 0"
        assert str(_in_l(coeffs)) == (text[2:] if text[0] == "+" else "-" + text[2:])

    def test_decimal_past_int_str_limit(self):
        n = 7**20000  # 16,902 digits, past the 4300-digit str() limit
        assert _decimal(n) == str(decimal.Decimal(n))
        assert _decimal(10**4300) == "1" + "0" * 4300
        assert _decimal(0) == "0"

    def test_long_coefficient_written_in_full(self):
        c = 10**8600 + 1
        assert format_poly(BivarPoly({(0, 1): -c})) == f"-{decimal.Decimal(c)}*L"


class TestSymmetryHelpers:
    def test_invert_l(self):
        p = L * M**6 + one
        assert p.invert_l() == M**6 + L

    def test_try_divide_exact(self):
        a = (L - one) * (L * M**6 + one)
        assert exact_quotient(a, L - one) == L * M**6 + one

    def test_try_divide_inexact(self):
        assert exact_quotient(L * M**6 + one, L - one) is None
