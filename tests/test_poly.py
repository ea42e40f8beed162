import decimal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apoly.poly import (
    BivarPoly,
    PolyParseError,
    UnivarPoly,
    _decimal,
    format_poly,
    gcd_univar,
    parse_poly,
)

from conftest import (
    L,
    M,
    bivar_polys,
    eval_complex,
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


class TestEval:
    def test_eval_m_no_dependence(self):
        assert (L - one).eval_m(1) == UnivarPoly([-1, 1])

    def test_eval_m_substitution(self):
        assert (L * M**6 + one).eval_m(-1) == UnivarPoly([1, 1])

    def test_eval_m_square(self):
        p = parse_poly("M^2*L^2 - 2*M*L + 1")
        assert p.eval_m(1) == UnivarPoly([1, -2, 1])

    @given(bivar_polys(), bivar_polys())
    @settings(max_examples=100, deadline=None)
    def test_eval_m_multiplicative(self, p, q):
        for m in (1, -1, 2, -3):
            assert (p * q).eval_m(m) == p.eval_m(m) * q.eval_m(m)

    @given(bivar_polys(), st.sampled_from([1, -1, 0, 2, -3]))
    @settings(max_examples=100, deadline=None)
    def test_eval_m_matches_term_sum(self, p, m):
        # the value at each L-power is the sum of c * m^i over its terms
        f = p.eval_m(m)
        for j in range(max([len(f.coeffs)] + [j + 1 for _, j in p.terms])):
            assert f[j] == sum(c * m**i for (i, jj), c in p.terms.items() if jj == j)

    def test_eval_complex_on_curve(self):
        assert eval_complex(L - one, 2.7j, 1.0) == 0

    def test_eval_complex_trefoil_point(self):
        assert abs(eval_complex(L * M**6 + one, 1.0, -1.0)) < 1e-12

    def test_eval_complex_zero_poly(self):
        assert eval_complex(BivarPoly.zero(), 3.0 + 1j, -2.0) == 0


class TestSurgerySubstitution:
    def test_no_m_dependence(self):
        assert substitute_surgery(L - one, 3) == UnivarPoly([-1, 1])

    def test_clears_denominator(self):
        assert substitute_surgery(L + M**2, 1) == UnivarPoly([1, 0, 0, 1])

    def test_root_oracle(self):
        # every root v of the substituted polynomial must satisfy
        # p(v^-n, v) = 0
        p = L * M**6 + one
        n = 2
        g = substitute_surgery(p, n)
        for v in np.roots(list(reversed(g.coeffs))):
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
        if g.is_zero or g.degree() == 0:
            return
        for v in np.roots(list(reversed(g.coeffs))):
            v = complex(v)
            if abs(v) < 1e-6:
                continue  # v = 0 is outside C* x C*
            assert rel_residual(p, v ** (-n), v) < 1e-6


class TestUnivarGcd:
    def test_common_factor(self):
        assert gcd_univar(UnivarPoly([-1, 0, 1]), UnivarPoly([-1, 1])) == UnivarPoly([-1, 1])

    def test_coprime(self):
        f = UnivarPoly([3, 1, 2])
        assert gcd_univar(f, UnivarPoly([1])) == UnivarPoly([1])

    def test_multiplicities(self):
        f = UnivarPoly([-1, 1]) ** 2 * UnivarPoly([2, 1])
        g = UnivarPoly([-1, 1]) * UnivarPoly([3, 1])
        assert gcd_univar(f, g) == UnivarPoly([-1, 1])

    def test_divides_both(self):
        f = UnivarPoly([2, -3, 1]) * UnivarPoly([5, 7])
        g = UnivarPoly([2, -3, 1]) * UnivarPoly([-1, 4])
        d = gcd_univar(f, g)
        assert f.try_divide(d) is not None
        assert g.try_divide(d) is not None

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd_univar(UnivarPoly(), UnivarPoly())


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

    def test_long_sum_parses_in_linear_time(self):
        # copying the term dict once per term made this sum take minutes
        text = " + ".join(f"L^{k}" for k in range(20000))
        start = time.perf_counter()
        p = parse_poly(text)
        assert time.perf_counter() - start < 5.0
        assert p.terms == {(0, k): 1 for k in range(20000)}


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
        assert str(UnivarPoly(coeffs)) == text

    def test_decimal_past_int_str_limit(self):
        n = 7**20000  # 16,902 digits, past the 4300-digit str() limit
        assert _decimal(n) == str(decimal.Decimal(n))
        assert _decimal(10**4300) == "1" + "0" * 4300
        assert _decimal(0) == "0"

    def test_long_coefficient_written_in_full(self):
        c = 10**8600 + 1
        assert format_poly(BivarPoly({(0, 1): -c})) == f"-{decimal.Decimal(c)}*L"


class TestTaylorAtL1:
    def test_coefficients(self):
        # (L-1)^2 (L+M) = u^2 (1 + u + M) with L = 1 + u
        a = (L - one) ** 2 * (L + M)
        assert [a.taylor_at_l1(k) for k in range(5)] == [
            BivarPoly(),
            BivarPoly(),
            M + one,
            one,
            BivarPoly(),
        ]

    @given(bivar_polys())
    @settings(max_examples=100, deadline=None)
    def test_derivatives_at_l1(self, p):
        # at each integer M = m, the k-th coefficient is f^(k)(1) / k!
        for m in (-2, 0, 3):
            f, fact = p.eval_m(m), 1
            for k in range(6):
                assert p.taylor_at_l1(k).eval_m(m)(0) * fact == f(1)
                f, fact = f.derivative(), fact * (k + 1)


class TestSymmetryHelpers:
    def test_invert_l(self):
        p = L * M**6 + one
        assert p.invert_l() == M**6 + L

    def test_try_divide_exact(self):
        a = (L - one) * (L * M**6 + one)
        assert a.try_divide(L - one) == L * M**6 + one

    def test_try_divide_inexact(self):
        assert (L * M**6 + one).try_divide(L - one) is None
