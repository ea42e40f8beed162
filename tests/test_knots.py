import cmath
import functools
import os
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from apoly import knots
from apoly.cli import main
from apoly.knots import (
    EliminationDegeneracyError,
    eliminate_two_bridge,
    sl2_word_eval,
    torus_a,
    two_bridge_presentation,
    unknot_a,
)
from apoly.knots import (
    _charpoly,
    _divide,
    _longitude_charpoly,
    _longitude_entry,
    _multiplication_matrix,
    _riley_phi,
    _squarefree_bivar,
)
from apoly.grammar import parse_poly
from apoly.newton import VERTICAL, edge_slopes, newton_polygon
from apoly.poly import BivarPoly, _trim
from apoly.structure import abelian_multiplicity

from conftest import (
    L,
    TriPolyInT,
    alexander_divides_at_l1,
    bivar_in_m,
    charpoly_by_terms,
    collect_t,
    exact_quotient,
    from_l_columns,
    hatcher_thurston_slopes,
    l_columns,
    rel_residual,
    resultant_t,
    riley_curve_points_mod,
    riley_polynomial,
    riley_prime,
    squarefree_by_remainders,
    symmetry_check,
    torus_alexander,
    two_bridge_alexander,
    vanishes_mod,
)

one = BivarPoly.const(1)
TREFOIL = parse_poly("L^2*M^6 - L*M^6 + L - 1")


def numeric_word_eval(word, a_mat, b_mat):
    """Multiply out a generator word over numpy 2x2 matrices (det 1)."""
    mats = {"a": a_mat, "b": b_mat}
    out = np.eye(2, dtype=complex)
    for g, e in word:
        x = mats[g]
        if e < 0:
            x = np.array([[x[1, 1], -x[0, 1]], [-x[1, 0], x[0, 0]]])
        for _ in range(abs(e)):
            out = out @ x
    return out


def riley_roots(p, q, m0):
    """Roots in t of the representation condition at a fixed meridian
    eigenvalue m0, via numpy's companion-matrix solver."""
    phi, pres = riley_polynomial(p, q)
    coeffs = [0j] * (max(k for _, k in phi) + 1)
    for (i, k), c in phi.items():
        coeffs[k] += c * m0**i
    return np.roots(list(reversed(coeffs))), pres


def curve_membership_points(p, q, a, rng, samples):
    """Sample numeric representation points and return their residuals on
    the curve of ``a``: for random meridian eigenvalues, solve the
    representation condition for t, evaluate the longitude word with
    concrete matrices, and plug (M0, L0) into ``a``.
    """
    residuals = []
    while len(residuals) < samples:
        m0 = cmath.exp(1j * rng.uniform(0, 2 * cmath.pi)) * rng.uniform(0.8, 1.25)
        roots, pres = riley_roots(p, q, m0)
        for t0 in roots:
            am = np.array([[m0, 1.0], [0.0, 1.0 / m0]])
            bm = np.array([[m0, 0.0], [t0, 1.0 / m0]])
            lam = numeric_word_eval(pres.longitude, am, bm)
            l0 = lam[0, 0]
            if abs(l0) < 1e-12:
                continue
            residuals.append(rel_residual(a, m0, l0))
            if len(residuals) == samples:
                break
    return residuals


class TestKnotSpecs:
    def test_torus_validation(self):
        torus_a(2, 3)
        torus_a(-3, 4)
        with pytest.raises(ValueError, match="coprime"):
            torus_a(2, 4)
        with pytest.raises(ValueError, match=r"need \|p\| >= 2 and \|q\| >= 2"):
            torus_a(1, 2)
        with pytest.raises(ValueError, match=r"need \|p\| >= 2 and \|q\| >= 2"):
            torus_a(0, 4)  # |p| < 2 before not coprime

    def test_two_bridge_validation(self):
        two_bridge_presentation(5, 3)
        with pytest.raises(ValueError, match="odd and >= 3"):
            two_bridge_presentation(4, 1)  # even p
        with pytest.raises(ValueError, match="odd and >= 3"):
            two_bridge_presentation(4, 6)  # even p before q out of range
        with pytest.raises(ValueError, match="0 < q < p"):
            two_bridge_presentation(5, 7)  # q out of range
        with pytest.raises(ValueError, match="0 < q < p"):
            two_bridge_presentation(9, 12)  # q out of range before not coprime
        with pytest.raises(ValueError, match="coprime"):
            two_bridge_presentation(9, 3)  # not coprime


class TestPresentation:
    def test_trefoil_signs(self):
        pres = two_bridge_presentation(3, 1)
        assert pres.sign_sequence == (1, 1)
        assert pres.w == (("b", 1), ("a", 1))

    def test_figure_eight_signs(self):
        pres = two_bridge_presentation(5, 3)
        assert pres.sign_sequence == (1, -1, -1, 1)

    def test_longitude_exponent_sum_zero(self):
        for p, q in [(3, 1), (5, 3), (7, 3), (9, 5)]:
            pres = two_bridge_presentation(p, q)
            assert sum(e for _, e in pres.longitude) == 0

    def test_sign_sequence_palindrome(self):
        # the premise of reading Wbar off W: reverse(w) is wbar
        knots_seen = 0
        for p in range(3, 26, 2):
            for q in range(1, p):
                if gcd(p, q) == 1:
                    pres = two_bridge_presentation(p, q)
                    assert pres.sign_sequence == pres.sign_sequence[::-1], (p, q)
                    n = len(pres.w)
                    assert tuple(reversed(pres.w)) == pres.longitude[n : 2 * n], (p, q)
                    knots_seen += 1
        assert knots_seen == 136


class TestAlexanderOracle:
    """The Alexander polynomial, read off the sign sequence, checks the
    presentation and the Riley polynomial against numbers that do not
    depend on either."""

    @pytest.mark.parametrize("p", range(3, 42, 2))
    def test_determinant_and_value_at_one(self, p):
        # |Delta(-1)| is the knot determinant p, and |Delta(1)| = 1
        for q in range(1, p):
            if gcd(p, q) == 1:
                delta = two_bridge_alexander(two_bridge_presentation(p, q))
                assert abs(sum(delta.values())) == 1, (p, q)
                assert abs(sum(c * (-1) ** k for k, c in delta.items())) == p, (p, q)

    @pytest.mark.parametrize("p", range(3, 22, 2))
    def test_riley_at_t_zero_is_delta_of_m_squared(self, p):
        # t = 0 gives the reducible representations: phi(M, 0) = +/- M^k Delta(M^2)
        # (Burde 1967; de Rham 1967)
        for q in range(1, p):
            if gcd(p, q) != 1:
                continue
            phi, pres = riley_polynomial(p, q)
            at_zero = {i: c for (i, k), c in phi.items() if k == 0}
            low = min(at_zero)
            at_zero = {i - low: c for i, c in at_zero.items()}
            delta = two_bridge_alexander(pres)
            sign = 1 if at_zero[max(at_zero)] * delta[max(delta)] > 0 else -1
            assert at_zero == {2 * k: sign * c for k, c in delta.items()}, (p, q)

    @pytest.mark.parametrize("p", range(3, 18, 2))
    def test_delta_divides_nonabelian_part_at_l1(self, p):
        # the whole elimination: Delta(M^2)'s square-free part divides A'(M, 1)
        for q in range(1, p):
            if gcd(p, q) == 1:
                delta = two_bridge_alexander(two_bridge_presentation(p, q))
                assert alexander_divides_at_l1(eliminate_cached(p, q), delta), (p, q)

    def test_torus_delta_divides_nonabelian_part_at_l1(self):
        cases = [(a, b) for a in range(2, 8) for b in range(a + 1, 12) if gcd(a, b) == 1]
        for a, b in cases:
            assert alexander_divides_at_l1(torus_a(a, b), torus_alexander(a, b)), (a, b)
        assert torus_alexander(2, 3) == {0: 1, 1: -1, 2: 1}


# Laurent polynomials in M and t: {(M-exponent, t-exponent): coefficient}
ONE = {(0, 0): 1}
IDENTITY = ((ONE, {}), ({}, ONE))
A_MAT = (({(1, 0): 1}, ONE), ({}, {(-1, 0): 1}))
B_MAT = (({(1, 0): 1}, {}), ({(0, 1): 1}, {(-1, 0): 1}))


def laurent_product(f, g):
    out = {}
    for (i1, k1), c1 in f.items():
        for (i2, k2), c2 in g.items():
            out[(i1 + i2, k1 + k2)] = out.get((i1 + i2, k1 + k2), 0) + c1 * c2
    return out


class TestWordEval:
    def test_identity_on_empty_word(self):
        assert sl2_word_eval((), {}) == IDENTITY

    def test_inverse_cancels(self):
        assert sl2_word_eval((("a", 1), ("a", -1)), {"a": A_MAT}) == IDENTITY
        assert sl2_word_eval((("b", -2), ("b", 2)), {"b": B_MAT}) == IDENTITY

    def test_determinant_one(self):
        word = (("a", 1), ("b", -1), ("a", 2), ("b", 1))
        (x00, x01), (x10, x11) = sl2_word_eval(word, {"a": A_MAT, "b": B_MAT})
        det = laurent_product(x00, x11)
        for key, c in laurent_product(x01, x10).items():
            det[key] = det.get(key, 0) - c
        assert {key: c for key, c in det.items() if c} == ONE

    def test_unknown_generator(self):
        with pytest.raises(KeyError):
            sl2_word_eval((("c", 1),), {})


class TestUnknot:
    def test_value(self):
        assert unknot_a() == L - one


class TestTorus:
    def test_trefoil(self):
        assert torus_a(2, 3) == TREFOIL

    def test_both_odd(self):
        a = torus_a(3, 4)
        # (L-1)(L M^12 + 1)(L M^12 - 1)
        assert a == (parse_poly("(L-1)*(L*M^12+1)*(L*M^12-1)")).normalize()

    def test_mirror(self):
        a = torus_a(2, -3)
        assert a == parse_poly("(L-1)*(L+M^6)").normalize()

    def test_matches_elimination(self):
        for k in (1, 2, 3):
            p = 2 * k + 1
            assert torus_a(2, p) == eliminate_two_bridge(p, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            torus_a(2, 4)


class TestElimination:
    def test_trefoil(self):
        assert eliminate_two_bridge(3, 1) == TREFOIL

    def test_abelian_factor_once(self):
        for p, q in [(3, 1), (5, 3), (7, 3)]:
            assert abelian_multiplicity(eliminate_two_bridge(p, q)) == 1

    def test_figure_eight_shape(self):
        a = eliminate_two_bridge(5, 3)
        nonab = exact_quotient(a, L - one)
        assert nonab is not None
        assert nonab.deg_m() == 8
        holds, _ = symmetry_check(nonab)
        assert holds

    def test_normal_form_output(self):
        for p, q in [(5, 1), (7, 5)]:
            a = eliminate_two_bridge(p, q)
            assert a.normalize() == a

    def test_squarefree_output(self):
        # specialize at several integer M values; the result must be
        # square-free as a polynomial in L, by sympy. 13/1 and 15/11 have
        # repeated factors before the square-free step.
        x = sympy.Symbol("L")
        for p, q in [(7, 3), (13, 1), (15, 11)]:
            a = eliminate_two_bridge(p, q)
            for m0 in (2, 3, 5):
                f = sympy.Poly(sum(c * m0**i * x**j for (i, j), c in a.terms.items()), x)
                assert sympy.gcd(f, f.diff(x)).degree() == 0

    def test_squarefree_removes_repeated_factor(self):
        square = l_columns(parse_poly("(L*M^3 + 1)^2*(L - M^2)*M^2"))
        assert from_l_columns(_squarefree_bivar(square)).normalize() == parse_poly(
            "(L*M^3 + 1)*(L - M^2)"
        ).normalize()

    def test_charpoly_matches_resultant(self):
        # the characteristic polynomial of multiplication by the longitude
        # entry equals Res_t(phi, lambda - L) up to sign and a power of M
        for p, q in [(3, 1), (5, 3), (7, 3), (7, 2), (9, 4)]:
            phi, pres = riley_polynomial(p, q)
            lam = sl2_word_eval(pres.longitude, {"a": A_MAT, "b": B_MAT})[0][0]
            lam_t, dm = collect_t(lam)
            psi = TriPolyInT(
                [lam_t[0] - BivarPoly({(dm, 1): 1})] + list(lam_t.coeffs[1:])
            )
            assert (
                from_l_columns(_longitude_charpoly(phi, lam)).normalize()
                == resultant_t(collect_t(phi)[0], psi).normalize()
            )

    @pytest.mark.parametrize("p", range(3, 26, 2))
    def test_longitude_entry_matches_word(self, p):
        # lambda = M^(-2e) (W_11 W_22(1/M, t) + W_12 W_21(1/M, t)) against
        # the full longitude word w wbar a^(-2e), for all 136 knots with
        # p <= 25
        mats = {"a": A_MAT, "b": B_MAT}
        for q in range(1, p):
            if gcd(p, q) == 1:
                pres = two_bridge_presentation(p, q)
                expected = sl2_word_eval(pres.longitude, mats)[0][0]
                assert _longitude_entry(pres, sl2_word_eval(pres.w, mats)) == expected, (p, q)

    def test_riley_condition_read_off_w(self):
        # phi = (M - 1/M) W_12 + W_22 against (a W - W b)_12 with a*w and
        # w*b evaluated in full, for all 136 knots with p <= 25
        knots_seen = 0
        for p in range(3, 26, 2):
            for q in range(1, p):
                if gcd(p, q) == 1:
                    phi, pres = riley_polynomial(p, q)
                    assert _riley_phi(sl2_word_eval(pres.w, {"a": A_MAT, "b": B_MAT})) == phi, (p, q)
                    knots_seen += 1
        assert knots_seen == 136

    @pytest.mark.parametrize("p", range(3, 14, 2))
    def test_charpoly_matches_berkowitz_by_terms(self, p):
        for q in range(1, p):
            if gcd(p, q) == 1:
                pres = two_bridge_presentation(p, q)
                lam = _longitude_entry(pres, sl2_word_eval(pres.w, {"a": A_MAT, "b": B_MAT}))
                matrix, _ = _multiplication_matrix(riley_polynomial(p, q)[0], lam)
                expected = charpoly_by_terms(matrix)
                assert [bivar_in_m(c) for c in _charpoly(matrix)] == expected, (p, q)

    def test_one_word_evaluated(self, monkeypatch):
        # W = eval(w) serves phi and lambda: wbar is read off W
        calls = []
        word_eval = knots.sl2_word_eval
        monkeypatch.setattr(knots, "sl2_word_eval",
                            lambda word, mats: calls.append(word) or word_eval(word, mats))
        for p, q in [(3, 1), (5, 3), (7, 2), (9, 4)]:
            calls.clear()
            eliminate_two_bridge(p, q)
            assert calls == [two_bridge_presentation(p, q).w], (p, q)

    def test_rejects_p_above_bound(self, monkeypatch):
        # rejected before any word is evaluated; the presentation still exists
        def fail(*args):
            raise AssertionError("evaluated a word")

        monkeypatch.setattr(knots, "sl2_word_eval", fail)
        with pytest.raises(ValueError, match=r"p = 27 is above the largest accepted, 25"):
            eliminate_two_bridge(27, 5)
        assert len(two_bridge_presentation(41, 3).w) == 40

    def test_non_unit_leading_coefficient(self):
        phi = {(0, 0): 1, (-1, 1): 2}  # 1 + 2*M^-1*t
        with pytest.raises(EliminationDegeneracyError, match=r"coefficient 2\*M\^-1 "):
            _longitude_charpoly(phi, {(0, 1): 1})


# entries of a _charpoly matrix: zero, constants, and dense lists whose
# zeros include the low ones of a shifted entry and the odd ones of a
# polynomial in M^2
_entries = st.one_of(
    st.just([]),
    st.integers(-9, 9).map(lambda c: _trim([c])),
    st.lists(st.integers(-9, 9), max_size=7).map(_trim),
    st.lists(st.integers(-50, 50), max_size=4).map(lambda cs: _trim([0, 0, 0, *cs])),
    st.lists(st.integers(-9, 9), max_size=4).map(
        lambda cs: _trim([c for x in cs for c in (x, 0)])
    ),
)


@st.composite
def coefficient_list_matrices(draw):
    n = draw(st.integers(1, 7))
    return [[draw(_entries) for _ in range(n)] for _ in range(n)]


class TestCharpoly:
    def test_two_by_two(self):
        # det(x I - [[M, 1], [2, 3]]) = x^2 - (M + 3) x + 3M - 2
        assert _charpoly([[[0, 1], [1]], [[2], [3]]]) == [[1], [-3, -1], [-2, 3]]

    @given(coefficient_list_matrices())
    @settings(max_examples=100, deadline=None)
    def test_matches_berkowitz_by_terms(self, matrix):
        result = _charpoly(matrix)
        assert all(not c or c[-1] for c in result)  # no trailing zero
        assert [bivar_in_m(c) for c in result] == charpoly_by_terms(matrix)


def eliminant(p, q):
    """The two-bridge knot p/q's characteristic polynomial before the
    square-free step, as l_columns lists."""
    pres = two_bridge_presentation(p, q)
    w = sl2_word_eval(pres.w, knots._NORMAL_FORM)
    return _longitude_charpoly(_riley_phi(w), _longitude_entry(pres, w))


@st.composite
def unit_led_polys(draw):
    """A BivarPoly of L-degree 1 or 2 whose leading L-coefficient is +-M^j."""
    low = draw(st.lists(st.lists(st.integers(-4, 4), max_size=3), min_size=1, max_size=2))
    lead = [0] * draw(st.integers(0, 2)) + [draw(st.sampled_from([1, -1]))]
    return from_l_columns(low + [lead])


# the 22 knots with p <= 21 whose eliminant has a repeated factor: p/1 from
# p = 5, 15/4, 21/8 and their mirrors p/(p - 1), 15/11 and 21/13
REPEATED = sorted({(p, q) for p in range(5, 22, 2) for q in (1, p - 1)}
                  | {(15, 4), (15, 11), (21, 8), (21, 13)})


class TestSquarefree:
    """The square-free step reads gcd(r, dr/dL) off r at one integer M and
    certifies it by exact division; the primitive remainder sequence over
    Z[M] (conftest.squarefree_by_remainders) is the oracle."""

    @pytest.mark.parametrize("p, q", REPEATED, ids=[f"{p}/{q}" for p, q in REPEATED])
    def test_matches_remainders_on_knots(self, p, q):
        r = eliminant(p, q)
        result = _squarefree_bivar(r)
        assert len(result) < len(r)
        assert (from_l_columns(result).normalize()
                == from_l_columns(squarefree_by_remainders(r)).normalize())

    @given(unit_led_polys(), unit_led_polys(), st.integers(2, 3))
    @settings(max_examples=150, deadline=None)
    def test_matches_remainders_on_products(self, a, b, k):
        r = l_columns(a * b**k)
        assert (from_l_columns(_squarefree_bivar(r)).normalize()
                == from_l_columns(squarefree_by_remainders(r)).normalize())

    def test_divide(self):
        f = [[0, -2], [-2, 0, 1], [0, 1]]  # (L + M) (M L - 2)
        assert _divide(f, [[0, 1], [1]]) == [[-2], [0, 1]]
        assert _divide(f, [[2], [0, -1]]) == [[0, -1], [-1]]  # by -(M L - 2)
        assert _divide(f, [[1], [1]]) is None  # a nonzero remainder
        assert _divide([[1], [1]], [[1], [0, 1]]) is None  # 1 is not a multiple of M
        assert _divide([[1], [3], [2]], [[1], [2]]) is None  # 2 L + 1 divides, 2 is no unit
        assert _divide(f, [[0, 1], [1, 1]]) is None  # a leading coefficient M + 1

    def test_uncertified_gcd_raises(self, monkeypatch, capsys):
        # a wrong gcd over Z at every point: no candidate divides both
        monkeypatch.setattr(knots, "_remainder_gcd", lambda f, g: [3, 1])
        with pytest.raises(EliminationDegeneracyError, match="square-free step"):
            _squarefree_bivar(l_columns(parse_poly("(L*M^3 + 1)^2*(L - M^2)")))
        assert main(["compute", "--two-bridge", "5", "1"]) == 1
        assert capsys.readouterr().out.startswith("error: the square-free step")

    def test_27_8_with_the_bound_lifted(self, monkeypatch):
        # its eliminant, of L-degree 13 and M-degree 300, is not square-free
        monkeypatch.setattr(knots, "MAX_TWO_BRIDGE_P", 27)
        start = time.perf_counter()
        a = eliminate_two_bridge(27, 8)
        elapsed = time.perf_counter() - start
        prime = riley_prime(27)
        assert a.deg_l() == 12
        assert vanishes_mod(a, riley_curve_points_mod(27, 8, prime), prime)
        assert elapsed < 30.0


# the knots with p <= 15, both parities of q
SMALL_KNOTS = [(p, q) for p in range(3, 16, 2) for q in range(1, p) if gcd(p, q) == 1]


class TestModPOracle:
    """A(m, lambda) = 0 mod P on Riley's curve, found by brute force over
    F_P with plain-int matrices (conftest.riley_curve_points_mod), at
    m = 2..29 and the smallest prime P >= 101 with P = 1 (mod 2p)."""

    @pytest.mark.parametrize("p, q", SMALL_KNOTS, ids=[f"{p}/{q}" for p, q in SMALL_KNOTS])
    def test_vanishes_on_curve_points(self, p, q):
        prime = riley_prime(p)
        points = riley_curve_points_mod(p, q, prime)
        assert len(points) >= 20
        assert vanishes_mod(eliminate_two_bridge(p, q), points, prime)

    def test_all_small_knots(self):
        assert len(SMALL_KNOTS) == 48
        assert [riley_prime(p) for p in range(3, 16, 2)] == [103, 101, 113, 109, 199, 131, 151]

    def test_other_knot_fails(self):
        # negative control: 13/3's A-polynomial on 13/5's curve points
        prime = riley_prime(13)
        points = riley_curve_points_mod(13, 5, prime)
        assert not vanishes_mod(eliminate_two_bridge(13, 3), points, prime)


def test_import_loads_no_structure():
    # the elimination tests its abelian factor on its own coefficient lists
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, apoly.knots; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    modules = proc.stdout.split()
    assert "apoly.knots" in modules and "apoly.structure" not in modules


class TestCurveMembershipOracle:
    """Independent check of the elimination route: numerically computed
    representation points must lie on the eliminated curve."""

    def test_trefoil(self, rng):
        for r in curve_membership_points(3, 1, eliminate_two_bridge(3, 1), rng, 10):
            assert r < 1e-8

    def test_figure_eight(self, rng):
        a = eliminate_two_bridge(5, 3)
        for r in curve_membership_points(5, 3, a, rng, 10):
            assert r < 1e-8

    def test_seven_three(self, rng):
        a = eliminate_two_bridge(7, 3)
        for r in curve_membership_points(7, 3, a, rng, 6):
            assert r < 1e-7


eliminate_cached = functools.lru_cache(maxsize=None)(eliminate_two_bridge)


def coprime_pairs(p_max):
    return [
        (p, q) for p in range(3, p_max + 1, 2) for q in range(1, p) if gcd(p, q) == 1
    ]


class TestSchubertOracles:
    """Two-bridge knots p/q and p/q' are equal when q*q' = 1 (mod p) and
    mirror images when q*q' = -1 (mod p); mirroring inverts L."""

    def test_even_q_is_mirror_of_odd(self):
        cases = [(p, q) for p, q in coprime_pairs(15) if q % 2 == 0]
        assert len(cases) == 24
        for p, q in cases:
            mirror = eliminate_cached(p, p - q).invert_l().normalize()
            assert eliminate_cached(p, q) == mirror, (p, q)

    def test_inverse_q_same_knot(self):
        for p, q in coprime_pairs(15):
            q_inv = pow(q, -1, p)
            if q < q_inv:
                assert eliminate_cached(p, q) == eliminate_cached(p, q_inv), (p, q)

    def test_negative_inverse_q_is_mirror(self):
        cases = [(p, q, -pow(q, -1, p) % p) for p, q in coprime_pairs(13)]
        cases = [(p, q, qm) for p, q, qm in cases if q % 2 == qm % 2 == 1 and q <= qm]
        # includes the amphichiral 5/3 and 13/5
        assert cases == [(5, 3, 3), (9, 5, 7), (11, 3, 7), (13, 5, 5), (13, 7, 11)]
        for p, q, qm in cases:
            mirror = eliminate_cached(p, q).invert_l().normalize()
            assert eliminate_cached(p, qm) == mirror, (p, q)


def boundary_slopes(a):
    """The boundary slopes that A's Newton polygon gives: the reciprocal of
    each edge slope dL/dM, 0 for a vertical edge and None for a horizontal
    one (Cooper-Culler-Gillet-Long-Shalen, Invent. Math. 1994)."""
    return {
        0 if s == VERTICAL else (1 / s if s else None)
        for s in edge_slopes(newton_polygon(a))
    }


class TestBoundarySlopes:
    """Every side of the Newton polygon has a boundary slope, and Hatcher
    and Thurston list a two-bridge knot's boundary slopes from its
    continued fractions."""

    def test_known_sets(self):
        assert hatcher_thurston_slopes(5, 1) == {0, 10}
        assert hatcher_thurston_slopes(5, 3) == {-4, 0, 4}
        assert hatcher_thurston_slopes(7, 3) == {0, 4, 10}
        assert hatcher_thurston_slopes(13, 5) == {0, 2, -2, 6, -6}

    @pytest.mark.parametrize("p", range(3, 22, 2))
    def test_edge_slopes_are_boundary_slopes(self, p):
        # every knot with p <= 21, both parities of q
        for q in range(1, p):
            if gcd(p, q) == 1:
                slopes = boundary_slopes(eliminate_cached(p, q))
                assert slopes <= hatcher_thurston_slopes(p, q), (p, q, slopes)

    def test_torus_knots(self):
        # the (a, b) torus knot has boundary slopes 0 and ab, the sign that
        # of ab; the two-bridge knot p/1 is the (2, p) torus knot
        for a, b in [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5), (3, 7), (-2, 3), (3, -5)]:
            assert boundary_slopes(torus_a(a, b)) == {0, a * b}, (a, b)
        for p in range(3, 22, 2):
            assert hatcher_thurston_slopes(p, 1) <= {0, 2 * p, -2 * p}, p
            assert boundary_slopes(eliminate_cached(p, 1)) <= {0, 2 * p, -2 * p}, p
