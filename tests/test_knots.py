import cmath
import functools
from math import gcd

import numpy as np
import pytest

from apoly.knots import (
    EliminationDegeneracyError,
    TorusKnot,
    TwoBridgeKnot,
    eliminate_two_bridge,
    riley_polynomial,
    sl2_word_eval,
    torus_a,
    two_bridge_presentation,
    unknot_a,
)
from apoly.knots import _longitude_charpoly, _squarefree_bivar
from apoly.poly import BivarPoly, parse_poly
from apoly.structure import abelian_multiplicity

from conftest import (
    L,
    TriPolyInT,
    collect_t,
    rel_residual,
    resultant_t,
    symmetry_check,
    two_bridge_alexander,
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
        TorusKnot(2, 3)
        TorusKnot(-3, 4)
        with pytest.raises(ValueError):
            TorusKnot(2, 4)
        with pytest.raises(ValueError):
            TorusKnot(1, 2)

    def test_two_bridge_validation(self):
        TwoBridgeKnot(5, 3)
        with pytest.raises(ValueError):
            TwoBridgeKnot(4, 1)  # even p
        with pytest.raises(ValueError):
            TwoBridgeKnot(5, 7)  # q out of range
        with pytest.raises(ValueError):
            TwoBridgeKnot(9, 3)  # not coprime


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
        nonab = a.try_divide(L - one)
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
        # square-free as a polynomial in L. 13/1 and 15/11 have repeated
        # factors before the square-free step.
        from apoly.poly import UnivarPoly, gcd_univar

        for p, q in [(7, 3), (13, 1), (15, 11)]:
            a = eliminate_two_bridge(p, q)
            for m0 in (2, 3, 5):
                f = UnivarPoly(
                    [
                        sum(c * m0**i for (i, j), c in a.terms.items() if j == k)
                        for k in range(a.deg_l() + 1)
                    ]
                )
                assert gcd_univar(f, f.derivative()).degree() == 0

    def test_squarefree_removes_repeated_factor(self):
        square = parse_poly("(L*M^3 + 1)^2*(L - M^2)*M^2")
        assert _squarefree_bivar(square).normalize() == parse_poly(
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
                [lam_t[0] - BivarPoly.term(1, dm, 1)] + list(lam_t.coeffs[1:])
            )
            assert (
                _longitude_charpoly(phi, lam).normalize()
                == resultant_t(collect_t(phi)[0], psi).normalize()
            )

    def test_non_unit_leading_coefficient(self):
        phi = {(0, 0): 1, (-1, 1): 2}  # 1 + 2*M^-1*t
        with pytest.raises(EliminationDegeneracyError, match=r"coefficient 2\*M\^-1 "):
            _longitude_charpoly(phi, {(0, 1): 1})


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
