import pytest

from apoly.poly import BivarPoly

from conftest import L, M, TriPolyInT, random_tripoly_coeffs, resultant_t, sylvester_resultant

one = BivarPoly.const(1)


def tri(*coeffs):
    return TriPolyInT(list(coeffs))


class TestResultant:
    def test_linear_difference(self):
        f, g = M * L, L + one
        assert resultant_t(tri(-f, one), tri(-g, one)) == g - f

    def test_substitution(self):
        # Res_t(t^2 - M, t - L) = L^2 - M
        assert resultant_t(tri(-M, BivarPoly.zero(), one), tri(-L, one)) == L * L - M

    def test_constant_case(self):
        # Res_t(t^2 + 1, t^2 - 1) = 4, matching the Sylvester determinant
        p = tri(one, BivarPoly.zero(), one)
        q = tri(-one, BivarPoly.zero(), one)
        expected = sylvester_resultant(list(p.coeffs), list(q.coeffs))
        assert expected == BivarPoly.const(4)
        assert resultant_t(p, q) == expected

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            resultant_t(tri(one), tri(M))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            resultant_t(TriPolyInT([]), tri(one, one))

    def test_against_sylvester_oracle(self, rng):
        for _ in range(60):
            dp = rng.randint(1, 4)
            dq = rng.randint(1, 4)
            pc = random_tripoly_coeffs(rng, dp, 3)
            qc = random_tripoly_coeffs(rng, dq, 3)
            assert resultant_t(TriPolyInT(pc), TriPolyInT(qc)) == sylvester_resultant(pc, qc)

    def test_vanishes_iff_common_root(self):
        # shared factor (t - L) forces a zero resultant
        shared = tri(-L, one)
        prod_p = _mul_tri(shared, tri(M, one))
        prod_q = _mul_tri(shared, tri(-M, one))
        assert resultant_t(prod_p, prod_q).is_zero


def _mul_tri(a, b):
    out = [BivarPoly.zero()] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] = out[i + j] + ca * cb
    return TriPolyInT(out)


class TestTriPoly:
    def test_trims_leading_zeros(self):
        t = TriPolyInT([one, BivarPoly.zero()])
        assert t.degree_t() == 0
