from importlib import resources
from math import gcd, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from apoly.db import DbRecord, load_table, verify_all
from apoly.knots import torus_a
from apoly.grammar import parse_poly
from apoly.poly import BivarPoly, _in_l
from apoly.recognition import (
    CyclotomicProfile,
    Violation,
    cyclotomic,
    cyclotomic_candidates,
    euler_phi,
    is_product_of_cyclotomics,
    mdeg_trivial_decomposition,
)
from apoly.structure import (
    FAIL,
    PASS,
    UNKNOT_OK,
    UnitEvalFailure,
    UnitEvaluationForm,
    abelian_multiplicity,
    analyze,
    check_unit_evaluation,
)
from apoly import recognition, structure
from apoly.recognition import _cyclotomic_value, _moebius_pairs
from apoly.structure import _strip_root, _synthetic_div
from conftest import (
    L,
    M,
    abelian_multiplicity_by_division,
    analyze_by_passes,
    bivar_polys,
    cyclotomic_by_division,
    is_product_of_cyclotomics_by_exponents,
    is_product_of_cyclotomics_by_scan,
    l_coeffs,
    l_lead,
    l_value,
    reconstruct_profile,
    reconstruct_unit_form,
    symmetry_check,
    unit_evaluation_by_division,
)

one = BivarPoly.const(1)
TREFOIL = parse_poly("L^2*M^6 - L*M^6 + L - 1")
NOT_CYCLOTOMIC = "not a product of cyclotomic polynomials"
# torus knot parameters with their mirrors (one parameter negated)
TORUS_GRID = [
    (sp * p, q)
    for p in (2, 3, 4, 5, 7)
    for q in (3, 5, 7, 9, 11)
    for sp in (1, -1)
    if p != q and gcd(p, q) == 1
]


class TestCyclotomic:
    def test_first(self):
        assert cyclotomic(1) == L - 1

    def test_second(self):
        assert cyclotomic(2) == L + 1

    def test_sixth(self):
        assert cyclotomic(6) == L**2 - L + 1
        prod = cyclotomic(1) * cyclotomic(2) * cyclotomic(3) * cyclotomic(6)
        assert prod == L**6 - 1

    def test_degree_is_phi(self):
        for d in range(1, 40):
            assert cyclotomic(d).deg_l() == euler_phi(d) == sympy.totient(d)

    def test_matches_divisor_construction(self):
        # and squarefree orders with many primes, whose Moebius products
        # have the most factors
        for d in [*range(1, 401), 462, 1155, 2310]:
            assert cyclotomic(d) == cyclotomic_by_division(d)

    def test_matches_sympy(self):
        x = sympy.Symbol("L")
        for d in range(1, 101):
            expected = sympy.Poly(sympy.cyclotomic_poly(d, x), x).all_coeffs()[::-1]
            assert cyclotomic(d) == _in_l([int(c) for c in expected]), d

    def test_values_match_horner(self):
        for d in range(1, 401):
            for x in (2, 3):
                assert _cyclotomic_value(_moebius_pairs(d), x) == l_value(cyclotomic(d), x)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            cyclotomic(0)

    def test_candidate_bound_complete(self):
        cands = cyclotomic_candidates(4)
        # phi(d) <= 4 exactly for these orders
        assert cands == [1, 2, 3, 4, 5, 6, 8, 10, 12]
        # against the scan over d <= 2*D^2 + 1, which phi(d) >= sqrt(d/2) bounds
        phi = [0] + list(sympy.sieve.totientrange(1, 2 * 150 * 150 + 2))
        for degree in list(range(61)) + [150]:
            scan = [d for d in range(1, 2 * degree * degree + 2) if phi[d] <= degree]
            assert cyclotomic_candidates(degree) == scan


class TestRecognition:
    def test_abelian_pair(self):
        prof = is_product_of_cyclotomics(L**2 - 1)  # (L-1)(L+1)
        assert isinstance(prof, CyclotomicProfile)
        assert prof.factors == ((1, 1), (2, 1))
        assert prof.sign == 1

    def test_third_order(self):
        prof = is_product_of_cyclotomics(L**2 + L + 1)
        assert prof.factors == ((3, 1),)

    def test_fourth_order(self):
        prof = is_product_of_cyclotomics(L**2 + 1)
        assert prof.factors == ((4, 1),) and prof.sign == 1

    def test_mixed_residual(self):
        # a cyclotomic factor does not carry a non-cyclotomic one through
        out = is_product_of_cyclotomics(cyclotomic(3) * (L - 2))
        assert out == Violation(NOT_CYCLOTOMIC)

    def test_nonunit_rejected(self):
        out = is_product_of_cyclotomics(L - 2)
        assert out == Violation(NOT_CYCLOTOMIC)

    def test_nonmonic_rejected(self):
        out = is_product_of_cyclotomics(2 * L - 1)
        assert out == Violation(NOT_CYCLOTOMIC)

    def test_negative_sign(self):
        prof = is_product_of_cyclotomics(-cyclotomic(4))
        assert prof.factors == ((4, 1),) and prof.sign == -1

    def test_constant(self):
        assert is_product_of_cyclotomics(BivarPoly.const(-1)).factors == ()

    def test_term_in_m_rejected(self):
        with pytest.raises(ValueError, match="L alone"):
            is_product_of_cyclotomics(M * L - 1)

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, orders):
        f = one
        for d in orders:
            f = f * cyclotomic(d)
        prof = is_product_of_cyclotomics(f)
        assert isinstance(prof, CyclotomicProfile)
        expected = sorted(set(orders))
        assert [d for d, _ in prof.factors] == expected
        assert {d: m for d, m in prof.factors} == {
            d: orders.count(d) for d in expected
        }
        assert reconstruct_profile(prof) == f

    def test_rejects_off_circle_root(self, rng):
        import numpy as np

        hits = 0
        while hits < 25:
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 6))] + [1]
            f = _in_l(coeffs)
            if f.deg_l() < 1:
                continue
            roots = np.roots(list(reversed(l_coeffs(f))))
            if not any(abs(abs(z) - 1) > 1e-6 for z in roots):
                continue
            hits += 1
            out = is_product_of_cyclotomics(f)
            assert isinstance(out, Violation) and out.reason == NOT_CYCLOTOMIC

    @given(
        st.lists(st.integers(min_value=1, max_value=30), max_size=4),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    @settings(max_examples=100, deadline=None)
    def test_roots_two_and_three_rejected(self, orders, at2, at3):
        f = (L - 2) ** at2 * (L - 3) ** at3
        for d in orders:
            f = f * cyclotomic(d)
        out = is_product_of_cyclotomics(f)
        if at2 or at3:
            assert out == Violation(NOT_CYCLOTOMIC)
        else:
            assert reconstruct_profile(out) == f

    def test_roots_two_and_three_open_no_filter(self, monkeypatch):
        # f(2) = 0 and f(3) = 0 would pass both filters for every order, and
        # each Phi_d would be tried: hundreds of divisions. L^400 - 1 takes
        # 14, the 13 orders d > 2 that divide 400 and one that fails (L - 1
        # and L + 1 come off by synthetic division). A factor that is not
        # palindromic, such as L - 2, L - 3, Selmer's L^4 - L - 1 or L^2,
        # is rejected before any division and before the candidate rows
        plain = L**400 - 1
        expected = is_product_of_cyclotomics(plain)
        divisions, rows = [], []
        divide, candidate_rows = recognition._moebius_product, recognition._candidate_rows
        monkeypatch.setattr(
            recognition, "_moebius_product",
            lambda f, pairs, power: divisions.append(pairs) or divide(f, pairs, power),
        )
        monkeypatch.setattr(
            recognition, "_candidate_rows",
            lambda degree: rows.append(degree) or candidate_rows(degree),
        )
        assert is_product_of_cyclotomics(plain) == expected
        assert (len(divisions), len(rows)) == (14, 1)
        for other in (L - 2, (L - 3) ** 2, (L - 2) * (L - 3), L**4 - L - 1, L**2):
            divisions.clear()
            rows.clear()
            assert is_product_of_cyclotomics(plain * other) == Violation(NOT_CYCLOTOMIC)
            assert divisions == rows == []

    def test_squarefree_order_with_many_primes(self):
        # L^2310 - 1 is the product of Phi_d over the 32 divisors of 2310
        prof = is_product_of_cyclotomics(L**2310 - 1)
        assert prof.factors == tuple((d, 1) for d in range(1, 2311) if 2310 % d == 0)
        assert len(prof.factors) == 32 and prof.sign == 1

    def test_filter_values_divided_not_evaluated(self, monkeypatch):
        # f = Phi_d * q gives f(x) = Phi_d(x) * q(x): f(2) and f(3) once each
        calls = []
        horner = recognition._horner
        monkeypatch.setattr(recognition, "_horner", lambda f, x: calls.append(x) or horner(f, x))
        prof = is_product_of_cyclotomics(L**400 - 1)
        assert len(prof.factors) == 15
        assert calls == [2, 3]


# products of cyclotomic polynomials with, at times, a power of L, roots 2
# and 3, a Selmer factor L^k - L - 1 (irreducible, not cyclotomic), a
# palindromic monic factor that is not cyclotomic, L^2 - 3L + 1 or Lehmer's
# L^10 + L^9 - L^7 - L^6 - L^5 - L^4 - L^3 + L + 1, and a sign; dense from
# several orders, or sparse from L^n - 1 or L^n + 1
LEHMER = _in_l([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
CYCLOTOMIC_PRODUCTS = st.builds(
    lambda orders, sparse, a, at2, at3, selmer, palindrome, sign: (
        prod((cyclotomic(d) for d in orders), start=BivarPoly.const(sign))
        * (L ** sparse[0] + sparse[1] if sparse else one)
        * L**a
        * (L - 2) ** at2
        * (L - 3) ** at3
        * (L**selmer - L - 1 if selmer else one)
        * palindrome
    ),
    st.lists(st.integers(1, 40), max_size=5),
    st.none() | st.tuples(st.integers(1, 60), st.sampled_from([1, -1])),
    st.integers(0, 2),
    st.integers(0, 2),
    st.integers(0, 2),
    st.none() | st.integers(2, 7),
    st.sampled_from([one, L**2 - 3 * L + 1, LEHMER]),
    st.sampled_from([1, -1]),
)


class TestRecognitionMatchesScan:
    """Recognition against the candidate scan it replaced, which has no
    palindrome test, record for record."""

    @given(CYCLOTOMIC_PRODUCTS)
    @settings(max_examples=300, deadline=None)
    def test_random_products(self, f):
        assert is_product_of_cyclotomics(f) == is_product_of_cyclotomics_by_scan(f)

    @given(bivar_polys(allow_zero=False))
    @settings(max_examples=150, deadline=None)
    def test_random_polynomials(self, a):
        f = a.eval_m(1)
        if not f.is_zero:
            assert is_product_of_cyclotomics(f) == is_product_of_cyclotomics_by_scan(f)

    def test_recognition_cases(self):
        for f in recognition_cases():
            assert is_product_of_cyclotomics(f) == is_product_of_cyclotomics_by_scan(f)


class TestRecognitionMatchesExponents:
    """Recognition against the cyclotomic exponent sequence, which shares no
    code with the scan: sparse and dense products, with and without a
    factor that is not cyclotomic, palindromic or not."""

    @given(CYCLOTOMIC_PRODUCTS)
    @settings(max_examples=300, deadline=None)
    def test_random_products(self, f):
        assert is_product_of_cyclotomics(f) == is_product_of_cyclotomics_by_exponents(f)

    def test_recognition_cases(self):
        for f in recognition_cases():
            assert is_product_of_cyclotomics(f) == is_product_of_cyclotomics_by_exponents(f)


def recognition_cases():
    """Every polynomial the recognition tests above use, and both unit
    evaluations of every fixture record."""
    cases = [
        L**2 - 1,
        L**2 + L + 1,
        L**2 + 1,
        cyclotomic(3) * (L - 2),
        L - 2,
        2 * L - 1,
        -cyclotomic(4),
        BivarPoly.const(-1),
        L**2000 - 1,
    ]
    with resources.as_file(resources.files("apoly.data") / "fixtures.txt") as path:
        for rec in load_table(path).records:
            cases += [rec.a_poly.eval_m(1), rec.a_poly.eval_m(-1)]
    return [f for f in cases if not f.is_zero]


def cyclotomic_table(rng):
    """Text of a 600-record table: the fixtures, (L-1) times distinct
    cyclotomic factors, and deg_M = 0 records that fail recognition."""
    with resources.as_file(resources.files("apoly.data") / "fixtures.txt") as path:
        fixtures = load_table(path).records
    lines = []
    for k in range(600):
        if k % 3 == 0:
            text = str(fixtures[k // 3 % len(fixtures)].a_poly)
        else:
            f = L - 1
            for d in rng.sample(range(2, 31), rng.randint(0, 3)):
                f = f * cyclotomic(d)
            if k % 3 == 2:
                f = f * (L + rng.choice([-3, -2, 2, 3]))
            text = str(f)
        lines.append(f"r{k} ; {text}")
    return "\n".join(lines) + "\n"


class TestCandidateRows:
    def test_large_degree_rows_not_kept(self, monkeypatch):
        monkeypatch.setattr(recognition, "_kept_rows", [])
        prof = is_product_of_cyclotomics(L**2000 - 1)
        assert [d for d, _ in prof.factors] == [d for d in range(1, 2001) if 2000 % d == 0]
        is_product_of_cyclotomics(cyclotomic(7) * cyclotomic(9))
        # the rows of the 125 orders d > 2 with phi(d) <= 64, and no others
        kept = sorted(d for _, d, *_ in recognition._kept_rows)
        assert kept == [d for d in cyclotomic_candidates(64) if d > 2]
        assert len(kept) == 125

    def test_rows_match_their_definition(self):
        for degree in (1, 12, 64, 65, 200):
            rows = list(recognition._candidate_rows(degree))
            assert rows == sorted(rows, key=lambda row: row[:2])
            reached = sorted(d for phi, d, *_ in rows if phi <= degree)
            assert reached == [d for d in cyclotomic_candidates(degree) if d > 2]
            for phi, d, pairs, c2, c3 in rows:
                assert phi == sympy.totient(d)
                mu = {e: sympy.mobius(d // e) for e in sympy.divisors(d)}
                assert sorted(pairs) == [(e, m) for e, m in mu.items() if m]
                assert c2 == l_value(cyclotomic(d), 2)
                # past the kept rows, recognition computes Phi_d(3) on demand
                assert c3 == (l_value(cyclotomic(d), 3) if phi <= 64 else None)
        assert max(phi for phi, *_ in recognition._kept_rows) <= 64

    def test_second_pass_computes_no_rows(self, monkeypatch, rng, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(cyclotomic_table(rng), encoding="utf-8")
        records = load_table(path).records
        assert len(records) == 600
        monkeypatch.setattr(recognition, "_kept_rows", [])
        calls = []
        value = recognition._cyclotomic_value
        monkeypatch.setattr(
            recognition, "_cyclotomic_value", lambda pairs, x: calls.append(x) or value(pairs, x)
        )
        first = verify_all(records).as_dict()
        assert calls.count(2) > 0
        calls.clear()
        assert verify_all(records).as_dict() == first
        assert 2 not in calls
        verdicts = {r["verdict"] for r in first["records"]}
        assert verdicts == {PASS, FAIL, UNKNOT_OK}

    def test_cached_and_uncached_recognition_agree(self, monkeypatch):
        cases = recognition_cases()
        warm = [is_product_of_cyclotomics(f) for f in cases]
        monkeypatch.setattr(recognition, "_KEPT_PHI", 0)
        monkeypatch.setattr(recognition, "_kept_rows", [])
        cold = [is_product_of_cyclotomics(f) for f in cases]
        assert recognition._kept_rows == []
        assert warm == cold
        for f, prof in zip(cases, warm):
            if isinstance(prof, CyclotomicProfile):
                assert reconstruct_profile(prof) == f


class TestDecomposition:
    def test_abelian_pair(self):
        prof = mdeg_trivial_decomposition(parse_poly("L^2 - 1"))
        assert prof.factors == ((2, 1),)
        assert prof.product_d == 2

    def test_unknot(self):
        prof = mdeg_trivial_decomposition(L - one)
        assert prof.factors == () and prof.product_d == 1

    def test_repeated_abelian(self):
        a = (L - one) * (L - one) * (L + one)
        out = mdeg_trivial_decomposition(a)
        assert isinstance(out, Violation)
        assert "repeated abelian" in out.reason

    def test_missing_abelian(self):
        out = mdeg_trivial_decomposition(L + one)
        assert isinstance(out, Violation)
        assert "missing abelian" in out.reason

    def test_repeated_cyclotomic(self):
        a = (L - one) * cyclotomic(3) ** 2
        out = mdeg_trivial_decomposition(a)
        assert isinstance(out, Violation)
        assert "order 3" in out.reason

    def test_non_cyclotomic(self):
        # L^1999 - L - 1 is Selmer's trinomial, irreducible and not cyclotomic:
        # it is not palindromic, so recognition rejects it before any order
        for a in ((L - one) * (L - 2 * one), (L - one) * (L**1999 - L - one)):
            assert mdeg_trivial_decomposition(a) == Violation(NOT_CYCLOTOMIC)

    def test_requires_mdeg_zero(self):
        with pytest.raises(ValueError):
            mdeg_trivial_decomposition(TREFOIL)


class TestUnitEvaluation:
    def test_unknot(self):
        for m in (1, -1):
            form = check_unit_evaluation(L - one, m)
            assert form == UnitEvaluationForm(sign=1, a=0, b=1, c=0)

    def test_trefoil_minus(self):
        form = check_unit_evaluation(TREFOIL, -1)
        assert (form.a, form.b, form.c) == (0, 1, 1)

    def test_trefoil_plus(self):
        form = check_unit_evaluation(TREFOIL, 1)
        assert reconstruct_unit_form(form) == TREFOIL.eval_m(1)

    def test_failure_residual(self):
        out = check_unit_evaluation(L - 3 * one, 1)
        assert isinstance(out, UnitEvalFailure)
        assert out.residual == L - 3

    def test_vanishing_evaluation(self):
        out = check_unit_evaluation(M - one, 1)
        assert isinstance(out, UnitEvalFailure)
        assert out.residual.is_zero

    def test_l_power(self):
        form = check_unit_evaluation(L**3 * (L + one), 1)
        assert form == UnitEvaluationForm(sign=1, a=3, b=0, c=1)

    def test_long_l_power(self):
        # (M-1)(1 + L + ... + L^(k-1)) + L^k is L^k at M = 1; the k leading
        # zeros are stripped in one slice, not one copy per zero
        k = 20000
        a = (M - one) * BivarPoly({(0, j): 1 for j in range(k)}) + L**k
        form = check_unit_evaluation(a, 1)
        assert form == UnitEvaluationForm(sign=1, a=k, b=0, c=0)

    @given(
        st.sampled_from([1, -1]),
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, sign, a, b, c, m):
        f = reconstruct_unit_form(UnitEvaluationForm(sign, a, b, c))
        form = check_unit_evaluation(f, m)
        assert isinstance(form, UnitEvaluationForm)
        assert reconstruct_unit_form(form) == f

    @given(
        bivar_polys(allow_zero=False),
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from([1, -1]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_division_oracle(self, g, b, c, m):
        a = g * (L - one) ** b * (L + one) ** c
        assert check_unit_evaluation(a, m) == unit_evaluation_by_division(a, m)

    def test_high_multiplicity(self):
        a = (L - one) ** 300 * (L + one) ** 200
        assert check_unit_evaluation(a, 1) == UnitEvaluationForm(sign=1, a=0, b=300, c=200)


def count_synthetic_divisions(monkeypatch):
    calls = []

    def counted(coeffs, zeta):
        calls.append(zeta)
        return _synthetic_div(coeffs, zeta)

    monkeypatch.setattr(structure, "_synthetic_div", counted)
    return calls


class TestSyntheticDivision:
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=8), st.sampled_from([1, -1]))
    def test_matches_long_division(self, coeffs, zeta):
        quotient, remainder = _synthetic_div(coeffs, zeta)
        rebuilt = _in_l(quotient) * (L - zeta) + remainder
        assert rebuilt == _in_l(coeffs)
        assert remainder == l_value(_in_l(coeffs), zeta)

    @pytest.mark.parametrize("zeta", [1, -1])
    @pytest.mark.parametrize("b", [0, 1, 7, 150])
    def test_runs_b_plus_one_times(self, monkeypatch, zeta, b):
        # (L - zeta)^b * g with g(zeta) != 0: b + 1 remainder sums, the last
        # nonzero, and a division only after each of the b zero ones
        g = L**3 - 2 * L + 5
        f = g * (L - zeta) ** b
        calls = count_synthetic_divisions(monkeypatch)
        sums = []
        value_at_unit = structure._value_at_unit
        monkeypatch.setattr(structure, "_value_at_unit",
                            lambda c, z: sums.append(z) or value_at_unit(c, z))
        quotient, count = _strip_root(l_coeffs(f), zeta)
        assert (_in_l(quotient), count) == (g, b)
        assert len(sums) == b + 1
        assert len(calls) == b

    def test_unit_evaluation_count(self, monkeypatch):
        # b passes for L - 1 and c for L + 1, whatever the size of b
        calls = count_synthetic_divisions(monkeypatch)
        form = check_unit_evaluation((L - one) ** 400 * (L + one) ** 3 * (L - 3 * one), 1)
        assert isinstance(form, UnitEvalFailure)
        assert form.residual == L - 3
        assert calls == [1] * 400 + [-1] * 3

    def test_abelian_count_stops_at_running_minimum(self, monkeypatch):
        # slices M (L - 1)^200 and (L - 1)^2: the short one goes first and
        # takes two passes; the long one then stops after two, not 200
        a = M * (L - one) ** 200 + (L - one) ** 2
        calls = count_synthetic_divisions(monkeypatch)
        assert abelian_multiplicity(a) == 2
        assert len(calls) == 2 + 2

    def test_abelian_sparse_slices_stay_sparse(self, monkeypatch):
        # 200 slices of L-degree 20001: the first takes one pass; once the
        # count is 1, a slice that vanishes at L = 1 needs none
        slices = sum((M**i * (L**20000 + (i + 1) * one) for i in range(200)), BivarPoly())
        calls = count_synthetic_divisions(monkeypatch)
        assert abelian_multiplicity(slices * (L - one)) == 1
        assert len(calls) == 1
        # a slice that is nonzero at L = 1 ends the count with no pass
        assert abelian_multiplicity(slices) == 0
        assert len(calls) == 1
        # above 1, every slice is divided: 3 passes, then 3
        assert abelian_multiplicity((L - one) ** 3 * (M**5 + one)) == 3
        assert len(calls) == 1 + 3 + 3


def monic_at_units(a):
    return tuple(check_unit_evaluation(a, m).monic for m in (1, -1))


class TestMonicity:
    def test_unknot(self):
        assert monic_at_units(L - one) == (True, True)

    def test_nonmonic(self):
        assert monic_at_units(2 * L - one) == (False, False)

    def test_trefoil(self):
        assert monic_at_units(TREFOIL) == (True, True)

    def test_vanishing_marked_none(self):
        assert monic_at_units((M - one) * L) == (None, False)

    @given(bivar_polys(allow_zero=False), st.sampled_from([1, -1]))
    @settings(max_examples=150, deadline=None)
    def test_matches_leading_coefficient(self, a, m):
        f = a.eval_m(m)
        expected = None if f.is_zero else abs(l_lead(f)) == 1
        assert check_unit_evaluation(a, m).monic == expected

    def test_analyze_evaluates_once_per_unit(self, monkeypatch):
        # A(1, L) and A(-1, L) come off the M-slices, with no eval_m, and
        # each has one unit form; with no odd M-exponent they are one
        evals, forms = [], []
        eval_m = BivarPoly.eval_m
        monkeypatch.setattr(BivarPoly, "eval_m", lambda p, m: evals.append(m) or eval_m(p, m))
        unit_form = structure._unit_form
        monkeypatch.setattr(structure, "_unit_form", lambda f: forms.append(f) or unit_form(f))
        odd = parse_poly("L^2*M^3 - L*M^3 + L - 1")
        report = analyze(odd)
        assert evals == [] and len(forms) == 2
        assert (report.unit_eval_plus.monic, report.unit_eval_minus.monic) == (True, True)
        report = analyze(TREFOIL)
        assert evals == [] and len(forms) == 3
        assert report.unit_eval_minus is report.unit_eval_plus
        monkeypatch.undo()
        evaluations = [odd.eval_m(1), odd.eval_m(-1), TREFOIL.eval_m(1)]
        assert forms == [l_coeffs(f) for f in evaluations]
        assert report.unit_eval_plus == unit_evaluation_by_division(TREFOIL, -1)

    def test_degree_zero_evaluates_one_unit(self, monkeypatch):
        # without M, A(-1, L) = A(1, L): one unit form serves both
        forms = []
        unit_form = structure._unit_form
        monkeypatch.setattr(
            structure, "_unit_form", lambda f, *parts: forms.append(f) or unit_form(f, *parts)
        )
        a = parse_poly("(L - 1)*(L + 1)^2*L^3")
        report = analyze(a)
        assert len(forms) == 1
        assert report.unit_eval_minus is report.unit_eval_plus
        minus = unit_evaluation_by_division(a.normalize(), -1)
        assert report.unit_eval_plus == minus

    def test_degree_zero_decomposes_the_same_evaluation(self, monkeypatch):
        # the decomposition, the unit evaluations and the abelian
        # multiplicity share one A(1, L), from which L - 1 and L + 1 are
        # divided out once: b and c passes, none in recognition
        seen = []
        strip = structure._strip_units
        monkeypatch.setattr(structure, "_strip_units", lambda c: seen.append(c) or strip(c))
        calls = count_synthetic_divisions(monkeypatch)
        a = parse_poly("(L-1)*(L+1)^2")
        report = analyze(a)
        assert seen == [l_coeffs(a)]
        assert calls == [1, -1, -1]
        assert report.abelian_multiplicity == 1
        monkeypatch.undo()
        assert report.cyclotomic == mdeg_trivial_decomposition(a)
        assert report.cyclotomic == Violation("repeated cyclotomic factor of order 2")
        assert report.unit_eval_plus == unit_evaluation_by_division(a, 1)


def verdict(a, claims_nontrivial_knot):
    return analyze(a, claims_nontrivial_knot=claims_nontrivial_knot).verdict


class TestVerdict:
    def test_unknot_ok(self):
        assert verdict(L - one, False) == UNKNOT_OK

    def test_unknot_claimed_nontrivial(self):
        assert verdict(L - one, True) == FAIL

    def test_trefoil(self):
        assert verdict(TREFOIL, True) == PASS

    def test_abelian_pair_fails(self):
        assert verdict(parse_poly("L^2 - 1"), True) == FAIL

    def test_requires_normal_form(self):
        # the verdict is decided on the A-normal form, and 2L - 2 is L - 1
        assert verdict(2 * L - 2 * one, False) == UNKNOT_OK

    @given(st.integers(1, 9), st.sampled_from([1, -1]), st.integers(0, 3))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_normalize(self, content, sign, i0):
        raw = sign * content * M**i0 * TREFOIL
        assert verdict(raw.normalize(), True) == verdict(TREFOIL, True)
        assert verdict(raw, True) == verdict(TREFOIL, True)


class TestSymmetry:
    def test_unknot(self):
        holds, witness = symmetry_check(L - one)
        assert holds and witness == (0, 1, -1)

    def test_trefoil_factor(self):
        holds, witness = symmetry_check(L * M**6 + one)
        assert holds and witness == (6, 1, 1)

    def test_asymmetric(self):
        holds, witness = symmetry_check(L + M + one)
        assert not holds and witness is None


class TestAbelianMultiplicity:
    def test_trefoil(self):
        assert abelian_multiplicity(TREFOIL) == 1

    def test_square(self):
        assert abelian_multiplicity((L - one) * (L - one)) == 2

    def test_none(self):
        assert abelian_multiplicity(L + one) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            abelian_multiplicity(BivarPoly())

    @given(bivar_polys(allow_zero=False), st.integers(0, 4))
    @settings(max_examples=150, deadline=None)
    def test_matches_division_oracle(self, b, k):
        a = b * (L - one) ** k
        count = abelian_multiplicity(a)
        assert count == abelian_multiplicity_by_division(a)
        assert count == k + abelian_multiplicity(b)

    def test_fixtures_match_division_oracle(self):
        with resources.as_file(resources.files("apoly.data") / "fixtures.txt") as path:
            records = load_table(path).records
        assert records
        for rec in records:
            a = rec.a_poly
            assert abelian_multiplicity(a) == abelian_multiplicity_by_division(a), rec.name

    @pytest.mark.parametrize("p, q", TORUS_GRID)
    def test_torus_match_division_oracle(self, p, q):
        a = torus_a(p, q)
        assert abelian_multiplicity(a) == abelian_multiplicity_by_division(a) == 1

    def test_high_multiplicity(self):
        a = (L - one) ** 600 * (M * L + one)
        assert abelian_multiplicity(a) == 600

    def test_no_dense_coefficients(self):
        # the count runs over the sparse terms of a polynomial of high M-degree
        a = torus_a(37, 29) * (L - one)
        assert a.deg_m() >= 1000
        assert abelian_multiplicity(a) == 2


class TestAnalyze:
    def test_trefoil_report(self):
        rep = analyze(TREFOIL, name="trefoil", claims_nontrivial_knot=True)
        d = rep.as_dict()
        assert list(d) == [
            "name",
            "deg_M",
            "deg_L",
            "abelian_multiplicity",
            "unit_eval_plus",
            "unit_eval_minus",
            "monic_plus",
            "monic_minus",
            "vertical_edge",
            "cyclotomic",
            "verdict",
        ]
        assert d["deg_M"] == 6 and d["deg_L"] == 2
        assert d["abelian_multiplicity"] == 1
        assert d["vertical_edge"] is True
        assert d["cyclotomic"] is None
        assert d["verdict"] == PASS

    def test_unknot_report(self):
        rep = analyze(L - one, name="unknot")
        assert rep.verdict == UNKNOT_OK
        # the degenerate segment (0,0)-(0,1) still reports its vertical edge
        assert rep.vertical_edge is True
        assert rep.cyclotomic.factors == ()

    def test_normalizes_input(self):
        rep = analyze(-3 * M**2 * TREFOIL, claims_nontrivial_knot=True)
        assert rep.deg_m == 6 and rep.verdict == PASS

    @given(
        bivar_polys(allow_zero=False),
        st.sampled_from([1, -1]),
        st.integers(1, 9),
        st.integers(0, 3),
        st.integers(0, 3),
    )
    @settings(max_examples=50, deadline=None)
    def test_reports_depend_on_normal_form_only(self, p, sign, content, i, j):
        raw = sign * content * M**i * L**j * p
        nf = p.normalize()
        assert analyze(raw).as_dict() == analyze(nf).as_dict()
        assert (
            verify_all([DbRecord("x", raw)]).as_dict()
            == verify_all([DbRecord("x", nf)]).as_dict()
        )

    def test_normalizes_once(self, monkeypatch):
        calls = []
        normalize = BivarPoly.normalize
        monkeypatch.setattr(BivarPoly, "normalize", lambda p: calls.append(p) or normalize(p))
        analyze(-3 * M**2 * TREFOIL)
        assert len(calls) == 1

    def test_fail_case(self):
        for n in (2, 2000):
            rep = analyze(parse_poly(f"L^{n} - 1"), claims_nontrivial_knot=True)
            assert rep.verdict == FAIL
            orders = [d for d in range(2, n + 1) if n % d == 0]
            assert rep.cyclotomic.factors == tuple((d, 1) for d in orders)
        assert len(orders) == 19


COEFFS = st.integers(-9, 9).filter(bool)


@st.composite
def collinear_polys(draw):
    # points (i0 + t*di, j0 + t*dj) on one line, vertical lines included
    i0, di, dj = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(-3, 3))
    ts = draw(st.sets(st.integers(0, 5), min_size=1, max_size=6))
    return BivarPoly({(i0 + t * di, 15 + t * dj): draw(COEFFS) for t in ts})


@st.composite
def single_column_polys(draw):
    i = draw(st.integers(0, 5))
    js = draw(st.sets(st.integers(0, 8), min_size=1, max_size=6))
    return BivarPoly({(i, j): draw(COEFFS) for j in js})


ANALYZE_INPUTS = st.one_of(
    bivar_polys(allow_zero=False, max_exp=6, max_terms=8),
    collinear_polys(),
    single_column_polys(),
    st.builds(lambda c, i, j: BivarPoly({(i, j): c}), COEFFS, st.integers(0, 9), st.integers(0, 9)),
    st.builds(lambda b, k: b * (L - one) ** k, bivar_polys(allow_zero=False), st.integers(0, 4)),
    st.builds(lambda n, s: (L - one) * (L**n + s * one), st.integers(1, 12),
              st.sampled_from([1, -1])),
)


class TestAnalyzeMatchesPasses:
    """analyze, which reads every check off the M-slices, against the
    reference that makes a pass for each and builds the hull."""

    @given(ANALYZE_INPUTS, st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_random(self, a, claims):
        report = analyze(a, name="x", claims_nontrivial_knot=claims)
        assert report == analyze_by_passes(a, name="x", claims_nontrivial_knot=claims)
        assert report.as_dict() == analyze_by_passes(a, "x", claims).as_dict()

    def test_fixtures(self):
        with resources.as_file(resources.files("apoly.data") / "fixtures.txt") as path:
            records = load_table(path).records
        assert records
        for rec in records:
            expected = analyze_by_passes(rec.a_poly, rec.name)
            assert analyze(rec.a_poly, rec.name) == expected, rec.name

    @pytest.mark.parametrize("p, q", TORUS_GRID)
    def test_torus(self, p, q):
        a = torus_a(p, q)
        assert analyze(a, claims_nontrivial_knot=True) == analyze_by_passes(a, "", True)

    @pytest.mark.parametrize(
        "text, vertical, degenerate",
        [
            ("L^3*M^2", None, True),
            ("L - 1", True, True),
            ("M*L + 1", False, True),
            ("M^2*L^2 + 3 + M*L", False, True),
            ("M^2*L^2 + L + M", False, False),
            ("L^2*M^6 - L*M^6 + L - 1", True, False),
            ("M^2*L + M^2 + 1", True, False),
            ("M^2 + M*L + 1", False, False),
        ],
    )
    def test_newton_facts(self, text, vertical, degenerate):
        report = analyze(parse_poly(text))
        assert (report.vertical_edge, report.degenerate) == (vertical, degenerate)

    def test_as_dict_writes_each_unit_form(self):
        # deg_M = 0: one unit form serves both units, and both keys write it
        # (json_text writes it once: tests/test_json_text.py)
        report = analyze(parse_poly("(L-1)*(L-2)"))
        assert report.unit_eval_minus is report.unit_eval_plus
        d = report.as_dict()
        assert d["unit_eval_plus"] == d["unit_eval_minus"] == {"failure": True, "residual": "L - 2"}
        # an odd M-exponent: two evaluations, each written from its own form
        d = analyze(parse_poly("M*L^2 + L - 2")).as_dict()
        assert d["unit_eval_plus"] == {"failure": True, "residual": "L + 2"}
        assert d["unit_eval_minus"] == {"failure": True, "residual": "-L^2 + L - 2"}
