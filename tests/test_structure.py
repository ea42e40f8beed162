from importlib import resources
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from apoly.db import DbRecord, load_table, verify_all
from apoly.knots import torus_a
from apoly.poly import BivarPoly, UnivarPoly, parse_poly
from apoly.structure import (
    FAIL,
    PASS,
    UNKNOT_OK,
    CyclotomicProfile,
    NotCyclotomic,
    UnitEvalFailure,
    UnitEvaluationForm,
    Violation,
    abelian_multiplicity,
    analyze,
    check_unit_evaluation,
    cyclotomic,
    cyclotomic_candidates,
    euler_phi,
    is_product_of_cyclotomics,
    mdeg_trivial_decomposition,
)
from apoly import structure
from apoly.structure import _cyclotomic_value, _strip_root, _synthetic_div
from conftest import (
    L,
    M,
    abelian_multiplicity_by_division,
    bivar_polys,
    cyclotomic_by_division,
    reconstruct_profile,
    reconstruct_unit_form,
    symmetry_check,
    unit_evaluation_by_division,
)

one = BivarPoly.const(1)
TREFOIL = parse_poly("L^2*M^6 - L*M^6 + L - 1")
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
        assert cyclotomic(1) == UnivarPoly([-1, 1])

    def test_second(self):
        assert cyclotomic(2) == UnivarPoly([1, 1])

    def test_sixth(self):
        assert cyclotomic(6) == UnivarPoly([1, -1, 1])
        prod = cyclotomic(1) * cyclotomic(2) * cyclotomic(3) * cyclotomic(6)
        assert prod == UnivarPoly([-1, 0, 0, 0, 0, 0, 1])  # L^6 - 1

    def test_degree_is_phi(self):
        for d in range(1, 40):
            assert cyclotomic(d).degree() == euler_phi(d) == sympy.totient(d)

    def test_matches_divisor_construction(self):
        for d in range(1, 401):
            assert cyclotomic(d) == cyclotomic_by_division(d)

    def test_values_match_horner(self):
        for d in range(1, 401):
            for x in (2, 3):
                assert _cyclotomic_value(d, x) == cyclotomic(d)(x)

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
        prof = is_product_of_cyclotomics(UnivarPoly([-1, 0, 1]))  # (L-1)(L+1)
        assert isinstance(prof, CyclotomicProfile)
        assert prof.factors == ((1, 1), (2, 1))
        assert prof.sign == 1

    def test_third_order(self):
        prof = is_product_of_cyclotomics(UnivarPoly([1, 1, 1]))
        assert prof.factors == ((3, 1),)

    def test_fourth_order(self):
        prof = is_product_of_cyclotomics(UnivarPoly([1, 0, 1]))  # L^2 + 1
        assert prof.factors == ((4, 1),) and prof.sign == 1

    def test_mixed_residual(self):
        # the residual is what is left after dividing out every Phi_d
        out = is_product_of_cyclotomics(cyclotomic(3) * UnivarPoly([-2, 1]))
        assert isinstance(out, NotCyclotomic)
        assert out.residual == UnivarPoly([-2, 1])

    def test_nonunit_rejected(self):
        out = is_product_of_cyclotomics(UnivarPoly([-2, 1]))  # L - 2
        assert isinstance(out, NotCyclotomic)
        assert out.residual == UnivarPoly([-2, 1])

    def test_nonmonic_rejected(self):
        assert isinstance(is_product_of_cyclotomics(UnivarPoly([-1, 2])), NotCyclotomic)

    def test_negative_sign(self):
        prof = is_product_of_cyclotomics(-cyclotomic(4))
        assert prof.factors == ((4, 1),) and prof.sign == -1

    def test_constant(self):
        assert is_product_of_cyclotomics(UnivarPoly([-1])).factors == ()

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip(self, orders):
        f = UnivarPoly([1])
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
            f = UnivarPoly(coeffs)
            if f.degree() < 1:
                continue
            roots = np.roots(list(reversed(f.coeffs)))
            if not any(abs(abs(z) - 1) > 1e-6 for z in roots):
                continue
            hits += 1
            assert isinstance(is_product_of_cyclotomics(f), NotCyclotomic)


def recognition_cases():
    """Every polynomial the recognition tests above use, and both unit
    evaluations of every fixture record."""
    cases = [
        UnivarPoly([-1, 0, 1]),
        UnivarPoly([1, 1, 1]),
        UnivarPoly([1, 0, 1]),
        cyclotomic(3) * UnivarPoly([-2, 1]),
        UnivarPoly([-2, 1]),
        UnivarPoly([-1, 2]),
        -cyclotomic(4),
        UnivarPoly([-1]),
        UnivarPoly([-1] + [0] * 1999 + [1]),
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
            f = UnivarPoly([-1, 1])
            for d in rng.sample(range(2, 31), rng.randint(0, 3)):
                f = f * cyclotomic(d)
            if k % 3 == 2:
                f = f * UnivarPoly([rng.choice([-3, -2, 2, 3]), 1])
            text = str(f)
        lines.append(f"r{k} ; {text}")
    return "\n".join(lines) + "\n"


class TestCandidateRows:
    def test_large_degree_rows_not_kept(self, monkeypatch):
        monkeypatch.setattr(structure, "_candidate_rows_cache", {})
        prof = is_product_of_cyclotomics(UnivarPoly([-1] + [0] * 1999 + [1]))
        assert [d for d, _ in prof.factors] == [d for d in range(1, 2001) if 2000 % d == 0]
        is_product_of_cyclotomics(cyclotomic(7) * cyclotomic(9))
        assert set(structure._candidate_rows_cache) == {12}

    def test_rows_match_their_definition(self):
        for degree in (1, 12, 64, 65, 200):
            rows = list(structure._candidate_rows(degree))
            assert [d for d, _, _ in rows] == cyclotomic_candidates(degree)
            assert all(phi == euler_phi(d) for d, phi, _ in rows)
            assert all(c2 == cyclotomic(d)(2) for d, _, c2 in rows)
        assert max(structure._candidate_rows_cache) <= 64

    def test_second_pass_computes_no_rows(self, monkeypatch, rng, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text(cyclotomic_table(rng), encoding="utf-8")
        records = load_table(path).records
        assert len(records) == 600
        monkeypatch.setattr(structure, "_candidate_rows_cache", {})
        calls = []
        value = structure._cyclotomic_value
        monkeypatch.setattr(
            structure, "_cyclotomic_value", lambda d, x: calls.append(x) or value(d, x)
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
        monkeypatch.setattr(structure, "_ROWS_CACHED_DEGREE", 0)
        monkeypatch.setattr(structure, "_candidate_rows_cache", {})
        cold = [is_product_of_cyclotomics(f) for f in cases]
        assert structure._candidate_rows_cache == {}
        assert warm == cold
        for f, prof in zip(cases, warm):
            if isinstance(prof, CyclotomicProfile):
                assert reconstruct_profile(prof) == f


class TestDecomposition:
    def test_abelian_pair(self):
        mult, prof = mdeg_trivial_decomposition(parse_poly("L^2 - 1"))
        assert mult == 1
        assert prof.factors == ((2, 1),)
        assert prof.product_d == 2

    def test_unknot(self):
        mult, prof = mdeg_trivial_decomposition(L - one)
        assert mult == 1 and prof.factors == () and prof.product_d == 1

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
        f = cyclotomic(3) ** 2
        a = (L - one) * BivarPoly({(0, k): c for k, c in enumerate(f.coeffs)})
        out = mdeg_trivial_decomposition(a)
        assert isinstance(out, Violation)
        assert "order 3" in out.reason

    def test_non_cyclotomic(self):
        # L^1999 - L - 1 is Selmer's trinomial, irreducible and not cyclotomic:
        # recognition tries every candidate order without stopping early
        for a in ((L - one) * (L - 2 * one), (L - one) * (L**1999 - L - one)):
            out = mdeg_trivial_decomposition(a)
            assert isinstance(out, Violation)
            assert out.reason == "not a product of cyclotomic polynomials"
            assert out.residual is not None

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
        assert out.residual == UnivarPoly([-3, 1])

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
        lifted = BivarPoly({(0, k): cc for k, cc in enumerate(f.coeffs) if cc})
        form = check_unit_evaluation(lifted, m)
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
        out = check_unit_evaluation(a, m)
        expected = unit_evaluation_by_division(a, m)
        if isinstance(out, UnitEvalFailure):
            assert ("failure", out.residual) == expected
        else:
            assert (out.sign, out.a, out.b, out.c) == expected

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
        rebuilt = UnivarPoly(quotient) * UnivarPoly([-zeta, 1]) + UnivarPoly([remainder])
        assert rebuilt == UnivarPoly(coeffs)
        assert remainder == UnivarPoly(coeffs)(zeta)

    @pytest.mark.parametrize("zeta", [1, -1])
    @pytest.mark.parametrize("b", [0, 1, 7, 150])
    def test_runs_b_plus_one_times(self, monkeypatch, zeta, b):
        # (L - zeta)^b * g with g(zeta) != 0: b exact divisions and one that fails
        g = UnivarPoly([5, -2, 0, 1])
        f = g * UnivarPoly([-zeta, 1]) ** b
        calls = count_synthetic_divisions(monkeypatch)
        quotient, count = _strip_root(list(f.coeffs), zeta)
        assert (UnivarPoly(quotient), count) == (g, b)
        assert len(calls) == b + 1

    def test_unit_evaluation_count(self, monkeypatch):
        # b + 1 passes for L - 1 and c + 1 for L + 1, whatever the size of b
        calls = count_synthetic_divisions(monkeypatch)
        form = check_unit_evaluation((L - one) ** 400 * (L + one) ** 3 * (L - 3 * one), 1)
        assert isinstance(form, UnitEvalFailure)
        assert form.residual == UnivarPoly([-3, 1])
        assert calls == [1] * 401 + [-1] * 4

    def test_abelian_count_stops_at_running_minimum(self, monkeypatch):
        # slices M (L - 1)^200 and (L - 1)^2: the short one goes first and
        # takes three passes; the long one then stops after two, not 201
        a = M * (L - one) ** 200 + (L - one) ** 2
        calls = count_synthetic_divisions(monkeypatch)
        assert abelian_multiplicity(a) == 2
        assert len(calls) == 3 + 2

    def test_abelian_sparse_slices_stay_sparse(self, monkeypatch):
        # 200 slices of L-degree 20001: the first takes two passes; once the
        # count is 1, a slice that vanishes at L = 1 needs none
        slices = sum((M**i * (L**20000 + (i + 1) * one) for i in range(200)), BivarPoly())
        calls = count_synthetic_divisions(monkeypatch)
        assert abelian_multiplicity(slices * (L - one)) == 1
        assert len(calls) == 2
        # a slice that is nonzero at L = 1 ends the count with no pass
        assert abelian_multiplicity(slices) == 0
        assert len(calls) == 2
        # above 1, every slice is divided: 3 + 1 passes, then 3
        assert abelian_multiplicity((L - one) ** 3 * (M**5 + one)) == 3
        assert len(calls) == 2 + 4 + 3


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
        expected = None if f.is_zero else abs(f.leading_coefficient()) == 1
        assert check_unit_evaluation(a, m).monic == expected

    def test_analyze_evaluates_once_per_unit(self, monkeypatch):
        calls = []
        eval_m = BivarPoly.eval_m
        monkeypatch.setattr(BivarPoly, "eval_m", lambda p, m: calls.append(m) or eval_m(p, m))
        report = analyze(TREFOIL)
        assert sorted(calls) == [-1, 1]
        assert (report.monic_plus, report.monic_minus) == (True, True)

    def test_degree_zero_evaluates_one_unit(self, monkeypatch):
        # without M, A(-1, L) = A(1, L): the evaluation at 1 serves both
        calls = []
        check = structure.check_unit_evaluation
        monkeypatch.setattr(
            structure, "check_unit_evaluation", lambda a, m: calls.append(m) or check(a, m)
        )
        a = parse_poly("(L - 1)*(L + 1)^2*L^3")
        report = analyze(a)
        assert calls == [1]
        minus = check_unit_evaluation(a.normalize(), -1)
        assert report.unit_eval_minus == report.unit_eval_plus == minus


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

    def test_no_dense_coefficients(self, monkeypatch):

        # the count runs over the sparse terms; nothing is densified in M
        a = torus_a(37, 29) * (L - one)
        assert a.deg_m() >= 1000

        def densify(self):
            raise AssertionError("L-coefficients were made dense")

        monkeypatch.setattr(BivarPoly, "_l_coeffs", densify)
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
