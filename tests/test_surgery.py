import numpy as np
import pytest

from apoly.grammar import parse_poly
from apoly.poly import BivarPoly
from apoly.recognition import CyclotomicProfile, Violation, cyclotomic, is_product_of_cyclotomics
from apoly import surgery
from apoly.structure import analyze
from apoly.surgery import _points_by_order, replay_contradiction

from conftest import L, l_coeffs, substitute_surgery, unit_root_points
from test_structure import recognition_cases

one = BivarPoly.const(1)
TREFOIL = parse_poly("L^2*M^6 - L*M^6 + L - 1")


def assert_numeric_surgery_points(a: BivarPoly, rep):
    """Numeric oracle for the replay: at every step the v values of the
    reference points of its groups are, as a multiset, numpy's roots of a
    restricted to the line u = v^(-N) (which is A(1, v) when deg_M = 0), and
    every point satisfies u * v^N = 1."""
    for s in rep.steps:
        n = s.slope_denominator
        g = substitute_surgery(a, n)
        roots = list(np.roots(list(reversed(l_coeffs(g)))))
        assert len(roots) == s.num_points
        for e, count, _ in s.groups:
            points = unit_root_points(e, n)
            assert len(points) == count
            for u, v in points:
                i = min(range(len(roots)), key=lambda j: abs(roots[j] - v))
                assert abs(roots.pop(i) - v) < 1e-9
                assert abs(u * v**n - 1) < 1e-9
        assert roots == []


class TestClassifyUnitRoot:
    """The unit roots of A(1, v) are classified by is_product_of_cyclotomics;
    the replay's points on a surgery line are the primitive roots of the
    orders it finds."""

    def test_abelian_pair(self):
        prof = is_product_of_cyclotomics(L**2 - 1)
        assert isinstance(prof, CyclotomicProfile)
        assert prof.factors == ((1, 1), (2, 1))
        assert prof.sign == 1
        vs = [v for e, _ in prof.factors for _, v in unit_root_points(e, 1)]
        assert len(vs) == 2
        assert abs(vs[0] - 1) < 1e-12 and abs(vs[1] + 1) < 1e-12

    def test_no_unit_roots(self):
        out = is_product_of_cyclotomics(L - 3)
        assert out == Violation("not a product of cyclotomic polynomials")
        rep = replay_contradiction(parse_poly("(L-1)*(L-3)"))
        assert not rep.ok and rep.steps == ()
        assert "not a product of cyclotomic" in rep.violation


class TestSurgeryIntersection:
    """The points of a degree-zero curve on the surgery line u = v^(-N)."""

    def test_unknot(self):
        rep = replay_contradiction(L - one, n_max=5)
        step = rep.steps[-1]
        assert step.slope_denominator == 5
        assert step.groups == ((1, 1, 1),)
        assert step.num_points == 1 and step.all_forced_trivial
        assert unit_root_points(1, 5) == [(1, 1)]

    def test_abelian_pair(self):
        rep = replay_contradiction(parse_poly("(L-1)*(L+1)"), n_max=1)
        (step,) = rep.steps
        assert step.slope_denominator == 2
        assert step.groups == ((1, 1, 1), (2, 1, 1))
        assert step.all_forced_trivial

    def test_constraint_holds_everywhere(self):
        # on every line, also those that do not force u = 1
        for n in (1, 2, 3):
            for order in range(1, 13):
                ((_, _, u_order),) = _points_by_order((order,), n)
                for u, v in unit_root_points(order, n):
                    assert abs(u * v**n - 1) < 1e-8
                    assert abs(v**order - 1) < 1e-8
                    assert (u_order == 1) == (abs(u - 1) < 1e-8)

    def test_points_by_order_matches_oracle(self):
        # the gcd identity against the complex points, every e <= 60, N <= 120
        for e in range(1, 61):
            for n in range(1, 121):
                points = unit_root_points(e, n)
                ((order, count, u_order),) = _points_by_order((e,), n)
                assert order == e and count == len(points)
                least = next(
                    m for m in range(1, e + 1)
                    if all(abs(u**m - 1) < 1e-9 for u, _ in points)
                )
                assert u_order == least
                assert (u_order == 1) == all(abs(u - 1) < 1e-9 for u, _ in points)


class TestReplay:
    def test_abelian_pair(self):
        rep = replay_contradiction(parse_poly("(L-1)*(L+1)"), n_max=3)
        assert rep.ok
        assert rep.d == 2
        assert [s.slope_denominator for s in rep.steps] == [2, 4, 6]
        for s in rep.steps:
            assert s.all_forced_trivial
            assert s.groups == ((1, 1, 1), (2, 1, 1))

    def test_unknot(self):
        rep = replay_contradiction(L - one, n_max=2)
        assert rep.ok and rep.d == 1
        assert all(s.num_points == 1 for s in rep.steps)
        assert all(s.groups == ((1, 1, 1),) for s in rep.steps)

    def test_reads_deg_m_of_normal_form(self):
        # an M-power factor is stripped by the A-normal form
        for text, nf in [("M*L - M", "L - 1"), ("M^2*(L-1)*(L+1)", "(L-1)*(L+1)")]:
            rep = replay_contradiction(parse_poly(text))
            assert rep.as_dict() == replay_contradiction(parse_poly(nf)).as_dict()
        with pytest.raises(ValueError):
            replay_contradiction(parse_poly("L*M - 1"))

    def test_phi3_phi4(self):
        a = (L - 1) * cyclotomic(3) * cyclotomic(4)
        rep = replay_contradiction(a, n_max=2)
        assert rep.ok and rep.d == 12
        # 1 point from (L-1), 2 from Phi3, 2 from Phi4 at every slope
        assert all(s.num_points == 5 for s in rep.steps)
        assert [s.slope_denominator for s in rep.steps] == [12, 24]
        assert_numeric_surgery_points(a, rep)

    def test_violation_reported(self):
        rep = replay_contradiction((L - 1) ** 2 * cyclotomic(2))
        assert not rep.ok
        assert "repeated abelian" in rep.violation
        assert rep.steps == ()

    def test_rejects_positive_mdeg(self):
        with pytest.raises(ValueError):
            replay_contradiction(TREFOIL)

    def test_rejects_bad_nmax(self):
        with pytest.raises(ValueError):
            replay_contradiction(L - one, n_max=0)

    def test_matches_analyze(self):
        # the replay's profile, or its violation, is the decomposition of
        # analyze's report
        cases = [f for f in recognition_cases() if f.normalize().deg_m() == 0]
        assert cases
        for a in cases + [L**60 - 1, L**2 - 1, (L - 1) ** 2 * (L + 1)]:
            rep, cyc = replay_contradiction(a), analyze(a).cyclotomic
            if isinstance(cyc, CyclotomicProfile):
                assert (rep.profile, rep.violation) == (cyc, None)
            else:
                assert (rep.violation, rep.profile) == (cyc.reason, None)

    def test_point_bound(self, monkeypatch):
        # n_max * deg_L points at most 100,000; past it, a ValueError before
        # analyze, which gives the decomposition, runs
        calls = []
        analyze = surgery.analyze
        monkeypatch.setattr(surgery, "analyze", lambda a: calls.append(a) or analyze(a))
        a = parse_poly("L^50 - 1")
        rep = replay_contradiction(a, n_max=2000)
        assert len(rep.steps) == 2000 and rep.steps[-1].num_points == 50
        assert len(calls) == 1
        calls.clear()
        with pytest.raises(ValueError, match="n_max \\* deg_L = 2001 \\* 50 points"):
            replay_contradiction(a, n_max=2001)
        with pytest.raises(ValueError, match="the bound is 100000"):
            replay_contradiction(L - one, n_max=100_001)
        assert calls == []

    def test_narrative(self):
        rep = replay_contradiction(parse_poly("(L-1)*(L+1)"), n_max=1)
        text = rep.to_text()
        assert "d = 2" in text
        assert "Slope 1/2" in text
        assert "Conclusion" in text

    def test_as_dict_roundtrippable(self):
        import json

        rep = replay_contradiction(parse_poly("(L-1)*(L+1)"), n_max=1)
        blob = json.dumps(rep.as_dict())
        assert json.loads(blob)["d"] == 2
        # one point dict per point: a group of count c is written c times
        rep = replay_contradiction(parse_poly("L^12 - 1"), n_max=2)
        for step in json.loads(json.dumps(rep.as_dict()))["steps"]:
            points = step["points"]
            assert len(points) == step["num_points"] == 12
            by_order = {}
            for p in points:
                by_order[p["v_order"]] = by_order.get(p["v_order"], 0) + 1
                assert p == {"v_order": p["v_order"], "u_order": 1, "forces_trivial": True}
            assert by_order == {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}

    def test_exactness_on_large_orders(self):
        # distinct large orders: d = 11 * 12 = 132, still exact and fast
        a = (L - 1) * cyclotomic(11) * cyclotomic(12)
        rep = replay_contradiction(a, n_max=3)
        assert rep.ok and rep.d == 132
        for s in rep.steps:
            assert all(u_order == 1 for _, _, u_order in s.groups)
        assert_numeric_surgery_points(a, rep)

    def test_high_degree_power(self):
        rep = replay_contradiction(parse_poly("L^2000 - 1"))
        assert rep.ok
        assert rep.d % 2000 == 0

    def test_d_is_lcm_of_orders(self):
        # Phi2 * Phi4: the product of the orders is 8, their lcm 4
        rep = replay_contradiction((L - 1) * cyclotomic(2) * cyclotomic(4))
        assert rep.ok and rep.d == 4 and rep.profile.product_d == 8
        # L^60 - 1 has every divisor of 60 as an order; the product is 46656000000
        rep = replay_contradiction(parse_poly("L^60 - 1"), n_max=2)
        assert rep.ok and rep.d == 60 and rep.profile.product_d == 46656000000
        assert [s.slope_denominator for s in rep.steps] == [60, 120]
        assert all(u == 1 for s in rep.steps for _, _, u in s.groups)


class TestForcedTrivialityIsExact:
    def test_v_order_divides_d(self):
        a = (L - 1) * cyclotomic(2) * cyclotomic(3)
        rep = replay_contradiction(a, n_max=2)
        assert rep.ok and rep.d == 6
        for s in rep.steps:
            for e, _, u_order in s.groups:
                assert rep.d % e == 0
                assert u_order == 1

    def test_wrong_slope_does_not_force(self):
        # at slope 1/1 the Phi_3 points have u = v^-1 != 1
        assert _points_by_order((3,), 1) == ((3, 2, 3),)
        points = unit_root_points(3, 1)
        assert len(points) == 2
        for u, v in points:
            assert abs(u * v - 1) < 1e-12
            assert abs(u - 1) > 1e-9
