import cmath

import pytest

from apoly.poly import BivarPoly, UnivarPoly, parse_poly
from apoly.structure import cyclotomic
from apoly.surgery import (
    EigenPoint,
    classify_unit_root,
    replay_contradiction,
    surgery_intersection,
)

L = BivarPoly.var_l()
M = BivarPoly.var_m()
one = BivarPoly.const(1)
TREFOIL = parse_poly("L^2*M^6 - L*M^6 + L - 1")


def lift(f: UnivarPoly) -> BivarPoly:
    """Embed a polynomial in L into the bivariate ring."""
    return BivarPoly({(0, k): c for k, c in enumerate(f.coeffs) if c})


class TestEigenPoint:
    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            EigenPoint(u=0, v=1)
        with pytest.raises(ValueError):
            EigenPoint(u=1, v=0)


class TestClassifyUnitRoot:
    def test_abelian_pair(self):
        factors, residual = classify_unit_root(UnivarPoly([-1, 0, 1]))  # L^2 - 1
        assert factors == [(1, 1), (2, 1)]
        assert residual.degree() == 0

    def test_fourth_order(self):
        factors, residual = classify_unit_root(UnivarPoly([1, 0, 1]))  # L^2 + 1
        assert factors == [(4, 1)]
        assert residual == UnivarPoly([1])

    def test_no_unit_roots(self):
        factors, residual = classify_unit_root(UnivarPoly([-3, 1]))  # L - 3
        assert factors == []
        assert residual == UnivarPoly([-3, 1])

    def test_bound_caps_orders(self):
        factors, residual = classify_unit_root(UnivarPoly([1, 0, 1]), bound=3)
        assert factors == []
        assert residual == UnivarPoly([1, 0, 1])

    def test_mixed(self):
        f = cyclotomic(3) * UnivarPoly([-2, 1])
        factors, residual = classify_unit_root(f)
        assert factors == [(3, 1)]
        assert residual == UnivarPoly([-2, 1])


class TestSurgeryIntersection:
    def test_unknot(self):
        inter = surgery_intersection(L - one, 5)
        assert len(inter.points) == 1
        pt = inter.points[0]
        assert pt.u == 1 and pt.v == 1
        assert pt.forces_trivial

    def test_abelian_pair(self):
        inter = surgery_intersection(parse_poly("(L-1)*(L+1)"), 2)
        assert sorted(p.v_order for p in inter.points) == [1, 2]
        assert all(p.forces_trivial for p in inter.points)
        assert all(p.u == 1 for p in inter.points)

    def test_cube_roots_of_minus_one(self):
        # L + M^2 on u = v^-1 gives v^3 = -1: three points, none with u = 1
        inter = surgery_intersection(L + M**2, 1)
        assert len(inter.points) == 3
        assert not any(p.forces_trivial for p in inter.points)
        for p in inter.points:
            assert abs(p.v**3 + 1) < 1e-9
            assert abs(p.u * p.v - 1) < 1e-9

    def test_curve_contains_line(self):
        # M*L^2 - 1 vanishes identically on the line u = v^-2
        inter = surgery_intersection(M * L**2 - one, 2)
        assert inter.curve_contains_line
        assert inter.points == []

    def test_constraint_holds_everywhere(self):
        for n in (1, 2, 3):
            inter = surgery_intersection(TREFOIL, n)
            for p in inter.points:
                assert abs(p.u * p.v**n - 1) < 1e-8

    def test_trefoil_has_nontrivial_point(self):
        # consistency with the existence of irreducible representations
        for n in range(1, 11):
            inter = surgery_intersection(TREFOIL, n)
            assert any(abs(p.u - 1) > 1e-6 for p in inter.points)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            surgery_intersection(L - one, 0)


class TestReplay:
    def test_abelian_pair(self):
        rep = replay_contradiction(parse_poly("(L-1)*(L+1)"), n_max=3)
        assert rep.ok
        assert rep.d == 2
        assert [s.slope_denominator for s in rep.steps] == [2, 4, 6]
        for s in rep.steps:
            assert s.all_forced_trivial

    def test_unknot(self):
        rep = replay_contradiction(L - one, n_max=2)
        assert rep.ok and rep.d == 1
        assert all(s.num_points == 1 for s in rep.steps)

    def test_phi3_phi4(self):
        a = lift(UnivarPoly([-1, 1]) * cyclotomic(3) * cyclotomic(4))
        rep = replay_contradiction(a, n_max=2)
        assert rep.ok and rep.d == 12
        # 1 point from (L-1), 2 from Phi3, 2 from Phi4 at every slope
        assert all(s.num_points == 5 for s in rep.steps)
        assert [s.slope_denominator for s in rep.steps] == [12, 24]

    def test_violation_reported(self):
        rep = replay_contradiction(lift(UnivarPoly([-1, 1]) ** 2 * cyclotomic(2)))
        assert not rep.ok
        assert "repeated abelian" in rep.violation
        assert rep.steps == []

    def test_rejects_positive_mdeg(self):
        with pytest.raises(ValueError):
            replay_contradiction(TREFOIL)

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

    def test_exactness_on_large_orders(self):
        # distinct large orders: d = 11 * 12 = 132, still exact and fast
        a = lift(UnivarPoly([-1, 1]) * cyclotomic(11) * cyclotomic(12))
        rep = replay_contradiction(a, n_max=3)
        assert rep.ok and rep.d == 132
        for s in rep.steps:
            for p in s.points:
                assert p.forces_trivial
                assert p.u == 1

    def test_high_degree_power(self):
        rep = replay_contradiction(parse_poly("L^2000 - 1"))
        assert rep.ok
        assert rep.d % 2000 == 0


class TestForcedTrivialityIsExact:
    def test_v_order_divides_d(self):
        a = lift(UnivarPoly([-1, 1]) * cyclotomic(2) * cyclotomic(3))
        rep = replay_contradiction(a, n_max=2)
        assert rep.ok and rep.d == 6
        for s in rep.steps:
            for p in s.points:
                assert rep.d % p.v_order == 0
                assert p.u_order == 1

    def test_wrong_slope_does_not_force(self):
        # at slope 1/1 the Phi_3 points have u = v^-1 != 1
        a = lift(UnivarPoly([-1, 1]) * cyclotomic(3))
        inter = surgery_intersection(a, 1)
        nontrivial = [p for p in inter.points if not p.forces_trivial]
        assert len(nontrivial) == 2
        for p in nontrivial:
            assert p.v_order == 3 and p.u_order == 3
