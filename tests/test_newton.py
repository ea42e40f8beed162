import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given, settings

from apoly import newton
from apoly.newton import (
    VERTICAL,
    convex_hull,
    edge_slopes,
    has_vertical_edge,
    newton_polygon,
    render_svg,
    support,
)
from apoly.poly import BivarPoly, parse_poly

from conftest import bivar_polys

TREFOIL = parse_poly("L^2*M^6 - L*M^6 + L - 1")


def brute_force_vertical(points):
    """Column-extremum oracle: a vertical hull edge exists iff the support
    spans more than one j value at i_min or at i_max."""
    imin = min(i for i, _ in points)
    imax = max(i for i, _ in points)
    left = {j for i, j in points if i == imin}
    right = {j for i, j in points if i == imax}
    return len(left) > 1 or len(right) > 1


class TestSupport:
    def test_unknot(self):
        assert support(parse_poly("L - 1")) == {(0, 0), (0, 1)}

    def test_trefoil_factor(self):
        assert support(parse_poly("L*M^6 + 1")) == {(0, 0), (6, 1)}

    def test_product_expansion(self):
        assert support(TREFOIL) == {(0, 0), (0, 1), (6, 1), (6, 2)}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            support(BivarPoly.zero())


class TestConvexHull:
    def test_interior_and_collinear_points_dropped(self):
        poly = convex_hull({(0, 0), (1, 1), (2, 0), (1, 0)})
        assert poly.vertices == ((0, 0), (2, 0), (1, 1))
        assert not poly.degenerate

    def test_single_point(self):
        poly = convex_hull({(3, 4)})
        assert poly.vertices == ((3, 4),)
        assert poly.degenerate

    def test_trefoil_quadrilateral(self):
        poly = convex_hull({(0, 0), (0, 1), (6, 1), (6, 2)})
        assert set(poly.vertices) == {(0, 0), (0, 1), (6, 1), (6, 2)}
        assert len(poly.vertices) == 4

    def test_collinear_segment(self):
        poly = convex_hull({(0, 0), (1, 1), (2, 2)})
        assert poly.degenerate
        assert poly.vertices == ((0, 0), (2, 2))

    @given(bivar_polys(allow_zero=False, max_terms=10))
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_containment(self, p):
        poly = newton_polygon(p)
        again = convex_hull(set(poly.vertices))
        assert set(again.vertices) == set(poly.vertices)
        # every support point satisfies the hull's half-plane inequalities
        vs = poly.vertices
        if len(vs) >= 3:
            for pt in poly.support:
                for k in range(len(vs)):
                    a, b = vs[k], vs[(k + 1) % len(vs)]
                    assert newton._cross(a, b, pt) >= 0


class TestEdgeSlopes:
    def test_square(self):
        poly = convex_hull({(0, 0), (2, 0), (2, 2), (0, 2)})
        slopes = edge_slopes(poly)
        assert sorted(map(str, slopes)) == sorted(["0", VERTICAL, "0", VERTICAL])

    def test_triangle(self):
        poly = convex_hull({(0, 0), (2, 1), (4, 0)})
        assert sorted(map(str, edge_slopes(poly))) == sorted(["1/2", "-1/2", "0"])

    def test_vertical_segment(self):
        poly = convex_hull({(0, 0), (0, 1)})
        assert edge_slopes(poly) == [VERTICAL]

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            edge_slopes(convex_hull({(1, 1)}))

    def test_lowest_terms(self):
        poly = convex_hull({(0, 0), (4, 2), (4, 0)})
        assert Fraction(1, 2) in edge_slopes(poly)


class TestVerticalEdge:
    def test_trefoil(self):
        assert has_vertical_edge(newton_polygon(TREFOIL))

    def test_triangle_without(self):
        assert not has_vertical_edge(convex_hull({(0, 0), (2, 1), (4, 0)}))

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            has_vertical_edge(convex_hull({(0, 0)}))

    def test_brute_force_oracle(self, rng):
        for _ in range(300):
            pts = {
                (rng.randint(0, 8), rng.randint(0, 8))
                for _ in range(rng.randint(2, 20))
            }
            if len(pts) < 2:
                continue
            poly = convex_hull(pts)
            assert has_vertical_edge(poly) == brute_force_vertical(pts)


    def test_builds_no_edges(self, monkeypatch):
        # consecutive hull vertices are compared directly
        def no_edges(self):
            raise AssertionError("edges were built")

        monkeypatch.setattr(newton.NewtonPolygon, "edges", no_edges)
        assert has_vertical_edge(newton_polygon(TREFOIL))
        assert has_vertical_edge(convex_hull({(3, 0), (3, 5)}))
        assert not has_vertical_edge(convex_hull({(0, 0), (2, 1), (4, 0)}))


class TestSvg:
    def test_single_point(self):
        svg = render_svg(convex_hull({(1, 1)}))
        assert "<circle" in svg and "<path" not in svg

    def test_trefoil_outline(self):
        svg = render_svg(newton_polygon(TREFOIL), title="trefoil")
        assert svg.count('class="hull"') == 1
        assert svg.count('class="vertical"') == 2  # vertical edges at i=0 and i=6
        assert "<title>trefoil</title>" in svg

    def test_empty_title_omitted(self):
        svg = render_svg(newton_polygon(TREFOIL))
        assert "<title>" not in svg

    def test_title_escaped(self):
        title = 'a<b & "c"'
        root = ET.fromstring(render_svg(newton_polygon(TREFOIL), title=title))
        ns = "{http://www.w3.org/2000/svg}"
        assert root.find(f"{ns}title").text == title
        assert root.find(f"{ns}text").text == title

    @pytest.mark.parametrize("title", ["a\x01b", "\x00", "a\udcffb", "\ufffe"])
    def test_title_outside_xml_rejected(self, title):
        with pytest.raises(ValueError):
            render_svg(newton_polygon(TREFOIL), title=title)

    def test_title_with_whitespace_controls_is_xml(self):
        title = "tab\tline\nend"
        root = ET.fromstring(render_svg(newton_polygon(TREFOIL), title=title))
        assert root.find("{http://www.w3.org/2000/svg}title").text == title

    def test_deterministic(self):
        poly = newton_polygon(TREFOIL)
        assert render_svg(poly, "x") == render_svg(poly, "x")

    def test_grid_every_lattice_line_up_to_plot_width(self):
        # a span of 520 fits the 520-pixel plot area: 521 + 2 lattice lines
        svg = render_svg(newton_polygon(parse_poly("L*M^520 + 1")))
        assert svg.count('class="grid"') == 521 + 2

    def test_grid_bounded_for_wide_span(self):
        pts = {(0, 0), (10**6, 1), (3, 0), (500_000, 1), (999_999, 0)}
        svg = render_svg(convex_hull(pts))
        assert svg.count('class="grid"') <= 1042
        assert svg.count('class="dot"') == len(pts)
