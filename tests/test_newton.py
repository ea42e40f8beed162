import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apoly import newton
from apoly.newton import (
    VERTICAL,
    convex_hull,
    edge_slopes,
    newton_polygon,
    render_svg,
    support,
)
from apoly.grammar import parse_poly
from apoly.poly import BivarPoly
from apoly.structure import _collinear, _m_slices, _vertical_edge

from conftest import bivar_polys, hull_has_vertical_edge, hull_vertices

TREFOIL = parse_poly("L^2*M^6 - L*M^6 + L - 1")


def brute_force_vertical(points):
    """Column-extremum oracle: a vertical hull edge exists iff the support
    spans more than one j value at i_min or at i_max."""
    imin = min(i for i, _ in points)
    imax = max(i for i, _ in points)
    left = {j for i, j in points if i == imin}
    right = {j for i, j in points if i == imax}
    return len(left) > 1 or len(right) > 1


def has_vertical_edge(poly):
    """The vertical edge as the newton command reads it, off the slopes."""
    return VERTICAL in edge_slopes(poly)


def point_slices(points):
    """The M-slices {i: {j: 1}} of the polynomial with this support."""
    return _m_slices(dict.fromkeys(points, 1))


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

    def test_single_point(self):
        poly = convex_hull({(3, 4)})
        assert poly.vertices == ((3, 4),)

    def test_trefoil_quadrilateral(self):
        poly = convex_hull({(0, 0), (0, 1), (6, 1), (6, 2)})
        assert set(poly.vertices) == {(0, 0), (0, 1), (6, 1), (6, 2)}
        assert len(poly.vertices) == 4

    def test_collinear_segment(self):
        poly = convex_hull({(0, 0), (1, 1), (2, 2), (3, 3)})
        assert poly.vertices == ((0, 0), (3, 3))
        assert convex_hull({(2, 5), (2, 1), (2, 3)}).vertices == ((2, 1), (2, 5))

    def test_non_integer_points_rejected(self):
        # int() would truncate (0.9, 0) to (0, 0) and (1, 1.7) to (1, 1),
        # and return the hull of other points without a word
        for points in ({(0.9, 0), (1, 1), (2, 0)}, {(0, 0), (1, 1.7), (2, 0)},
                       {(0, 0), (Fraction(1, 2), 1)}, {("1", 0)}):
            with pytest.raises(TypeError):
                convex_hull(points)
        # an int-like number is read as the int it is
        assert convex_hull({(True, 0), (0, 2)}).vertices == ((0, 2), (1, 0))

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

    @given(bivar_polys(allow_zero=False))
    @settings(max_examples=100, deadline=None)
    def test_one_edge_list_for_slopes_test_and_svg(self, p):
        # the three read the same hull-vertex pairs, a segment's once
        poly = newton_polygon(p)
        if len(poly.vertices) < 2:
            return
        slopes = edge_slopes(poly)
        assert len(slopes) == (1 if len(poly.vertices) == 2 else len(poly.vertices))
        assert (VERTICAL in slopes) == hull_has_vertical_edge(list(poly.vertices))
        assert render_svg(poly).count('class="vertical"') == slopes.count(VERTICAL)


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
        # the analysis reads the vertical edge off the M-slices, with no
        # hull and no slope
        import fractions

        def no_hull_or_slopes(*args):
            raise AssertionError("a hull or a slope was built")

        monkeypatch.setattr(fractions, "Fraction", no_hull_or_slopes)
        monkeypatch.setattr(newton, "convex_hull", no_hull_or_slopes)
        assert _vertical_edge(_m_slices(TREFOIL.terms))
        assert _vertical_edge(point_slices({(3, 0), (3, 5)}))
        assert not _vertical_edge(point_slices({(0, 0), (2, 1), (4, 0)}))


@st.composite
def point_sets(draw):
    """Random supports, collinear (vertical lines included) and in one
    column as well as scattered."""
    kind = draw(st.sampled_from(["scattered", "line", "column"]))
    if kind == "scattered":
        coords = st.tuples(st.integers(0, 6), st.integers(0, 6))
        return draw(st.sets(coords, min_size=1, max_size=12))
    if kind == "column":
        i = draw(st.integers(0, 6))
        return {(i, j) for j in draw(st.sets(st.integers(0, 9), min_size=1, max_size=6))}
    i0, di, dj = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(-3, 3))
    ts = draw(st.sets(st.integers(0, 5), min_size=1, max_size=6))
    return {(i0 + t * di, 15 + t * dj) for t in ts}


class TestColumnReadings:
    """The two readings of the vertical edge and the degeneracy, the
    analysis's off the M-slices and the newton command's off the hull's
    slopes and vertex count, against the reference hull's edges and vertex
    count."""

    @given(point_sets())
    @settings(max_examples=500, deadline=None)
    def test_match_hull(self, pts):
        vertices = hull_vertices(pts)
        slices = point_slices(pts)
        assert _vertical_edge(slices) == hull_has_vertical_edge(vertices)
        assert _collinear(slices) == (len(vertices) <= 2)
        poly = convex_hull(pts)
        assert poly.vertices == tuple(vertices)
        if len(poly.vertices) >= 2:
            assert has_vertical_edge(poly) == hull_has_vertical_edge(vertices)
            assert has_vertical_edge(poly) == brute_force_vertical(pts)

    @given(bivar_polys(allow_zero=False))
    @settings(max_examples=200, deadline=None)
    def test_slices_are_columns(self, p):
        # an M-slice {j: c} serves as its column whatever its coefficients
        slices = _m_slices(p.terms)
        vertices = hull_vertices(p.terms)
        assert _vertical_edge(slices) == _vertical_edge(point_slices(p.terms))
        assert _vertical_edge(slices) == hull_has_vertical_edge(vertices)
        assert _collinear(slices) == (len(newton_polygon(p).vertices) < 3)


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
