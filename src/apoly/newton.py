"""Newton polygons of bivariate polynomials.

Convex hulls are computed with exact integer cross products (monotone
chain). The hull's edges are its consecutive vertex pairs, cyclically, and
a segment's one pair; edge slopes are lowest-terms fractions of L-exponent
over M-exponent, with a distinguished VERTICAL tag, and polygons render to
deterministic SVG. A polygon is degenerate exactly when it has fewer than
three vertices, and it has a vertical edge exactly when VERTICAL is among
its slopes; a single point has no slopes, and None for the second. These
facts are what the newton command writes, as text or as --json.
"""

from __future__ import annotations

import re
from operator import index

from ._record import _JSON_FLAG, Record, _json_list, _json_str
from .poly import BivarPoly

__all__ = [
    "VERTICAL",
    "NewtonPolygon",
    "support",
    "convex_hull",
    "newton_polygon",
    "edge_slopes",
    "render_svg",
]

VERTICAL = "VERTICAL"


def support(p: BivarPoly):
    """Exponent support of a nonzero polynomial as a set of (i, j) points."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no Newton polygon")
    return set(p.terms)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _edges(vs):
    """The (start, end) vertex pairs of the hull edges; none for a single
    point, and one, not two, for a segment."""
    return zip(vs, vs[1:] + vs[:1] if len(vs) > 2 else vs[1:])


class NewtonPolygon(Record):
    """Hull vertices in counterclockwise order plus the original support.

    A degenerate support keeps 1 vertex (single point) or 2 (collinear set,
    extreme points only).
    """

    __slots__ = ("vertices", "support")

    def _facts(self):
        """(degenerate, slope texts, vertical edge), the last None for a
        single point."""
        if len(self.vertices) < 2:
            return True, [], None
        slopes = [str(s) for s in edge_slopes(self)]
        return len(self.vertices) < 3, slopes, VERTICAL in slopes

    def to_text(self):
        """The text of newton: the vertices, then the facts, one a line."""
        degenerate, slopes, vertical = self._facts()
        lines = [f"vertices: {[list(v) for v in self.vertices]}"]
        if degenerate:
            lines.append("degenerate polygon")
        lines.append(f"edge slopes: {', '.join(slopes) or '(none)'}")
        lines.append(f"vertical edge: {vertical}")
        return "\n".join(lines)

    def json_text(self):
        """The --json text: the vertices, whether the polygon is degenerate,
        the slope texts and whether one edge is vertical."""
        degenerate, slopes, vertical = self._facts()
        vertices = [_json_list([str(i), str(j)], "    ") for i, j in self.vertices]
        return (f'{{\n  "vertices": {_json_list(vertices, "  ")},\n  '
                f'"degenerate": {_JSON_FLAG[degenerate]},\n  '
                f'"edge_slopes": {_json_list(list(map(_json_str, slopes)), "  ")},\n  '
                f'"vertical_edge": {_JSON_FLAG[vertical]}\n}}')


def convex_hull(points) -> NewtonPolygon:
    """Exact integer convex hull of lattice points, counterclockwise; a
    coordinate that is not an int, such as 0.9, raises TypeError."""
    pts = sorted({(index(i), index(j)) for i, j in points})
    if not pts:
        raise ValueError("convex hull of an empty point set")
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    # a collinear set leaves its two extremes, a single point nothing
    return NewtonPolygon(tuple(lower[:-1] + upper[:-1]) or (pts[0],), frozenset(pts))


def newton_polygon(p: BivarPoly) -> NewtonPolygon:
    return convex_hull(support(p))


def edge_slopes(poly: NewtonPolygon):
    """Multiset (list) of slope tags, one entry per hull edge."""
    if len(poly.vertices) < 2:
        raise ValueError("a single-point polygon has no edges")
    from fractions import Fraction

    return [
        VERTICAL if a[0] == b[0] else Fraction(b[1] - a[1], b[0] - a[0])
        for a, b in _edges(poly.vertices)
    ]


# what XML 1.0's Char production leaves out; compiled on first use, not at import
_NON_XML_CHAR = r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def render_svg(poly: NewtonPolygon, title: str = "") -> str:
    """Deterministic SVG 1.1 document for a Newton polygon.

    Fixed 600x600 canvas with margin 40; lattice grid, support dots, hull
    outline (class "hull") and highlighted vertical edges (class
    "vertical"). The grid draws every step-th lattice line, with step =
    ceil(max span / 520), so at most one per pixel of the plot area. The
    title is XML-escaped; one with a character outside XML 1.0 is a
    ValueError. Identical input yields byte-identical output.
    """
    import html
    from fractions import Fraction

    bad = re.search(_NON_XML_CHAR, title)
    if bad:
        raise ValueError(f"title character {bad.group()!r} cannot be written in XML")
    size, margin = 600, 40
    pts = sorted(poly.support)
    imin = min(p[0] for p in pts)
    imax = max(p[0] for p in pts)
    jmin = min(p[1] for p in pts)
    jmax = max(p[1] for p in pts)
    span_i = max(imax - imin, 1)
    span_j = max(jmax - jmin, 1)
    scale = Fraction(size - 2 * margin, max(span_i, span_j))

    def sx(i):
        return float(margin + scale * (i - imin))

    def sy(j):
        # j axis points up
        return float(size - margin - scale * (j - jmin))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{size}" height="{size}" viewBox="0 0 {size} {size}">',
        "<style>"
        ".grid{stroke:#dddddd;stroke-width:1}"
        ".hull{stroke:#1f3a93;stroke-width:2;fill:none}"
        ".vertical{stroke:#c0392b;stroke-width:4;fill:none}"
        ".dot{fill:#222222}"
        ".label{font-family:monospace;font-size:16px;fill:#222222}"
        "</style>",
    ]
    if title:
        title = html.escape(title)
        lines.append(f"<title>{title}</title>")
        lines.append(f'<text class="label" x="{margin}" y="{margin - 12}">{title}</text>')
    step = -(-max(span_i, span_j) // (size - 2 * margin))
    for i in range(imin, imax + 1, step):
        lines.append(
            f'<line class="grid" x1="{sx(i):.2f}" y1="{sy(jmin):.2f}" x2="{sx(i):.2f}" y2="{sy(jmax):.2f}"/>'
        )
    for j in range(jmin, jmax + 1, step):
        lines.append(
            f'<line class="grid" x1="{sx(imin):.2f}" y1="{sy(j):.2f}" x2="{sx(imax):.2f}" y2="{sy(j):.2f}"/>'
        )
    if len(poly.vertices) >= 2:
        path = " ".join(
            f"{'M' if k == 0 else 'L'} {sx(v[0]):.2f} {sy(v[1]):.2f}"
            for k, v in enumerate(poly.vertices)
        )
        closing = " Z" if len(poly.vertices) > 2 else ""
        lines.append(f'<path class="hull" d="{path}{closing}"/>')
        for a, b in _edges(poly.vertices):
            if a[0] == b[0]:
                lines.append(
                    f'<line class="vertical" x1="{sx(a[0]):.2f}" y1="{sy(a[1]):.2f}" '
                    f'x2="{sx(b[0]):.2f}" y2="{sy(b[1]):.2f}"/>'
                )
    for p in pts:
        lines.append(f'<circle class="dot" cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" r="4"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
