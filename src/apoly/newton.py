"""Newton polygons of bivariate polynomials.

Convex hulls are computed with exact integer cross products (monotone
chain); edge slopes are lowest-terms fractions of L-exponent over
M-exponent, with a distinguished VERTICAL tag, and polygons render to
deterministic SVG.
"""

from __future__ import annotations

import re

from ._record import Record
from .poly import BivarPoly

__all__ = [
    "VERTICAL",
    "Edge",
    "NewtonPolygon",
    "support",
    "convex_hull",
    "newton_polygon",
    "edge_slopes",
    "has_vertical_edge",
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


class Edge(Record):
    __slots__ = ("start", "end", "slope")

    def __init__(self, start, end, slope):
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "slope", slope)  # Fraction or VERTICAL

    @property
    def is_vertical(self):
        return self.slope == VERTICAL


class NewtonPolygon(Record):
    """Hull vertices in counterclockwise order plus the original support.

    Degenerate inputs keep 1 vertex (single point) or 2 (collinear set,
    extreme points only) and set the degenerate flag.
    """

    __slots__ = ("vertices", "support", "degenerate")

    def __init__(self, vertices, support, degenerate=False):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "degenerate", degenerate)

    def edges(self):
        """Hull edges with slope tags; empty for a single point."""
        from fractions import Fraction

        vs = self.vertices
        ends = vs[1:] + vs[:1] if len(vs) > 2 else vs[1:]  # a segment has one edge, not two
        return [
            Edge(a, b, VERTICAL if a[0] == b[0] else Fraction(b[1] - a[1], b[0] - a[0]))
            for a, b in zip(vs, ends)
        ]


def convex_hull(points) -> NewtonPolygon:
    """Exact integer convex hull of lattice points, counterclockwise."""
    pts = sorted({(int(i), int(j)) for i, j in points})
    if not pts:
        raise ValueError("convex hull of an empty point set")
    if len(pts) == 1:
        return NewtonPolygon(tuple(pts), frozenset(pts), degenerate=True)
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
    verts = lower[:-1] + upper[:-1]
    if len(verts) <= 2:
        # collinear: keep the two lexicographic extremes
        return NewtonPolygon((pts[0], pts[-1]), frozenset(pts), degenerate=True)
    return NewtonPolygon(tuple(verts), frozenset(pts))


def newton_polygon(p: BivarPoly) -> NewtonPolygon:
    return convex_hull(support(p))


def edge_slopes(poly: NewtonPolygon):
    """Multiset (list) of slope tags, one entry per hull edge."""
    if len(poly.vertices) < 2:
        raise ValueError("a single-point polygon has no edges")
    return [e.slope for e in poly.edges()]


def has_vertical_edge(poly: NewtonPolygon) -> bool:
    """Whether two cyclically consecutive hull vertices share their M-exponent."""
    vs = poly.vertices
    if len(vs) < 2:
        raise ValueError("vertical-edge test needs at least two distinct points")
    return any(vs[k - 1][0] == vs[k][0] for k in range(len(vs)))


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
        for e in poly.edges():
            if e.is_vertical:
                lines.append(
                    f'<line class="vertical" x1="{sx(e.start[0]):.2f}" y1="{sy(e.start[1]):.2f}" '
                    f'x2="{sx(e.end[0]):.2f}" y2="{sy(e.end[1]):.2f}"/>'
                )
    for p in pts:
        lines.append(f'<circle class="dot" cx="{sx(p[0]):.2f}" cy="{sy(p[1]):.2f}" r="4"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
