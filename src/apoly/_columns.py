"""Two facts about the Newton polygon of a support, read off its columns
with no hull.

A column is the set of L-exponents of the support's points with one
M-exponent. The hull of a support is the hull of each column's lowest and
highest point, so a hull edge is vertical exactly when the first or the
last column holds two points, and the polygon is degenerate exactly when
every point lies on one line. ``apoly.newton`` exports both readings and
uses them for its hulls; ``structure.analyze`` imports them from here,
without the hull and SVG code, and passes a polynomial's M-slices
{i: {j: c}} as the columns.
"""


def support_columns(points):
    """The columns {i: [j, ...]} of a nonempty set of lattice points."""
    out = {}
    for i, j in points:
        out.setdefault(i, []).append(j)
    return out


def vertical_edge(columns):
    """Whether the Newton polygon of a support has a vertical edge.

    ``columns`` maps each M-exponent of the support to a nonempty
    collection of the distinct L-exponents of its points; an M-slice
    {j: c} is one. None for a single point; otherwise True exactly when
    the first or the last column holds two points, since a vertical
    supporting line meets the hull at the least or the greatest M-exponent.
    """
    first, last = columns[min(columns)], columns[max(columns)]
    if len(columns) == 1 and len(first) == 1:
        return None
    return len(first) > 1 or len(last) > 1


def collinear(columns):
    """Whether every point of a support lies on one line, that is, whether
    its Newton polygon is degenerate; ``columns`` as for vertical_edge.
    Every point must be collinear with the first two."""
    points = [(i, j) for i, js in columns.items() for j in js]
    if len(points) < 3:
        return True
    (i0, j0), (i1, j1) = points[0], points[1]
    di, dj = i1 - i0, j1 - j0
    return all(di * (j - j0) == dj * (i - i0) for i, j in points[2:])
