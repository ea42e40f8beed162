"""Exact A-polynomial computation and structural analysis.

Modules by role: ``poly`` (exact sparse arithmetic), ``grammar`` (the
polynomial text grammar), ``newton`` (Newton polygons and SVG),
``structure`` (the structural checks and their report), ``recognition``
(cyclotomic recognition and the degree-zero decomposition), ``surgery``
(the degree-zero contradiction replay), ``knots`` (unknot, torus,
two-bridge generators), ``db`` (record ingest and batch verification),
``cli`` (command line).
"""

from .poly import BivarPoly, format_poly

__version__ = "0.1.0"

__all__ = [
    "BivarPoly",
    "PolyParseError",
    "parse_poly",
    "format_poly",
    "__version__",
]


def __getattr__(name):
    # the grammar is compiled on first use: `compute` parses no text
    if name in ("PolyParseError", "parse_poly"):
        from . import grammar

        return getattr(grammar, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
