"""Exact A-polynomial computation and structural analysis.

Subpackages by role: ``poly`` (exact sparse arithmetic), ``newton``
(Newton polygons and SVG), ``structure`` (cyclotomic and unit-evaluation
analysis), ``surgery`` (the degree-zero contradiction replay), ``knots``
(unknot, torus, two-bridge generators), ``db`` (record ingest and batch
verification), ``cli`` (command line).
"""

from .poly import (
    BivarPoly,
    PolyParseError,
    UnivarPoly,
    format_poly,
    gcd_univar,
    parse_poly,
)

__version__ = "0.1.0"

__all__ = [
    "BivarPoly",
    "UnivarPoly",
    "PolyParseError",
    "parse_poly",
    "format_poly",
    "gcd_univar",
    "__version__",
]
