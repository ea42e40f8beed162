#!/usr/bin/env python3
"""Regenerate the bundled fixture table from the knot generators.

Writes src/apoly/data/fixtures.txt: the unknot plus every torus and
two-bridge A-polynomial in the supported p <= 9 envelope.
"""

import pathlib

from apoly import format_poly
from apoly.knots import eliminate_two_bridge, torus_a, unknot_a

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "apoly" / "data" / "fixtures.txt"

TORUS = [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5)]
TWO_BRIDGE = [(3, 1), (5, 1), (5, 3), (7, 1), (7, 3), (7, 5), (9, 1), (9, 5), (9, 7)]


def fixture_text() -> str:
    """The fixture table, one record a line, as written to OUT."""
    lines = ["# computed A-polynomial fixtures (regenerate with scripts/make_fixtures.py)"]
    lines.append(f"unknot ; {format_poly(unknot_a())}")
    for p, q in TORUS:
        lines.append(f"torus_{p}_{q} ; {format_poly(torus_a(p, q))}")
    for p, q in TWO_BRIDGE:
        lines.append(f"twobridge_{p}_{q} ; {format_poly(eliminate_two_bridge(p, q))}")
    return "\n".join(lines) + "\n"


def main():
    text = fixture_text()
    records = text.count("\n") - 1  # every line but the header
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(text, encoding="utf-8")
    print(f"wrote {OUT} ({records} records)")


if __name__ == "__main__":
    main()
