"""Command-line front end: compute, analyze, verify-db, newton, replay.

Each command imports only the modules it uses, so a run loads only its
own, calls the library and prints the text that its result record
writes: only the error lines and newton's "wrote" line are written here.
"""

from __future__ import annotations

import argparse
import os
import sys

from .poly import PolyParseError, parse_poly

__all__ = ["main"]


def _parse_or_exit(text):
    try:
        p = parse_poly(text)
    except PolyParseError as exc:
        print(f"error: {exc}")
        raise SystemExit(1)
    if p.is_zero:
        print("error: the zero polynomial has no analysis")
        raise SystemExit(1)
    return p


def cmd_compute(args) -> int:
    from . import knots, structure

    try:
        if args.unknot:
            name, poly = "unknot", knots.unknot_a()
        elif args.torus:
            p, q = args.torus
            name, poly = f"torus({p},{q})", knots.torus_a(p, q)
        else:
            p, q = args.two_bridge
            name, poly = f"twobridge({p},{q})", knots.eliminate_two_bridge(p, q)
    except (ValueError, knots.EliminationDegeneracyError) as exc:
        print(f"error: {exc}")
        return 1
    report = structure.analyze(poly, name=name, claims_nontrivial_knot=not args.unknot)
    print(report.compute_json_text(poly) if args.json else report.compute_text(poly))
    return 0


def cmd_analyze(args) -> int:
    from . import structure

    text = args.poly
    if args.file:
        try:
            with open(args.file, encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: {exc}")
            return 1
    poly = _parse_or_exit(text)
    report = structure.analyze(poly, name=args.name, claims_nontrivial_knot=args.nontrivial)
    print(report.json_text() if args.json else report.to_text())
    return 0


def cmd_verify_db(args) -> int:
    from . import db

    try:
        loaded = db.load_table(args.path)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}")
        return 1
    errors = loaded.to_text()
    if errors:  # with --json, stdout carries the JSON document alone
        print(errors, file=sys.stderr if args.json else sys.stdout)
    report = db.verify_all(loaded.records)
    print(report.json_text() if args.json else report.to_text())
    return report.exit_code


def cmd_newton(args) -> int:
    from . import newton

    ngon = newton.newton_polygon(_parse_or_exit(args.poly).normalize())
    if args.svg:
        try:
            svg = newton.render_svg(ngon, title=args.title)
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}")
            return 1
    print(ngon.json_text() if args.json else ngon.to_text())
    if args.svg and not args.json:
        print(f"wrote {args.svg}")
    return 0


def cmd_replay(args) -> int:
    from . import surgery

    if args.nmax < 1:
        print(f"error: --nmax must be at least 1, got {args.nmax}")
        return 1
    poly = _parse_or_exit(args.poly)
    try:
        report = surgery.replay_contradiction(poly, n_max=args.nmax)
    except ValueError as exc:
        print(f"error: {exc}")
        return 1
    print(report.json_text() if args.json else report.to_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apoly",
        description="Exact A-polynomial computation and structural analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="compute the A-polynomial of a knot")
    group = c.add_mutually_exclusive_group(required=True)
    group.add_argument("--unknot", action="store_true")
    group.add_argument("--torus", nargs=2, type=int, metavar=("P", "Q"))
    group.add_argument("--two-bridge", nargs=2, type=int, metavar=("P", "Q"))
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_compute)

    a = sub.add_parser("analyze", help="structural analysis of a polynomial")
    a.add_argument("poly", nargs="?", default="")
    a.add_argument("--file", help="read the polynomial expression from a file")
    a.add_argument("--name", default="")
    a.add_argument("--nontrivial", action="store_true", help="assert the knot is nontrivial")
    a.add_argument("--json", action="store_true")
    a.set_defaults(func=cmd_analyze)

    v = sub.add_parser("verify-db", help="batch-verify a record file")
    v.add_argument("path")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify_db)

    n = sub.add_parser("newton", help="Newton polygon, slopes, SVG rendering")
    n.add_argument("poly")
    n.add_argument("--svg", help="write the polygon as SVG to this path")
    n.add_argument("--title", default="")
    n.add_argument("--json", action="store_true")
    n.set_defaults(func=cmd_newton)

    r = sub.add_parser("replay", help="replay the deg_M = 0 contradiction")
    r.add_argument("poly")
    r.add_argument("--nmax", type=int, default=5)
    r.add_argument("--json", action="store_true")
    r.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`apoly ... | head -1`): nothing more can
        # be written, and the flush at exit writes what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
