"""Command-line front end: compute, analyze, verify-db, newton, replay.

Each command imports the modules it uses, so a run loads only its own.
"""

from __future__ import annotations

import argparse
import os
import sys

try:  # the C encoder alone, without the json package's decoder and scanner
    from _json import encode_basestring_ascii as _json_str
except ImportError:
    from json.encoder import encode_basestring_ascii as _json_str

from .poly import PolyParseError, format_poly, parse_poly

__all__ = ["main"]


def _json_parts(obj, indent, out):
    """Append the text of obj, as json.dumps(obj, indent=2) writes it at
    the indent given, to the list out. The standard encoder runs in pure
    Python whenever indent is set; this one writes strings in C."""
    if isinstance(obj, str):
        out.append(_json_str(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)) and obj:
        inner = indent + "  "
        sep = "[\n" + inner
        for item in obj:
            out.append(sep)
            _json_parts(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(obj, dict) and obj:
        inner = indent + "  "
        sep = "{\n" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + _json_str(key) + ": ")
            _json_parts(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(obj, (list, tuple, dict)):
        out.append("{}" if isinstance(obj, dict) else "[]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit_json(obj):
    """Print obj as json.dumps(obj, indent=2) would, byte for byte."""
    out = []
    _json_parts(obj, "", out)
    print("".join(out))


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
    claims = not args.unknot
    report = structure.analyze(poly, name=name, claims_nontrivial_knot=claims)
    if args.json:
        print(f'{{\n  "name": {_json_str(name)},\n  "polynomial": {_json_str(format_poly(poly))},'
              f'\n  "report": {report.json_text("  ")}\n}}')
    else:
        print(format_poly(poly))
        for k, v in report.as_dict().items():
            if k != "name":
                print(f"  {k}: {v}")
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
    report = structure.analyze(
        poly, name=args.name, claims_nontrivial_knot=args.nontrivial
    )
    if args.json:
        print(report.json_text())
    else:
        for k, v in report.as_dict().items():
            print(f"{k}: {v}")
    return 0


def cmd_verify_db(args) -> int:
    from . import db

    try:
        loaded = db.load_table(args.path)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}")
        return 1
    for err in loaded.errors:
        # with --json, stdout carries the JSON document alone
        msg = f"record error (line {err.line}, {err.name or '?'}): {err.message}"
        print(msg, file=sys.stderr if args.json else sys.stdout)
    report = db.verify_all(loaded.records)
    if args.json:
        print(report.json_text())
    else:
        print(report.to_text())
    return report.exit_code


def cmd_newton(args) -> int:
    from . import newton

    poly = _parse_or_exit(args.poly)
    ngon = newton.newton_polygon(poly.normalize())
    degenerate = len(ngon.vertices) < 3
    if len(ngon.vertices) < 2:
        slopes = []
        vertical = None
    else:
        slopes = newton.edge_slopes(ngon)
        vertical = newton.VERTICAL in slopes
    if args.svg:
        try:
            svg = newton.render_svg(ngon, title=args.title)
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}")
            return 1
    payload = {
        "vertices": [list(v) for v in ngon.vertices],
        "degenerate": degenerate,
        "edge_slopes": [str(s) for s in slopes],
        "vertical_edge": vertical,
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"vertices: {payload['vertices']}")
        if degenerate:
            print("degenerate polygon")
        print(f"edge slopes: {', '.join(payload['edge_slopes']) or '(none)'}")
        print(f"vertical edge: {vertical}")
        if args.svg:
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
    if args.json:
        _emit_json(report.as_dict())
    else:
        print(report.to_text())
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
