"""Command-line front end: compute, analyze, verify-db, newton, replay.

Each command imports only the modules it uses, so a run loads only its
own, calls the library and prints the text that its result record
writes: only the error lines and newton's "wrote" line are written here.
The command line is read from one table, COMMANDS, in one pass: an
argument that starts with "--", or is "-h", is an option; any other, a
polynomial that starts with "-" too, is a value; after "--" every
argument is positional.
"""

from __future__ import annotations

import gc
import os
import sys

__all__ = ["main"]


def _parse_or_exit(text):
    from .grammar import PolyParseError, parse_poly

    try:
        p = parse_poly(text)
    except PolyParseError as exc:
        print(f"error: {exc}")
        raise SystemExit(1)
    if p.is_zero:
        print("error: the zero polynomial has no analysis")
        raise SystemExit(1)
    return p


def cmd_compute(unknot, torus, two_bridge, json) -> int:
    from . import knots, structure

    try:
        if unknot:
            name, poly = "unknot", knots.unknot_a()
        elif torus:
            p, q = torus
            name, poly = f"torus({p},{q})", knots.torus_a(p, q)
        else:
            p, q = two_bridge
            name, poly = f"twobridge({p},{q})", knots.eliminate_two_bridge(p, q)
    except (ValueError, knots.EliminationDegeneracyError) as exc:
        print(f"error: {exc}")
        return 1
    report = structure.analyze(poly, name=name, claims_nontrivial_knot=not unknot)
    print(report.compute_json_text(poly) if json else report.compute_text(poly))
    return 0


def cmd_analyze(poly, file, name, nontrivial, json) -> int:
    from . import structure

    if (file is None) == (not poly):  # neither input, or both
        _usage_error("analyze", "argument --file: not allowed with argument poly" if poly
                     else "one of the arguments poly --file is required")
    text = poly
    if file is not None:
        try:
            with open(file, encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"error: {exc}")
            return 1
    report = structure.analyze(_parse_or_exit(text), name=name, claims_nontrivial_knot=nontrivial)
    print(report.json_text() if json else report.to_text())
    return 0


def cmd_verify_db(path, json) -> int:
    from . import db

    try:
        loaded = db.load_table(path)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}")
        return 1
    errors = loaded.to_text()
    if errors:  # with --json, stdout carries the JSON document alone
        print(errors, file=sys.stderr if json else sys.stdout)
    report = db.verify_all(loaded.records)
    print(report.json_text() if json else report.to_text())
    return report.exit_code


def cmd_newton(poly, svg, title, json) -> int:
    from . import newton

    ngon = newton.newton_polygon(_parse_or_exit(poly).normalize())
    if svg:
        try:
            text = newton.render_svg(ngon, title=title)
            with open(svg, "w", encoding="utf-8") as fh:
                fh.write(text)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}")
            return 1
    print(ngon.json_text() if json else ngon.to_text())
    if svg and not json:
        print(f"wrote {svg}")
    return 0


def cmd_replay(poly, nmax, json) -> int:
    from . import surgery

    if nmax < 1:
        print(f"error: --nmax must be at least 1, got {nmax}")
        return 1
    polynomial = _parse_or_exit(poly)
    try:
        report = surgery.replay_contradiction(polynomial, n_max=nmax)
    except ValueError as exc:
        print(f"error: {exc}")
        return 1
    print(report.json_text() if json else report.to_text())
    return 0


_JSON = ("--json", "", None, False, "write the result as JSON")

# command -> (help, handler, positionals, options, the options of which
# exactly one is required). A positional is (name, default), required when
# its default is None. An option is (name, metavar, type, default, help):
# it takes one value for each word of its metavar, converted by its type,
# and a flag, with no metavar, is True when given and False otherwise. Each
# value reaches the handler as the keyword named after the option.
COMMANDS = {
    "compute": (
        "compute the A-polynomial of a knot",
        cmd_compute,
        (),
        (
            ("--unknot", "", None, False, "the unknot"),
            ("--torus", "P Q", int, None, "the (P, Q) torus knot"),
            ("--two-bridge", "P Q", int, None, "the two-bridge knot K(P/Q)"),
            _JSON,
        ),
        ("--unknot", "--torus", "--two-bridge"),
    ),
    "analyze": (
        "structural analysis of a polynomial",
        cmd_analyze,
        (("poly", ""),),
        (
            ("--file", "FILE", str, None, "read the polynomial expression from a file"),
            ("--name", "NAME", str, "", "the name the report carries"),
            ("--nontrivial", "", None, False, "assert the knot is nontrivial"),
            _JSON,
        ),
        (),
    ),
    "verify-db": (
        "batch-verify a record file",
        cmd_verify_db,
        (("path", None),),
        (_JSON,),
        (),
    ),
    "newton": (
        "Newton polygon, slopes, SVG rendering",
        cmd_newton,
        (("poly", None),),
        (
            ("--svg", "SVG", str, None, "write the polygon as SVG to this path"),
            ("--title", "TITLE", str, "", "the SVG's title"),
            _JSON,
        ),
        (),
    ),
    "replay": (
        "replay the deg_M = 0 contradiction",
        cmd_replay,
        (("poly", None),),
        (("--nmax", "NMAX", int, 5, "the number of surgery steps to replay"), _JSON),
        (),
    ),
}
DESCRIPTION = "Exact A-polynomial computation and structural analysis"


def _is_option(arg):
    return arg[:2] == "--" or arg == "-h"


def _usage(command):
    """The usage line of the command, or of apoly when it is None."""
    if command is None:
        return "usage: apoly [-h] {" + ",".join(COMMANDS) + "} ..."
    _, _, positionals, options, one_of = COMMANDS[command]
    shown = {name: f"{name} {metavar}".strip() for name, metavar, _, _, _ in options}
    words = [f"usage: apoly {command} [-h]"]
    if one_of:
        words.append("(" + " | ".join(map(shown.get, one_of)) + ")")
    words += [f"[{text}]" for name, text in shown.items() if name not in one_of]
    words += [name if default is None else f"[{name}]" for name, default in positionals]
    return " ".join(words)


def _exit_with_help(command):
    """Write the help of the command, or of apoly when it is None, to
    stdout and exit 0."""
    if command is None:
        about, rows = DESCRIPTION, [(name, spec[0]) for name, spec in COMMANDS.items()]
    else:
        about, rows = COMMANDS[command][0], [("-h, --help", "show this help and exit")]
        rows += [(f"{name} {metavar}".strip(), text)
                 for name, metavar, _, _, text in COMMANDS[command][3]]
    sys.stdout.write(f"{_usage(command)}\n\n{about}\n\n"
                     + "".join(f"  {left:<18}{text}\n" for left, text in rows))
    raise SystemExit(0)


def _usage_error(command, message):
    """Write the usage line and an error line to stderr and exit 2."""
    prog = "apoly" if command is None else f"apoly {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _parse_args(argv):
    """(handler, keyword arguments) for the command line argv, read from
    COMMANDS in one pass. -h or --help writes the help text and exits 0; a
    usage error writes the usage and an error line to stderr and exits 2.
    Errors in the option values come first, in order, and then a missing
    argument and an argument that no rule takes."""
    if not argv or argv[0] not in COMMANDS:
        if argv[0:1] in (["-h"], ["--help"]):
            _exit_with_help(None)
        choices = ", ".join(map(repr, COMMANDS))
        _usage_error(None, f"argument command: invalid choice: {argv[0]!r} (choose from {choices})"
                     if argv else "the following arguments are required: command")
    command = argv[0]
    _, handler, positionals, options, one_of = COMMANDS[command]
    specs = {option[0]: option for option in options}
    values = dict(positionals)
    values.update((name, default) for name, _, _, default, _ in options)
    words, unknown, chosen = [], [], None
    k = 1
    while k < len(argv):
        arg = argv[k]
        k += 1
        if arg == "--":
            words += argv[k:]
            break
        if arg in ("-h", "--help"):
            _exit_with_help(command)
        if not _is_option(arg):
            words.append(arg)
            continue
        name, equals, value = arg.partition("=")
        if name not in specs:
            unknown.append(arg)
            continue
        _, metavar, kind, _, _ = specs[name]
        count = len(metavar.split())
        if equals and count != 1:
            _usage_error(command, f"argument {name}: expected {count} arguments" if count
                         else f"argument {name}: ignored explicit argument {value!r}")
        given = [value] if equals else argv[k:k + count]
        if len(given) < count or any(map(_is_option, given)):
            _usage_error(command, f"argument {name}: expected "
                         + ("one argument" if count == 1 else f"{count} arguments"))
        k += 0 if equals else count
        for n, word in enumerate(given):
            try:
                given[n] = kind(word)
            except ValueError:
                _usage_error(command, f"argument {name}: invalid int value: {word!r}")
        if name in one_of:
            if chosen not in (None, name):
                _usage_error(command, f"argument {name}: not allowed with argument {chosen}")
            chosen = name
        values[name] = given if count > 1 else given[0] if count else True
    missing = [name for name, default in positionals[len(words):] if default is None]
    if missing:
        _usage_error(command, "the following arguments are required: " + ", ".join(missing))
    if one_of and chosen is None:
        _usage_error(command, "one of the arguments " + " ".join(one_of) + " is required")
    unknown += words[len(positionals):]
    if unknown:
        _usage_error(command, "unrecognized arguments: " + " ".join(unknown))
    values.update(zip(dict(positionals), words))
    return handler, {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}


def main(argv=None) -> int:
    try:
        handler, values = _parse_args(sys.argv[1:] if argv is None else list(argv))
        try:
            code = handler(**values)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout (`apoly ... | head -1`): nothing more can
            # be written, and the flush at exit writes what is left to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            code = 1
        if argv is None:
            sys.exit(code)
        return code
    finally:
        if argv is None:
            # no command leaves a reference cycle (a tier-1 test checks each), so
            # the exit-time collections would find nothing: frozen on every exit,
            # usage and parse errors too, the run's objects are not walked at all
            gc.freeze()


if __name__ == "__main__":
    main()
