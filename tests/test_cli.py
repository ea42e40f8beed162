import gc
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apoly import cli
from apoly.cli import main
from apoly.poly import BivarPoly

from conftest import argparse_oracle

FIXTURES = resources.files("apoly.data") / "fixtures.txt"
TREFOIL_TEXT = "L^2*M^6 - L*M^6 + L - 1"
LONG_LITERAL = "7" * 5000  # past the parser's 4300-digit bound
# every literal is within the bound, but the square's L^2 coefficient is not
LONG_PRODUCT = f"({'9' * 3000}*L - 1)^2"


def long_residual_text():
    """Literals of 4300 digits whose quotient by (L-1) has longer ones."""
    c = 5 * 10**4299
    coeffs = [c] * 10 + [-c] * 10
    coeffs[0] -= 1
    coeffs[1] += 1
    return " + ".join(f"({a})*L^{k}" for k, a in enumerate(coeffs))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def deep(depth):
    return "(" * depth + "L-1" + ")" * depth


class TestCompute:
    def test_unknot(self, capsys):
        code, out = run(capsys, "compute", "--unknot")
        assert code == 0
        assert out.splitlines()[0] == "L - 1"

    def test_torus_json(self, capsys):
        code, payload = run_json(capsys, "compute", "--torus", "2", "3", "--json")
        assert code == 0
        assert payload["polynomial"] == TREFOIL_TEXT
        assert payload["report"]["deg_M"] == 6
        assert payload["report"]["verdict"] == "PASS"

    def test_two_bridge(self, capsys):
        code, out = run(capsys, "compute", "--two-bridge", "3", "1")
        assert code == 0
        assert out.splitlines()[0] == TREFOIL_TEXT

    def test_two_bridge_even_q(self, capsys):
        # 5/2 and 5/3 are both the figure-eight knot (2 * 3 = 1 mod 5)
        code, out = run(capsys, "compute", "--two-bridge", "5", "2")
        assert code == 0
        assert out == run(capsys, "compute", "--two-bridge", "5", "3")[1]

    def test_two_bridge_above_bound(self, capsys):
        code, out = run(capsys, "compute", "--two-bridge", "27", "5")
        assert code == 1
        assert out == "error: two-bridge p = 27 is above the largest accepted, 25\n"

    def test_invalid_torus(self, capsys):
        code, out = run(capsys, "compute", "--torus", "2", "4")
        assert code == 1
        assert "coprime" in out


class TestAnalyze:
    def test_unknot_verdict(self, capsys):
        code, payload = run_json(capsys, "analyze", "L - 1", "--json")
        assert code == 0
        assert payload["verdict"] == "UNKNOT_OK"

    def test_trefoil_nontrivial(self, capsys):
        code, payload = run_json(
            capsys, "analyze", TREFOIL_TEXT, "--nontrivial", "--json"
        )
        assert code == 0
        assert payload["verdict"] == "PASS"

    def test_abelian_pair_fails(self, capsys):
        code, payload = run_json(capsys, "analyze", "L^2 - 1", "--nontrivial", "--json")
        assert code == 0
        assert payload["verdict"] == "FAIL"

    def test_parse_error_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "L + + 1"])
        assert exc.value.code == 1

    def test_deep_nesting_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", deep(600)])
        out = capsys.readouterr().out
        assert exc.value.code == 1
        assert out == "error: parentheses nested deeper than 200 (line 1, column 201)\n"

    @pytest.mark.parametrize(
        "text, col",
        [(f"{LONG_LITERAL}*L - 1", 1), (f"L^{LONG_LITERAL} - 1", 3)],
        ids=["coefficient", "exponent"],
    )
    def test_long_literal_exit_1(self, capsys, text, col):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", text])
        out = capsys.readouterr().out
        assert exc.value.code == 1
        assert out.startswith("error: integer literal of 5000 digits")
        assert f"(line 1, column {col})" in out

    def test_product_past_bound_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "(L-1)^1000*(L-1)^1000*(L-1)^1000"])
        out = capsys.readouterr().out
        assert exc.value.code == 1
        assert out == ("error: product too large to expand: it passes the parse budget "
                       "(line 1, column 12)\n")

    @pytest.mark.parametrize("cmd", ["analyze", "newton", "replay"])
    def test_l_exponent_past_bound_exit_1(self, capsys, cmd):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "L^100000000000000000000 - 1"])
        out = capsys.readouterr().out
        assert exc.value.code == 1
        assert out == "error: expanded L-exponent is above 100000 (line 1, column 1)\n"

    @pytest.mark.parametrize("cmd", ["analyze", "newton", "replay"])
    def test_long_m_exponent_exit_1(self, capsys, cmd):
        # str() could not write deg_M, a hull vertex or the replay's error
        nines = "9" * 4300
        with pytest.raises(SystemExit) as exc:
            main([cmd, f"M^{nines}*M^{nines}*L - 1"])
        out = capsys.readouterr().out
        assert exc.value.code == 1
        assert out == "error: expanded M-exponent is longer than 4300 digits (line 1, column 1)\n"

    def test_parse_budget_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            # the product alone is inside the budget, not with the powers
            main(["analyze", "(L-1)^1000*(L-1)^1000"])
        out = capsys.readouterr().out
        assert exc.value.code == 1
        assert out == ("error: product too large to expand: it passes the parse budget "
                       "(line 1, column 12)\n")

    def test_long_expanded_coefficient_exit_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", LONG_PRODUCT])
        out = capsys.readouterr().out
        assert exc.value.code == 1
        assert out.startswith("error: expanded coefficient of M^0*L^2 is longer than 4300")

    def test_long_residual_exit_0(self, capsys, tmp_path):
        f = tmp_path / "poly.txt"
        f.write_text(long_residual_text(), encoding="utf-8")
        code, payload = run_json(capsys, "analyze", "--file", str(f), "--json")
        assert code == 0
        residual = payload["unit_eval_plus"]["residual"]
        assert payload["unit_eval_plus"]["failure"] is True
        assert max(len(t.split("*")[0]) for t in residual.split()) > 4300

    def test_from_file(self, capsys, tmp_path):
        f = tmp_path / "poly.txt"
        f.write_text(TREFOIL_TEXT, encoding="utf-8")
        code, payload = run_json(
            capsys, "analyze", "--file", str(f), "--nontrivial", "--json"
        )
        assert code == 0 and payload["deg_M"] == 6

    @pytest.mark.parametrize("argv, message", [
        (["analyze"], "one of the arguments poly --file is required"),
        (["analyze", "--json", "--name", "k"], "one of the arguments poly --file is required"),
        (["analyze", "L - 1", "--file", "FILE"], "argument --file: not allowed with argument poly"),
        (["analyze", "--file", "FILE", "--", "L - 1"],
         "argument --file: not allowed with argument poly"),
    ])
    def test_poly_or_file_usage_error(self, capsys, tmp_path, argv, message):
        # exactly one of the two inputs: with both, --file had silently won,
        # and with neither the empty text was parsed
        f = tmp_path / "poly.txt"
        f.write_text(TREFOIL_TEXT, encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main([str(f) if arg == "FILE" else arg for arg in argv])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err == (
            "usage: apoly analyze [-h] [--file FILE] [--name NAME] [--nontrivial] [--json] [poly]\n"
            f"apoly analyze: error: {message}\n"
        )

    def test_byte_order_mark_skipped(self, capsys, tmp_path):
        f = tmp_path / "poly.txt"
        f.write_text("\ufeff" + TREFOIL_TEXT, encoding="utf-8")
        assert run(capsys, "analyze", "--file", str(f)) == run(capsys, "analyze", TREFOIL_TEXT)

    def test_undecodable_file(self, capsys, tmp_path):
        f = tmp_path / "poly.txt"
        f.write_bytes(b"\xff\xfeL - 1\n")
        code, out = run(capsys, "analyze", "--file", str(f))
        assert code == 1
        assert out.startswith("error: ")

    def test_golden_report_shape(self, capsys):
        _, payload = run_json(capsys, "analyze", TREFOIL_TEXT, "--json")
        assert list(payload) == [
            "name",
            "deg_M",
            "deg_L",
            "abelian_multiplicity",
            "unit_eval_plus",
            "unit_eval_minus",
            "monic_plus",
            "monic_minus",
            "vertical_edge",
            "cyclotomic",
            "verdict",
        ]
        assert payload["unit_eval_minus"] == {"sign": 1, "a": 0, "b": 1, "c": 1}


class TestVerifyDb:
    def test_fixtures_ok(self, capsys):
        with resources.as_file(FIXTURES) as path:
            code, out = run(capsys, "verify-db", str(path))
        assert code == 0
        assert "status: OK" in out

    def test_injected_fail(self, capsys, tmp_path):
        with resources.as_file(FIXTURES) as path:
            text = path.read_text(encoding="utf-8")
        bad = tmp_path / "bad.txt"
        bad.write_text(text + "fake ; (L-1)*(L+1)\n", encoding="utf-8")
        code, out = run(capsys, "verify-db", str(bad))
        assert code == 2
        assert "fake" in out

    def test_missing_file(self, capsys):
        code, out = run(capsys, "verify-db", "/nonexistent/table.txt")
        assert code == 1
        assert "error" in out

    def test_undecodable_file(self, capsys, tmp_path):
        table = tmp_path / "table.txt"
        table.write_bytes(b"unknot ; L - 1\nbad ; \xff\xfe\n")
        code, out = run(capsys, "verify-db", str(table))
        assert code == 1
        assert out.startswith("error: ")

    def test_long_literal_record_error(self, capsys, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text(f"unknot ; L - 1\nhuge ; {LONG_LITERAL}*L - 1\n", encoding="utf-8")
        code, out = run(capsys, "verify-db", str(table))
        assert code == 0
        first = out.splitlines()[0]
        assert first.startswith("record error (line 2, huge): integer literal of 5000 digits")
        assert "status: OK (1 records" in out

    def test_long_expanded_coefficient_record_error(self, capsys, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text(f"unknot ; L - 1\nhuge ; {LONG_PRODUCT}\n", encoding="utf-8")
        code = main(["verify-db", str(table), "--json"])
        captured = capsys.readouterr()
        assert code == 0
        first = captured.err.splitlines()[0]
        assert first.startswith("record error (line 2, huge): expanded coefficient")
        payload = json.loads(captured.out)
        assert payload["status"] == "OK" and payload["n_records"] == 1
        assert [r["name"] for r in payload["records"]] == ["unknot"]

    def test_l_exponent_past_bound_record_error(self, capsys, tmp_path, monkeypatch):
        # the record is rejected on its sparse terms, before any analysis
        from apoly import structure

        degrees = []
        unit_evaluations = structure._unit_evaluations
        monkeypatch.setattr(
            structure, "_unit_evaluations",
            lambda slices, deg_l: degrees.append(deg_l) or unit_evaluations(slices, deg_l),
        )
        table = tmp_path / "table.txt"
        table.write_text("huge ; L^100000000000000000000 - 1\nunknot ; L - 1\n", encoding="utf-8")
        code, out = run(capsys, "verify-db", str(table))
        assert code == 0
        assert out.splitlines()[0] == (
            "record error (line 1, huge): expanded L-exponent is above 100000 (line 1, column 1)"
        )
        assert "status: OK (1 records" in out
        assert degrees == [1]

    def test_long_m_exponent_record_error(self, capsys, tmp_path):
        nines = "9" * 4300
        table = tmp_path / "table.txt"
        table.write_text(f"huge ; M^{nines}*M^{nines}*L - 1\nunknot ; L - 1\n", encoding="utf-8")
        code, out = run(capsys, "verify-db", str(table))
        assert code == 0
        assert out.splitlines()[0] == (
            "record error (line 1, huge): expanded M-exponent is longer than 4300 digits "
            "(line 1, column 1)"
        )
        assert "status: OK (1 records" in out

    def test_record_errors_in_text_mode_on_stdout(self, capsys, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("unknot ; L - 1\nbad ; L + + 1\n", encoding="utf-8")
        code = main(["verify-db", str(table)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out.startswith("record error (line 2, bad): expected a term")

    def test_deep_nesting_record_error(self, capsys, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text(f"unknot ; L - 1\ndeep ; {deep(600)}\n", encoding="utf-8")
        code, out = run(capsys, "verify-db", str(table))
        assert code == 0
        first = out.splitlines()[0]
        assert first == (
            "record error (line 2, deep): parentheses nested deeper than 200 (line 1, column 201)"
        )
        assert "status: OK (1 records" in out

    def test_extra_fields_record_error(self, capsys, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("unknot ; L - 1\nx ; L^2 - 1 ; ; refined\n", encoding="utf-8")
        code, out = run(capsys, "verify-db", str(table))
        assert code == 0
        assert out.splitlines()[0] == (
            "record error (line 2, ?): expected 'name ; polynomial [; flags]'"
        )
        assert "status: OK (1 records" in out

    def test_long_residual_record_reported(self, capsys, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text(f"big ; {long_residual_text()}\n", encoding="utf-8")
        code, payload = run_json(capsys, "verify-db", str(table), "--json")
        assert code == 2  # deg_M = 0 for a record claimed to be a knot
        (record,) = payload["records"]
        assert record["name"] == "big" and record["unit_eval_plus"]["failure"] is True

    def test_json_output(self, capsys):
        with resources.as_file(FIXTURES) as path:
            code, payload = run_json(capsys, "verify-db", str(path), "--json")
        assert code == 0
        assert payload["status"] == "OK"
        assert payload["n_fail"] == 0 and payload["n_anomaly"] == 0


class TestNewton:
    def test_trefoil_svg(self, capsys, tmp_path):
        svg = tmp_path / "out.svg"
        code, payload = run_json(
            capsys, "newton", TREFOIL_TEXT, "--svg", str(svg), "--json"
        )
        assert code == 0
        assert payload["vertical_edge"] is True
        content = svg.read_text(encoding="utf-8")
        assert content.startswith("<svg") or "<svg" in content

    def test_degenerate_segment(self, capsys):
        code, out = run(capsys, "newton", "M + L")
        assert code == 0
        assert "degenerate" in out

    def test_parse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["newton", "$"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("title", ["a\x01b", "a\udcffb"], ids=["control", "surrogate"])
    def test_title_xml_cannot_carry(self, capsys, tmp_path, title):
        svg = tmp_path / "out.svg"
        code, out = run(capsys, "newton", "L*M - 1", "--svg", str(svg), "--title", title)
        assert code == 1
        assert out.startswith("error: title character")
        assert not svg.exists()


class TestReplay:
    def test_abelian_pair(self, capsys):
        code, out = run(capsys, "replay", "(L-1)*(L+1)")
        assert code == 0
        assert "d = 2" in out
        assert "trivial" in out

    def test_unknot(self, capsys):
        code, payload = run_json(capsys, "replay", "L - 1", "--json")
        assert code == 0
        assert payload["d"] == 1
        assert all(s["num_points"] == 1 for s in payload["steps"])

    def test_nmax(self, capsys):
        code, payload = run_json(capsys, "replay", "(L-1)*(L+1)", "--nmax", "2", "--json")
        assert code == 0
        assert [s["slope_denominator"] for s in payload["steps"]] == [2, 4]

    def test_leading_minus_after_double_dash(self, capsys):
        # options first, then --, then a polynomial that starts with "-"
        code, out = run(capsys, "replay", "--nmax", "1", "--", "-(L-1)*(L+1)")
        assert code == 0
        assert out == run(capsys, "replay", "--nmax", "1", "(L-1)*(L+1)")[1]

    def test_positive_mdeg_exit_1(self, capsys):
        code, out = run(capsys, "replay", "L*M + 1")
        assert code == 1
        assert "deg_M" in out

    def test_reads_deg_m_of_normal_form(self, capsys):
        # an M-power factor is stripped by the A-normal form
        for text, nf in [("M*L - M", "L - 1"), ("M^2*(L-1)*(L+1)", "(L-1)*(L+1)")]:
            assert run(capsys, "replay", text) == run(capsys, "replay", nf)
        code, out = run(capsys, "replay", "L*M - 1")
        assert code == 1 and "has deg_M = 1" in out

    def test_normalizes_once(self, capsys, monkeypatch):
        calls = []
        normalize = BivarPoly.normalize
        monkeypatch.setattr(BivarPoly, "normalize", lambda p: calls.append(p) or normalize(p))
        assert run(capsys, "replay", "M*L - M")[0] == 0
        assert len(calls) == 1

    def test_nmax_point_bound_exit_1(self, capsys):
        # 2000 * 60 points is past the bound of 100,000: rejected before any
        # point is built, with one line of output
        code, out = run(capsys, "replay", "L^60 - 1", "--nmax", "2000", "--json")
        assert code == 1
        assert out == (
            "error: the replay would list n_max * deg_L = 2000 * 60 points; "
            "the bound is 100000\n"
        )

    @pytest.mark.parametrize("nmax", ["0", "-3"])
    def test_nonpositive_nmax_exit_1(self, capsys, nmax):
        code, out = run(capsys, "replay", "L - 1", "--nmax", nmax)
        assert code == 1
        assert out.startswith("error: ") and "--nmax" in out


# one command line of each kind the CLI writes, error paths included
# ({tmp} is a fresh directory)
COMMAND_LINES = {
    "compute-two-bridge": ["compute", "--two-bridge", "7", "3"],
    "compute-torus": ["compute", "--torus", "3", "5", "--json"],
    "compute-unknot": ["compute", "--unknot"],
    "compute-above-bound": ["compute", "--two-bridge", "27", "5"],
    "analyze-profile": ["analyze", "(L-1)*(L^2+L+1)*(L^4+1)", "--json"],
    "analyze-violation": ["analyze", "(L-1)^2*(L^2-3*L+1)"],
    "analyze-parse-error": ["analyze", "L + + 1"],
    "verify-db": ["verify-db", str(FIXTURES), "--json"],
    "verify-db-missing": ["verify-db", "{tmp}/missing.txt"],
    "newton-svg": ["newton", TREFOIL_TEXT, "--svg", "{tmp}/out.svg"],
    "newton-json": ["newton", TREFOIL_TEXT, "--json"],
    "replay": ["replay", "L^60 - 1", "--nmax", "7"],
}


class TestExitCollection:
    """No command leaves a reference cycle, so the interpreter's exit-time
    collections would find no garbage; run as the command, main freezes
    the heap before it exits, and they walk none of it."""

    @pytest.mark.parametrize("argv", COMMAND_LINES.values(), ids=COMMAND_LINES)
    def test_no_garbage_left_for_the_collector(self, capsys, tmp_path, argv):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        gc.collect()
        gc.disable()
        try:
            try:
                main(argv)
            except SystemExit as exc:
                assert exc.code == 1  # a parse error
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert capsys.readouterr().out

    @staticmethod
    def run_command(argv):
        """The command apoly argv run as a script, with an atexit hook,
        which runs after main's sys.exit and before the interpreter's own
        collections, that writes gc.get_freeze_count() to stderr last."""
        script = (
            "import atexit, gc, sys\n"
            "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
            f"sys.argv[1:] = {argv!r}\n"
            "from apoly.cli import main\n"
            "main()\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src), timeout=60)

    def test_command_freezes_before_exit(self):
        proc = self.run_command(["compute", "--unknot"])
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "L - 1"
        assert int(proc.stderr) > 0

    @pytest.mark.parametrize("argv, code", [
        (["analyze", "L + + 1"], 1),  # the handler's SystemExit
        (["compute", "--bogus"], 2),  # a usage error, before any handler
    ], ids=["parse-error", "usage-error"])
    def test_error_exit_freezes(self, argv, code):
        proc = self.run_command(argv)
        assert proc.returncode == code
        assert proc.stdout.startswith("error: ") if code == 1 else proc.stdout == ""
        assert int(proc.stderr.splitlines()[-1]) > 0

    def test_library_call_freezes_nothing(self, capsys):
        assert main(["compute", "--unknot"]) == 0
        assert gc.get_freeze_count() == 0


ORACLE = argparse_oracle()


def parse_outcome(parse, argv):
    """("ok", command, values) for an accepted argv, or ("exit", code) for
    -h, which writes help to stdout alone, and for a usage error, which
    exits 2 and writes the usage and an error line to stderr alone."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            command, values = parse(argv)
    except SystemExit as exc:
        if exc.code == 0:
            assert out.getvalue().startswith("usage: apoly") and err.getvalue() == ""
        else:
            assert exc.code == 2
            assert err.getvalue().startswith("usage: apoly") and "error: " in err.getvalue()
            assert out.getvalue() == ""
        return ("exit", exc.code)
    assert out.getvalue() == err.getvalue() == ""
    return ("ok", command, values)


def table_parse(argv):
    handler, values = cli._parse_args(argv)
    command, = (name for name, spec in cli.COMMANDS.items() if spec[1] is handler)
    return command, values


def oracle_parse(argv):
    values = vars(ORACLE.parse_args(argv))
    return values.pop("command"), values


# a value for each option that takes some, negative ints among them
OPTION_VALUES = {"--torus": ["-2", "3"], "--two-bridge": ["7", "3"], "--nmax": ["-3"],
                 "--file": ["f.txt"], "--name": ["k"], "--svg": ["out.svg"], "--title": ["T"]}


def option_forms(name):
    """The ways to write the option: `--opt value`, and `--opt=value` for
    an option of one value."""
    values = OPTION_VALUES.get(name, [])
    forms = [[name, *values]]
    if len(values) == 1:
        forms.append([f"{name}={values[0]}"])
    return forms


def generated_argvs():
    """Every command with every subset of its options, each option in each
    form, in table and reversed order, and its positional before them,
    after them, after a "--" (a polynomial that starts with "-"), missing
    or doubled."""
    for command, (_, _, positionals, options, _) in cli.COMMANDS.items():
        words = ["L-1"] if positionals else []
        for r in range(len(options) + 1):
            for subset in combinations([option[0] for option in options], r):
                for forms in product(*map(option_forms, subset)):
                    for opts in ([w for f in forms for w in f], [w for f in forms[::-1] for w in f]):
                        yield [command, *opts]
                        yield [command, *opts, *words, "x"]
                        yield [command, *words, *opts]
                        yield [command, *opts, *words]
                        yield [command, *opts, "--", "-(L-1)*(L+1)"]


USAGE_ERRORS = [
    [], ["frobnicate"], ["--json", "compute", "--unknot"],
    ["compute", "--torus", "2"], ["compute", "--torus", "2", "x"], ["compute", "--torus=2", "3"],
    ["compute", "--unknot", "--json=1"], ["compute", "--unknot", "--json="],
    ["compute", "--unknot", "--bogus"], ["compute", "--unknot", "--bogus=1"],
    ["compute", "--torus", "2", "--json"], ["compute", "--torus", "2", "-h"],
    ["analyze", "--name"], ["analyze", "--file", "--json"], ["analyze", "--name", "-h"],
    ["verify-db"], ["newton", "--svg"], ["newton", "L", "--title", "--"],
    ["analyze", "--name", "--", "x"], ["replay", "--nmax", "--", "3", "L"],
    ["replay"], ["replay", "L-1", "--nmax"], ["replay", "L-1", "--nmax", "x"],
    ["replay", "L-1", "--nmax=1.5"], ["replay", "--", "L-1", "--json"],
]
HELP = [["-h"], ["--help"], ["compute", "--bogus", "-h"], ["replay", "-h", "--nmax", "x"]] + [
    [command, "-h"] for command in cli.COMMANDS]


class TestArgv:
    """The command table against the argparse parser it replaced."""

    def test_generated_argvs_match_argparse(self):
        outcomes = set()
        for argv in generated_argvs():
            outcome = parse_outcome(table_parse, argv)
            assert outcome == parse_outcome(oracle_parse, argv), argv
            outcomes.add(outcome[0])
        assert outcomes == {"ok", "exit"}

    @pytest.mark.parametrize("argv, code", [
        pytest.param(argv, code, id=" ".join(argv) or "empty")
        for argvs, code in ((USAGE_ERRORS, 2), (HELP, 0)) for argv in argvs])
    def test_errors_and_help_match_argparse(self, argv, code):
        outcome = parse_outcome(table_parse, argv)
        assert outcome == parse_outcome(oracle_parse, argv) == ("exit", code)

    @given(st.lists(st.sampled_from(
        [*cli.COMMANDS, "--unknot", "--torus", "--two-bridge", "--json", "--file", "--name",
         "--nontrivial", "--svg", "--title", "--nmax", "--nmax=2", "--name=k", "--json=1",
         "--bogus", "--", "-h", "2", "-2", "x", "L-1", ""]), max_size=8))
    @settings(max_examples=500, deadline=None)
    def test_random_argvs_match_argparse(self, argv):
        # an option before the command, and a trailing "--": differences
        # pinned below
        assume(not argv or argv[0] in ("-h", "--help") or not cli._is_option(argv[0]))
        assume(argv[-1:] != ["--"])
        assert parse_outcome(table_parse, argv) == parse_outcome(oracle_parse, argv)

    # deliberate differences from argparse, each pinned on both parsers

    @pytest.mark.parametrize("argv", [["replay", "L-1", "--js"], ["compute", "--two", "7", "3"]])
    def test_abbreviations_are_not_options(self, argv):
        assert parse_outcome(table_parse, argv) == ("exit", 2)
        assert parse_outcome(oracle_parse, argv)[0] == "ok"

    @pytest.mark.parametrize(
        "argv, key, value",
        [(["replay", "-(L-1)*(L+1)"], "poly", "-(L-1)*(L+1)"),
         (["analyze", "--name", "-k", "L"], "name", "-k"),
         (["verify-db", "-x"], "path", "-x")],
    )
    def test_single_dash_word_is_a_value(self, argv, key, value):
        # only "--..." and "-h" are options, so a polynomial that starts
        # with "-" needs no "--"; argparse took such a word for an option
        outcome = parse_outcome(table_parse, argv)
        assert outcome[0] == "ok" and outcome[2][key] == value
        assert parse_outcome(oracle_parse, argv) == ("exit", 2)

    @pytest.mark.parametrize("argv", [["--json", "-h"], ["--json", "compute", "-h"]])
    def test_option_before_the_command_is_an_error(self, argv):
        # argparse set an unknown option aside and honoured a later -h
        assert parse_outcome(table_parse, argv) == ("exit", 2)
        assert parse_outcome(oracle_parse, argv) == ("exit", 0)

    @pytest.mark.parametrize("argv", [["compute", "--unknot", "--"], ["replay", "L-1", "--json", "--"]])
    def test_trailing_double_dash_is_accepted(self, argv):
        # argparse rejected a "--" that no positional took
        assert parse_outcome(table_parse, argv)[0] == "ok"
        assert parse_outcome(oracle_parse, argv) == ("exit", 2)

    def test_double_dash_word_with_a_space_is_an_option(self):
        argv = ["newton", "L", "--title", "--a b"]
        assert parse_outcome(table_parse, argv) == ("exit", 2)
        assert parse_outcome(oracle_parse, argv)[2]["title"] == "--a b"


def importtime(*args):
    """Run `python -S -X importtime args`, which lists every module it
    imports on stderr; -S keeps site's .pth files from importing modules
    apoly does not need. Returns the process and the modules it imported."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}


def imported_modules(code):
    """The modules that `python -S -X importtime -c code` imports."""
    return importtime("-c", code)[1]


@pytest.mark.parametrize(
    "argv, key, expected, module, recognizes",
    [
        (["compute", "--two-bridge", "7", "3"], "verdict", "PASS", "apoly.knots", False),
        (["compute", "--torus", "3", "5"], "verdict", "PASS", "apoly.knots", False),
        (["compute", "--unknot"], "verdict", "UNKNOT_OK", "apoly.knots", True),
        (["analyze", "L^60 - 1"], "verdict", "FAIL", "apoly.structure", True),
        (["verify-db", str(FIXTURES)], "status", "OK", "apoly.db", True),
        (["newton", TREFOIL_TEXT], "vertical_edge", True, "apoly.newton", False),
        (["replay", "L^60 - 1"], "ok", True, "apoly.surgery", True),
    ],
    ids=["compute", "compute-torus", "compute-unknot", "analyze", "verify-db", "newton", "replay"],
)
def test_runs_without_numpy_or_sympy(argv, key, expected, module, recognizes):
    proc, imported = importtime("-m", "apoly.cli", *argv, "--json")
    payload = json.loads(proc.stdout)
    assert payload.get("report", payload)[key] == expected
    assert module in imported
    # recognition is loaded at the first M-degree-0 polynomial, which no
    # nontrivial knot's A-polynomial is
    assert ("apoly.recognition" in imported) == recognizes
    # compute builds its polynomial and parses no text
    assert ("apoly.grammar" in imported) == (argv[0] != "compute")
    assert "numpy" not in proc.stderr
    assert "sympy" not in proc.stderr
    # every --json is written with the C string encoder alone
    assert not {"json", "json.encoder"} & imported


def test_import_loads_no_heavy_stdlib():
    imported = imported_modules(
        "import apoly.cli, apoly.db, apoly.knots, apoly.newton, apoly.structure, apoly.recognition,"
        " apoly.surgery"
    )
    assert "apoly.surgery" in imported
    heavy = {"dataclasses", "inspect", "fractions", "decimal", "html", "typing", "cmath", "json",
             "argparse", "gettext"}
    assert not heavy & imported


def test_cli_import_loads_no_command_module():
    # each command imports its own modules when it runs
    imported = imported_modules("import apoly.cli")
    assert "apoly.poly" in imported
    commands = {"apoly.db", "apoly.knots", "apoly.newton", "apoly.structure", "apoly.recognition",
                "apoly.surgery"}
    assert not commands & imported
    # the --json writer needs the C string encoder only
    assert "json.decoder" not in imported
    # the command line is read from a table, and only the commands that
    # parse text load the grammar
    assert not {"argparse", "apoly.grammar"} & imported


def test_analysis_imports_no_hull_code():
    # analyze reads the Newton polygon's two facts off its own M-slices, so
    # verify-db, analyze and compute compile no hull or SVG code
    imported = imported_modules("import apoly.db")
    assert "apoly.structure" in imported
    assert "apoly.newton" not in imported
    assert "apoly._columns" not in imported


@pytest.mark.parametrize(
    "argv",
    [["replay", "L^60 - 1", "--nmax", "30", "--json"], ["verify-db", str(FIXTURES)]],
    ids=["replay", "verify-db"],
)
def test_closed_stdout_exits_1_quietly(argv):
    # a pipe whose reader is gone, as for `apoly ... | head -1` once head exits
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "apoly.cli"] + argv,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")
