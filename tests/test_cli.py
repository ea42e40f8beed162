import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

from apoly.cli import main
from apoly.poly import BivarPoly

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
    "argv, key, expected, module",
    [
        (["compute", "--two-bridge", "7", "3"], "verdict", "PASS", "apoly.knots"),
        (["analyze", "L^60 - 1"], "verdict", "FAIL", "apoly.structure"),
        (["verify-db", str(FIXTURES)], "status", "OK", "apoly.db"),
        (["newton", TREFOIL_TEXT], "vertical_edge", True, "apoly.newton"),
        (["replay", "L^60 - 1"], "ok", True, "apoly.surgery"),
    ],
    ids=["compute", "analyze", "verify-db", "newton", "replay"],
)
def test_runs_without_numpy_or_sympy(argv, key, expected, module):
    proc, imported = importtime("-m", "apoly.cli", *argv, "--json")
    payload = json.loads(proc.stdout)
    assert payload.get("report", payload)[key] == expected
    assert module in imported
    assert "numpy" not in proc.stderr
    assert "sympy" not in proc.stderr
    # every --json is written with the C string encoder alone
    assert not {"json", "json.encoder"} & imported


def test_import_loads_no_heavy_stdlib():
    imported = imported_modules(
        "import apoly.cli, apoly.db, apoly.knots, apoly.newton, apoly.structure, apoly.surgery"
    )
    assert "apoly.surgery" in imported
    heavy = {"dataclasses", "inspect", "fractions", "decimal", "html", "typing", "cmath", "json"}
    assert not heavy & imported


def test_cli_import_loads_no_command_module():
    # each command imports its own modules when it runs
    imported = imported_modules("import apoly.cli")
    assert "apoly.poly" in imported
    commands = {"apoly.db", "apoly.knots", "apoly.newton", "apoly.structure", "apoly.surgery"}
    assert not commands & imported
    # the --json writer needs the C string encoder only
    assert "json.decoder" not in imported


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
