import json

import pytest
from hypothesis import given, settings

from apoly.db import (
    VERDICT_NOT_APPLICABLE,
    DbRecord,
    load_table,
    verify_all,
)
from apoly.poly import BivarPoly, format_poly, parse_poly
from apoly.structure import FAIL, PASS, UNKNOT_OK, UnitEvalFailure

from conftest import bivar_polys

TREFOIL = parse_poly("L^2*M^6 - L*M^6 + L - 1")


def write_table(tmp_path, text, name="table.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestDbRecord:
    def test_keeps_polynomial_as_parsed(self):
        raw = parse_poly("-2*L + 2")
        assert DbRecord(name="x", a_poly=raw).a_poly == raw

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            DbRecord(name="", a_poly=TREFOIL)


class TestLoadTable:
    def test_single_record(self, tmp_path):
        res = load_table(write_table(tmp_path, "unknot ; L - 1\n"))
        assert res.errors == []
        assert len(res.records) == 1
        assert res.records[0].name == "unknot"
        assert res.records[0].a_poly == parse_poly("L - 1")

    def test_comments_and_blanks(self, tmp_path):
        res = load_table(
            write_table(tmp_path, "# header\n\nunknot ; L - 1  # trailing\n")
        )
        assert len(res.records) == 1 and not res.errors

    def test_duplicate_names(self, tmp_path):
        res = load_table(write_table(tmp_path, "x ; L - 1\nx ; L + 1\n"))
        assert len(res.records) == 1
        assert len(res.errors) == 1
        assert "DuplicateName: x" in res.errors[0].message
        assert res.errors[0].line == 2

    def test_empty_file(self, tmp_path):
        res = load_table(write_table(tmp_path, ""))
        assert res.records == [] and res.errors == []

    def test_refined_flag(self, tmp_path):
        res = load_table(write_table(tmp_path, "m ; L^2 - 1 ; refined\n"))
        assert res.records[0].refined

    def test_unknown_flag(self, tmp_path):
        res = load_table(write_table(tmp_path, "m ; L - 1 ; shiny\n"))
        assert res.records == []
        assert "unknown flag" in res.errors[0].message

    def test_extra_fields_rejected(self, tmp_path):
        # a fourth field used to drop the flags silently
        res = load_table(write_table(tmp_path, "x ; L^2 - 1 ; ; refined\nok ; L - 1 ;\n"))
        assert [r.name for r in res.records] == ["ok"]
        assert [(e.line, e.message) for e in res.errors] == [
            (1, "expected 'name ; polynomial [; flags]'")
        ]

    def test_malformed_does_not_abort(self, tmp_path):
        res = load_table(
            write_table(tmp_path, "bad line\nok ; L - 1\nworse ; L + + 1\n")
        )
        assert [r.name for r in res.records] == ["ok"]
        assert len(res.errors) == 2

    def test_byte_order_mark_skipped(self, tmp_path):
        # as saved by editors that write "UTF-8 with BOM"
        res = load_table(write_table(tmp_path, "\ufefftrefoil ; L - 1\ntrefoil ; L + 1\n"))
        assert [r.name for r in res.records] == ["trefoil"]
        assert [(e.line, e.message) for e in res.errors] == [(2, "DuplicateName: trefoil")]

    def test_inner_byte_order_mark_rejected(self, tmp_path):
        res = load_table(write_table(tmp_path, "x ; L - 1\ny ; \ufeffL - 1\n"))
        assert [r.name for r in res.records] == ["x"]
        assert res.errors[0].line == 2 and "unexpected character" in res.errors[0].message

    def test_parenthesized_expression(self, tmp_path):
        res = load_table(write_table(tmp_path, "fake ; (L-1)*(L+1)\n"))
        assert res.records[0].a_poly == parse_poly("L^2 - 1")

    @given(bivar_polys(allow_zero=False))
    @settings(max_examples=50, deadline=None)
    def test_print_parse_roundtrip(self, p):
        assert parse_poly(format_poly(p)) == p


class TestVerifyAll:
    def test_ok_set(self):
        recs = [
            DbRecord(name="unknot", a_poly=parse_poly("L - 1")),
            DbRecord(name="trefoil", a_poly=TREFOIL),
        ]
        rep = verify_all(recs)
        assert rep.status == "OK" and rep.exit_code == 0
        assert rep.failures == [] and rep.anomalies == []
        assert rep.reports[0].verdict == UNKNOT_OK
        assert rep.reports[1].verdict == PASS

    def test_normalizes_once_per_record(self, monkeypatch):
        recs = [DbRecord(name=f"r{k}", a_poly=(k + 1) * TREFOIL) for k in range(5)]
        recs.append(DbRecord(name="unknot", a_poly=parse_poly("L - 1")))
        calls = []
        normalize = BivarPoly.normalize
        monkeypatch.setattr(BivarPoly, "normalize", lambda p: calls.append(p) or normalize(p))
        verify_all(recs)
        assert len(calls) == len(recs)

    def test_fail_record_named(self):
        recs = [DbRecord(name="fake", a_poly=parse_poly("(L-1)*(L+1)"))]
        rep = verify_all(recs)
        assert rep.status == "FAIL" and rep.exit_code == 2
        assert rep.failures == ["fake"]

    def test_refined_exempt(self):
        recs = [DbRecord(name="comp", a_poly=parse_poly("L^2 - 1"), refined=True)]
        rep = verify_all(recs)
        assert rep.status == "OK"
        assert rep.reports[0].verdict == VERDICT_NOT_APPLICABLE

    def test_anomaly(self):
        # fails the unit-evaluation form, polygon has no vertical edge
        recs = [DbRecord(name="synth", a_poly=parse_poly("M^2*L^2 + L + M"))]
        rep = verify_all(recs)
        assert rep.status == "ANOMALY" and rep.exit_code == 3
        assert rep.anomalies == ["synth"]

    def test_one_newton_polygon_per_record(self, monkeypatch):
        # analyze carries the degeneracy; verify_all builds no second polygon
        from apoly import newton

        recs = [DbRecord(name=f"s{k}", a_poly=parse_poly("M^2*L^2 + L + M")) for k in range(5)]
        calls = []
        polygon = newton.newton_polygon
        monkeypatch.setattr(newton, "newton_polygon", lambda p: calls.append(p) or polygon(p))
        rep = verify_all(recs)
        assert rep.anomalies == [r.name for r in recs]
        assert len(calls) == 5

    def test_degenerate_polygon_not_anomalous(self):
        # collinear support, no vertical edge, failing unit evaluation
        recs = [DbRecord(name="seg", a_poly=parse_poly("M^2*L^2 + 3"))]
        rep = verify_all(recs)
        report = rep.reports[0]
        assert isinstance(report.unit_eval_plus, UnitEvalFailure)
        assert report.vertical_edge is False and report.degenerate
        assert "degenerate" not in report.as_dict()
        assert rep.status == "OK" and rep.anomalies == []

    def test_fail_takes_precedence(self):
        recs = [
            DbRecord(name="synth", a_poly=parse_poly("M^2*L^2 + L + M")),
            DbRecord(name="fake", a_poly=parse_poly("L^2 - 1")),
        ]
        rep = verify_all(recs)
        assert rep.status == "FAIL" and rep.exit_code == 2

    def test_eq1_failure_with_vertical_edge_not_anomalous(self):
        # vertical edge present: an Eq-form failure is expected, not anomalous
        recs = [DbRecord(name="v", a_poly=parse_poly("L^2 + L*M + L + 2*M^2 + M + 3"))]
        rep = verify_all(recs)
        plus = rep.reports[0].unit_eval_plus
        minus = rep.reports[0].unit_eval_minus
        assert isinstance(plus, UnitEvalFailure) or isinstance(minus, UnitEvalFailure)
        assert rep.anomalies == []

    def test_order_independent(self):
        recs = [
            DbRecord(name="unknot", a_poly=parse_poly("L - 1")),
            DbRecord(name="trefoil", a_poly=TREFOIL),
            DbRecord(name="fake", a_poly=parse_poly("L^2 - 1")),
        ]
        fwd = verify_all(recs)
        rev = verify_all(list(reversed(recs)))
        assert fwd.status == rev.status
        assert sorted(fwd.failures) == sorted(rev.failures)
        by_name_fwd = {r.name: r.as_dict() for r in fwd.reports}
        by_name_rev = {r.name: r.as_dict() for r in rev.reports}
        assert by_name_fwd == by_name_rev

    def test_json_stable_keys(self):
        rep = verify_all([DbRecord(name="unknot", a_poly=parse_poly("L - 1"))])
        d = rep.as_dict()
        assert list(d) == [
            "status",
            "n_records",
            "n_fail",
            "n_anomaly",
            "failures",
            "anomalies",
            "records",
        ]
        json.dumps(d)  # must be serializable as-is

    def test_text_summary(self):
        rep = verify_all(
            [
                DbRecord(name="unknot", a_poly=parse_poly("L - 1")),
                DbRecord(name="fake", a_poly=parse_poly("L^2 - 1")),
            ]
        )
        text = rep.to_text()
        assert "status: FAIL" in text
        assert "unknot" in text and "fake" in text


class TestBundledFixtures:
    def test_fixtures_verify_clean(self):
        from importlib import resources

        with resources.as_file(
            resources.files("apoly.data") / "fixtures.txt"
        ) as path:
            res = load_table(path)
        assert res.errors == []
        assert len(res.records) >= 10
        rep = verify_all(res.records)
        assert rep.status == "OK"
        assert rep.failures == [] and rep.anomalies == []

    def test_reproducible(self):
        # the generators must rebuild the committed table byte for byte
        import importlib.util
        from importlib import resources
        from pathlib import Path

        script = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"
        spec = importlib.util.spec_from_file_location("make_fixtures", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        committed = (resources.files("apoly.data") / "fixtures.txt").read_bytes()
        assert module.fixture_text().encode("utf-8") == committed
