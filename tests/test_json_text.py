"""The --json writers against the json.dumps(as_dict(), indent=2) they
replace: AnalysisReport.json_text at each indent the commands write it at
(analyze at the top level, compute under "report", verify-db in its
"records" list), BatchReport.json_text, ReplayReport.json_text and the
text of `newton --json`."""

import contextlib
import io
import json
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apoly.cli import main
from apoly.db import BatchReport
from apoly.newton import VERTICAL, edge_slopes, newton_polygon
from apoly.poly import BivarPoly, UnivarPoly, format_poly, parse_poly
from apoly.structure import (
    AnalysisReport,
    CyclotomicProfile,
    UnitEvalFailure,
    UnitEvaluationForm,
    Violation,
    cyclotomic,
)
from apoly.surgery import ReplayReport, replay_contradiction

# names with quotes, backslashes, non-ASCII and control characters
TEXT = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from('"\\\x00\x1f\x7fé€𝄞'))
NONNEGATIVE = st.integers(0, 10**30)
UNIT_FORMS = st.builds(
    UnitEvaluationForm, st.sampled_from([1, -1]), NONNEGATIVE, NONNEGATIVE, NONNEGATIVE
)
FAILURES = st.builds(
    UnitEvalFailure,
    st.lists(st.integers(-(10**40), 10**40), max_size=6).map(UnivarPoly),
)
PROFILES = st.builds(
    CyclotomicProfile,
    st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 5)), max_size=4).map(tuple),
    st.sampled_from([1, -1]),
)


@st.composite
def reports(draw):
    plus = draw(UNIT_FORMS | FAILURES)
    minus = plus if draw(st.booleans()) else draw(UNIT_FORMS | FAILURES)
    return AnalysisReport(
        name=draw(TEXT),
        deg_m=draw(NONNEGATIVE),
        deg_l=draw(NONNEGATIVE),
        abelian_multiplicity=draw(NONNEGATIVE),
        unit_eval_plus=plus,
        unit_eval_minus=minus,
        vertical_edge=draw(st.sampled_from([None, True, False])),
        cyclotomic=draw(st.none() | PROFILES | st.builds(Violation, TEXT)),
        verdict=draw(TEXT | st.sampled_from(["PASS", "FAIL", "UNKNOT_OK"])),
        degenerate=draw(st.booleans()),
    )


def dumped(value, indent):
    # JSON text has no raw newline inside a string, so this indents lines
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


@given(reports(), st.sampled_from(["", "  ", "    "]))
@settings(max_examples=300, deadline=None)
def test_report_text_matches_json_dumps(report, indent):
    assert report.json_text(indent) == dumped(report.as_dict(), indent)


@given(st.lists(reports(), max_size=4), st.lists(TEXT, max_size=3), st.lists(TEXT, max_size=3))
@settings(max_examples=150, deadline=None)
def test_batch_text_matches_json_dumps(records, anomalies, failures):
    batch = BatchReport(reports=records, anomalies=anomalies, failures=failures)
    assert batch.json_text() == json.dumps(batch.as_dict(), indent=2)


def test_empty_batch():
    batch = BatchReport(reports=[], anomalies=[], failures=[])
    assert batch.json_text() == json.dumps(batch.as_dict(), indent=2)
    assert '"records": []' in batch.json_text()


def test_shared_unit_form_written_once(monkeypatch):
    form = UnitEvalFailure(UnivarPoly([-2, 1]))
    report = AnalysisReport("x", 0, 2, 1, form, form, True, None, "FAIL")
    calls = []
    json_text = UnitEvalFailure.json_text
    monkeypatch.setattr(UnitEvalFailure, "json_text", lambda u, i: calls.append(u) or json_text(u, i))
    assert report.json_text() == dumped(report.as_dict(), "")
    assert len(calls) == 1


def lift(f: UnivarPoly) -> BivarPoly:
    return BivarPoly({(0, k): c for k, c in enumerate(f.coeffs) if c})


# extra factors: a repeated or non-cyclotomic factor keeps the product from
# decomposing (L + 1 and L^2 + 1 when their order is drawn too), and the
# A-normal form divides out -1 and 2
BREAKERS = ["L - 1", "L - 2", "L^2 - L - 1", "L^3 - L - 1", "L + 1", "L^2 + 1", "-1", "2"]


@given(
    st.sets(st.integers(2, 40), max_size=4),
    st.none() | st.sampled_from(BREAKERS).map(parse_poly),
    st.integers(1, 4),
)
@settings(max_examples=150, deadline=None)
def test_replay_text_matches_json_dumps(orders, breaker, n_max):
    a = lift(UnivarPoly([-1, 1]) * prod(map(cyclotomic, orders), start=UnivarPoly([1])))
    if breaker is not None:
        a = a * breaker
    report = replay_contradiction(a, n_max=n_max)
    assert report.json_text() == json.dumps(report.as_dict(), indent=2)


@pytest.mark.parametrize(
    "text, violation, d",
    [
        ("(L-1)*(L-2)", True, None),
        ("L - 1", False, 1),
        ("-(L - 1)", False, 1),
        ("L^60 - 1", False, 60),
    ],
    ids=["violation", "d=1", "sign", "L^60-1"],
)
def test_replay_cases(text, violation, d):
    report = replay_contradiction(parse_poly(text), n_max=3)
    assert (report.violation is not None, report.d) == (violation, d)
    assert report.json_text() == json.dumps(report.as_dict(), indent=2)
    if violation:
        assert report.steps == [] and '"steps": []' in report.json_text()
    if d == 1:
        # d is an int: 1 is written 1, not true
        assert report.profile.factors == () and '"d": 1,' in report.json_text()


@given(TEXT)
@settings(max_examples=100, deadline=None)
def test_replay_violation_text(reason):
    report = ReplayReport(violation=reason, profile=None, d=None)
    assert report.json_text() == json.dumps(report.as_dict(), indent=2)


def newton_json(text):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["newton", text, "--json"]) == 0
    return out.getvalue()


def newton_dumps(text):
    """json.dumps of the four keys of `newton --json`, built from
    newton_polygon and edge_slopes."""
    ngon = newton_polygon(parse_poly(text).normalize())
    slopes = [str(s) for s in edge_slopes(ngon)] if len(ngon.vertices) > 1 else []
    value = {
        "vertices": [list(v) for v in ngon.vertices],
        "degenerate": len(ngon.vertices) < 3,
        "edge_slopes": slopes,
        "vertical_edge": VERTICAL in slopes if len(ngon.vertices) > 1 else None,
    }
    return json.dumps(value, indent=2) + "\n"


@pytest.mark.parametrize(
    "text",
    ["3", "L - 1", "M*L + M^2*L^2", "L^2*M^6 - L*M^6 + L - 1", "(L-1)*(M-1)"],
    ids=["point", "vertical-segment", "segment", "trefoil", "square"],
)
def test_newton_cases(text):
    assert newton_json(text) == newton_dumps(text)


@given(st.sets(st.tuples(st.integers(0, 10**20), st.integers(0, 300)), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_newton_text_matches_json_dumps(support):
    text = format_poly(BivarPoly(dict.fromkeys(support, 1)))
    assert newton_json(text) == newton_dumps(text)
