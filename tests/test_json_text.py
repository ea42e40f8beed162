"""The --json writers against the json.dumps(as_dict(), indent=2) they
replace: AnalysisReport.json_text at each indent the commands write it at
(analyze at the top level, compute under "report", verify-db in its
"records" list) and BatchReport.json_text."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from apoly.db import BatchReport
from apoly.poly import UnivarPoly
from apoly.structure import (
    AnalysisReport,
    CyclotomicProfile,
    UnitEvalFailure,
    UnitEvaluationForm,
    Violation,
)

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
