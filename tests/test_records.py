"""Result records: construction, defaults, value equality, immutability.

Every record is a slotted class with a hand-written ``__init__``, one
class per kind of result: a cyclotomic recognition, for one, gives a
CyclotomicProfile or a Violation. The table below lists all 13 records.
Their field order, keyword names and defaults are pinned here; records
that cannot change are hashable and refuse assignment, the others are
mutable and unhashable.
"""

import pytest

from apoly.db import BatchReport, DbRecord, LoadResult, RecordError
from apoly.knots import GroupPresentation
from apoly.newton import NewtonPolygon
from apoly.poly import UnivarPoly, parse_poly
from apoly.structure import (
    AnalysisReport,
    CyclotomicProfile,
    UnitEvalFailure,
    UnitEvaluationForm,
    Violation,
)
from apoly.surgery import ReplayReport, ReplayStep

RESIDUAL = UnivarPoly([3, 1])
FORM = UnitEvaluationForm(1, 0, 1, 0)

# (class, fields in order, values for every field, defaults, frozen)
RECORDS = [
    (
        GroupPresentation,
        ("w", "longitude", "sign_sequence"),
        ((("b", 1),), (("a", 1),), (1,)),
        {},
        True,
    ),
    (
        NewtonPolygon,
        ("vertices", "support"),
        (((0, 0), (1, 1)), frozenset({(0, 0), (1, 1)})),
        {},
        True,
    ),
    (CyclotomicProfile, ("factors", "sign"), (((2, 1),), -1), {"sign": 1}, True),
    (Violation, ("reason",), ("no (L-1)",), {}, True),
    (UnitEvaluationForm, ("sign", "a", "b", "c"), (-1, 2, 1, 3), {}, True),
    (UnitEvalFailure, ("residual",), (RESIDUAL,), {}, True),
    (
        AnalysisReport,
        (
            "name", "deg_m", "deg_l", "abelian_multiplicity", "unit_eval_plus",
            "unit_eval_minus", "vertical_edge", "cyclotomic", "verdict", "degenerate",
        ),
        ("k", 6, 2, 1, FORM, FORM, False, None, "PASS", True),
        {"degenerate": False},
        False,
    ),
    (
        DbRecord,
        ("name", "a_poly", "refined"),
        ("x", parse_poly("L - 1"), True),
        {"refined": False},
        False,
    ),
    (RecordError, ("line", "name", "message"), (3, "x", "DuplicateName: x"), {}, True),
    (LoadResult, ("records", "errors"), ([], []), {}, False),
    (BatchReport, ("reports", "anomalies", "failures"), ([], [], []), {}, False),
    (ReplayStep, ("n", "slope_denominator", "groups"), (1, 2, ((1, 1, 1), (2, 1, 1))), {}, True),
    (
        ReplayReport,
        ("violation", "profile", "d", "steps"),
        (None, None, 2, [ReplayStep(1, 2, ((1, 1, 1),))]),
        {"steps": []},
        False,
    ),
]

IDS = [spec[0].__name__ for spec in RECORDS]


@pytest.mark.parametrize("cls, fields, values, defaults, frozen", RECORDS, ids=IDS)
def test_position_and_keyword(cls, fields, values, defaults, frozen):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    for name, value in zip(fields, values):
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    assert by_position == by_keyword
    assert cls.__slots__ == fields
    assert not hasattr(by_position, "__dict__")


@pytest.mark.parametrize("cls, fields, values, defaults, frozen", RECORDS, ids=IDS)
def test_defaults(cls, fields, values, defaults, frozen):
    required = dict(zip(fields, values))
    for name in defaults:
        del required[name]
    record = cls(**required)
    for name, default in defaults.items():
        assert getattr(record, name) == default
    if "steps" in defaults:
        # a fresh list for each instance
        assert cls(**required).steps is not record.steps


@pytest.mark.parametrize("cls, fields, values, defaults, frozen", RECORDS, ids=IDS)
def test_value_equality(cls, fields, values, defaults, frozen):
    record = cls(*values)
    assert record == cls(*values)
    assert record != object()
    assert repr(record).startswith(f"{cls.__name__}({fields[0]}=")
    # records of different classes never compare equal
    other_cls, _, other_values, _, _ = RECORDS[IDS.index(cls.__name__) - 1]
    assert record != other_cls(*other_values)


@pytest.mark.parametrize("cls, fields, values, defaults, frozen", RECORDS, ids=IDS)
def test_frozen_or_mutable(cls, fields, values, defaults, frozen):
    record = cls(*values)
    if frozen:
        assert hash(record) == hash(cls(*values))
        assert len({record, cls(*values)}) == 1
        with pytest.raises(AttributeError):
            setattr(record, fields[0], values[0])
        with pytest.raises(AttributeError):
            delattr(record, fields[0])
    else:
        with pytest.raises(TypeError):
            hash(record)
        setattr(record, fields[-1], values[-1])
        assert getattr(record, fields[-1]) == values[-1]
    with pytest.raises(AttributeError):
        record.not_a_field = 1


def test_differing_field_breaks_equality():
    assert CyclotomicProfile(((2, 1),)) != CyclotomicProfile(((2, 1),), sign=-1)
    assert UnitEvaluationForm(1, 0, 1, 0) != UnitEvaluationForm(1, 0, 0, 1)
    assert Violation("r") != Violation("s")


def test_statuses_are_read_off_the_fields():
    # no field restates another: the status and ok are properties
    assert [BatchReport([], a, f).status for a, f in (([], []), (["x"], []), (["x"], ["y"]))] == [
        "OK", "ANOMALY", "FAIL"]
    trivial, nontrivial = ReplayStep(1, 2, ((1, 1, 1),)), ReplayStep(1, 2, ((2, 1, 2),))
    assert ReplayReport(None, None, 2, [trivial]).ok
    assert not ReplayReport(None, None, 2, [trivial, nontrivial]).ok
    assert not ReplayReport("missing abelian factor (L-1)", None, None).ok


def test_checks_keep_their_messages():
    with pytest.raises(ValueError, match="record name must be nonempty"):
        DbRecord("", parse_poly("L - 1"))
