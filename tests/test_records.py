"""Result records: construction, defaults, value equality, immutability.

Every record is a slotted class whose ``__slots__`` name its fields, one
class per kind of result: a cyclotomic recognition, for one, gives a
CyclotomicProfile or a Violation. All are built by the one
``Record.__init__``, from positions, keywords and the class's
``_defaults``, and changed only by ``_replace``, which makes a copy. The
table below lists all 13 records. Their field order, keyword names and
defaults are pinned here; every record refuses assignment and deletion,
and is hashable when its values are.
"""

import pytest

from apoly.db import BatchReport, DbRecord, LoadResult, RecordError
from apoly.knots import GroupPresentation
from apoly.newton import NewtonPolygon
from apoly.grammar import parse_poly
from apoly.recognition import CyclotomicProfile, Violation
from apoly.poly import _in_l
from apoly.structure import (
    AnalysisReport,
    UnitEvalFailure,
    UnitEvaluationForm,
)
from apoly.surgery import ReplayReport, ReplayStep

RESIDUAL = _in_l([3, 1])
FORM = UnitEvaluationForm(1, 0, 1, 0)

# (class, fields in order, values for every field, defaults)
RECORDS = [
    (
        GroupPresentation,
        ("w", "longitude", "sign_sequence"),
        ((("b", 1),), (("a", 1),), (1,)),
        {},
    ),
    (
        NewtonPolygon,
        ("vertices", "support"),
        (((0, 0), (1, 1)), frozenset({(0, 0), (1, 1)})),
        {},
    ),
    (CyclotomicProfile, ("factors", "sign"), (((2, 1),), -1), {"sign": 1}),
    (Violation, ("reason",), ("no (L-1)",), {}),
    (UnitEvaluationForm, ("sign", "a", "b", "c"), (-1, 2, 1, 3), {}),
    (UnitEvalFailure, ("residual",), (RESIDUAL,), {}),
    (
        AnalysisReport,
        (
            "name", "deg_m", "deg_l", "abelian_multiplicity", "unit_eval_plus",
            "unit_eval_minus", "vertical_edge", "cyclotomic", "verdict", "degenerate",
        ),
        ("k", 6, 2, 1, FORM, FORM, False, None, "PASS", True),
        {"degenerate": False},
    ),
    (
        DbRecord,
        ("name", "a_poly", "refined"),
        ("x", parse_poly("L - 1"), True),
        {"refined": False},
    ),
    (RecordError, ("line", "name", "message"), (3, "x", "DuplicateName: x"), {}),
    (LoadResult, ("records", "errors"), ([], []), {}),
    (BatchReport, ("reports", "anomalies", "failures"), ([], [], []), {}),
    (ReplayStep, ("n", "slope_denominator", "groups"), (1, 2, ((1, 1, 1), (2, 1, 1))), {}),
    (
        ReplayReport,
        ("violation", "profile", "d", "steps"),
        (None, None, 2, (ReplayStep(1, 2, ((1, 1, 1),)),)),
        {"steps": ()},
    ),
]

IDS = [spec[0].__name__ for spec in RECORDS]


@pytest.mark.parametrize("cls, fields, values, defaults", RECORDS, ids=IDS)
def test_position_and_keyword(cls, fields, values, defaults):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    for name, value in zip(fields, values):
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    assert by_position == by_keyword
    assert cls.__slots__ == fields
    assert not hasattr(by_position, "__dict__")


@pytest.mark.parametrize("cls, fields, values, defaults", RECORDS, ids=IDS)
def test_defaults(cls, fields, values, defaults):
    required = dict(zip(fields, values))
    for name in defaults:
        del required[name]
    record = cls(**required)
    for name, default in defaults.items():
        assert getattr(record, name) == default
    # every default is hashable, like the immutable values instances share
    hash(tuple(defaults.values()))


@pytest.mark.parametrize("cls, fields, values, defaults", RECORDS, ids=IDS)
def test_value_equality(cls, fields, values, defaults):
    record = cls(*values)
    assert record == cls(*values)
    assert record != object()
    assert repr(record).startswith(f"{cls.__name__}({fields[0]}=")
    # records of different classes never compare equal
    other_cls, _, other_values, _ = RECORDS[IDS.index(cls.__name__) - 1]
    assert record != other_cls(*other_values)
    # nor does a record equal the tuple of its values
    assert record != tuple(values)


@pytest.mark.parametrize("cls, fields, values, defaults", RECORDS, ids=IDS)
def test_frozen_or_mutable(cls, fields, values, defaults):
    # every record is immutable; it is hashable exactly when its values are
    record = cls(*values)
    for name, value in zip(fields, values):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert record == cls(*values)
    try:
        hash(tuple(values))
    except TypeError:  # LoadResult and BatchReport hold lists
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values))
        assert len({record, cls(*values)}) == 1


@pytest.mark.parametrize("cls, fields, values, defaults", RECORDS, ids=IDS)
def test_construction_errors_name_the_field(cls, fields, values, defaults):
    name = cls.__name__
    required = [f for f in fields if f not in defaults]
    kwargs = dict(zip(fields, values))
    del kwargs[required[-1]]
    with pytest.raises(TypeError, match=rf"^{name} is missing field '{required[-1]}'$"):
        cls(**kwargs)
    with pytest.raises(TypeError, match=rf"^{name} is missing field '{required[-1]}'$"):
        cls(*values[: len(required) - 1])
    with pytest.raises(TypeError, match=rf"^{name} has no field 'colour'$"):
        cls(*values, colour=1)
    with pytest.raises(TypeError, match=rf"^{name} got field '{fields[0]}' twice$"):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError, match=rf"^{name} takes {len(fields)} fields, got {len(fields) + 1}$"):
        cls(*values, None)


@pytest.mark.parametrize("cls, fields, values, defaults", RECORDS, ids=IDS)
def test_replace_makes_a_changed_copy(cls, fields, values, defaults):
    record = cls(*values)
    assert record._replace() == record
    changed = record._replace(**{fields[-1]: values[0]})
    assert changed == cls(*values[:-1], values[0])
    assert record == cls(*values)  # the original is unchanged
    with pytest.raises(TypeError, match=rf"^{cls.__name__} has no field 'colour'$"):
        record._replace(colour=1)
    with pytest.raises(TypeError, match="has no field 'colour'"):
        record._replace(**{fields[0]: values[0], "colour": 1})


def test_differing_field_breaks_equality():
    assert CyclotomicProfile(((2, 1),)) != CyclotomicProfile(((2, 1),), sign=-1)
    assert UnitEvaluationForm(1, 0, 1, 0) != UnitEvaluationForm(1, 0, 0, 1)
    assert Violation("r") != Violation("s")


def test_statuses_are_read_off_the_fields():
    # no field restates another: the status and ok are properties
    assert [BatchReport([], a, f).status for a, f in (([], []), (["x"], []), (["x"], ["y"]))] == [
        "OK", "ANOMALY", "FAIL"]
    trivial, nontrivial = ReplayStep(1, 2, ((1, 1, 1),)), ReplayStep(1, 2, ((2, 1, 2),))
    assert ReplayReport(None, None, 2, (trivial,)).ok
    assert not ReplayReport(None, None, 2, (trivial, nontrivial)).ok
    assert not ReplayReport("missing abelian factor (L-1)", None, None).ok


def test_checks_keep_their_messages():
    with pytest.raises(ValueError, match="record name must be nonempty"):
        DbRecord("", parse_poly("L - 1"))
    with pytest.raises(ValueError, match="record name must be nonempty"):
        DbRecord("x", parse_poly("L - 1"))._replace(name="")
