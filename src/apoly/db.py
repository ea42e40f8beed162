"""A-polynomial record store: ingest, normalization, batch verification.

Record file format: UTF-8 text, one record per line,

    name ; polynomial-expression ; [flags]

with '#' comments and blank lines ignored; a line with fewer than two or
more than three fields is a record error. The only flag is ``refined``,
marking per-component polynomials that are exempt from the M-degree
verdict. A leading UTF-8 byte-order mark is skipped. Records keep the
polynomial as parsed; ``structure.analyze`` reduces each one to A-normal
form once, when it is verified.
"""

from __future__ import annotations

from ._record import Record, _json_list, _json_str
from .grammar import PolyParseError, parse_poly
from .structure import FAIL, AnalysisReport, UnitEvalFailure, analyze

__all__ = [
    "DbRecord",
    "RecordError",
    "LoadResult",
    "load_table",
    "BatchReport",
    "verify_all",
]

VERDICT_NOT_APPLICABLE = "REFINED_NOT_APPLICABLE"


class DbRecord(Record):
    __slots__ = ("name", "a_poly", "refined")
    _defaults = {"refined": False}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not self.name:
            raise ValueError("record name must be nonempty")


class RecordError(Record):
    __slots__ = ("line", "name", "message")


class LoadResult(Record):
    __slots__ = ("records", "errors")

    def to_text(self):
        """One line per record error, as verify-db prints them."""
        return "\n".join(
            f"record error (line {e.line}, {e.name or '?'}): {e.message}" for e in self.errors
        )


def load_table(path) -> LoadResult:
    """Parse a record file; per-record errors are collected, not fatal."""
    records = []
    errors = []
    seen = set()
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(";")]
            if len(parts) not in (2, 3):
                errors.append(RecordError(lineno, "", "expected 'name ; polynomial [; flags]'"))
                continue
            name, expr = parts[0], parts[1]
            flags = parts[2].split() if len(parts) == 3 else []
            if not name:
                errors.append(RecordError(lineno, "", "empty record name"))
                continue
            if name in seen:
                errors.append(RecordError(lineno, name, f"DuplicateName: {name}"))
                continue
            unknown = [f for f in flags if f != "refined"]
            if unknown:
                errors.append(RecordError(lineno, name, f"unknown flag(s): {' '.join(unknown)}"))
                continue
            try:
                poly = parse_poly(expr)
                if poly.is_zero:
                    raise ValueError("zero polynomial")
                rec = DbRecord(name, poly, "refined" in flags)
            except (PolyParseError, ValueError) as exc:
                errors.append(RecordError(lineno, name, str(exc)))
                continue
            seen.add(name)
            records.append(rec)
    return LoadResult(records=records, errors=errors)


def _unit_eval_failed(rep: AnalysisReport) -> bool:
    """Whether A(1, L) or A(-1, L) fails the unit-evaluation form."""
    return isinstance(rep.unit_eval_plus, UnitEvalFailure) or isinstance(
        rep.unit_eval_minus, UnitEvalFailure
    )


class BatchReport(Record):
    """Record-wise reports plus the names of the failing and anomalous
    records, and an overall status read off those two lists.

    Status FAIL when any non-refined, non-unknot record has M-degree 0
    (which would contradict the nontriviality theorem); ANOMALY when some
    record fails the unit-evaluation form without showing a vertical
    Newton-polygon edge. FAIL takes precedence over ANOMALY.
    """

    __slots__ = ("reports", "anomalies", "failures")

    @property
    def status(self):
        return "FAIL" if self.failures else ("ANOMALY" if self.anomalies else "OK")

    @property
    def exit_code(self):
        return {"OK": 0, "FAIL": 2, "ANOMALY": 3}[self.status]

    def as_dict(self):
        return {
            "status": self.status,
            "n_records": len(self.reports),
            "n_fail": len(self.failures),
            "n_anomaly": len(self.anomalies),
            "failures": list(self.failures),
            "anomalies": list(self.anomalies),
            "records": [r.as_dict() for r in self.reports],
        }

    def json_text(self):
        """The text of json.dumps(self.as_dict(), indent=2)."""
        failures = _json_list(list(map(_json_str, self.failures)), "  ")
        anomalies = _json_list(list(map(_json_str, self.anomalies)), "  ")
        records = _json_list([r.json_text("    ") for r in self.reports], "  ")
        return (f'{{\n  "status": "{self.status}",\n  "n_records": {len(self.reports)},\n  '
                f'"n_fail": {len(self.failures)},\n  "n_anomaly": {len(self.anomalies)},\n  '
                f'"failures": {failures},\n  "anomalies": {anomalies},\n  "records": {records}\n}}')

    def to_text(self):
        lines = []
        w = max([len(r.name) for r in self.reports] + [4])
        lines.append(f"{'name':<{w}}  deg_M  deg_L  eq1  vert  verdict")
        for r in self.reports:
            eq1 = "FAIL" if _unit_eval_failed(r) else "ok"
            vert = {True: "yes", False: "no", None: "-"}[r.vertical_edge]
            lines.append(
                f"{r.name:<{w}}  {r.deg_m:>5}  {r.deg_l:>5}  {eq1:<4} {vert:<5} {r.verdict}"
            )
        lines.append(
            f"status: {self.status} ({len(self.reports)} records, "
            f"{len(self.failures)} failures, {len(self.anomalies)} anomalies)"
        )
        return "\n".join(lines)


def _verify_one(rec: DbRecord) -> AnalysisReport:
    # the claim decides only whether L - 1 is UNKNOT_OK or FAIL, and a
    # table's L - 1 is the unknot: no record claims a nontrivial knot
    report = analyze(rec.a_poly, name=rec.name)
    return report._replace(verdict=VERDICT_NOT_APPLICABLE) if rec.refined else report


def verify_all(records) -> BatchReport:
    """Run every structural check on every record.

    Deterministic and order-independent: the report follows the input
    record order, and each record is analyzed in isolation.
    """
    reports = [_verify_one(rec) for rec in records]
    failures = []
    anomalies = []
    for rec, rep in zip(records, reports):
        if rep.verdict == FAIL:
            failures.append(rec.name)
        # degenerate polygons are excluded from the implication check
        if _unit_eval_failed(rep) and rep.vertical_edge is False and not rep.degenerate:
            anomalies.append(rec.name)
    return BatchReport(reports=reports, anomalies=anomalies, failures=failures)
