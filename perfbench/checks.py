"""Output checks for each workload.

Each check takes the parsed JSON outputs and the facts the inputs were
built with, and returns a list of error strings (empty when every output
is right). The expected values are computed here, independently of apoly,
or are properties every correct answer has; none is a stored copy of an
earlier output.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

import polys

# Relations between two-bridge knots p/q with odd q (Schubert): q*q' = 1
# (mod p) gives the same knot, q*q' = -1 (mod p) its mirror image.
EXPECTED_SAME_PAIRS = 3
EXPECTED_MIRROR_PAIRS = 5  # counting the amphichiral 5/3 and 13/5


def check_twobridge(outputs: dict) -> list:
    """``outputs`` maps (p, q) to the parsed ``compute --two-bridge --json``."""
    errors = []
    terms = {}
    for (p, q), out in sorted(outputs.items()):
        tag = f"{p}/{q}"
        a = polys.parse(out["polynomial"])
        terms[(p, q)] = a
        report = out["report"]
        if report["verdict"] != "PASS" or polys.deg_m(a) == 0:
            errors.append(f"{tag}: verdict {report['verdict']}, deg_M {polys.deg_m(a)}")
        if report["deg_M"] != polys.deg_m(a):
            errors.append(f"{tag}: reported deg_M {report['deg_M']} != {polys.deg_m(a)}")
        if not polys.l_minus_1_multiplicity_is_one(a) or report["abelian_multiplicity"] != 1:
            errors.append(f"{tag}: (L - 1) does not occur exactly once")
        if not polys.is_palindromic(a):
            errors.append(f"{tag}: not palindromic")
        if q == 1:
            torus = polys.mul(polys.L_MINUS_1, {(2 * p, 1): 1, (0, 0): 1})
            if a != torus:
                errors.append(f"{tag}: K(p, 1) != (L - 1)(L*M^{2 * p} + 1)")
    same = mirror = 0
    for (p, q), a in terms.items():
        for (p2, q2), b in terms.items():
            if p2 != p or q2 < q:
                continue
            if q2 > q and (q * q2) % p == 1:
                same += 1
                if a != b:
                    errors.append(f"{p}/{q} and {p}/{q2}: q*q' = 1 (mod p) but polynomials differ")
            if (q * q2) % p == p - 1:
                mirror += 1
                if polys.normalize(polys.invert_l(a)) != polys.normalize(b):
                    errors.append(f"{p}/{q} and {p}/{q2}: q*q' = -1 (mod p) but not L-inverse")
    if len(outputs) == 20 and (same, mirror) != (EXPECTED_SAME_PAIRS, EXPECTED_MIRROR_PAIRS):
        errors.append(f"knot relations exercised: {same} same, {mirror} mirror")
    return errors


def _orders(profile) -> list:
    return [f["order"] for f in profile["factors"]]


def check_degree_zero(facts: dict, out: dict) -> list:
    """One ``analyze`` or ``replay`` output against the input's make-up."""
    errors = []
    orders, deg, selmer = facts["orders"], facts["deg_l"], facts["selmer"]
    tag = f"{facts['command']} deg_L={deg}"
    if facts["command"] == "analyze":
        if out["deg_M"] != 0 or out["deg_L"] != deg:
            errors.append(f"{tag}: degrees ({out['deg_M']}, {out['deg_L']})")
        cyc = out["cyclotomic"]
        if selmer:
            if "violation" not in cyc:
                errors.append(f"{tag}: Selmer factor L^{selmer} - L - 1 not reported")
        elif "violation" in cyc or _orders(cyc) != orders:
            errors.append(f"{tag}: cyclotomic {cyc} != orders {orders}")
        elif any(f["multiplicity"] != 1 for f in cyc["factors"]):
            errors.append(f"{tag}: repeated order reported")
        return errors
    if selmer:
        if out["ok"] or not out["violation"]:
            errors.append(f"{tag}: Selmer factor L^{selmer} - L - 1 not reported")
        return errors
    if not out["ok"] or out["violation"] is not None:
        errors.append(f"{tag}: replay not ok ({out['violation']})")
    if out["profile"] is None or _orders(out["profile"]) != orders:
        errors.append(f"{tag}: replay orders differ from {orders}")
    d = out["d"]
    if not d or d % lcm(1, *orders):
        errors.append(f"{tag}: d = {d} is not a multiple of lcm{tuple(orders)}")
    if not out["steps"]:
        errors.append(f"{tag}: no replay steps")
    for step in out["steps"]:
        if step["num_points"] != deg or len(step["points"]) != deg:
            errors.append(f"{tag}: n={step['n']} has {step['num_points']} points, not {deg}")
        if not step["all_forced_trivial"] or not all(pt["forces_trivial"] for pt in step["points"]):
            errors.append(f"{tag}: n={step['n']} has a point with u != 1")
    return errors


@lru_cache(maxsize=None)
def _factored_unit(coeffs: tuple):
    form = polys.unit_eval_form(coeffs)
    return {"failure": True} if form is None else form


def _expected_unit(terms: dict, facts: dict, m: int):
    """The unit-evaluation form of A(m, L). A refined record is built as
    (L - 1) * prod Phi_d(L) from irreducible sympy factors, which is
    already its factorisation; other records are factored by sympy."""
    if facts["kind"] != "refined":
        return _factored_unit(polys.eval_m(terms, m))
    if set(facts["orders"]) - {2}:
        return {"failure": True}
    return {"sign": 1, "a": 0, "b": 1, "c": int(2 in facts["orders"])}


def check_verify_db(records: list, out: dict) -> list:
    """One ``verify-db --json`` output against the generated table; the
    exit code is checked with every other op's."""
    errors = []
    if out["status"] != "OK":
        errors.append(f"verify-db: status {out['status']}")
    if out["n_records"] != len(records) or len(out["records"]) != len(records):
        errors.append(f"verify-db: {out['n_records']} records, table has {len(records)}")
    reports = {r["name"]: r for r in out["records"]}
    for name, terms, facts in records:
        terms = polys.normalize(terms)  # apoly analyzes the A-normal form
        rep = reports.get(name)
        if rep is None:
            errors.append(f"{name}: missing from the report")
            continue
        if facts["kind"] == "torus":
            if rep["verdict"] != "PASS" or rep["deg_M"] != facts["deg_m"]:
                errors.append(f"{name}: verdict {rep['verdict']}, deg_M {rep['deg_M']}")
        elif facts["kind"] == "twobridge":
            if rep["verdict"] != "PASS":
                errors.append(f"{name}: verdict {rep['verdict']}")
        else:
            cyc = rep["cyclotomic"] or {}
            if (
                rep["verdict"] != "REFINED_NOT_APPLICABLE"
                or "factors" not in cyc
                or _orders(cyc) != facts["orders"]
            ):
                errors.append(f"{name}: verdict {rep['verdict']}, cyclotomic {cyc}")
        for key, m in (("unit_eval_plus", 1), ("unit_eval_minus", -1)):
            got = rep[key]
            if got is not None and got.get("failure"):
                got = {"failure": True}
            want = _expected_unit(terms, facts, m)
            if got != want:
                errors.append(f"{name}: {key} {got} != {want}")
    return errors
