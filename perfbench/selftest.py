#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

Usage (from the repository root): python3 perfbench/selftest.py

Runs the apoly CLI on small inputs of each workload, shows that the checks
accept its real outputs, and then that each check rejects a wrong answer
made by one small change to those outputs: one changed coefficient, one
dropped order, one dropped point, a wrong verdict, and so on. Prints one
line per case and exits 1 if any check lets a wrong answer through.
"""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys

import checks
import inputs
import polys
import run

FAILURES = []


def cli(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "apoly.cli", *argv],
        capture_output=True,
        text=True,
        env=run.child_env(),
        cwd=run.ROOT,
        check=False,
    )
    return proc.returncode, json.loads(proc.stdout)


def expect(label, errors, reject):
    ok = bool(errors) == reject
    print(f"{'PASS' if ok else 'FAIL'}  {'rejects' if reject else 'accepts'}  {label}")
    if not ok:
        FAILURES.append(label)


def mutated(obj, change):
    out = copy.deepcopy(obj)
    change(out)
    return out


def with_terms(out, change):
    """Change the polynomial of a compute output through its term dict."""
    terms = polys.parse(out["polynomial"])
    out["polynomial"] = polys.fmt(change(terms))


def bump_coefficient(terms):
    key = sorted(terms)[len(terms) // 2]
    return {**terms, key: terms[key] + 1}


def twobridge_cases():
    knots = [(3, 1), (5, 1), (5, 3), (7, 3), (7, 5), (9, 5), (9, 7)]
    good = {(p, q): cli(["compute", "--two-bridge", str(p), str(q), "--json"])[1] for p, q in knots}
    expect("twobridge outputs of 3/1 .. 9/7", checks.check_twobridge(good), False)
    cases = {
        "5/3 with one changed coefficient": (
            (5, 3),
            lambda o: with_terms(o, bump_coefficient),
        ),
        "5/3 with verdict FAIL": ((5, 3), lambda o: o["report"].update(verdict="FAIL")),
        "5/3 times a second (L - 1)": (
            (5, 3),
            lambda o: with_terms(o, lambda t: polys.mul(t, polys.L_MINUS_1)),
        ),
        "K(5, 1) with L*M^10 - 1 for L*M^10 + 1": (
            (5, 1),
            lambda o: with_terms(o, lambda t: {(i, j): -c if i else c for (i, j), c in t.items()}),
        ),
        "7/5 (= 7/3) replaced by the mirror of 7/3": (
            (7, 5),
            lambda o: with_terms(o, polys.invert_l),
        ),
        "9/7 (mirror of 9/5) replaced by 9/5": (
            (9, 7),
            lambda o: o.update(polynomial=good[(9, 5)]["polynomial"]),
        ),
    }
    for label, (knot, change) in cases.items():
        bad = {**good, knot: mutated(good[knot], change)}
        expect(label, checks.check_twobridge(bad), True)


def degree_zero_cases():
    rng = random.Random(0)
    for kind, deg in (("orders", 30), ("power", 24), ("selmer", 30)):
        for op in inputs.degree_zero_pair(rng, kind, deg):
            _, out = cli(op.argv)
            label = f"{op.facts['command']} on {kind} input of L-degree {deg}"
            expect(label, checks.check_degree_zero(op.facts, out), False)
            command = op.facts["command"]
            if kind == "selmer":
                if command == "analyze":
                    change = lambda o: o.update(cyclotomic={"factors": [], "sign": 1})
                else:
                    change = lambda o: o.update(ok=True, violation=None)
                bad = {"Selmer factor not reported": change}
            elif command == "analyze":
                bad = {
                    "one dropped order": lambda o: o["cyclotomic"]["factors"].pop(),
                    "wrong L-degree": lambda o: o.update(deg_L=o["deg_L"] + 1),
                    "a repeated order": lambda o: o["cyclotomic"]["factors"][0].update(
                        multiplicity=2
                    ),
                }
            else:
                bad = {
                    "replay not ok": lambda o: o.update(ok=False),
                    "one dropped order": lambda o: o["profile"]["factors"].pop(),
                    "d not a multiple of the lcm": lambda o: o.update(d=o["d"] + 1),
                    "one dropped point": lambda o: o["steps"][-1]["points"].pop(),
                    "a point with u != 1": lambda o: o["steps"][0]["points"][0].update(
                        forces_trivial=False
                    ),
                }
            for what, change in bad.items():
                errors = checks.check_degree_zero(op.facts, mutated(out, change))
                expect(f"{label}: {what}", errors, True)


def verify_db_cases():
    fixtures = inputs.fixture_records(
        (run.ROOT / "src" / "apoly" / "data" / "fixtures.txt").read_text(encoding="utf-8")
    )
    records = inputs.verify_db_table(random.Random(0), fixtures[:3], n_torus=12, n_refined=8)
    run.OUT.mkdir(exist_ok=True)
    path = run.OUT / "selftest-table.txt"
    inputs.write_table(path, records)
    op = inputs.Op(["verify-db", str(path), "--json"], {"records": records})
    code, out = cli(op.argv)
    label = f"verify-db on a table of {len(records)} records"
    expect(label, run.check_round("verify-db", [op], [(code, out)])[1], False)

    def record(kind, pick=lambda r: True):
        names = {n for n, _, f in records if f["kind"] == kind}
        return next(r for r in out["records"] if r["name"] in names and pick(r))

    def edit(kind, change, pick=lambda r: True):
        def apply(o):
            name = record(kind, pick)["name"]
            change(next(r for r in o["records"] if r["name"] == name))

        return apply

    cases = {
        "status ANOMALY": lambda o: o.update(status="ANOMALY"),
        "one record too few": lambda o: (o["records"].pop(), o.update(n_records=o["n_records"] - 1)),
        "a torus deg_M off by one": edit("torus", lambda r: r.update(deg_M=r["deg_M"] + 1)),
        "a torus verdict FAIL": edit("torus", lambda r: r.update(verdict="FAIL")),
        "a two-bridge verdict FAIL": edit("twobridge", lambda r: r.update(verdict="FAIL")),
        "a unit evaluation with b off by one": edit(
            "torus", lambda r: r["unit_eval_plus"].update(b=r["unit_eval_plus"]["b"] + 1)
        ),
        "a refined record with a dropped order": edit(
            "refined",
            lambda r: r["cyclotomic"]["factors"].pop(),
            pick=lambda r: r["cyclotomic"]["factors"],
        ),
        "a refined record with verdict PASS": edit("refined", lambda r: r.update(verdict="PASS")),
    }
    for what, change in cases.items():
        expect(f"verify-db: {what}", checks.check_verify_db(records, mutated(out, change)), True)
    expect("verify-db: exit code 3", run.check_round("verify-db", [op], [(3, out)])[1], True)


def main():
    if not (run.ROOT / "src" / "apoly" / "cli.py").is_file():
        print("error: no apoly source tree", file=sys.stderr)
        return 2
    twobridge_cases()
    degree_zero_cases()
    verify_db_cases()
    print(f"{len(FAILURES)} check(s) let a wrong answer through" if FAILURES else "all checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
