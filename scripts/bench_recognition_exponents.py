#!/usr/bin/env python3
"""In-process times of cyclotomic recognition, two checkouts.

Usage (from the repository root):

    python3 scripts/bench_recognition_exponents.py PARENT_SRC CHANGE_SRC OUT.json [PAIRS]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Each pair runs, per side, one fresh interpreter for each large input and
one for the verify-db tables; the side that runs first alternates from
pair to pair.

- Large inputs: ``recognition.is_product_of_cyclotomics(f)`` once, after
  parsing or building f.
- Tables: the 10 seeded 600-record tables of the ``verify-db`` workload
  (``perfbench/inputs.py``, seed 1). The interpreter times recognition of
  each table's 142 refined records, the first table cold, and then
  ``db.verify_all`` of every whole table.

OUT.json gets the medians and quartiles of both sides and the raw pairs.
The tables need sympy, as the benchmark does.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, text); "dense" is built in the child, see DENSE
LARGE = (
    ("L^20000 - 1", "L^20000 - 1"),
    ("L^30030 - 1", "L^30030 - 1"),
    ("L^100000 - 1", "L^100000 - 1"),
    ("(L-1)*(L^19998 + 3*L^9999 + 1)", "(L-1)*(L^19998 + 3*L^9999 + 1)"),
    ("(L^2-3*L+1)*(L^20000-1)", "(L^2-3*L+1)*(L^20000-1)"),
    ("(L-1)*(L^19999 - L - 1)", "(L-1)*(L^19999 - L - 1)"),
    ("dense", None),
)

# (L - 1) times Phi_d over distinct seeded orders 3 <= d <= 400 until the
# degree reaches 2900: a dense product of degree about 3000
DENSE = """
import random
from apoly.recognition import _moebius_pairs, _moebius_product
rng, coeffs, orders = random.Random(2922), [-1, 1], set()
while len(coeffs) <= 2900:
    d = rng.randint(3, 400)
    if d not in orders:
        orders.add(d)
        coeffs = _moebius_product(coeffs, _moebius_pairs(d))
f = BivarPoly({(0, j): c for j, c in enumerate(coeffs)})
"""

LARGE_CHILD = """
import sys, time
from apoly.grammar import parse_poly
from apoly.poly import BivarPoly
from apoly.recognition import is_product_of_cyclotomics
text = sys.argv[1]
if text == "dense":
    exec(sys.argv[2])
else:
    f = parse_poly(text)
t0 = time.perf_counter()
out = is_product_of_cyclotomics(f)
print(time.perf_counter() - t0, f.deg_l(), len(f.terms), type(out).__name__)
"""

TABLE_CHILD = """
import json, sys, time
from apoly.db import load_table, verify_all
from apoly.recognition import is_product_of_cyclotomics
paths = json.loads(sys.argv[1])
tables = [load_table(p).records for p in paths]
refined = [[r.a_poly for r in t if r.name.startswith("refined_")] for t in tables]
recognize = []
for polys in refined:
    t0 = time.perf_counter()
    for f in polys:
        is_product_of_cyclotomics(f)
    recognize.append(time.perf_counter() - t0)
verify = []
for records in tables:
    t0 = time.perf_counter()
    verify_all(records)
    verify.append(time.perf_counter() - t0)
print(json.dumps({"recognize": recognize, "verify_all": verify,
                  "refined": [len(p) for p in refined]}))
"""


def make_tables(workdir):
    """Write the verify-db workload's tables of seed 1; return their paths."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs

    fixtures = (ROOT / "src" / "apoly" / "data" / "fixtures.txt").read_text(encoding="utf-8")
    rng = inputs._rng(1, "verify-db")
    paths = []
    for t in range(inputs.VERIFY_DB_TABLES):
        path = Path(workdir) / f"table-{t}.txt"
        inputs.write_table(path, inputs.verify_db_table(rng, inputs.fixture_records(fixtures)))
        paths.append(str(path))
    return paths


def child(src, code, *args):
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, check=True)
    return proc.stdout


def run_side(src, paths):
    out = {}
    for name, text in LARGE:
        seconds, deg, terms, kind = child(src, LARGE_CHILD, text or "dense", DENSE).split()
        out[name] = {"recognize_s": float(seconds), "deg_l": int(deg), "terms": int(terms),
                     "result": kind}
    tables = json.loads(child(src, TABLE_CHILD, json.dumps(paths)))
    out["tables"] = {
        "recognize_first_s": tables["recognize"][0],
        "recognize_rest_median_s": statistics.median(tables["recognize"][1:]),
        "verify_all_median_s": statistics.median(tables["verify_all"]),
        "refined_records": tables["refined"],
    }
    return out


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(pairs, pick):
    parent = [pick(p["parent"]) for p in pairs]
    change = [pick(p["change"]) for p in pairs]
    return {"parent": quartiles(parent), "change": quartiles(change),
            "change_better_pairs": sum(c < p for p, c in zip(parent, change))}


def main():
    parent_src, change_src, out_path = sys.argv[1:4]
    n_pairs = int(sys.argv[4]) if len(sys.argv) > 4 else 3
    with tempfile.TemporaryDirectory() as workdir:
        paths = make_tables(workdir)
        pairs = []
        for r in range(n_pairs):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            runs = {side: run_side(parent_src if side == "parent" else change_src, paths)
                    for side in order}
            pairs.append({"pair": r, "first": order[0], **runs})
            print(f"pair {r} done", file=sys.stderr)
    summary = {name: summarize(pairs, lambda s, n=name: s[n]["recognize_s"]) for name, _ in LARGE}
    for key in ("recognize_first_s", "recognize_rest_median_s", "verify_all_median_s"):
        summary["tables_" + key] = summarize(pairs, lambda s, k=key: s["tables"][k])
    doc = {
        "label": "recognition_exponents",
        "what": "Cyclotomic recognition by the cyclotomic exponent sequence "
        "(recognition._exponents) instead of a scan over the orders d with "
        "phi(d) <= degree, filtered by Phi_d(2) and Phi_d(3).",
        "command": "python3 scripts/bench_recognition_exponents.py PARENT/src CHANGE/src "
        f"BENCH_recognition_exponents.json {n_pairs}",
        "protocol": "per side and pair, one fresh interpreter per large input and one for "
        "the 10 verify-db tables of seed 1; in-process times with time.perf_counter; "
        "the side that runs first alternating from pair to pair",
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version()},
        "inputs": {name: {k: v for k, v in pairs[0]["change"][name].items()
                          if k in ("deg_l", "terms")} for name, _ in LARGE},
        "summary": summary,
        "pairs": pairs,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
