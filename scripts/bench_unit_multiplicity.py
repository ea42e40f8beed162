#!/usr/bin/env python3
"""In-process times of the (L-1) multiplicity counts on (L-1)^k, two checkouts.

Usage (from the repository root):

    python3 scripts/bench_unit_multiplicity.py PARENT_SRC CHANGE_SRC OUT.json [PAIRS]

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.
Each pair runs one fresh interpreter per side, the side that runs first
alternating from pair to pair. An interpreter times
``structure.check_unit_evaluation((L-1)^k, 1)`` and
``structure.abelian_multiplicity((L-1)^k)`` once for each k in KS, after
building the polynomial, and prints the times as JSON. OUT.json gets the
per-k medians and quartiles of both sides and the raw pairs.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

KS = (300, 600, 900, 1200)
STAGES = ("check_unit_evaluation_s", "abelian_multiplicity_s")

CHILD = """
import json, sys, time
from apoly.poly import BivarPoly
from apoly.structure import abelian_multiplicity, check_unit_evaluation
out = {}
for k in json.loads(sys.argv[1]):
    a = BivarPoly({(0, 1): 1, (0, 0): -1}) ** k
    t0 = time.perf_counter()
    assert check_unit_evaluation(a, 1).b == k
    t1 = time.perf_counter()
    assert abelian_multiplicity(a) == k
    t2 = time.perf_counter()
    out[k] = {"check_unit_evaluation_s": t1 - t0, "abelian_multiplicity_s": t2 - t1}
print(json.dumps(out))
"""


def run_side(src):
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(KS)],
        capture_output=True, text=True, env=env, check=True,
    )
    return {int(k): v for k, v in json.loads(proc.stdout).items()}


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def main():
    parent_src, change_src, out_path = sys.argv[1:4]
    n_pairs = int(sys.argv[4]) if len(sys.argv) > 4 else 5
    pairs = []
    for r in range(n_pairs):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        runs = {side: run_side(parent_src if side == "parent" else change_src) for side in order}
        pairs.append({"pair": r, "first": order[0], **runs})
        print(f"pair {r} done", file=sys.stderr)
    summary = {}
    for k in KS:
        summary[str(k)] = {}
        for stage in STAGES:
            parent = [p["parent"][k][stage] for p in pairs]
            change = [p["change"][k][stage] for p in pairs]
            summary[str(k)][stage] = {
                "parent": quartiles(parent),
                "change": quartiles(change),
                "change_better_pairs": sum(c < p for p, c in zip(parent, change)),
                "ratio_change_over_parent": round(
                    statistics.median(change) / statistics.median(parent), 4
                ),
            }
    doc = {
        "label": "unit_multiplicity",
        "what": "Multiplicities of (L - 1) and (L + 1) by repeated synthetic division "
        "(structure._synthetic_div) instead of dense trial division and Taylor "
        "coefficients, on (L-1)^k.",
        "command": "python3 scripts/bench_unit_multiplicity.py PARENT/src CHANGE/src "
        f"BENCH_unit_multiplicity.json {n_pairs}",
        "protocol": "one fresh interpreter per side and pair, in-process times with "
        "time.perf_counter, the side that runs first alternating from pair to pair",
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "summary": summary,
        "pairs": [
            {
                "pair": p["pair"],
                "first": p["first"],
                "parent": {str(k): v for k, v in p["parent"].items()},
                "change": {str(k): v for k, v in p["change"].items()},
            }
            for p in pairs
        ],
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
