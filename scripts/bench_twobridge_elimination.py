#!/usr/bin/env python3
"""End-to-end benchmark pairs and an in-process per-stage split of the
two-bridge elimination, for two checkouts.

Usage (from the repository root):

    python3 scripts/bench_twobridge_elimination.py PARENT_ROOT CHANGE_ROOT OUT.json

PARENT_ROOT and CHANGE_ROOT are the roots of two checkouts. Two parts:

* Pairs: ``perfbench/run.py --workload W --seed S --seconds 20 --trace 0``
  in each checkout, for each (W, S) in PAIRS, the side that runs first
  alternating from pair to pair (see bench_verify_db_overhead.py). Each
  run's result is kept whole (metrics and raw samples).
* Stages: STAGE_RUNS fresh interpreters per side, alternating, each
  running ``knots.eliminate_two_bridge`` on the 20 ``twobridge`` knots and
  on 21/13 and 25/7, with the stage functions wrapped by timers:
  ``charpoly`` is ``knots._charpoly``; ``multiplication_matrix`` is
  ``knots._longitude_charpoly`` less ``charpoly`` (the matrix, and the
  L-coefficient lists assembled from its characteristic polynomial);
  ``squarefree`` is ``knots._squarefree_bivar``; ``normalize`` is
  ``BivarPoly.normalize``; ``word_eval`` is the rest of the elimination:
  the presentation, the word evaluations, phi, lambda, the (L-1) check
  and product on the square-free part's lists and the BivarPoly built
  from them. (Before the square-free step ran on coefficient lists, the
  BivarPoly was built in ``multiplication_matrix``.)

Both sides run without a bytecode cache (PYTHONDONTWRITEBYTECODE=1).
OUT.json gets per-side medians and quartiles, the pair wins, the stage
medians in ms and every raw result.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_verify_db_overhead import child_env, run_pairs, summarize  # noqa: E402

PAIRS = (
    [("twobridge", s) for s in range(1441, 1451)]
    + [("degree-zero", s) for s in range(1451, 1455)]
    + [("verify-db", s) for s in range(1461, 1465)]
)
# the twobridge workload's knots: odd p <= 13, odd q prime to p
WORKLOAD_KNOTS = [(p, q) for p in range(3, 14, 2) for q in range(1, p, 2) if gcd(p, q) == 1]
LARGE_KNOTS = [(21, 13), (25, 7)]
STAGE_RUNS = 3
STAGES = ("word_eval", "multiplication_matrix", "charpoly", "squarefree", "normalize")

STAGE_CHILD = """
import json, sys, time
from apoly import knots
from apoly.poly import BivarPoly

spent = {}

def timed(name, f):
    def wrapper(*args):
        t = time.perf_counter()
        try:
            return f(*args)
        finally:
            spent[name] = spent.get(name, 0.0) + time.perf_counter() - t
    return wrapper

knots._charpoly = timed("charpoly", knots._charpoly)
knots._longitude_charpoly = timed("longitude_charpoly", knots._longitude_charpoly)
knots._squarefree_bivar = timed("squarefree", knots._squarefree_bivar)
BivarPoly.normalize = timed("normalize", BivarPoly.normalize)
out = []
for p, q in json.loads(sys.argv[1]):
    spent.clear()
    t = time.perf_counter()
    knots.eliminate_two_bridge(p, q)
    total = time.perf_counter() - t
    out.append({
        "knot": f"{p}/{q}", "total": total,
        "word_eval": total - spent["longitude_charpoly"] - spent["squarefree"]
        - spent["normalize"],
        "multiplication_matrix": spent["longitude_charpoly"] - spent["charpoly"],
        "charpoly": spent["charpoly"], "squarefree": spent["squarefree"],
        "normalize": spent["normalize"],
    })
print(json.dumps(out))
"""


def stage_runs(root, knots):
    proc = subprocess.run(
        [sys.executable, "-c", STAGE_CHILD, json.dumps(knots)],
        capture_output=True, text=True, env=child_env(root / "src"), check=True,
    )
    return json.loads(proc.stdout)


def stage_table(roots):
    """Median over STAGE_RUNS of each stage in ms, summed over the workload
    knots, and per large knot; the raw runs too."""
    raw = {side: [] for side in roots}
    for k in range(STAGE_RUNS):
        for side in list(roots) if k % 2 == 0 else list(roots)[::-1]:
            raw[side].append(stage_runs(roots[side], WORKLOAD_KNOTS + LARGE_KNOTS))
    n = len(WORKLOAD_KNOTS)
    groups = {"twobridge_20_knots": slice(0, n)}
    groups.update({f"{p}/{q}": slice(n + j, n + j + 1) for j, (p, q) in enumerate(LARGE_KNOTS)})
    table = {
        side: {
            group: {
                key: round(statistics.median(sum(k[key] for k in run[part]) for run in runs) * 1000, 1)
                for key in ("total", *STAGES)
            }
            for group, part in groups.items()
        }
        for side, runs in raw.items()
    }
    return table, raw


def main():
    if len(sys.argv) != 4:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    roots = {"parent": Path(sys.argv[1]).resolve(), "change": Path(sys.argv[2]).resolve()}
    stages, stage_raw = stage_table(roots)
    print(json.dumps(stages), flush=True)
    pairs = run_pairs(roots, PAIRS)
    doc = {
        "label": Path(sys.argv[3]).stem.removeprefix("BENCH_"),
        "what": "Two-bridge elimination: the square-free step reads gcd(r, dr/dL) off the "
                "balanced base-x digits of one gcd over Z at M = x and certifies it by exact "
                "division, in place of the primitive remainder sequence over Z[M].",
        "command": "python3 scripts/bench_twobridge_elimination.py PARENT_ROOT CHANGE_ROOT "
                   + Path(sys.argv[3]).name,
        "protocol": "perfbench/run.py --seconds 20 --trace 0 per side and pair, the side that "
                    "runs first alternating from pair to pair; no bytecode cache on either side. "
                    f"Stages: median of {STAGE_RUNS} fresh interpreters per side, alternating, "
                    "in ms, in-process eliminate_two_bridge with timed stage functions.",
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "summary": summarize(pairs, roots),
        "stages_ms": stages,
        "stage_runs": stage_raw,
        "pairs": pairs,
    }
    Path(sys.argv[3]).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
