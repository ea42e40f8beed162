#!/usr/bin/env python3
"""End-to-end benchmark pairs and a per-phase split of one verify-db run,
for two checkouts.

Usage (from the repository root):

    python3 scripts/bench_verify_db_overhead.py PARENT_ROOT CHANGE_ROOT OUT.json

PARENT_ROOT and CHANGE_ROOT are the roots of two checkouts. Two parts:

* Pairs: ``perfbench/run.py --workload W --seed S --seconds 20 --trace 0``
  in each checkout, for each (W, S) in PAIRS, the side that runs first
  alternating from pair to pair. Each run's ``result-W-trace0.json`` is
  kept whole (metrics and raw samples).
* Phases: PHASE_RUNS fresh interpreters per side, alternating, each
  timing the phases of ``verify-db --json`` on one 600-record table of
  the ``verify-db`` workload (seed PHASE_SEED, table 3): interpreter and
  ``site`` (a ``python -c pass``), the imports ``verify-db`` needs,
  ``argv`` (reading the command line), ``load_table``, ``verify_all`` and
  ``json`` (the ``--json`` writer that ``cmd_verify_db`` calls,
  ``BatchReport.json_text``, its output sent to ``os.devnull``), and
  ``per_record``, the sum of the last three.

Both sides run without a bytecode cache (PYTHONDONTWRITEBYTECODE=1), so
every run compiles apoly's source, as an uninstalled checkout does.
OUT.json gets per-side medians and quartiles, the pair wins and every raw
result, under the label of its file name (``BENCH_<label>.json``). WHAT
says what the two sides differ in.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WHAT = (
    "verify-db's per-record phases: BatchReport and AnalysisReport write their own "
    "--json text in f-strings, with no as_dict and no recursive writer; UnivarPoly.__str__ "
    "writes its terms in order, with no BivarPoly and no sort; recognition reads one "
    "per-order table (phi(d), Moebius pairs, Phi_d(2), Phi_d(3)), ascending in phi(d), "
    "and at deg_M = 0 L - 1 and L + 1 are divided out once for the unit form, the abelian "
    "multiplicity and recognition; parse_poly leaves no reference cycle."
)
PAIRS = (
    [("verify-db", s) for s in range(2101, 2111)]
    + [("twobridge", s) for s in range(2111, 2115)]
    + [("degree-zero", s) for s in range(2121, 2125)]
)
PHASE_SEED = 2131
METRICS = ("setup_s", "ops_per_s", "op_gmean_s", "peak_rss_mb")
HIGHER_IS_BETTER = {"ops_per_s"}
PHASE_RUNS = 40

PHASE_CHILD = """
import json, os, sys, time
devnull = open(os.devnull, "w")
t0 = time.perf_counter()
import apoly.cli
from apoly import db
t1 = time.perf_counter()
argv = ["verify-db", sys.argv[1], "--json"]
if hasattr(apoly.cli, "_parse_args"):
    path = apoly.cli._parse_args(argv)[1]["path"]
else:  # a checkout from before the command table
    path = apoly.cli.build_parser().parse_args(argv).path
t2 = time.perf_counter()
loaded = db.load_table(path)
t3 = time.perf_counter()
report = db.verify_all(loaded.records)
t4 = time.perf_counter()
sys.stdout = devnull
print(report.json_text())
sys.stdout.flush()
sys.stdout = sys.__stdout__
t5 = time.perf_counter()
print(json.dumps({"import": t1 - t0, "argv": t2 - t1, "load_table": t3 - t2,
                  "verify_all": t4 - t3, "json": t5 - t4}))
"""


def child_env(src=None):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    if src is not None:
        env["PYTHONPATH"] = str(src)
    return env


def quartiles(xs):
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def run_pair_side(root, workload, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "20", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, env=child_env(), capture_output=True, text=True)
    out = root / "perfbench" / "out" / f"result-{workload}-trace0.json"
    result = json.loads(out.read_text(encoding="utf-8"))
    result["returncode"] = proc.returncode
    return result


def time_bare_interpreter():
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True)
    return time.perf_counter() - t


def phase_table(roots):
    sys.path.insert(0, str(roots["change"] / "perfbench"))
    import inputs

    fixtures = (roots["change"] / "src" / "apoly" / "data" / "fixtures.txt").read_text(
        encoding="utf-8"
    )
    with tempfile.TemporaryDirectory() as tmp:
        ops = inputs.verify_db_ops(PHASE_SEED, Path(tmp), fixtures)
        table = next(a for a in ops[3].argv if a.endswith(".txt"))
        runs = {side: [] for side in roots}
        for k in range(PHASE_RUNS):
            for side in list(roots) if k % 2 == 0 else list(roots)[::-1]:
                bare = time_bare_interpreter()
                proc = subprocess.run(
                    [sys.executable, "-c", PHASE_CHILD, table],
                    capture_output=True, text=True, env=child_env(roots[side] / "src"), check=True,
                )
                r = json.loads(proc.stdout)
                per_record = r["load_table"] + r["verify_all"] + r["json"]
                runs[side].append(dict(r, per_record=per_record, interpreter_site=bare))
    return {
        side: {key: round(statistics.median(r[key] for r in rs) * 1000, 1) for key in rs[0]}
        for side, rs in runs.items()
    }


def run_pairs(roots, pairs):
    """Run each (workload, seed) of pairs on both sides, the side that runs
    first alternating from pair to pair; returns the raw pairs."""
    out = []
    for k, (workload, seed) in enumerate(pairs):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        pair = {"workload": workload, "seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_pair_side(roots[side], workload, seed)
            m = pair[side]["metrics"]
            print(workload, seed, side, {n: round(m[n]["value"], 4) for n in METRICS}, flush=True)
        out.append(pair)
    return out


def summarize(pairs, roots):
    """Per workload and metric: quartiles per side, the pairs the change
    wins and the ratio of the medians; failed operations and correctness."""
    summary = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        these = [p for p in pairs if p["workload"] == workload]
        summary[workload] = {"pairs": len(these)}
        for name in METRICS:
            vals = {s: [p[s]["metrics"][name]["value"] for p in these] for s in roots}
            better = [
                (c > p) if name in HIGHER_IS_BETTER else (c < p)
                for p, c in zip(vals["parent"], vals["change"])
            ]
            summary[workload][name] = {
                "parent": quartiles(vals["parent"]),
                "change": quartiles(vals["change"]),
                "change_better_pairs": sum(better),
                "ratio_change_over_parent": round(
                    statistics.median(vals["change"]) / statistics.median(vals["parent"]), 4
                ),
            }
        summary[workload]["failed_ops"] = {s: sum(p[s]["failed"] for p in these) for s in roots}
        summary[workload]["all_correct"] = {s: all(p[s]["correct"] for p in these) for s in roots}
    return summary


def main():
    if len(sys.argv) != 4:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    roots = {"parent": Path(sys.argv[1]).resolve(), "change": Path(sys.argv[2]).resolve()}
    pairs = run_pairs(roots, PAIRS)
    summary = summarize(pairs, roots)

    out = Path(sys.argv[3])
    doc = {
        "label": out.stem.removeprefix("BENCH_"),
        "what": WHAT,
        "command": f"python3 scripts/bench_verify_db_overhead.py PARENT_ROOT CHANGE_ROOT {out.name}",
        "protocol": "perfbench/run.py --seconds 20 --trace 0 per side and pair, the side that "
                    "runs first alternating from pair to pair; no bytecode cache on either side. "
                    "Phases: median of 40 fresh interpreters per side, alternating, in ms.",
        "machine": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "summary": summary,
        "phases_ms": {"table": f"verify-db workload, seed {PHASE_SEED}, table 3 (600 records)",
                      "runs_per_side": PHASE_RUNS, **phase_table(roots)},
        "pairs": pairs,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
