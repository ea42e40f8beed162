#!/usr/bin/env python3
"""End-to-end benchmark of the apoly command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload twobridge|degree-zero|verify-db \
        --seed N --seconds S --trace 0|1

Each operation is one ``python -m apoly.cli ... --json`` run in a fresh
interpreter, started one at a time by this process (closed loop, one
client). A run repeats whole rounds of the workload's operations until S
seconds have passed, then checks every output and prints one JSON object
as its last line of stdout.

--trace 0 reports the end-to-end metrics: setup_s (median wall time of a
fresh interpreter importing what the workload loads, sampled about five
times per round between operations), ops_per_s (operations divided by the
wall time spent in them), op_gmean_s (geometric mean of the operation wall
times) and peak_rss_mb (largest resident set of any operation's process).
The three times are scaled to a fixed host speed, measured by a reference
loop timed before every operation (see REFERENCE_S).

--trace 1 runs every operation twice, plainly and under
perfbench/trace_op.py, and reports the per-layer metrics of the traced
runs together with the tracing overhead. Outputs, spans and results are
written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES_PER_ROUND = 5

# The host's speed changes by up to 1.6 times in phases that last from
# seconds to minutes, often longer than a run, so whole runs land in a fast
# or a slow phase. A fixed pure-Python loop that runs no apoly code is timed
# in this process before every operation, and the run's times are scaled by
# REFERENCE_S / (median loop time): they read as at the host speed where
# the loop takes REFERENCE_S.
REFERENCE_LOOPS = 1_000_000
REFERENCE_S = 0.1


def reference_sample():
    """Wall time of the fixed reference loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


# What a fresh interpreter imports before the workload's first real work:
# apoly.cli, plus sympy on the elimination path (knots imports it lazily).
SETUP_IMPORTS = {
    "twobridge": "import apoly.cli, sympy",
    "degree-zero": "import apoly.cli",
    "verify-db": "import apoly.cli",
}

# The layers whose spans should cover most of cli.main on each workload.
WORKLOAD_LAYERS = {
    "twobridge": ("knots", "poly"),
    "degree-zero": ("structure", "surgery"),
    "verify-db": ("db", "structure", "newton", "poly"),
}

# Per-layer metric -> (unit, span name, field). Fields: "total" (summed
# span time), "self" (span time minus its traced children), "calls", or a
# size the span recorded.
LAYER_METRICS = {
    "knots.eliminate_s": ("s", "knots.eliminate", "total"),
    "knots.eliminate_self_s": ("s", "knots.eliminate", "self"),
    "knots.riley_s": ("s", "knots.riley", "total"),
    "knots.word_eval_s": ("s", "knots.word_eval", "total"),
    "knots.word_eval_calls": ("count", "knots.word_eval", "calls"),
    "poly.resultant_s": ("s", "poly.resultant", "total"),
    "poly.resultant_calls": ("count", "poly.resultant", "calls"),
    "poly.resultant_in_tdeg": ("count", "poly.resultant", "in_tdeg"),
    "poly.resultant_out_terms": ("count", "poly.resultant", "out_terms"),
    "structure.decomposition_s": ("s", "structure.decomposition", "total"),
    "structure.recognition_s": ("s", "structure.recognition", "total"),
    "structure.candidates_s": ("s", "structure.candidates", "total"),
    "structure.candidates_calls": ("count", "structure.candidates", "calls"),
    "structure.candidates_count": ("count", "structure.candidates", "count"),
    "surgery.replay_s": ("s", "surgery.replay", "total"),
    "surgery.intersection_s": ("s", "surgery.intersection", "total"),
    "surgery.intersection_calls": ("count", "surgery.intersection", "calls"),
    "surgery.classify_s": ("s", "surgery.classify", "total"),
    "db.load_s": ("s", "db.load", "total"),
    "db.verify_s": ("s", "db.verify", "total"),
    "structure.analyze_s": ("s", "structure.analyze", "total"),
    "structure.analyze_calls": ("count", "structure.analyze", "calls"),
    "structure.abelian_multiplicity_s": ("s", "structure.abelian_multiplicity", "total"),
    "structure.unit_eval_s": ("s", "structure.unit_eval", "total"),
    "newton.polygon_s": ("s", "newton.polygon", "total"),
    "poly.normalize_s": ("s", "poly.normalize", "total"),
    "poly.bivar_try_divide_s": ("s", "poly.bivar_try_divide", "total"),
    "poly.bivar_try_divide_calls": ("count", "poly.bivar_try_divide", "calls"),
    "poly.parse_s": ("s", "poly.parse", "total"),
}


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(cmd, out_path):
    """Run cmd to completion with stdout in out_path.

    Returns (exit code, wall seconds, peak RSS in MB of that process).
    """
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def setup_sample(workload):
    """Wall time of a fresh interpreter importing what the workload loads."""
    return spawn([sys.executable, "-c", SETUP_IMPORTS[workload]], OUT / "setup.out")[1]


def make_ops(workload, seed):
    if workload == "twobridge":
        return inputs.twobridge_ops(seed)
    if workload == "degree-zero":
        return inputs.degree_zero_ops(seed)
    fixtures = (ROOT / "src" / "apoly" / "data" / "fixtures.txt").read_text(encoding="utf-8")
    return inputs.verify_db_ops(seed, OUT, fixtures)


def read_json(path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def check_round(workload, ops, results):
    """Check one round. ``results`` holds (exit code, parsed stdout or None)
    per op. An op that prints no JSON has failed; one that prints JSON but
    exits nonzero gave a wrong answer. Returns (failed count, errors)."""
    answered = [(op, out) for op, (_, out) in zip(ops, results) if out is not None]
    errors = [
        f"{op.argv[0]} exited with {code}"
        for op, (code, out) in zip(ops, results)
        if out is not None and code != 0
    ]
    if workload == "twobridge":
        outputs = {(op.facts["p"], op.facts["q"]): out for op, out in answered}
        jobs = [(checks.check_twobridge, (outputs,))]
    elif workload == "degree-zero":
        jobs = [(checks.check_degree_zero, (op.facts, out)) for op, out in answered]
    else:
        jobs = [(checks.check_verify_db, (op.facts["records"], out)) for op, out in answered]
    for check, args in jobs:
        try:
            errors += check(*args)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            errors.append(f"malformed output: {exc!r}")
    return len(results) - len(answered), errors


def layer_metrics(workload, traced, plain_walls):
    """Per-layer metrics from the traced ops: (wall, spans) pairs."""
    totals = {}
    layers = WORKLOAD_LAYERS[workload]
    main_s = startup_s = covered_s = 0.0
    for wall, spans in traced:
        in_children = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                in_children[parent] += end - start
        for idx, (name, parent, start, end, sizes) in enumerate(spans):
            acc = totals.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            acc["total"] += end - start
            acc["self"] += end - start - in_children[idx]
            acc["calls"] += 1
            for key, value in (sizes or {}).items():
                acc[key] = acc.get(key, 0) + value
            if name == "cli.main":
                main_s += end - start
                startup_s += wall - (end - start)
            elif name.split(".")[0] in layers:
                # count only the outermost span of the named layers
                while parent >= 0 and spans[parent][0].split(".")[0] not in layers:
                    parent = spans[parent][1]
                if parent < 0:
                    covered_s += end - start
    metrics = {
        "cli.main_s": (main_s, "s"),
        "cli.startup_s": (startup_s, "s"),
        "trace.layer_share_pct": (100 * covered_s / main_s if main_s else 0.0, "%"),
        "trace.overhead_pct": (
            100 * (sum(w for w, _ in traced) / sum(plain_walls) - 1),
            "%",
        ),
    }
    for metric, (unit, span, field) in LAYER_METRICS.items():
        metrics[metric] = (totals.get(span, {}).get(field, 0), unit)
    return metrics


def run(args):
    workload = args.workload
    OUT.mkdir(exist_ok=True)
    for stale in OUT.glob("op-*"):
        stale.unlink()
    ops = make_ops(workload, args.seed)
    # set-up samples are spread through the run, so that they meet the
    # same machine conditions as the operations
    setup_every = max(1, len(ops) // SETUP_SAMPLES_PER_ROUND)
    if not args.trace:
        setup_sample(workload)  # writes bytecode caches, which users have

    setup, reference, plain_walls, rss, rounds, traced, trace_log = [], [], [], [], [], [], []
    n_ops = 0
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        results = []
        for k, op in enumerate(ops):
            if not args.trace:
                if k % setup_every == 0:
                    setup.append(setup_sample(workload))
                reference.append(reference_sample())
            path = OUT / f"op-{n_ops}"
            plan = [("plain", [sys.executable, "-m", "apoly.cli", *op.argv])]
            if args.trace:
                spans_path = path.with_suffix(".spans.json")
                tracer = [sys.executable, str(BENCH / "trace_op.py"), str(spans_path), *op.argv]
                plan.insert(k % 2, ("traced", tracer))  # alternate which goes first
            for kind, cmd in plan:
                out_path = path.with_suffix(f".{kind}.json")
                code, wall, peak = spawn(cmd, out_path)
                if kind == "plain":
                    plain_walls.append(wall)
                    rss.append(peak)
                else:
                    spans = (read_json(spans_path) or {}).get("spans", [])
                    traced.append((wall, spans))
                    trace_log.append({"command": op.argv[0], "wall": wall, "spans": spans})
                results.append((kind, code, out_path))
            n_ops += 1
        rounds.append(results)

    attempted = failed = 0
    errors = []
    for results in rounds:
        # plain and traced outputs are checked as two separate rounds
        for kind in ("plain", "traced") if args.trace else ("plain",):
            parsed = [(code, read_json(p)) for k, code, p in results if k == kind]
            f, e = check_round(workload, ops, parsed)
            attempted += len(parsed)
            failed += f
            errors += e
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(workload, traced, plain_walls)
        (OUT / f"trace-{workload}.json").write_text(json.dumps(trace_log), encoding="utf-8")
    else:
        scale = REFERENCE_S / statistics.median(reference)
        metrics = {
            "setup_s": (statistics.median(setup) * scale, "s"),
            "ops_per_s": (len(plain_walls) / sum(plain_walls) / scale, "1/s"),
            # a mean over every operation of the run, not a median: the
            # operations of a round differ in cost up to sixfold, so a
            # median is the time of the one or two operations in the middle
            # and carries the host's speed at that moment only
            "op_gmean_s": (math.exp(statistics.fmean(map(math.log, plain_walls))) * scale, "s"),
            "peak_rss_mb": (max(rss), "MB"),
        }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    # the printed line, plus the raw samples behind it
    samples = {"op_walls_s": plain_walls, "setup_walls_s": setup, "reference_walls_s": reference}
    (OUT / f"result-{workload}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, samples=samples), indent=1), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUP_IMPORTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that spawn() stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "apoly" / "cli.py").is_file():
        print(f"error: no apoly source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
