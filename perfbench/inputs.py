"""Seeded inputs for the three workloads.

Every input is built here from sympy and integer arithmetic, together with
the facts the checks need (orders, degrees, torus parameters); nothing is
taken from a stored copy of apoly's output.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

import sympy as sp

import polys

# twobridge: every two-bridge knot p/q with odd p <= 13 and odd q coprime
# to p. Even q is left out: apoly dies on it with a TypeError.
TWO_BRIDGE = tuple(
    (p, q) for p in range(3, 14, 2) for q in range(1, p, 2) if gcd(p, q) == 1
)

# degree-zero: one input per slot, (kind, L-degree). The L-degree is fixed
# per slot because the cyclotomic candidate scan costs about degree^2; only
# which orders make up an input depends on the seed, so a round costs about
# the same on every seed.
DEGREE_ZERO_SLOTS = (
    ("orders", 150),
    ("orders", 250),
    ("power", 250),
    ("selmer", 250),
    ("selmer", 350),
)

# verify-db: tables per round, and the make-up of one table.
VERIFY_DB_TABLES = 10
TORUS_RECORDS = 440
REFINED_RECORDS = 142
TORUS_MAX_DEG_M = 2000


@dataclass
class Op:
    """One CLI invocation and the facts its output is checked against."""

    argv: list
    facts: dict = field(default_factory=dict)


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{seed}:{workload}")


@lru_cache(maxsize=None)
def _phi(d: int) -> int:
    return int(sp.totient(d))


def _pick_orders(rng: random.Random, total: int, cap: int) -> list:
    """Distinct cyclotomic orders d in [2, cap] with sum of phi(d) == total."""
    while True:
        pool = list(range(2, cap + 1))
        rng.shuffle(pool)
        left, orders = total, []
        for d in pool:
            f = _phi(d)
            if f <= left:
                orders.append(d)
                left -= f
                if left == 0:
                    return sorted(orders)


def _cyclotomic_product(orders) -> dict:
    """Term dict of (L - 1) * prod Phi_d(L), with Phi_d from sympy."""
    f = sp.Poly(polys.L - 1, polys.L)
    for d in orders:
        f = f * sp.Poly(sp.cyclotomic_poly(d, polys.L), polys.L)
    return polys.from_univar_l(reversed(f.all_coeffs()))


def twobridge_ops(seed: int) -> list:
    knots = list(TWO_BRIDGE)
    _rng(seed, "twobridge").shuffle(knots)
    return [
        Op(["compute", "--two-bridge", str(p), str(q), "--json"], {"p": p, "q": q})
        for p, q in knots
    ]


def degree_zero_pair(rng: random.Random, kind: str, deg: int) -> list:
    """``analyze`` and ``replay`` ops on one M-degree-0 input of L-degree deg:
    L^deg - 1 ("power"), (L - 1) * prod Phi_d over seeded distinct orders
    ("orders"), or that times a Selmer trinomial L^k - L - 1 ("selmer"),
    which is irreducible and not cyclotomic. k is fixed at deg // 8 because
    recognition never finishes early on a Selmer input, so its cost moves
    with k."""
    selmer = None
    if kind == "power":
        terms = {(0, deg): 1, (0, 0): -1}
        orders = sorted(int(d) for d in sp.divisors(deg) if d > 1)
    else:
        rest = deg - 1
        if kind == "selmer":
            selmer = deg // 8
            rest -= selmer
        orders = _pick_orders(rng, rest, deg)
        terms = _cyclotomic_product(orders)
        if selmer:
            terms = polys.mul(terms, {(0, selmer): 1, (0, 1): -1, (0, 0): -1})
    text = polys.fmt(terms)
    facts = {"deg_l": deg, "orders": orders, "selmer": selmer}
    return [
        Op(["analyze", text, "--json"], dict(facts, command="analyze")),
        Op(["replay", text, "--json"], dict(facts, command="replay")),
    ]


def degree_zero_ops(seed: int) -> list:
    rng = _rng(seed, "degree-zero")
    ops = []
    for kind, deg in DEGREE_ZERO_SLOTS:
        ops += degree_zero_pair(rng, kind, deg)
    return ops


def _torus_terms(a: int, b: int) -> dict:
    n = a * b
    out = polys.mul(polys.L_MINUS_1, {(n, 1): 1, (0, 0): 1})
    if a > 2:
        out = polys.mul(out, {(n, 1): 1, (0, 0): -1})
    return out


def _torus_deg_m(a: int, b: int) -> int:
    return a * b if a == 2 else 2 * a * b


# coprime 2 <= a < b with M-degree (ab, or 2ab when a > 2) up to the cap,
# ordered by M-degree
_TORUS_PAIRS = sorted(
    (
        (a, b)
        for a in range(2, 45)
        for b in range(a + 1, TORUS_MAX_DEG_M // a + 1)
        if gcd(a, b) == 1 and _torus_deg_m(a, b) <= TORUS_MAX_DEG_M
    ),
    key=lambda ab: (_torus_deg_m(*ab), ab),
)


def fixture_records(fixtures_text: str) -> list:
    """(name, terms) of apoly's bundled two-bridge fixtures."""
    out = []
    for line in fixtures_text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("twobridge_"):
            name, expr = (part.strip() for part in line.split(";")[:2])
            out.append((name, polys.parse(expr)))
    return out


def verify_db_table(
    rng: random.Random, fixtures: list, n_torus=TORUS_RECORDS, n_refined=REFINED_RECORDS
) -> list:
    """Records (name, terms, facts) of one table.

    Torus M-degrees are spread log-uniformly from 6 to 2000: record k aims
    at 6 * (2000/6)^(k/(n-1)) and takes one of the three unused pairs (a, b)
    whose M-degree is nearest, so the table's total M-degree, which sets
    the cost of verify-db, barely moves with the seed.
    """
    records = []
    pairs = list(_TORUS_PAIRS)
    degs = [_torus_deg_m(*ab) for ab in pairs]
    for k in range(n_torus):
        target = 6 * (TORUS_MAX_DEG_M / 6) ** (k / (n_torus - 1))
        at = bisect.bisect_left(degs, target)
        near = sorted(range(max(0, at - 3), min(len(pairs), at + 3)), key=lambda i: abs(degs[i] - target))
        pick = near[rng.randrange(3)]
        (a, b), deg = pairs.pop(pick), degs.pop(pick)
        terms = _torus_terms(a, b)
        mirror = rng.random() < 0.5
        if mirror:
            terms = polys.invert_l(terms)
        name = f"torus_{a}_{b}" + ("_mirror" if mirror else "")
        records.append((name, terms, {"kind": "torus", "deg_m": deg}))
    for name, terms in fixtures:
        records.append((name, terms, {"kind": "twobridge"}))
        records.append((name + "_mirror", polys.invert_l(terms), {"kind": "twobridge"}))
    for k in range(n_refined):
        orders = _pick_orders(rng, rng.randint(4, 24), 60)
        records.append(
            (f"refined_{k}", _cyclotomic_product(orders), {"kind": "refined", "orders": orders})
        )
    rng.shuffle(records)
    return records


def write_table(path, records) -> None:
    lines = ["# name ; polynomial ; flags"]
    for name, terms, facts in records:
        flags = " ; refined" if facts["kind"] == "refined" else ""
        lines.append(f"{name} ; {polys.fmt(terms)}{flags}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def verify_db_ops(seed: int, workdir, fixtures_text: str) -> list:
    rng = _rng(seed, "verify-db")
    fixtures = fixture_records(fixtures_text)
    ops = []
    for t in range(VERIFY_DB_TABLES):
        records = verify_db_table(rng, fixtures)
        path = workdir / f"table-{t}.txt"
        write_table(path, records)
        ops.append(Op(["verify-db", str(path), "--json"], {"records": records}))
    return ops
