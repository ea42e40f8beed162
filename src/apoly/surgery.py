"""The mechanized nontriviality argument on surgery lines.

1/N Dehn surgery imposes the eigenvalue constraint u = v^(-N). When
deg_M A = 0, u does not occur in A, so the curve's points on that line are
the roots of A(1, v). The degree-zero decomposition already lists those
roots exactly, as roots of unity of known order, and the replay checks
u = v^(-N) = 1 once per order by integer gcds, never in floating point.
"""

from __future__ import annotations

from math import gcd, lcm

from ._record import _JSON_FLAG, Record, _json_list, _json_str
from .poly import BivarPoly
from .structure import Violation, euler_phi, mdeg_trivial_decomposition

__all__ = [
    "ReplayStep",
    "ReplayReport",
    "replay_contradiction",
]

# the replay lists n_max * deg_L points; past this many it is rejected
_MAX_POINTS = 100_000


def _points_by_order(orders, n: int):
    """One (e, count, u_order) triple per order e: the points on u = v^(-n)
    with v a primitive e-th root of unity, counted, and the order of u there.

    For v = exp(2 pi i k / e) with gcd(k, e) = 1, u = v^(-n) has order
    e / gcd(e, k*n) = e / gcd(e, n), the same for all euler_phi(e) of them,
    so u = 1 at every such point exactly when e divides n.
    """
    return tuple((e, euler_phi(e), e // gcd(e, n)) for e in orders)


class ReplayStep(Record):
    """One surgery line u = v^(-slope_denominator): its points as groups
    of (v_order, count, u_order) triples."""

    __slots__ = ("n", "slope_denominator", "groups")

    def __init__(self, n, slope_denominator, groups):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "slope_denominator", slope_denominator)
        object.__setattr__(self, "groups", groups)

    @property
    def num_points(self):
        return sum(count for _, count, _ in self.groups)

    @property
    def all_forced_trivial(self):
        return all(u_order == 1 for _, _, u_order in self.groups)


class ReplayReport(Record, frozen=False):
    """Narrated replay of the degree-zero contradiction."""

    __slots__ = ("violation", "profile", "d", "steps")

    def __init__(self, violation, profile, d, steps=None):
        self.violation, self.profile, self.d = violation, profile, d
        self.steps = [] if steps is None else steps

    @property
    def ok(self):
        """Whether the decomposition succeeded and every step forced u = 1."""
        return self.violation is None and all(s.all_forced_trivial for s in self.steps)

    def as_dict(self):
        return {
            "ok": self.ok,
            "violation": self.violation,
            "profile": self.profile.as_dict() if self.profile else None,
            "d": self.d,
            "steps": [
                {
                    "n": s.n,
                    "slope_denominator": s.slope_denominator,
                    "num_points": s.num_points,
                    "all_forced_trivial": s.all_forced_trivial,
                    "points": [
                        {"v_order": e, "u_order": u, "forces_trivial": u == 1}
                        for e, count, u in s.groups
                        for _ in range(count)
                    ],
                }
                for s in self.steps
            ],
        }

    def json_text(self):
        """The text of json.dumps(self.as_dict(), indent=2); the text of a
        group's point is written once and repeated count times."""
        i, j = '\n      "', '\n          "'
        steps = []
        for s in self.steps:
            points = []
            for e, count, u in s.groups:
                point = (f'{{{j}v_order": {e},{j}u_order": {u},'
                         f'{j}forces_trivial": {_JSON_FLAG[u == 1]}\n        }}')
                points += [point] * count
            steps.append(
                f'{{{i}n": {s.n},{i}slope_denominator": {s.slope_denominator},'
                f'{i}num_points": {s.num_points},'
                f'{i}all_forced_trivial": {_JSON_FLAG[s.all_forced_trivial]},'
                f'{i}points": {_json_list(points, "      ")}\n    }}'
            )
        violation = "null" if self.violation is None else _json_str(self.violation)
        profile = "null" if self.profile is None else self.profile.json_text("  ")
        d = "null" if self.d is None else self.d  # an int, not a flag: d may be 1
        return (f'{{\n  "ok": {_JSON_FLAG[self.ok]},\n  "violation": {violation},\n  '
                f'"profile": {profile},\n  "d": {d},\n  "steps": {_json_list(steps, "  ")}\n}}')

    def to_text(self):
        lines = []
        if self.violation is not None:
            lines.append("Structural decomposition failed: " + self.violation)
            lines.append("The contradiction mechanism does not apply.")
            return "\n".join(lines)
        orders = [d for d, _ in self.profile.factors]
        if orders:
            lines.append(
                "Decomposition: (L - 1) times distinct cyclotomic factors of orders "
                + ", ".join(map(str, orders))
                + "."
            )
        else:
            lines.append("Decomposition: (L - 1) alone (no nonabelian factors).")
        lines.append(f"Every root xi of the polynomial satisfies xi^d = 1 with d = {self.d}.")
        for s in self.steps:
            lines.append(
                f"Slope 1/{s.slope_denominator} (n = {s.n}): intersection with the line "
                f"u = v^(-{s.slope_denominator}) has {s.num_points} point(s)."
            )
            if s.all_forced_trivial:
                lines.append(
                    "  Every point has v^d = 1, hence u = v^(-nd) = 1: "
                    "meridian eigenvalue 1 forces the representation to be trivial."
                )
            else:
                lines.append("  NOT all points have u = 1; the forced-triviality step fails.")
        if self.ok:
            lines.append(
                "Conclusion: every surgery representation would be trivial, contradicting "
                "irreducibility. A polynomial with M-degree 0 cannot be the A-polynomial "
                "of a nontrivial knot."
            )
        return "\n".join(lines)


def replay_contradiction(a: BivarPoly, n_max: int = 5) -> ReplayReport:
    """Replay the forced-triviality contradiction for an input whose
    A-normal form has M-degree 0.

    Computes d as the lcm of the distinct cyclotomic orders and checks,
    for each n up to n_max, that every intersection point on the 1/(n*d)
    surgery line has meridian eigenvalue exactly 1. With deg_M = 0 the
    curve's points on any line u = v^(-N) are the roots of A(1, v), and the
    decomposition A(1, v) = +/-(v - 1) * prod Phi_e(v) over distinct orders
    e has already listed them exactly, each with multiplicity 1: the
    primitive e-th roots of unity for e = 1 and each order of the profile.
    Every order divides d, so ok is True exactly when the decomposition
    succeeds. More than 100,000 such points in all, n_max * deg_L, is a
    ValueError raised before the decomposition runs.
    """
    if a.is_zero:
        raise ValueError("zero polynomial")
    nf = a.normalize()  # deg_M of the A-normal form: M*(L - 1) is degree zero
    if nf.deg_m() != 0:
        raise ValueError(
            "the replay targets the excluded case deg_M = 0; "
            f"this polynomial has deg_M = {nf.deg_m()}"
        )
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max * nf.deg_l() > _MAX_POINTS:
        raise ValueError(f"the replay would list n_max * deg_L = {n_max} * {nf.deg_l()} "
                         f"points; the bound is {_MAX_POINTS}")
    profile = mdeg_trivial_decomposition(nf)
    if isinstance(profile, Violation):
        return ReplayReport(violation=profile.reason, profile=None, d=None)
    orders = [1] + [e for e, _ in profile.factors]
    d = lcm(*orders)
    steps = [ReplayStep(n, n * d, _points_by_order(orders, n * d)) for n in range(1, n_max + 1)]
    return ReplayReport(violation=None, profile=profile, d=d, steps=steps)
