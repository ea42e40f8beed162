"""The mechanized nontriviality argument on surgery lines.

1/N Dehn surgery imposes the eigenvalue constraint u = v^(-N). When
deg_M A = 0, u does not occur in A, so the curve's points on that line are
the roots of A(1, v). The degree-zero decomposition already lists those
roots exactly, as roots of unity of known order, and the replay checks
u = v^(-N) = 1 at each of them by residue arithmetic, never in floating
point.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from math import gcd, lcm
from typing import Optional

from .poly import BivarPoly
from .structure import CyclotomicProfile, Violation, mdeg_trivial_decomposition

__all__ = [
    "EigenPoint",
    "ReplayStep",
    "ReplayReport",
    "replay_contradiction",
]


@dataclass(frozen=True)
class EigenPoint:
    """A point (u, v) of C* x C*: meridian and longitude eigenvalues.

    v_order and u_order are the exact root-of-unity orders of v and u;
    forces_trivial is set when u = 1.
    """

    u: complex
    v: complex
    v_order: int
    u_order: int
    forces_trivial: bool

    def __post_init__(self):
        if self.u == 0 or self.v == 0:
            raise ValueError("eigenvalue points live in C* x C*")


def _unit_root_points(order: int, n: int):
    """The points on u = v^(-n) with v a primitive ``order``-th root of unity.

    For v = exp(2 pi i k / order), u = v^(-n) is exp(2 pi i r / order)
    with r = -k*n mod order, so u = 1 exactly when r = 0.
    """
    pts = []
    for k in range(order):
        if gcd(k, order) != 1:
            continue
        r = (-k * n) % order
        pts.append(
            EigenPoint(
                u=cmath.exp(2j * cmath.pi * r / order),
                v=cmath.exp(2j * cmath.pi * k / order),
                v_order=order,
                u_order=order // gcd(order, r),
                forces_trivial=(r == 0),
            )
        )
    return pts


@dataclass
class ReplayStep:
    n: int
    slope_denominator: int
    num_points: int
    all_forced_trivial: bool
    points: list


@dataclass
class ReplayReport:
    """Narrated replay of the degree-zero contradiction."""

    ok: bool
    violation: Optional[str]
    profile: Optional[CyclotomicProfile]
    d: Optional[int]
    steps: list = field(default_factory=list)

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
                        {
                            "v_order": p.v_order,
                            "u_order": p.u_order,
                            "forces_trivial": p.forces_trivial,
                        }
                        for p in s.points
                    ],
                }
                for s in self.steps
            ],
        }

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
    dec = mdeg_trivial_decomposition(nf)
    if isinstance(dec, Violation):
        return ReplayReport(ok=False, violation=dec.reason, profile=None, d=None)
    _, profile = dec
    orders = [1] + [e for e, _ in profile.factors]
    d = lcm(*orders)
    steps = []
    ok = True
    for n in range(1, n_max + 1):
        points = [p for e in orders for p in _unit_root_points(e, n * d)]
        all_trivial = all(p.forces_trivial for p in points)
        ok = ok and all_trivial
        steps.append(
            ReplayStep(
                n=n,
                slope_denominator=n * d,
                num_points=len(points),
                all_forced_trivial=all_trivial,
                points=points,
            )
        )
    return ReplayReport(ok=ok, violation=None, profile=profile, d=d, steps=steps)
