"""Surgery-line intersections and the mechanized nontriviality argument.

Intersecting the curve of a bivariate polynomial with the line u = v^(-N)
(the eigenvalue constraint imposed by 1/N Dehn surgery) gives a finite set
of eigenvalue points. Root-of-unity roots are detected exactly by
cyclotomic trial division, so the replay of the degree-zero contradiction
never depends on floating point; leftover roots are located numerically.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from math import gcd
from typing import Optional

from .poly import BivarPoly, UnivarPoly
from .structure import (
    CyclotomicProfile,
    Violation,
    cyclotomic_candidates,
    mdeg_trivial_decomposition,
    _strip_cyclotomic_factors,
)

__all__ = [
    "EigenPoint",
    "SurgeryIntersection",
    "classify_unit_root",
    "surgery_intersection",
    "ReplayStep",
    "ReplayReport",
    "replay_contradiction",
]

DEFAULT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class EigenPoint:
    """A point (u, v) of C* x C*: meridian and longitude eigenvalues.

    v_order / u_order are exact root-of-unity orders when known (None for
    numerically located points); forces_trivial is set only on the exact
    path, when u = 1 as a root of unity.
    """

    u: complex
    v: complex
    v_order: Optional[int] = None
    u_order: Optional[int] = None
    on_su2_torus: bool = False
    forces_trivial: bool = False

    def __post_init__(self):
        if self.u == 0 or self.v == 0:
            raise ValueError("eigenvalue points live in C* x C*")


@dataclass
class SurgeryIntersection:
    """Intersection of a curve with the surgery line u = v^(-N)."""

    n: int
    points: list
    curve_contains_line: bool = False
    unit_factors: tuple = ()  # ((order, multiplicity), ...)
    nonunit_residual: Optional[UnivarPoly] = None


def classify_unit_root(f: UnivarPoly, bound: Optional[int] = None):
    """Exact orders of root-of-unity roots of f, by cyclotomic division.

    Returns (list of (order, multiplicity), residual); multiplicities count
    cyclotomic factors (one entry per Phi_e, covering all phi(e) conjugate
    roots). ``bound`` caps the candidate order; default is every e with
    phi(e) <= deg f.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.degree() == 0:
        return [], f
    orders = cyclotomic_candidates(f.degree())
    if bound is not None:
        orders = [e for e in orders if e <= bound]
    return _strip_cyclotomic_factors(f, orders)


def _unit_root_points(order: int, mult: int, n: int):
    """Eigenvalue points with v a primitive ``order``-th root of unity."""
    pts = []
    for k in range(order):
        if gcd(k, order) != 1 and order > 1:
            continue
        v = cmath.exp(2j * cmath.pi * k / order) if order > 1 else 1 + 0j
        r = (-k * n) % order
        u = cmath.exp(2j * cmath.pi * r / order) if r else 1 + 0j
        pts.append(
            EigenPoint(
                u=u,
                v=v,
                v_order=order,
                u_order=order // gcd(order, r) if r else 1,
                on_su2_torus=True,
                forces_trivial=(r == 0),
            )
        )
    return pts


def _polish_root(f: UnivarPoly, z: complex, iterations: int = 20):
    df = f.derivative()
    for _ in range(iterations):
        fz = f(z)
        dfz = df(z)
        if dfz == 0:
            break
        step = fz / dfz
        z -= step
        if abs(step) < 1e-15 * max(1.0, abs(z)):
            break
    return z


def _numeric_roots(f: UnivarPoly):
    import numpy as np

    coeffs = list(reversed(f.coeffs))  # numpy wants highest degree first
    roots = np.roots(coeffs)
    return [_polish_root(f, complex(z)) for z in roots]


def surgery_intersection(
    a: BivarPoly, n: int, tolerance: float = DEFAULT_TOLERANCE
) -> SurgeryIntersection:
    """All curve points of ``a`` on the 1/n surgery line u = v^(-n).

    Unit-root points are classified exactly; remaining roots come from a
    companion-matrix root finder with Newton polishing (residual below
    ``tolerance``). A polynomial that vanishes identically on the line is
    reported as a curve-contains-line outcome.
    """
    if a.is_zero:
        raise ValueError("zero polynomial")
    if n < 1:
        raise ValueError("surgery denominator must be >= 1")
    g = a.substitute_surgery(n)
    if g.is_zero:
        return SurgeryIntersection(n=n, points=[], curve_contains_line=True)
    # roots at v = 0 are outside C* x C*; strip them
    while g[0] == 0:
        g = UnivarPoly(g.coeffs[1:])
    if g.degree() == 0:
        return SurgeryIntersection(n=n, points=[], unit_factors=(), nonunit_residual=None)
    factors, residual = classify_unit_root(g)
    points = []
    for order, mult in factors:
        points.extend(_unit_root_points(order, mult, n))
    nonunit = None
    if not residual.is_zero and residual.degree() > 0:
        nonunit = residual
        for v in _numeric_roots(residual):
            u = cmath.exp(-n * cmath.log(v))
            points.append(
                EigenPoint(
                    u=u,
                    v=v,
                    on_su2_torus=(abs(abs(u) - 1) < tolerance and abs(abs(v) - 1) < tolerance),
                    forces_trivial=False,
                )
            )
    return SurgeryIntersection(
        n=n, points=points, unit_factors=tuple(factors), nonunit_residual=nonunit
    )


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


def replay_contradiction(
    a: BivarPoly, n_max: int = 5, tolerance: float = DEFAULT_TOLERANCE
) -> ReplayReport:
    """Replay the forced-triviality contradiction for an M-degree-0 input.

    Computes d as the product of the distinct cyclotomic orders and checks,
    for each n up to n_max, that every intersection point on the 1/(n*d)
    surgery line has meridian eigenvalue exactly 1.
    """
    if a.is_zero:
        raise ValueError("zero polynomial")
    if a.deg_m() != 0:
        raise ValueError("the contradiction mechanism applies only when deg_M = 0")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    dec = mdeg_trivial_decomposition(a.normal_form())
    if isinstance(dec, Violation):
        return ReplayReport(ok=False, violation=dec.reason, profile=None, d=None)
    _, profile = dec
    d = profile.product_d
    steps = []
    ok = True
    for n in range(1, n_max + 1):
        inter = surgery_intersection(a, n * d, tolerance=tolerance)
        all_trivial = bool(inter.points) and all(p.forces_trivial for p in inter.points)
        ok = ok and all_trivial
        steps.append(
            ReplayStep(
                n=n,
                slope_denominator=n * d,
                num_points=len(inter.points),
                all_forced_trivial=all_trivial,
                points=inter.points,
            )
        )
    return ReplayReport(ok=ok, violation=None, profile=profile, d=d, steps=steps)
