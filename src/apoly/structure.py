"""Structural analysis of A-polynomials.

Covers the abelian (L-1) factor, whose multiplicity is counted from the
Taylor coefficients at L = 1, recognition of products of cyclotomic
polynomials, the degree-zero decomposition into (L-1) times distinct
cyclotomics, unit evaluations at M = +1/-1 against the +/- L^a (L-1)^b
(L+1)^c form, monicity at the units, and the M-degree verdict.
``analyze`` reduces its input to A-normal form once and runs every check,
the verdict included, on that form.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional

from . import newton
from .poly import _L_MINUS_1, BivarPoly, UnivarPoly

__all__ = [
    "cyclotomic",
    "euler_phi",
    "cyclotomic_candidates",
    "CyclotomicProfile",
    "NotCyclotomic",
    "is_product_of_cyclotomics",
    "Violation",
    "mdeg_trivial_decomposition",
    "UnitEvaluationForm",
    "UnitEvalFailure",
    "check_unit_evaluation",
    "PASS",
    "FAIL",
    "UNKNOT_OK",
    "AnalysisReport",
    "analyze",
]

_cyclotomic_cache = {1: UnivarPoly([-1, 1])}


def _prime_factors(n: int):
    """The distinct prime factors of n >= 1, ascending, by trial division."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def cyclotomic(d: int) -> UnivarPoly:
    """The d-th cyclotomic polynomial, built from the radical of d.

    For each prime p of rad(d), Phi_{np}(x) = Phi_n(x^p) / Phi_n(x) (p does
    not divide n); then Phi_d(x) = Phi_rad(x^(d/rad)). Every division is
    exact.
    """
    if d < 1:
        raise ValueError("cyclotomic order must be positive")
    if d in _cyclotomic_cache:
        return _cyclotomic_cache[d]
    f, rad = _cyclotomic_cache[1], 1
    for p in _prime_factors(d):
        f = _substitute_power(f, p).try_divide(f)
        rad *= p
    f = _substitute_power(f, d // rad)
    _cyclotomic_cache[d] = f
    return f


def _substitute_power(f: UnivarPoly, k: int) -> UnivarPoly:
    """f(x^k)."""
    coeffs = [0] * (k * f.degree() + 1)
    coeffs[::k] = f.coeffs
    return UnivarPoly(coeffs)


def _cyclotomic_value(d: int, x: int) -> int:
    """Phi_d(x) for an integer x >= 2, as the exact Moebius product.

    Phi_d(x) = prod over e | d of (x^e - 1)^mu(d/e); only the e with d/e
    squarefree contribute, one for each set of primes of d.
    """
    num, den = 1, 1
    divisors = [(d, 1)]  # (e, mu(d/e))
    for p in _prime_factors(d):
        divisors += [(e // p, -mu) for e, mu in divisors]
    for e, mu in divisors:
        if mu > 0:
            num *= x**e - 1
        else:
            den *= x**e - 1
    return num // den


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("totient of nonpositive integer")
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


def cyclotomic_candidates(degree: int):
    """All orders d with euler_phi(d) <= degree, ascending.

    Enumerated from their factorizations: a depth-first search multiplies
    prime powers p^k with p - 1 <= degree, in increasing order of p, and
    stops a branch as soon as the running totient exceeds degree.
    """
    if degree < 1:
        return []
    primes = [p for p in range(2, degree + 2) if _prime_factors(p) == [p]]
    found = [1]

    def extend(start, d, phi):
        for i in range(start, len(primes)):
            p = primes[i]
            pk, phi_pk = p, phi * (p - 1)
            if phi_pk > degree:
                return  # larger primes only raise the totient further
            while phi_pk <= degree:
                found.append(d * pk)
                extend(i + 1, d * pk, phi_pk)
                pk, phi_pk = pk * p, phi_pk * p

    extend(0, 1, 1)
    return sorted(found)


@dataclass(frozen=True)
class CyclotomicProfile:
    """Orders and multiplicities of recognized cyclotomic factors."""

    factors: tuple  # ((order, multiplicity), ...) with orders ascending
    sign: int = 1

    @property
    def product_d(self) -> int:
        return prod(d for d, _ in self.factors) if self.factors else 1

    def reconstruct(self) -> UnivarPoly:
        f = UnivarPoly([self.sign])
        for d, m in self.factors:
            f = f * cyclotomic(d) ** m
        return f

    def as_dict(self):
        return {
            "factors": [{"order": d, "multiplicity": m} for d, m in self.factors],
            "product_d": self.product_d,
            "sign": self.sign,
        }


@dataclass(frozen=True)
class NotCyclotomic:
    """Recognition failure; residual is the undivided part."""

    residual: UnivarPoly


def is_product_of_cyclotomics(f: UnivarPoly):
    """Recognize f as +/- a product of cyclotomic polynomials.

    Greedy trial division by Phi_d over all d with phi(d) <= deg f; success
    iff the final quotient is +/-1. A candidate is first filtered by the
    exact integers Phi_d(2) and Phi_d(3), which must divide f(2) and f(3);
    Phi_d itself is built and tried by exact division only when both do.
    Returns a CyclotomicProfile or NotCyclotomic(residual).
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    if abs(f.leading_coefficient()) != 1:
        return NotCyclotomic(f)
    if f.degree() == 0:
        return CyclotomicProfile((), sign=f.leading_coefficient())
    factors = []
    v2, v3 = f(2), f(3)
    for d in cyclotomic_candidates(f.degree()):
        if euler_phi(d) > f.degree():
            continue
        c2 = _cyclotomic_value(d, 2)
        if v2 % c2:
            continue
        c3 = _cyclotomic_value(d, 3)
        mult = 0
        while (v2 % c2 == 0) and (v3 % c3 == 0):
            q = f.try_divide(cyclotomic(d))
            if q is None:
                break
            f = q
            mult += 1
            v2, v3 = f(2), f(3)
            if f.degree() == 0:
                break
        if mult:
            factors.append((d, mult))
        if f.degree() == 0:
            break
    if f.degree() != 0 or abs(f.coeffs[0]) != 1:
        return NotCyclotomic(f)
    return CyclotomicProfile(tuple(factors), sign=f.coeffs[0])


@dataclass(frozen=True)
class Violation:
    """Failure of the (L-1) * distinct-cyclotomics structure."""

    reason: str
    residual: Optional[UnivarPoly] = None


def mdeg_trivial_decomposition(a: BivarPoly):
    """Decompose an M-degree-zero polynomial as +/-(L-1) * distinct Phi_d.

    Returns (abelian multiplicity, CyclotomicProfile of the nonunit orders)
    on success, else a Violation. The proof replay takes its surgery step d
    from the profile's orders: their lcm, 1 when there are none.
    """
    if a.is_zero:
        raise ValueError("zero polynomial")
    if a.deg_m() != 0:
        raise ValueError("decomposition applies only to M-degree-zero polynomials")
    f = a.eval_m(1)  # faithful: no M dependence
    prof = is_product_of_cyclotomics(f)
    if isinstance(prof, NotCyclotomic):
        return Violation("not a product of cyclotomic polynomials", prof.residual)
    mults = dict(prof.factors)
    if mults.get(1, 0) != 1:
        if 1 not in mults:
            return Violation("missing abelian factor (L-1)")
        return Violation("repeated abelian factor (L-1)")
    for d, m in prof.factors:
        if d != 1 and m != 1:
            return Violation(f"repeated cyclotomic factor of order {d}")
    nonunit = tuple((d, m) for d, m in prof.factors if d != 1)
    return 1, CyclotomicProfile(nonunit, sign=prof.sign)


@dataclass(frozen=True)
class UnitEvaluationForm:
    """Exponents of +/- L^a (L-1)^b (L+1)^c."""

    sign: int
    a: int
    b: int
    c: int

    # L, L-1 and L+1 are monic, so the evaluation's leading coefficient is sign
    monic = True

    def reconstruct(self) -> UnivarPoly:
        f = UnivarPoly([self.sign]).shift(self.a)
        f = f * cyclotomic(1) ** self.b  # L - 1
        f = f * cyclotomic(2) ** self.c  # L + 1
        return f

    def as_dict(self):
        return {"sign": self.sign, "a": self.a, "b": self.b, "c": self.c}


@dataclass(frozen=True)
class UnitEvalFailure:
    residual: UnivarPoly

    @property
    def monic(self):
        # the evaluation's leading coefficient is the residual's; None if it is 0
        return None if self.residual.is_zero else abs(self.residual.leading_coefficient()) == 1

    def as_dict(self):
        return {"failure": True, "residual": str(self.residual)}


def _divide_out(f: UnivarPoly, g: UnivarPoly):
    """(f / g^k, k) for the largest k with g^k dividing the nonzero f."""
    count = 0
    while True:
        q = f.try_divide(g)
        if q is None:
            return f, count
        f, count = q, count + 1


def check_unit_evaluation(a: BivarPoly, m: int):
    """Check eval at M = m in {+1,-1} against the unit-evaluation form.

    Divides by L, then (L-1), then (L+1) (order fixed for determinism;
    the factors are coprime so it does not matter), and succeeds iff the
    final quotient is +/-1. Either result's ``monic`` is whether the
    evaluation is monic in L, None when it vanishes.
    """
    if a.is_zero:
        raise ValueError("zero polynomial")
    if m not in (1, -1):
        raise ValueError("unit evaluation is defined at M = +1 or -1 only")
    f = a.eval_m(m)
    if f.is_zero:
        return UnitEvalFailure(f)
    av = next(k for k, c in enumerate(f.coeffs) if c)
    f, b = _divide_out(UnivarPoly(f.coeffs[av:]), cyclotomic(1))  # L - 1
    f, c = _divide_out(f, cyclotomic(2))  # L + 1
    if f.is_zero or f.degree() != 0 or abs(f.coeffs[0]) != 1:
        return UnitEvalFailure(f)
    return UnitEvaluationForm(sign=f.coeffs[0], a=av, b=b, c=c)


PASS = "PASS"
FAIL = "FAIL"
UNKNOT_OK = "UNKNOT_OK"


def abelian_multiplicity(a: BivarPoly) -> int:
    """Multiplicity of the (L-1) factor: the least k whose k-th Taylor
    coefficient at L = 1 is nonzero. Exact, and never makes a coefficient
    dense; the loop ends by deg_L, where the coefficient is A's leading
    L-coefficient."""
    if a.is_zero:
        raise ValueError("zero polynomial")
    mult = 0
    while a.taylor_at_l1(mult).is_zero:
        mult += 1
    return mult


@dataclass
class AnalysisReport:
    """All structural checks on one polynomial, JSON-serializable."""

    name: str
    deg_m: int
    deg_l: int
    abelian_multiplicity: int
    unit_eval_plus: object
    unit_eval_minus: object
    monic_plus: Optional[bool]
    monic_minus: Optional[bool]
    vertical_edge: Optional[bool]
    cyclotomic: object  # CyclotomicProfile, Violation, or None
    verdict: str

    def as_dict(self):
        def unit(u):
            return u.as_dict() if u is not None else None

        if isinstance(self.cyclotomic, CyclotomicProfile):
            cyc = self.cyclotomic.as_dict()
        elif isinstance(self.cyclotomic, Violation):
            cyc = {"violation": self.cyclotomic.reason}
        else:
            cyc = None
        return {
            "name": self.name,
            "deg_M": self.deg_m,
            "deg_L": self.deg_l,
            "abelian_multiplicity": self.abelian_multiplicity,
            "unit_eval_plus": unit(self.unit_eval_plus),
            "unit_eval_minus": unit(self.unit_eval_minus),
            "monic_plus": self.monic_plus,
            "monic_minus": self.monic_minus,
            "vertical_edge": self.vertical_edge,
            "cyclotomic": cyc,
            "verdict": self.verdict,
        }


def analyze(a: BivarPoly, name: str = "", claims_nontrivial_knot: bool = False) -> AnalysisReport:
    """Run the full battery of structural checks on the A-normal form of a.

    The verdict is PASS when deg_M != 0; UNKNOT_OK for L-1 when the input is
    not claimed to come from a nontrivial knot; FAIL otherwise (for real
    knot data a FAIL would contradict the nontriviality theorem).
    """
    if a.is_zero:
        raise ValueError("cannot analyze the zero polynomial")
    nf = a.normalize()
    poly = newton.newton_polygon(nf)
    if len(poly.vertices) < 2:
        vertical = None
    else:
        vertical = newton.has_vertical_edge(poly)
    if nf.deg_m() == 0:
        dec = mdeg_trivial_decomposition(nf)
        cyc = dec if isinstance(dec, Violation) else dec[1]
        verdict = UNKNOT_OK if nf == _L_MINUS_1 and not claims_nontrivial_knot else FAIL
    else:
        cyc, verdict = None, PASS
    unit_plus = check_unit_evaluation(nf, 1)
    unit_minus = check_unit_evaluation(nf, -1)
    return AnalysisReport(
        name=name,
        deg_m=nf.deg_m(),
        deg_l=nf.deg_l(),
        abelian_multiplicity=abelian_multiplicity(nf),
        unit_eval_plus=unit_plus,
        unit_eval_minus=unit_minus,
        monic_plus=unit_plus.monic,
        monic_minus=unit_minus.monic,
        vertical_edge=vertical,
        cyclotomic=cyc,
        verdict=verdict,
    )
