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

from itertools import accumulate
from math import prod

from . import newton
from ._record import Record
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


# Candidate rows of each degree up to _ROWS_CACHED_DEGREE, kept for the
# process: verify-db recognizes many small polynomials of the same few
# degrees. Degree D has about 2D orders, whose Phi_d(2) run up to D bits, so
# the rows of one degree grow as D^2: all 64 cached degrees take about
# 0.4 MB, degree 2000 alone 1.1 MB. Larger degrees compute their rows
# lazily and keep none, so a recognition that stops early skips the rest.
_ROWS_CACHED_DEGREE = 64
_candidate_rows_cache = {}


def _candidate_rows(degree: int):
    """(d, euler_phi(d), Phi_d(2)) for each d in cyclotomic_candidates(degree)."""
    rows = _candidate_rows_cache.get(degree)
    if rows is not None:
        return rows
    rows = ((d, euler_phi(d), _cyclotomic_value(d, 2)) for d in cyclotomic_candidates(degree))
    if degree <= _ROWS_CACHED_DEGREE:
        rows = _candidate_rows_cache[degree] = tuple(rows)
    return rows


class CyclotomicProfile(Record):
    """Orders and multiplicities of recognized cyclotomic factors."""

    __slots__ = ("factors", "sign")

    def __init__(self, factors, sign=1):
        # ((order, multiplicity), ...) with orders ascending
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "sign", sign)

    @property
    def product_d(self) -> int:
        return prod(d for d, _ in self.factors) if self.factors else 1

    def as_dict(self):
        return {
            "factors": [{"order": d, "multiplicity": m} for d, m in self.factors],
            "product_d": self.product_d,
            "sign": self.sign,
        }


class NotCyclotomic(Record):
    """Recognition failure; residual is the undivided part."""

    __slots__ = ("residual",)

    def __init__(self, residual):
        object.__setattr__(self, "residual", residual)


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
    for d, phi, c2 in _candidate_rows(f.degree()):
        if phi > f.degree():
            continue
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


class Violation(Record):
    """Failure of the (L-1) * distinct-cyclotomics structure."""

    __slots__ = ("reason", "residual")

    def __init__(self, reason, residual=None):
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "residual", residual)


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


class UnitEvaluationForm(Record):
    """Exponents of +/- L^a (L-1)^b (L+1)^c."""

    __slots__ = ("sign", "a", "b", "c")

    def __init__(self, sign, a, b, c):
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    # L, L-1 and L+1 are monic, so the evaluation's leading coefficient is sign
    monic = True

    def as_dict(self):
        return {"sign": self.sign, "a": self.a, "b": self.b, "c": self.c}


class UnitEvalFailure(Record):
    __slots__ = ("residual",)

    def __init__(self, residual):
        object.__setattr__(self, "residual", residual)

    @property
    def monic(self):
        # the evaluation's leading coefficient is the residual's; None if it is 0
        return None if self.residual.is_zero else abs(self.residual.leading_coefficient()) == 1

    def as_dict(self):
        return {"failure": True, "residual": str(self.residual)}


def _synthetic_div(coeffs, zeta):
    """(quotient, remainder) of the polynomial with ascending coefficient
    list coeffs (nonempty) divided by L - zeta, in one Horner pass."""
    step = None if zeta == 1 else (lambda q, c: q * zeta + c)  # None adds, in C
    acc = list(accumulate(reversed(coeffs), step))
    return acc[-2::-1], acc[-1]


def _strip_root(coeffs, zeta, limit=None):
    """(coeffs / (L - zeta)^b, b) for the largest b, or at most limit, such
    that (L - zeta)^b divides the nonzero polynomial coeffs."""
    b = 0
    while b != limit:
        quotient, remainder = _synthetic_div(coeffs, zeta)
        if remainder:
            break
        coeffs, b = quotient, b + 1
    return coeffs, b


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
    coeffs, b = _strip_root(f.coeffs[av:], 1)  # L - 1
    coeffs, c = _strip_root(coeffs, -1)  # L + 1
    if len(coeffs) != 1 or abs(coeffs[0]) != 1:
        return UnitEvalFailure(UnivarPoly(coeffs))
    return UnitEvaluationForm(sign=coeffs[0], a=av, b=b, c=c)


PASS = "PASS"
FAIL = "FAIL"
UNKNOT_OK = "UNKNOT_OK"


def abelian_multiplicity(a: BivarPoly) -> int:
    """Multiplicity of the (L-1) factor.

    L - 1 is monic and free of M, so (L-1)^k divides A exactly when it
    divides every M-slice, the polynomial in L of A's terms with one
    M-exponent. The count is the least slice multiplicity, found by
    synthetic division, shortest slice first; each slice stops at the
    running minimum, and nothing is made dense in M. A slice's value at
    L = 1 is a sparse sum, so a slice is made dense in L only while the
    running minimum is above 1.
    """
    if a.is_zero:
        raise ValueError("zero polynomial")
    slices = {}
    for (i, j), c in a.terms.items():
        slices.setdefault(i, {})[j] = c
    mult = None
    for s in sorted(slices.values(), key=lambda s: max(s) - min(s)):
        if sum(s.values()):  # nonzero at L = 1
            return 0
        if mult != 1:  # a slice vanishing at L = 1 already reaches 1
            # dense from its lowest L-power on, since L is prime to L - 1
            coeffs = [s.get(j, 0) for j in range(min(s), max(s) + 1)]
            _, mult = _strip_root(coeffs, 1, mult)
    return mult


class AnalysisReport(Record, frozen=False):
    """All structural checks on one polynomial, JSON-serializable.

    ``cyclotomic`` is a CyclotomicProfile, a Violation or None;
    ``degenerate``, whether the Newton polygon is degenerate, is left out
    of ``as_dict``.
    """

    __slots__ = (
        "name", "deg_m", "deg_l", "abelian_multiplicity", "unit_eval_plus", "unit_eval_minus",
        "monic_plus", "monic_minus", "vertical_edge", "cyclotomic", "verdict", "degenerate",
    )

    def __init__(
        self, name, deg_m, deg_l, abelian_multiplicity, unit_eval_plus, unit_eval_minus,
        monic_plus, monic_minus, vertical_edge, cyclotomic, verdict, degenerate=False,
    ):
        self.name, self.deg_m, self.deg_l = name, deg_m, deg_l
        self.abelian_multiplicity = abelian_multiplicity
        self.unit_eval_plus, self.unit_eval_minus = unit_eval_plus, unit_eval_minus
        self.monic_plus, self.monic_minus = monic_plus, monic_minus
        self.vertical_edge, self.cyclotomic = vertical_edge, cyclotomic
        self.verdict, self.degenerate = verdict, degenerate

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
    deg_m = nf.deg_m()
    if deg_m == 0:
        dec = mdeg_trivial_decomposition(nf)
        cyc = dec if isinstance(dec, Violation) else dec[1]
        verdict = UNKNOT_OK if nf == _L_MINUS_1 and not claims_nontrivial_knot else FAIL
    else:
        cyc, verdict = None, PASS
    unit_plus = check_unit_evaluation(nf, 1)
    # without M, A(-1, L) = A(1, L)
    unit_minus = unit_plus if deg_m == 0 else check_unit_evaluation(nf, -1)
    return AnalysisReport(
        name=name,
        deg_m=deg_m,
        deg_l=nf.deg_l(),
        abelian_multiplicity=abelian_multiplicity(nf),
        unit_eval_plus=unit_plus,
        unit_eval_minus=unit_minus,
        monic_plus=unit_plus.monic,
        monic_minus=unit_minus.monic,
        vertical_edge=vertical,
        cyclotomic=cyc,
        verdict=verdict,
        degenerate=poly.degenerate,
    )
