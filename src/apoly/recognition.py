"""Cyclotomic recognition and the degree-zero decomposition.

Recognizes a polynomial in L as +/- a product of cyclotomic polynomials,
and decomposes an M-degree-zero polynomial as +/-(L-1) times distinct
cyclotomics. Each has two outcomes: a CyclotomicProfile, or a Violation
that says why the structure fails. ``structure.analyze`` imports this
module only at deg_M = 0, and the surgery replay, which applies only
there, imports it directly. The paper proves that no nontrivial knot's
A-polynomial has M-degree 0, so ``compute --two-bridge`` and ``compute
--torus`` never load it.
"""

from __future__ import annotations

from itertools import chain
from math import prod
from operator import sub

from ._record import Record, _json_list, _json_str
from .poly import BivarPoly, _horner, _in_l
from .structure import _strip_units

__all__ = [
    "cyclotomic",
    "euler_phi",
    "cyclotomic_candidates",
    "CyclotomicProfile",
    "is_product_of_cyclotomics",
    "Violation",
    "mdeg_trivial_decomposition",
]


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


def _moebius_pairs(d: int):
    """(e, mu(d/e)) for the divisors e of d with d/e squarefree, the only
    ones whose Moebius value is nonzero: one for each set of primes of d."""
    pairs = [(d, 1)]
    for p in _prime_factors(d):
        pairs += [(e // p, -mu) for e, mu in pairs]
    return pairs


def _moebius_product(coeffs, pairs, power):
    """coeffs, ascending, times the product of (x^e - 1)^(power * mu) over
    the Moebius pairs (e, mu) of d, or None if a division leaves a remainder
    (for power = -1: coeffs over Phi_d). Factors with mu = power multiply in
    first, so a quotient that exists divides exactly. On the descending list,
    dividing by x^e - 1 is a running sum along each residue class mod e,
    whose last e sums (all, for a shorter list) are the remainder."""
    c = list(reversed(coeffs))
    for e, mu in pairs:
        if mu == power:
            c = list(map(sub, c + [0] * e, [0] * e + c))
    for e, mu in pairs:
        if mu != power:
            for k in range(e, len(c)):
                c[k] += c[k - e]
            if any(c[-e:]):
                return None
            del c[-e:]
    return c[::-1]


def cyclotomic(d: int) -> BivarPoly:
    """The d-th cyclotomic polynomial in L, the Moebius product
    Phi_d(L) = prod over e | d of (L^e - 1)^mu(d/e)."""
    if d < 1:
        raise ValueError("cyclotomic order must be positive")
    return _in_l(_moebius_product([1], _moebius_pairs(d), 1))


def _cyclotomic_value(pairs, x: int) -> int:
    """Phi_d(x) for an integer x >= 2, as the exact Moebius product over the
    Moebius pairs of d."""
    num, den = 1, 1
    for e, mu in pairs:
        if mu > 0:
            num *= x**e - 1
        else:
            den *= x**e - 1
    return num // den


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("totient of nonpositive integer")
    return sum(e * mu for e, mu in _moebius_pairs(n))


def cyclotomic_candidates(degree: int):
    """All orders d with euler_phi(d) <= degree, ascending."""
    return sorted(d for _, d in _orders(degree))


def _orders(degree: int):
    """(euler_phi(d), d) for every order d with euler_phi(d) <= degree.

    Enumerated from their factorizations: a depth-first search multiplies
    prime powers p^k with p - 1 <= degree, in increasing order of p, and
    stops a branch as soon as the running totient exceeds degree.
    """
    primes = [p for p in range(2, degree + 2) if _prime_factors(p) == [p]]
    found, stack = [], [(0, 1, 1)] if degree >= 1 else []
    while stack:
        start, d, phi = stack.pop()
        found.append((phi, d))
        for i in range(start, len(primes)):
            p = primes[i]
            pk, phi_pk = p, phi * (p - 1)
            if phi_pk > degree:
                break  # larger primes only raise the totient further
            while phi_pk <= degree:
                stack.append((i + 1, d * pk, phi_pk))
                pk, phi_pk = pk * p, phi_pk * p
    return found


# Recognition's rows (phi(d), d, Moebius pairs of d, Phi_d(2), Phi_d(3)),
# one per order d > 2 (orders 1 and 2 are L - 1 and L + 1, stripped first),
# ascending in (phi(d), d). The 125 rows with phi(d) <= _KEPT_PHI are kept
# for the process, since verify-db recognizes many small polynomials: their
# Phi_d(3) have at most 102 bits, and all take about 70 KB. Rows of larger
# phi(d) are computed as a recognition reaches them and kept by none, with
# Phi_d(3) None: recognition computes it once Phi_d(2) passes.
_KEPT_PHI = 64
_kept_rows = []


def _candidate_rows(degree: int):
    """The rows of the orders with phi(d) <= degree and, for a degree below
    _KEPT_PHI, the kept rows past it."""
    if not _kept_rows:
        _kept_rows[:] = _rows(_KEPT_PHI, 0)
    return _kept_rows if degree <= _KEPT_PHI else chain(_kept_rows, _rows(degree, _KEPT_PHI))


def _rows(degree, above):
    """The rows of the orders with above < phi(d) <= degree, lazily."""
    for phi, d in sorted(_orders(degree)):
        if phi > above and d > 2:
            pairs = _moebius_pairs(d)
            c3 = _cyclotomic_value(pairs, 3) if phi <= _KEPT_PHI else None
            yield phi, d, pairs, _cyclotomic_value(pairs, 2), c3


class CyclotomicProfile(Record):
    """Orders and multiplicities of recognized cyclotomic factors."""

    __slots__ = ("factors", "sign")  # factors: ((order, multiplicity), ...), orders ascending
    _defaults = {"sign": 1}

    @property
    def product_d(self) -> int:
        return prod(d for d, _ in self.factors) if self.factors else 1

    def as_dict(self):
        return {
            "factors": [{"order": d, "multiplicity": m} for d, m in self.factors],
            "product_d": self.product_d,
            "sign": self.sign,
        }

    def json_text(self, indent):
        i, j = "\n" + indent + '  "', "\n" + indent + '      "'
        factors = [f'{{{j}order": {d},{j}multiplicity": {m}\n{indent}    }}' for d, m in self.factors]
        return (f'{{{i}factors": {_json_list(factors, indent + "  ")},'
                f'{i}product_d": {self.product_d},{i}sign": {self.sign}\n{indent}}}')


class Violation(Record):
    """Failure of the (L-1) * distinct-cyclotomics structure: its reason."""

    __slots__ = ("reason",)

    def as_dict(self):
        return {"violation": self.reason}

    def json_text(self, indent):
        return f'{{\n{indent}  "violation": {_json_str(self.reason)}\n{indent}}}'


_NOT_CYCLOTOMIC = "not a product of cyclotomic polynomials"


def is_product_of_cyclotomics(f: BivarPoly):
    """Recognize the polynomial f in L as +/- a product of cyclotomic
    polynomials; a term in M raises ValueError.

    L - 1 and L + 1, Phi_1 and Phi_2, are divided out first by synthetic
    division. Every Phi_d with d > 2 is palindromic and monic, so what is
    left must read the same both ways, with leading coefficient +-1 and no
    factor L; any other f is rejected at once. Each Phi_d with d > 2 is
    then divided out by trial division, in ascending order of phi(d) while
    phi(d) is at most the degree left; success iff the final quotient is
    +/-1. A candidate is first filtered by the exact integers Phi_d(2) and
    Phi_d(3), which must divide f(2) and f(3), both nonzero: a monic
    palindrome has no root 2 or 3, as it would have 1/2 or 1/3 too. f is
    divided by Phi_d, through its Moebius product, only when both do.
    After each division the filter values are divided too: f = Phi_d * q
    gives f(x) = Phi_d(x) q(x). Returns a CyclotomicProfile or a Violation.
    """
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.deg_m():
        raise ValueError("recognition applies only to polynomials in L alone")
    return _recognize(_strip_units([f.terms.get((0, j), 0) for j in range(f.deg_l() + 1)]))


def _recognize(parts):
    """is_product_of_cyclotomics from the _strip_units parts of its input."""
    a, b, c, r = parts
    if a or abs(r[-1]) != 1 or r != r[::-1]:
        return Violation(_NOT_CYCLOTOMIC)
    v2, v3 = _horner(r, 2), _horner(r, 3)
    factors = [(d, m) for d, m in ((1, b), (2, c)) if m]
    deg = len(r) - 1
    for phi, d, pairs, c2, c3 in _candidate_rows(deg) if deg else ():
        if phi > deg:
            break
        if v2 % c2:
            continue
        c3 = c3 or _cyclotomic_value(pairs, 3)
        mult = 0
        while not (v2 % c2 or v3 % c3):
            q = _moebius_product(r, pairs, -1)
            if q is None:
                break
            r, v2, v3, deg, mult = q, v2 // c2, v3 // c3, deg - phi, mult + 1
        if mult:
            factors.append((d, mult))
        if not deg:
            break
    if deg:
        return Violation(_NOT_CYCLOTOMIC)
    return CyclotomicProfile(tuple(sorted(factors)), r[0])


def mdeg_trivial_decomposition(a: BivarPoly):
    """Decompose an M-degree-zero polynomial as +/-(L-1) * distinct Phi_d.

    Returns the CyclotomicProfile of the nonunit orders on success, else a
    Violation. The proof replay takes its surgery step d from the
    profile's orders: their lcm, 1 when there are none.
    """
    if a.is_zero:
        raise ValueError("zero polynomial")
    if a.deg_m() != 0:
        raise ValueError("decomposition applies only to M-degree-zero polynomials")
    return _decompose(is_product_of_cyclotomics(a))  # a is its own value at M = 1


def _decompose(prof):
    """mdeg_trivial_decomposition of the polynomial whose value at M = 1
    is recognized as prof."""
    if isinstance(prof, Violation):
        return prof
    mults = dict(prof.factors)
    if mults.get(1, 0) != 1:
        if 1 not in mults:
            return Violation("missing abelian factor (L-1)")
        return Violation("repeated abelian factor (L-1)")
    for d, m in prof.factors:
        if d != 1 and m != 1:
            return Violation(f"repeated cyclotomic factor of order {d}")
    nonunit = tuple((d, m) for d, m in prof.factors if d != 1)
    return CyclotomicProfile(nonunit, prof.sign)
