"""Cyclotomic recognition and the degree-zero decomposition.

Recognizes a polynomial in L as +/- a product of cyclotomic polynomials,
and decomposes an M-degree-zero polynomial as +/-(L-1) times distinct
cyclotomics. Each has two outcomes: a CyclotomicProfile, or a Violation
that says why the structure fails. ``structure.analyze`` imports this
module only at deg_M = 0, where its report carries the decomposition
that the surgery replay reads. The paper proves that no nontrivial knot's
A-polynomial has M-degree 0, so ``compute --two-bridge`` and ``compute
--torus`` never load it.
"""

from __future__ import annotations

from itertools import compress, count, islice
from math import ceil, log, prod
from operator import ne, sub

from ._record import Record, _json_list, _json_str
from .poly import BivarPoly, _in_l
from .structure import _strip_units

__all__ = [
    "cyclotomic",
    "euler_phi",
    "cyclotomic_candidates",
    "CyclotomicProfile",
    "is_product_of_cyclotomics",
    "Violation",
]


def _moebius_pairs(d: int):
    """(e, mu(d/e)) for the divisors e of d with d/e squarefree, the only
    ones whose Moebius value is nonzero: one for each set of primes of d,
    which trial division finds in ascending order."""
    pairs, n, p = [(d, 1)], d, 2
    while n > 1:
        if p * p > n:
            p = n  # what is left is prime
        if n % p == 0:
            pairs += [(e // p, -mu) for e, mu in pairs]
            while n % p == 0:
                n //= p
        p += 1
    return pairs


def _moebius_product(coeffs, pairs):
    """coeffs, ascending, times the product of (x^e - 1)^mu over the
    Moebius pairs (e, mu) of d, that is, times Phi_d. Factors with mu = 1
    multiply in first, so each division by x^e - 1 is exact. On the
    descending list, that division is a running sum along each residue
    class mod e, whose last e sums, the remainder, are 0."""
    c = list(reversed(coeffs))
    for e, mu in pairs:
        if mu == 1:
            c = list(map(sub, c + [0] * e, [0] * e + c))
    for e, mu in pairs:
        if mu == -1:
            for k in range(e, len(c)):
                c[k] += c[k - e]
            del c[-e:]
    return c[::-1]


def cyclotomic(d: int) -> BivarPoly:
    """The d-th cyclotomic polynomial in L, the Moebius product
    Phi_d(L) = prod over e | d of (L^e - 1)^mu(d/e)."""
    if d < 1:
        raise ValueError("cyclotomic order must be positive")
    return _in_l(_moebius_product([1], _moebius_pairs(d)))


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("totient of nonpositive integer")
    return sum(e * mu for e, mu in _moebius_pairs(n))


def cyclotomic_candidates(degree: int):
    """All orders d with euler_phi(d) <= degree, ascending."""
    return [d for d in range(1, _order_bound(degree) + 1) if euler_phi(d) <= degree]


def _order_bound(n: int) -> int:
    """An N >= 30 with euler_phi(d) > n for every d > N. By Rosser and
    Schoenfeld (Illinois J. Math. 6, 1962, Theorem 15), d/phi(d) < f(d) =
    e^gamma log log d + 2.50637/log log d for d >= 3, and d/f(d) increases
    from d = 30 on: for N >= n f(N), a d > N has phi(d) > d/f(d) > N/f(N)
    >= n. N is the fixed point of N -> ceil(n f(N)) from 30."""
    bound = 30
    while True:
        ll = log(log(bound))
        need = ceil(n * (1.781072417990198 * ll + 2.50637 / ll))  # e^gamma = 1.78107...
        if need <= bound:
            return bound
        bound = need


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
    division. Every Phi_d with d > 2 is palindromic and monic, with
    constant term 1, so what is left, r, must read the same both ways, with
    leading coefficient +-1 and no factor L; any other f is rejected at
    once. r / r(0) is then read as the product of (1 - L^e)^(a_e) over
    e >= 1, its cyclotomic exponent sequence (Ciolan, Garcia-Sanchez and
    Moree, SIAM J. Discrete Math. 30, 2016), where Phi_d has multiplicity
    the sum of a_(kd) over k >= 1. Returns a CyclotomicProfile or a
    Violation."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    if f.deg_m():
        raise ValueError("recognition applies only to polynomials in L alone")
    return _recognize(_strip_units([f.terms.get((0, j), 0) for j in range(f.deg_l() + 1)]))


def _recognize(parts):
    """is_product_of_cyclotomics from the _strip_units parts of its input.

    The exponents of s = r / r(0), of degree n, are read on prefixes of
    length 64, 128, ... up to N = _order_bound(n), past which no factor of
    s has its order. A bound broken on a prefix rejects, as a_e depends
    only on s mod x^(e+1); the short first prefix rejects a root off the
    unit circle before the coefficients it makes grow long. On a prefix of
    length P >= n/2, read to its end, multiplicities that pass
    _multiplicities certify: prod Phi_d^(m_d) agrees with s mod x^(P+1),
    and two palindromes of degree n that agree so far are equal. On the
    prefix of length N, those of a cyclotomic product are its own.
    """
    a, b, c, r = parts
    if a or abs(r[-1]) != 1 or r != r[::-1]:
        return Violation(_NOT_CYCLOTOMIC)
    factors = [(d, m) for d, m in ((1, b), (2, c)) if m]
    s, n = r if r[0] == 1 else [-x for x in r], len(r) - 1
    top = _order_bound(n)
    length = min(64, top)  # a product of degree <= 128 and orders <= 64 needs one prefix
    while n:  # r = +-1 leaves nothing to read
        exps = _exponents(s, length, n)
        if exps is None:
            return Violation(_NOT_CYCLOTOMIC)
        found = _multiplicities(exps, n) if 2 * length >= n else None
        if found is not None:
            factors += found
            break
        if length == top:
            return Violation(_NOT_CYCLOTOMIC)
        length = min(2 * length, top)
    return CyclotomicProfile(tuple(sorted(factors)), r[0])


def _exponents(s, length, n):
    """{e: a_e} for the e <= length with a_e != 0, where s = prod of
    (1 - x^e)^(a_e) mod x^(length+1) and s[0] = 1; None when an a_e breaks
    a bound that a product of cyclotomic polynomials of degree n keeps. As
    a_e = sum of mu(d/e) m_d over the multiples d of e, |a_e| phi(e) <= n,
    and the sum of |a_e| is at most that of m_d 2^omega(d) <= 2 m_d phi(d).
    Each factor is moved to the side where it multiplies: v = s times the
    (1 - x^e)^(-a_e) with a_e < 0 and u = the product of the others. Their
    quotient is 1 up to the least e where they differ, so a_e = u[e] - v[e].
    """
    v = s[:length + 1] + [0] * (length + 1 - len(s))
    u = [1] + [0] * length
    exps, budget = {}, 2 * n
    # the walk reads u and v as the passes change them, past its position
    for e in compress(count(1), map(ne, islice(u, 1, None), islice(v, 1, None))):
        a = exps[e] = u[e] - v[e]
        budget -= abs(a)
        if budget < 0 or abs(a) * e > n and abs(a) * euler_phi(e) > n:
            return None
        side = u if a > 0 else v
        for _ in range(abs(a)):
            side[e:] = map(sub, side[e:], side)  # times 1 - x^e
    return exps


def _multiplicities(exps, n):
    """[(d, m_d)] from the exponents {e: a_e} when every m_d >= 0, m_1 = 0
    and the sum of e a_e, that of m_d phi(d), is n; else None. The largest
    e left is the largest order d left, m_d = a_d, and the exponents of
    Phi_d^(m_d), its Moebius pairs, are taken off before the next."""
    if sum(e * a for e, a in exps.items()) != n:
        return None
    left, found = dict(exps), []
    while left:
        d = max(left)
        m = left.pop(d)
        if m < 0 or d == 1:
            return None
        found.append((d, m))
        for e, mu in _moebius_pairs(d)[1:]:  # all but (d, 1)
            rest = left.get(e, 0) - mu * m
            if rest:
                left[e] = rest
            else:
                del left[e]
    return found


def _decompose(prof):
    """The decomposition +/-(L-1) * distinct Phi_d of a degree-zero A from
    prof, the recognition of A(1, L): the CyclotomicProfile of the orders
    other than 1, whose lcm, 1 when there are none, is the replay's surgery
    step d, or a Violation."""
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
