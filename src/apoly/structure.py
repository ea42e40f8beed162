"""Structural analysis of A-polynomials.

Covers the abelian (L-1) factor, whose multiplicity is counted by
synthetic division, recognition of products of cyclotomic polynomials,
the degree-zero decomposition into (L-1) times distinct cyclotomics, unit
evaluations at M = +1/-1 against the +/- L^a (L-1)^b (L+1)^c form,
monicity at the units, and the M-degree verdict. Recognition and the
decomposition have two outcomes each: a CyclotomicProfile, or a Violation
that says why the structure fails. ``analyze`` reduces its input to
A-normal form once, splits that form into its M-slices {i: {j: c}} in one
walk over the terms, and reads every check off the slices: both degrees,
both unit evaluations, the abelian multiplicity and the two Newton-polygon
facts. Those need no hull: the slices are the columns of the support (its
L-exponents at each M-exponent), and the hull of a support is the hull of
each column's lowest and highest point.
"""

from __future__ import annotations

from itertools import accumulate, chain
from math import prod
from operator import sub

from ._record import _JSON_FLAG, Record, _json_list, _json_str
from .poly import _L_MINUS_1, BivarPoly, UnivarPoly

__all__ = [
    "cyclotomic",
    "euler_phi",
    "cyclotomic_candidates",
    "CyclotomicProfile",
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


def cyclotomic(d: int) -> UnivarPoly:
    """The d-th cyclotomic polynomial, the Moebius product
    Phi_d(x) = prod over e | d of (x^e - 1)^mu(d/e)."""
    if d < 1:
        raise ValueError("cyclotomic order must be positive")
    return UnivarPoly(_moebius_product([1], _moebius_pairs(d), 1))


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

    def json_text(self, indent):
        i, j = "\n" + indent + '  "', "\n" + indent + '      "'
        factors = [f'{{{j}order": {d},{j}multiplicity": {m}\n{indent}    }}' for d, m in self.factors]
        return (f'{{{i}factors": {_json_list(factors, indent + "  ")},'
                f'{i}product_d": {self.product_d},{i}sign": {self.sign}\n{indent}}}')


class Violation(Record):
    """Failure of the (L-1) * distinct-cyclotomics structure: its reason."""

    __slots__ = ("reason",)

    def __init__(self, reason):
        object.__setattr__(self, "reason", reason)


_NOT_CYCLOTOMIC = "not a product of cyclotomic polynomials"


def is_product_of_cyclotomics(f: UnivarPoly):
    """Recognize f as +/- a product of cyclotomic polynomials.

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
    return _recognize(_strip_units(f.coeffs))


def _recognize(parts):
    """is_product_of_cyclotomics from the _strip_units parts of its input."""
    a, b, c, r = parts
    if a or abs(r[-1]) != 1 or r != r[::-1]:
        return Violation(_NOT_CYCLOTOMIC)
    g = UnivarPoly(r)
    v2, v3 = g(2), g(3)
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
    return CyclotomicProfile(tuple(sorted(factors)), sign=r[0])


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
    return _decompose(is_product_of_cyclotomics(a.eval_m(1)))  # faithful: no M dependence


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
    return CyclotomicProfile(nonunit, sign=prof.sign)


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

    def json_text(self, indent):
        i = "\n" + indent + '  "'
        return f'{{{i}sign": {self.sign},{i}a": {self.a},{i}b": {self.b},{i}c": {self.c}\n{indent}}}'


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

    def json_text(self, indent):
        i = "\n" + indent + '  "'
        return f'{{{i}failure": true,{i}residual": {_json_str(str(self.residual))}\n{indent}}}'


def _synthetic_div(coeffs, zeta):
    """(quotient, remainder) of the polynomial with ascending coefficient
    list coeffs (nonempty) divided by L - zeta, in one Horner pass."""
    step = None if zeta == 1 else (lambda q, c: q * zeta + c)  # None adds, in C
    acc = list(accumulate(reversed(coeffs), step))
    return acc[-2::-1], acc[-1]


def _value_at_unit(coeffs, zeta):
    """The value at zeta = 1 or -1 of the polynomial with ascending
    coefficient list coeffs: its sum, or its alternating sum."""
    return sum(coeffs) if zeta == 1 else sum(coeffs[::2]) - sum(coeffs[1::2])


def _strip_root(coeffs, zeta, limit=None):
    """(coeffs / (L - zeta)^b, b) for the largest b, or at most limit, such
    that (L - zeta)^b divides the nonzero polynomial coeffs, for zeta = +-1:
    the remainder is a sum, found first, so each division made is exact."""
    b = 0
    while b != limit and not _value_at_unit(coeffs, zeta):
        coeffs, b = _synthetic_div(coeffs, zeta)[0], b + 1
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
    return _unit_form(a.eval_m(m))


def _strip_units(coeffs):
    """(a, b, c, r) with coeffs = L^a (L-1)^b (L+1)^c r and r prime to L,
    L - 1 and L + 1, for the nonzero ascending coefficient list coeffs."""
    a = next(k for k, c in enumerate(coeffs) if c)
    r, b = _strip_root(coeffs[a:], 1)  # L - 1
    r, c = _strip_root(r, -1)  # L + 1
    return a, b, c, r


def _unit_form(f: UnivarPoly, parts=None):
    """check_unit_evaluation of the evaluation f = A(m, L), from the
    _strip_units parts of f when they are given."""
    if f.is_zero:
        return UnitEvalFailure(f)
    a, b, c, r = parts or _strip_units(f.coeffs)
    if len(r) != 1 or abs(r[0]) != 1:
        return UnitEvalFailure(UnivarPoly(r))
    return UnitEvaluationForm(sign=r[0], a=a, b=b, c=c)


PASS = "PASS"
FAIL = "FAIL"
UNKNOT_OK = "UNKNOT_OK"


def _m_slices(terms):
    """The M-slices {i: {j: c}} of a nonempty term dict: for each
    M-exponent i, the polynomial in L of the terms with that exponent."""
    slices = {}
    for (i, j), c in terms.items():
        s = slices.get(i)
        if s is None:
            slices[i] = {j: c}
        else:
            s[j] = c
    return slices


def _unit_evaluations(slices, deg_l):
    """A(1, L) and A(-1, L) from the M-slices of A: the sum of the slices,
    and that sum less twice the odd ones. Without an odd slice the two are
    equal, and the one UnivarPoly is returned twice."""
    plus = [0] * (deg_l + 1)
    odd = []
    for i, s in slices.items():
        for j, c in s.items():
            plus[j] += c
        if i & 1:
            odd.append(s)
    if not odd:
        f = UnivarPoly(plus)
        return f, f
    minus = plus[:]
    for s in odd:
        for j, c in s.items():
            minus[j] -= 2 * c
    return UnivarPoly(plus), UnivarPoly(minus)


def _vertical_edge(slices):
    """Whether the Newton polygon of the polynomial with these M-slices
    has a vertical edge: None for a single point, otherwise whether the
    first or the last slice holds two points, since a vertical supporting
    line meets the hull at the least or the greatest M-exponent."""
    first, last = slices[min(slices)], slices[max(slices)]
    if len(slices) == 1 and len(first) == 1:
        return None
    return len(first) > 1 or len(last) > 1


def _collinear(slices):
    """Whether every point of the support of the polynomial with these
    M-slices lies on one line, that is, whether its Newton polygon is
    degenerate: every point must be collinear with the first two."""
    points = [(i, j) for i, s in slices.items() for j in s]
    if len(points) < 3:
        return True
    (i0, j0), (i1, j1) = points[0], points[1]
    di, dj = i1 - i0, j1 - j0
    return all(di * (j - j0) == dj * (i - i0) for i, j in points[2:])


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
    return _abelian_multiplicity(_m_slices(a.terms))


def _abelian_multiplicity(slices):
    """abelian_multiplicity of the polynomial with these M-slices."""
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

    ``cyclotomic`` is a CyclotomicProfile, a Violation or None.
    ``as_dict`` leaves out ``degenerate``, whether the Newton polygon is
    degenerate, and writes ``monic_plus`` and ``monic_minus`` from the
    ``monic`` of the two unit evaluations. When the two are one object,
    as they are whenever A(-1, L) = A(1, L), ``json_text`` writes it once.
    """

    __slots__ = (
        "name", "deg_m", "deg_l", "abelian_multiplicity", "unit_eval_plus", "unit_eval_minus",
        "vertical_edge", "cyclotomic", "verdict", "degenerate",
    )

    def __init__(
        self, name, deg_m, deg_l, abelian_multiplicity, unit_eval_plus, unit_eval_minus,
        vertical_edge, cyclotomic, verdict, degenerate=False,
    ):
        self.name, self.deg_m, self.deg_l = name, deg_m, deg_l
        self.abelian_multiplicity = abelian_multiplicity
        self.unit_eval_plus, self.unit_eval_minus = unit_eval_plus, unit_eval_minus
        self.vertical_edge, self.cyclotomic = vertical_edge, cyclotomic
        self.verdict, self.degenerate = verdict, degenerate

    def as_dict(self):
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
            "unit_eval_plus": self.unit_eval_plus.as_dict(),
            "unit_eval_minus": self.unit_eval_minus.as_dict(),
            "monic_plus": self.unit_eval_plus.monic,
            "monic_minus": self.unit_eval_minus.monic,
            "vertical_edge": self.vertical_edge,
            "cyclotomic": cyc,
            "verdict": self.verdict,
        }

    def json_text(self, indent=""):
        """The text of json.dumps(self.as_dict(), indent=2), each line after
        the first starting with indent; a shared unit form is written once."""
        inner, cyc = indent + "  ", self.cyclotomic
        plus, minus = self.unit_eval_plus, self.unit_eval_minus
        plus_text = plus.json_text(inner)
        minus_text = plus_text if minus is plus else minus.json_text(inner)
        if cyc is None:
            cyc_text = "null"
        elif isinstance(cyc, Violation):
            cyc_text = f'{{\n{inner}  "violation": {_json_str(cyc.reason)}\n{inner}}}'
        else:
            cyc_text = cyc.json_text(inner)
        i = "\n" + inner + '"'
        return (
            f'{{{i}name": {_json_str(self.name)},{i}deg_M": {self.deg_m},{i}deg_L": {self.deg_l},'
            f'{i}abelian_multiplicity": {self.abelian_multiplicity},'
            f'{i}unit_eval_plus": {plus_text},{i}unit_eval_minus": {minus_text},'
            f'{i}monic_plus": {_JSON_FLAG[plus.monic]},{i}monic_minus": {_JSON_FLAG[minus.monic]},'
            f'{i}vertical_edge": {_JSON_FLAG[self.vertical_edge]},{i}cyclotomic": {cyc_text},'
            f'{i}verdict": {_json_str(self.verdict)}\n{indent}}}'
        )


def analyze(a: BivarPoly, name: str = "", claims_nontrivial_knot: bool = False) -> AnalysisReport:
    """Run the full battery of structural checks on the A-normal form of a.

    The verdict is PASS when deg_M != 0; UNKNOT_OK for L-1 when the input is
    not claimed to come from a nontrivial knot; FAIL otherwise (for real
    knot data a FAIL would contradict the nontriviality theorem). Every
    check reads the M-slices of the normal form: the degrees are the
    largest slice index and exponent, and the slices are the columns of
    the Newton polygon's support.
    """
    if a.is_zero:
        raise ValueError("cannot analyze the zero polynomial")
    nf = a.normalize()
    slices = _m_slices(nf.terms)
    deg_m, deg_l = max(slices), max(map(max, slices.values()))
    plus, minus = _unit_evaluations(slices, deg_l)
    if deg_m == 0:
        # without M, A(1, L) = A(-1, L) is the polynomial itself: L - 1 and
        # L + 1 are divided out of it once, for its unit form, its abelian
        # multiplicity (that of L - 1) and its recognition
        parts = _strip_units(plus.coeffs)
        unit_plus = unit_minus = _unit_form(plus, parts)
        abelian = parts[1]
        cyc = _decompose(_recognize(parts))
        verdict = UNKNOT_OK if nf == _L_MINUS_1 and not claims_nontrivial_knot else FAIL
    else:
        unit_plus = _unit_form(plus)
        unit_minus = unit_plus if minus is plus else _unit_form(minus)
        abelian = _abelian_multiplicity(slices)
        cyc, verdict = None, PASS
    return AnalysisReport(
        name=name,
        deg_m=deg_m,
        deg_l=deg_l,
        abelian_multiplicity=abelian,
        unit_eval_plus=unit_plus,
        unit_eval_minus=unit_minus,
        vertical_edge=_vertical_edge(slices),
        cyclotomic=cyc,
        verdict=verdict,
        degenerate=_collinear(slices),
    )
