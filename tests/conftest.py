import argparse
import cmath
import operator
import random
import re
from fractions import Fraction
from itertools import accumulate
from math import ceil, floor, gcd

import pytest
import sympy
from hypothesis import strategies as st

import apoly.grammar
from apoly.grammar import _MAX_DEPTH, _MAX_L_EXPONENT, _error
from apoly.knots import sl2_word_eval, two_bridge_presentation
from apoly.poly import (
    _COEFF_BOUND,
    _MAX_DIGITS,
    BivarPoly,
    _add_terms,
    _decimal,
    _in_l,
    _mul_terms,
    _trim,
)
from apoly.newton import _cross
from apoly.recognition import CyclotomicProfile, Violation, _decompose, cyclotomic_candidates
from apoly.structure import (
    FAIL,
    PASS,
    UNKNOT_OK,
    AnalysisReport,
    UnitEvalFailure,
    UnitEvaluationForm,
)

M = BivarPoly({(1, 0): 1})
L = BivarPoly({(0, 1): 1})


def l_coeffs(f):
    """The ascending coefficient list of the polynomial f in L, [] for
    zero; a term in M is an error."""
    assert all(i == 0 for i, _ in f.terms), f"{f} has a term in M"
    return [f.terms.get((0, j), 0) for j in range(f.deg_l() + 1)] if f.terms else []


def l_value(f, x):
    """The value of the polynomial f in L at L = x, term by term."""
    return sum(c * x**j for (_, j), c in f.terms.items())


def l_lead(f):
    """The top L-coefficient of the nonzero polynomial f in L."""
    return f.terms[0, f.deg_l()]

@st.composite
def bivar_polys(draw, max_exp=4, max_terms=6, max_coeff=9, allow_zero=True):
    n = draw(st.integers(min_value=0 if allow_zero else 1, max_value=max_terms))
    terms = {}
    for _ in range(n):
        i = draw(st.integers(min_value=0, max_value=max_exp))
        j = draw(st.integers(min_value=0, max_value=max_exp))
        c = draw(st.integers(min_value=-max_coeff, max_value=max_coeff))
        if c:
            terms[(i, j)] = terms.get((i, j), 0) + c
    result = BivarPoly(terms)
    if not allow_zero and result.is_zero:
        result = BivarPoly({(0, 0): 1})
    return result


@st.composite
def poly_expressions(draw, depth=2):
    """(text, value): a random expression in parse_poly's grammar and the
    polynomial it denotes, built with BivarPoly operations alone.

    The text has integers (0 included), M^e and L^e (bare M and L too),
    implicit and explicit products, parenthesized sums raised to powers 0
    to 3, an optional leading sign and, sometimes, a term that cancels an
    earlier one.
    """
    terms = []  # (sign, text, value)
    for k in range(draw(st.integers(1, 3 if depth < 2 else 4))):
        sign = draw(st.sampled_from(["", "+", "-"] if k == 0 else ["+", "-"]))
        terms.append((sign, *draw(_term_expressions(depth))))
    if draw(st.integers(0, 3)) == 0:
        sign, text, value = draw(st.sampled_from(terms))
        terms.append(("+" if sign == "-" else "-", text, value))
    text, value = "", BivarPoly.zero()
    for sign, t_text, t_value in terms:
        text += draw(st.sampled_from(["", " "])) + sign + draw(st.sampled_from(["", " "])) + t_text
        value = value - t_value if sign == "-" else value + t_value
    return text, value


@st.composite
def _term_expressions(draw, depth):
    text, value = draw(_factor_expressions(depth))
    for _ in range(draw(st.integers(0, 2))):
        f_text, f_value = draw(_factor_expressions(depth))
        # implicit products need a space before a digit, or "2" "3" reads 23
        implicit = " " if f_text[0].isdigit() else draw(st.sampled_from(["", " "]))
        text += draw(st.sampled_from(["*", " * ", implicit]))
        text += f_text
        value = value * f_value
    return text, value


@st.composite
def _factor_expressions(draw, depth):
    kind = draw(st.sampled_from(["int", "var", "paren"] if depth else ["int", "var"]))
    if kind == "int":
        c = draw(st.one_of(st.integers(0, 12), st.integers(0, 10**30)))
        return str(c), BivarPoly.const(c)
    if kind == "var":
        name, e = draw(st.sampled_from("ML")), draw(st.integers(0, 6))
        text = name if e == 1 and draw(st.booleans()) else f"{name}^{e}"
        return text, BivarPoly({(e if name == "M" else 0, e if name == "L" else 0): 1})
    inner_text, inner_value = draw(poly_expressions(depth - 1))
    e = draw(st.integers(0, 3))
    text = f"({inner_text})" if e == 1 and draw(st.booleans()) else f"({inner_text})^{e}"
    return text, inner_value**e


def _divide_ints(f, d):
    """Quotient list of the integer coefficient lists f / d, lowest degree
    first, when every quotient coefficient is an integer and the
    remainder is zero; else None."""
    f, n = list(f), len(d) - 1
    if not any(f):
        return []
    if len(f) <= n:
        return None
    quotient = [0] * (len(f) - n)
    for k in range(len(quotient) - 1, -1, -1):
        c, r = divmod(f[k + n], d[n])
        if r:
            return None
        quotient[k] = c
        for i, x in enumerate(d):
            f[k + i] -= c * x
    return None if any(f) else quotient


def _l_coefficient(a, j):
    """The coefficient of L^j in the BivarPoly a, as an integer list in M."""
    column = {i: c for (i, jj), c in a.terms.items() if jj == j}
    return [column.get(i, 0) for i in range(max(column, default=-1) + 1)]


def exact_quotient(f, d):
    """Reference exact quotient f / d, or None when d does not divide f:
    plain-integer long division of one polynomial in L alone by another,
    or long division of one BivarPoly by another in L over Z[M], each
    quotient coefficient an integer long division of leading
    L-coefficients. Shares no division code with apoly."""
    if not any(i for i, _ in (*f.terms, *d.terms)):
        q = _divide_ints(l_coeffs(f), l_coeffs(d))
        return None if q is None else _in_l(q)
    n = d.deg_l()
    lead, quotient = _l_coefficient(d, n), BivarPoly()
    while not f.is_zero and f.deg_l() >= n:
        k = f.deg_l()
        c = _divide_ints(_l_coefficient(f, k), lead)
        if c is None:
            return None
        term = BivarPoly({(i, k - n): x for i, x in enumerate(c)})
        quotient, f = quotient + term, f - term * d
    return quotient if f.is_zero else None


def bivar_in_m(u):
    """The ascending coefficient list u in M as a BivarPoly in M."""
    return BivarPoly({(i, 0): c for i, c in enumerate(u)})


def l_columns(a):
    """The nonzero BivarPoly a as its L-coefficients, lowest L-degree
    first, each an integer list in M ([] for zero): the list form of
    apoly.knots' square-free step."""
    return [_l_coefficient(a, j) for j in range(a.deg_l() + 1)]


def from_l_columns(columns):
    """The BivarPoly whose L-coefficients l_columns lists."""
    return BivarPoly({(i, j): c for j, col in enumerate(columns) for i, c in enumerate(col)})


def _primitive_ints(f):
    """The integer list f divided by its content, leading coefficient positive."""
    g = gcd(*f)
    return [c // g for c in f] if f[-1] > 0 else [-c // g for c in f]


def _mul_ints(f, g):
    """The product of two integer lists in M, [] for zero."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return _trim(out)


def _sub_ints(f, g):
    """f - g for two integer lists in M."""
    out = list(f) + [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] -= c
    return _trim(out)


def _remainder_gcd_in(f, g, mul, sub, primitive):
    """Primitive gcd of the nonzero polynomials f and g in L, by the
    primitive remainder sequence, in the ring whose product, difference
    and primitive part of a polynomial are mul, sub and primitive."""
    a, b = primitive(f), primitive(g)
    if len(a) < len(b):
        a, b = b, a
    while b:
        lb, n = b[-1], len(b) - 1
        while len(a) > n:
            la, k = a[-1], len(a) - 1 - n
            a = [mul(c, lb) if c else c for c in a]
            for i, c in enumerate(b):
                a[k + i] = sub(a[k + i], mul(la, c))
            _trim(a)
        a, b = b, (primitive(a) if a else a)
    return a


def _quotient_over_m(f, d):
    """f / d for polynomials in L over Z[M] that d divides exactly, by
    long division with exact quotients in Z[M]."""
    n = len(d) - 1
    rem, quot = list(f), [[] for _ in range(len(f) - n)]
    for k in range(len(quot) - 1, -1, -1):
        q = quot[k] = _divide_ints(rem[k + n], d[n])
        for i in range(n):
            rem[k + i] = _sub_ints(rem[k + i], _mul_ints(q, d[i]))
    return quot


def _primitive_over_m(f):
    """f over Z[M] divided by the gcd over Z[M] of its L-coefficients:
    their integer content times their primitive gcd over Z."""
    common = None
    for c in f:
        if c:
            common = _primitive_ints(c) if common is None else _remainder_gcd_in(
                common, c, operator.mul, operator.sub, _primitive_ints)
            if len(common) == 1:
                break
    common = [gcd(*(x for c in f for x in c)) * x for x in common]
    return [_divide_ints(c, common) for c in f]


def squarefree_by_remainders(r):
    """Reference square-free part of r, a polynomial in L over Z[M] as
    l_columns lists: r made primitive over Z[M], divided by its gcd with
    dr/dL from the primitive remainder sequence over Z[M]. Shares no code
    with apoly.knots' square-free step."""
    r = _primitive_over_m(r)
    dr = [[j * x for x in c] for j, c in enumerate(r)][1:]
    return _quotient_over_m(r, _remainder_gcd_in(r, dr, _mul_ints, _sub_ints, _primitive_over_m))


_division_cache = {1: L - 1}


def cyclotomic_by_division(d):
    """Reference Phi_d in L: L^d - 1 divided exactly by Phi_e for every
    proper divisor e of d."""
    if d not in _division_cache:
        f = L**d - 1
        for e in range(1, d):
            if d % e == 0:
                f = exact_quotient(f, cyclotomic_by_division(e))
        _division_cache[d] = f
    return _division_cache[d]


def reconstruct_profile(prof):
    """The polynomial +/- prod Phi_d^m that a CyclotomicProfile describes."""
    f = BivarPoly.const(prof.sign)
    for d, m in prof.factors:
        f = f * cyclotomic_by_division(d) ** m
    return f


def reconstruct_unit_form(form):
    """The polynomial +/- L^a (L-1)^b (L+1)^c of a UnitEvaluationForm."""
    return form.sign * L**form.a * (L - 1) ** form.b * (L + 1) ** form.c


_L_MINUS_1 = BivarPoly({(0, 1): 1, (0, 0): -1})


def abelian_multiplicity_by_division(a):
    """Reference multiplicity of (L-1) in a nonzero a: exact trial division
    by L - 1 in Z[M][L] until it fails."""
    mult = 0
    while True:
        q = exact_quotient(a, _L_MINUS_1)
        if q is None:
            return mult
        a, mult = q, mult + 1


def divide_out_by_division(f, g):
    """Reference (f / g^k, k) for the largest k with g^k dividing the nonzero
    polynomial f: exact trial division until it fails."""
    count = 0
    while True:
        q = exact_quotient(f, g)
        if q is None:
            return f, count
        f, count = q, count + 1


def cyclotomic_value_by_divisors(d, x):
    """Reference Phi_d(x): the product of (x^e - 1)^mu(d/e) over all
    divisors e of d, with sympy's divisors and Moebius function."""
    num = den = 1
    for e in sympy.divisors(d):
        mu = sympy.mobius(d // e)
        if mu:
            num, den = (num * (x**e - 1), den) if mu > 0 else (num, den * (x**e - 1))
    return num // den


def is_product_of_cyclotomics_by_scan(f):
    """Reference apoly.recognition.is_product_of_cyclotomics: the candidate
    scan it replaced, on the reference Phi_d, with no palindrome test.
    Every order d with phi(d) at most the degree left is tried in ascending
    order, L - 1 and L + 1 included; Phi_d is divided out by exact long
    division while Phi_d(2) and Phi_d(3) divide f(2) and f(3), after the
    factors L - 2 and L - 3, which would let every order through, are
    divided out and set aside. An order whose Phi_d(2) does not divide f(2)
    is passed over before its Phi_d is built."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    reason = "not a product of cyclotomic polynomials"
    if abs(l_lead(f)) != 1:
        return Violation(reason)
    if f.deg_l() == 0:
        return CyclotomicProfile((), sign=l_lead(f))
    aside = []
    if not (l_value(f, 2) and l_value(f, 3)):
        for x in (2, 3):
            f, k = divide_out_by_division(f, L - x)
            aside += [L - x] * k
    v2, v3 = l_value(f, 2), l_value(f, 3)
    factors = []
    for d in cyclotomic_candidates(f.deg_l()):
        if f.deg_l() == 0:
            break
        if sympy.totient(d) > f.deg_l() or v2 % cyclotomic_value_by_divisors(d, 2):
            continue
        phi_d = cyclotomic_by_division(d)
        c2, c3 = l_value(phi_d, 2), l_value(phi_d, 3)
        mult = 0
        while v2 % c2 == 0 and v3 % c3 == 0:
            q = exact_quotient(f, phi_d)
            if q is None:
                break
            f, v2, v3, mult = q, v2 // c2, v3 // c3, mult + 1
        if mult:
            factors.append((d, mult))
    if aside or f.deg_l() != 0 or abs(l_lead(f)) != 1:
        return Violation(reason)
    return CyclotomicProfile(tuple(factors), sign=l_lead(f))


def _moebius_table(n):
    """[mu(0), ..., mu(n)], mu(0) unused, by a sieve over the primes."""
    mu, composite = [1] * (n + 1), [False] * (n + 1)
    for p in range(2, n + 1):
        if not composite[p]:
            for m in range(p, n + 1, p):
                composite[m], mu[m] = True, -mu[m]
            for m in range(p * p, n + 1, p * p):
                mu[m] = 0
    return mu


def is_product_of_cyclotomics_by_exponents(f):
    """Reference apoly.recognition.is_product_of_cyclotomics that shares no
    code with its scan but cyclotomic_candidates: the cyclotomic exponent
    sequence (Ciolan, Garcia-Sanchez and Moree, "Cyclotomic numerical
    semigroups", SIAM J. Discrete Math. 2016). A product of cyclotomic
    polynomials of degree n is f(0) * prod over e <= K of (1 - x^e)^(a_e),
    K the largest order d with phi(d) <= n. For g = f / f(0), the power
    sums s_k, the coefficients of x g'/g, come from Newton's identities
    k g_k = sum over j <= k of s_j g_(k-j), and k a_k = -sum over e | k of
    mu(k/e) s_e. Since a_e = sum over e | d of mu(d/e) m_d for the
    multiplicities m_d, |a_e| <= n; the first |a_e| above n rejects, and so
    does a degree sum of e a_e other than n. The product is then the
    certificate, multiplied out exactly: with the negative exponents moved
    to g's side, both sides must be equal. Phi_d has multiplicity the sum
    of a_e over the multiples e of d."""
    if f.is_zero:
        raise ValueError("zero polynomial")
    reason = "not a product of cyclotomic polynomials"
    c, n = l_coeffs(f), f.deg_l()
    if abs(c[0]) != 1:  # Phi_1(0) = -1 and Phi_d(0) = 1 for d > 1
        return Violation(reason)
    g = [c[0] * x for x in c]
    terms = [(i, x) for i, x in enumerate(g) if i and x]
    big_k = max(cyclotomic_candidates(n), default=0)
    mu = _moebius_table(big_k)
    s, a, ka = [0] * (big_k + 1), [0] * (big_k + 1), [0] * (big_k + 1)
    for k in range(1, big_k + 1):
        s[k] = k * (g[k] if k <= n else 0) - sum(x * s[k - i] for i, x in terms if i < k)
        for j in range(1, big_k // k + 1):
            ka[k * j] -= mu[j] * s[k]
        a[k] = ka[k] // k
        if abs(a[k]) > n:
            return Violation(reason)
    if sum(e * x for e, x in enumerate(a)) != n:
        return Violation(reason)
    sides = [[1], g]
    for e, x in enumerate(a):
        side = sides[0] if x > 0 else sides[1]
        for _ in range(abs(x)):
            side += [0] * e
            for i in range(len(side) - 1, e - 1, -1):
                side[i] -= side[i - e]
    if sides[0] != sides[1]:
        return Violation(reason)
    mults = [(d, sum(a[d::d])) for d in range(1, big_k + 1)]
    return CyclotomicProfile(tuple((d, m) for d, m in mults if m), sign=c[-1])


def unit_evaluation_by_division(a, m):
    """Reference check_unit_evaluation: the UnitEvaluationForm of
    +/- L^a (L-1)^b (L+1)^c for A(m, L) = a.eval_m(m), or a UnitEvalFailure
    with the residual, from L, then L - 1, then L + 1 divided out by trial
    division."""
    f = a.eval_m(m)
    if f.is_zero:
        return UnitEvalFailure(f)
    av = f.min_l()
    f, b = divide_out_by_division(_in_l(l_coeffs(f)[av:]), L - 1)
    f, c = divide_out_by_division(f, L + 1)
    if f.deg_l() != 0 or abs(l_lead(f)) != 1:
        return UnitEvalFailure(f)
    return UnitEvaluationForm(l_lead(f), av, b, c)


def two_bridge_alexander(pres):
    """The Alexander polynomial of a two-bridge knot from its presentation,
    as {exponent: c} shifted to lowest exponent 0: Delta(t) = sum over
    i = 0 .. p-1 of (-1)^i t^sigma_i, where sigma_i = eps_1 + ... + eps_i
    runs over the sign sequence (Hartley, "On two-bridged knot
    polynomials", J. Austral. Math. Soc. 1979)."""
    sigma = [0, *accumulate(pres.sign_sequence)]
    low = min(sigma)
    out = {}
    for i, s in enumerate(sigma):
        out[s - low] = out.get(s - low, 0) + (-1) ** i
    return {k: c for k, c in out.items() if c}


def _partial_quotients(y):
    """Every list (b_1, b_2, ...) of integers with |b_i| >= 2 and
    y = b_1 + 1/(b_2 + 1/(...)), for a rational y: b_1 is the floor or the
    ceiling of y, and an integer y is the last term."""
    if y.denominator == 1:
        return [[int(y)]] if abs(y) >= 2 else []
    return [[b, *rest] for b in {floor(y), ceil(y)} if abs(b) >= 2
            for rest in _partial_quotients(1 / (y - b))]


def hatcher_thurston_slopes(p, q):
    """The boundary slopes of the two-bridge knot p/q (Hatcher and
    Thurston, Invent. Math. 1985), from the continued fractions
    q/p = r + 1/(b_1 + 1/(b_2 + ...)) with r the floor or the ceiling of
    q/p and every |b_i| >= 2. For each, n counts the positive less the
    negative terms of (b_1, -b_2, b_3, -b_4, ...), n_0 is the n of the one
    expansion whose terms are all even, and the slope is 2(n - n_0).
    Integer arithmetic only; shares no code with apoly."""
    x = Fraction(q, p)
    expansions = [bs for r in {floor(x), ceil(x)} for bs in _partial_quotients(1 / (x - r))]

    def count(bs):
        signs = [(b > 0) == (k % 2 == 0) for k, b in enumerate(bs)]
        return 2 * sum(signs) - len(signs)

    (even,) = [bs for bs in expansions if all(b % 2 == 0 for b in bs)]
    return {2 * (count(bs) - count(even)) for bs in expansions}


# Riley's normal form a -> [[M, 1], [0, 1/M]], b -> [[M, 0], [t, 1/M]], as
# matrices of Laurent dicts {(M-exponent, t-exponent): c}
RILEY_MATRICES = {
    "a": (({(1, 0): 1}, {(0, 0): 1}), ({}, {(-1, 0): 1})),
    "b": (({(1, 0): 1}, {}), ({(0, 1): 1}, {(-1, 0): 1})),
}


def riley_polynomial(p, q):
    """The representation condition phi(M, t) = 0 of the two-bridge knot
    p/q, as a Laurent dict {(M-exponent, t-exponent): c}, and its
    presentation, for the Alexander oracles: the (1,2) entry of
    a W - W b, with the words a*w and w*b each evaluated in full."""
    pres = two_bridge_presentation(p, q)
    aw = sl2_word_eval((("a", 1), *pres.w), RILEY_MATRICES)
    wb = sl2_word_eval((*pres.w, ("b", 1)), RILEY_MATRICES)
    return _add_terms(dict(aw[0][1]), wb[0][1], -1), pres


def _is_prime(n):
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def riley_prime(p):
    """The smallest prime P >= 101 with P = 1 (mod 2p)."""
    return next(n for n in range(101, 10**6) if n % (2 * p) == 1 and _is_prime(n))


def _mat_mul_mod(x, y, prime):
    """The product of two 2x2 matrices (x11, x12, x21, x22) of ints mod prime."""
    return ((x[0] * y[0] + x[1] * y[2]) % prime, (x[0] * y[1] + x[1] * y[3]) % prime,
            (x[2] * y[0] + x[3] * y[2]) % prime, (x[2] * y[1] + x[3] * y[3]) % prime)


def _word_mod(word, mats, prime):
    """The 2x2 matrix mod prime of a word of (generator, +-1) letters."""
    out = (1, 0, 0, 1)
    for letter in word:
        out = _mat_mul_mod(out, mats[letter], prime)
    return out


def riley_curve_points_mod(p, q, prime, ms=range(2, 30)):
    """The points (m, lambda) mod prime of the two-bridge knot p/q's Riley
    curve, with no apoly code: the sign sequence eps_i = (-1)^floor(i q'/p),
    q' the odd one of q and q - p, gives w = b^eps_1 a^eps_2 ... and its
    mirror wbar with a and b swapped; with a = [[m, 1], [0, 1/m]] and
    b = [[m, 0], [t, 1/m]] on plain ints mod prime, every t in F_prime
    with (aW - Wb)_12 = 0, W = w(a, b), gives lambda, the (1,1) entry of
    the full longitude word w wbar a^(-2e), e the sum of the signs."""
    qt = q if q % 2 else q - p
    eps = [1 - 2 * ((i * qt) // p % 2) for i in range(1, p)]
    w = [("b" if i % 2 == 0 else "a", e) for i, e in enumerate(eps)]
    wbar = [("a" if g == "b" else "b", e) for g, e in w]
    e_sum = sum(eps)
    tail = [("a", -1 if e_sum > 0 else 1)] * abs(2 * e_sum)
    points = []
    for m in ms:
        mi = pow(m, -1, prime)
        a, a_inv = (m, 1, 0, mi), (mi, prime - 1, 0, m)
        for t in range(prime):
            b, b_inv = (m, 0, t, mi), (mi, 0, -t % prime, m)
            mats = {("a", 1): a, ("a", -1): a_inv, ("b", 1): b, ("b", -1): b_inv}
            big_w = _word_mod(w, mats, prime)
            if _mat_mul_mod(a, big_w, prime)[1] == _mat_mul_mod(big_w, b, prime)[1]:
                points.append((m, _word_mod(w + wbar + tail, mats, prime)[0]))
    return points


def vanishes_mod(a, points, prime):
    """Whether the BivarPoly a vanishes mod prime at every (m, lambda)."""
    return all(
        sum(c * pow(m, i, prime) * pow(lam, j, prime) for (i, j), c in a.terms.items()) % prime == 0
        for m, lam in points
    )


def torus_alexander(a, b):
    """The Alexander polynomial of the (a, b) torus knot as {exponent: c}:
    Delta(t) = (t^(ab) - 1)(t - 1) / ((t^a - 1)(t^b - 1)), by sympy."""
    t = sympy.Symbol("t")
    num = sympy.Poly((t ** (a * b) - 1) * (t - 1), t)
    quotient, remainder = num.div(sympy.Poly((t**a - 1) * (t**b - 1), t))
    assert remainder.is_zero
    return {k: int(c) for (k,), c in quotient.terms()}


def alexander_divides_at_l1(a, delta):
    """Whether A'(M, 1) is nonzero and the square-free part of Delta(M^2)
    divides it in Z[M], where A' = A / (L - 1) and Delta is {exponent: c}
    with a nonzero constant term (so powers of M do not matter).

    The reducible characters at the roots of Delta(M^2) lie on the
    non-abelian curve (Cooper-Culler-Gillet-Long-Shalen, Invent. Math.
    1994; Heusener-Porti-Suarez, J. reine angew. Math. 2001). A'(M, 1) is
    dA/dL at L = 1, given A(M, 1) = 0; sympy takes the square-free part
    and divides, so no apoly kernel is involved.
    """
    import sympy

    m = sympy.Symbol("M")
    at_one = sympy.Poly(sum(c * m**i for (i, j), c in a.terms.items()), m)
    derivative = sympy.Poly(sum(j * c * m**i for (i, j), c in a.terms.items()), m)
    if not at_one.is_zero or derivative.is_zero:
        return False
    sqf = sympy.Poly(sum(c * m ** (2 * k) for k, c in delta.items()), m).sqf_part()
    quotient, remainder = derivative.div(sqf)
    return remainder.is_zero and all(c.is_integer for c in quotient.all_coeffs())


class TriPolyInT:
    """Polynomial in an elimination variable t over BivarPoly coefficients;
    ``coeffs[k]`` is the coefficient of t^k, trailing zeros trimmed."""

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        self.coeffs = tuple(cs)

    def degree_t(self):
        return len(self.coeffs) - 1

    def __getitem__(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else BivarPoly()


def collect_t(terms):
    """(TriPolyInT, dm): a Laurent dict {(M-exponent, t-exponent): c} times
    M^dm, the least power of M that leaves no negative exponent, collected
    by powers of t."""
    dm = max(0, -min((i for i, _ in terms), default=0))
    by_t = {}
    for (i, k), c in terms.items():
        by_t.setdefault(k, {})[(i + dm, 0)] = c
    top = max(by_t, default=-1)
    return TriPolyInT([BivarPoly(by_t.get(k)) for k in range(top + 1)]), dm


def _dot(xs, ys):
    acc = None
    for x, y in zip(xs, ys):
        acc = x * y if acc is None else acc + x * y
    return acc


def berkowitz_charpoly(matrix):
    """Reference coefficients [1, c_1, ..., c_n] of det(x*I - A), highest
    degree first, for a nonempty square list of rows of BivarPoly
    entries: Berkowitz's division-free algorithm (Inf. Proc. Letters 18,
    1984) on BivarPoly's own + and *."""
    one = BivarPoly.const(1)
    poly = [one, -matrix[0][0]]
    for r in range(1, len(matrix)):
        row = matrix[r][:r]
        col = [matrix[i][r] for i in range(r)]
        # first Toeplitz column: 1, -a_rr, -R C, -R A C, ..., -R A^(r-1) C
        toeplitz = [one, -matrix[r][r]]
        for k in range(r):
            toeplitz.append(-_dot(row, col))
            if k < r - 1:
                col = [_dot(matrix[i][:r], col) for i in range(r)]
        poly = [_dot(toeplitz[i::-1], poly) for i in range(r + 2)]
    return poly


def charpoly_by_terms(matrix):
    """berkowitz_charpoly of a matrix of coefficient lists in M, run on
    BivarPoly copies: its products are the sparse term kernels, which share
    nothing with apoly.knots._charpoly's coefficient lists. BivarPoly
    results."""
    return berkowitz_charpoly([[bivar_in_m(u) for u in row] for row in matrix])


_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>[ML])|(?P<caret>\^)|(?P<star>\*)"
                       r"|(?P<plus>\+)|(?P<minus>-)|(?P<lparen>\()|(?P<rparen>\))|(?P<bad>\S))")


def _tokenize(text):
    """(kind, text, offset) triples, then an "end" token just past the last."""
    tokens = []
    depth = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok, offset = m.group(kind), m.start(kind)
        if kind == "bad":
            _error(f"unexpected character {tok!r}", text, offset)
        if kind == "int" and len(tok) > _MAX_DIGITS:
            msg = f"integer literal of {len(tok)} digits is longer than {_MAX_DIGITS}"
            _error(msg, text, offset)
        depth += (kind == "lparen") - (kind == "rparen")
        if depth > _MAX_DEPTH:
            _error(f"parentheses nested deeper than {_MAX_DEPTH}", text, offset)
        tokens.append((kind, tok, offset))
    tokens.append(("end", "", m.end() if tokens else 0))
    return tokens


def parse_poly_by_tokens(text):
    """Reference parser for apoly.grammar.parse_poly: the same grammar, bounds,
    parse budget and messages, by recursive descent over a list of (kind,
    text, offset) tokens with one rule per grammar symbol, every factor a
    term dict and every product a _mul_terms call. A power is the product
    of the repeated squares its exponent's bits pick, in ascending order."""
    tokens = _tokenize(text)
    idx, spent = 0, 0

    def peek():
        return tokens[idx]

    def take():
        nonlocal idx
        t = tokens[idx]
        idx += 1
        return t

    def parse_exponent():
        if peek()[0] != "caret":
            return 1
        take()
        etok = take()
        if etok[0] != "int":
            _error("expected exponent after '^'", text, etok[2])
        return int(etok[1])

    def parse_factor():
        kind, val, offset = peek()
        if kind == "int":
            take()
            return {(0, 0): int(val)}
        if kind == "var":
            take()
            e = parse_exponent()
            return {(e, 0) if val == "M" else (0, e): 1}
        _error("expected a term", text, offset)

    def charge(cost, construct, offset):
        # against the budget as it is now, which a test may lower
        nonlocal spent
        spent += cost
        if spent > apoly.grammar._PARSE_BUDGET:
            _error(f"{construct} too large to expand: it passes the parse budget", text, offset)

    def metered_product(f, g, construct, offset):
        # charged len(f) * len(g) * max(b, 1024) * max(b, x, 1024) before it
        # is made, b the coefficient bits and x the exponent bits of a term
        # pair at most; then rejected when it can have more terms than the
        # cap: more than the cap of term pairs and of points in the box its
        # exponents span
        bits = sum(max((abs(c).bit_length() for c in h.values()), default=0) for h in (f, g))
        keys = sum(max((e.bit_length() for key in h for e in key), default=0) for h in (f, g))
        charge(len(f) * len(g) * max(bits, 1024) * max(bits, keys, 1024), construct, offset)
        box = 1
        for axis in (0, 1):
            box *= 1 + sum(max(key[axis] for key in h) - min(key[axis] for key in h)
                           for h in (f, g) if h)
        cap = apoly.grammar._MAX_TERMS
        if len(f) * len(g) > cap and box > cap:
            _error(f"{construct} too large to expand: it can have more than {cap} terms",
                   text, offset)
        return _mul_terms(f, g)

    def parse_parenthesized():
        take()
        inner = parse_expression()
        if peek()[0] != "rparen":
            _error("expected ')'", text, peek()[2])
        take()
        caret = peek()[2]
        e = parse_exponent()
        if e == 0:
            return {(0, 0): 1}
        if e == 1:
            return inner
        if len(inner) <= 1 and all(abs(c) == 1 for c in inner.values()):
            # zero or one unit term: closed form, exponents checked at the '^'
            power = {(i * e, j * e): -1 if c < 0 and e % 2 else 1 for (i, j), c in inner.items()}
            for i, j in power:
                if j > _MAX_L_EXPONENT:
                    _error(f"expanded L-exponent is above {_MAX_L_EXPONENT}", text, caret)
                if i >= _COEFF_BOUND:
                    _error(f"expanded M-exponent is longer than {_MAX_DIGITS} digits", text, caret)
            return power
        squares = [inner]
        for _ in range(e.bit_length() - 1):
            squares.append(metered_product(squares[-1], squares[-1], "power", caret))
        power = None
        for bit, square in enumerate(squares):
            if e >> bit & 1:
                power = square if power is None else metered_product(power, square, "power", caret)
        return power

    def parse_term():
        # the parenthesized factors multiply into one metered product; the
        # others into one monomial, whose products are metered too once its
        # coefficient passes 1024 bits: 4 * b_c * max(b_n, 1024) for a
        # literal of b_n bits, and the last at the term's first token
        monomial, product = {(0, 0): 1}, None
        start = peek()[2]
        while True:
            kind, _, offset = peek()
            bits = max(map(abs, monomial.values()), default=0).bit_length()
            if kind == "lparen":
                factor = parse_parenthesized()
                product = factor if product is None else metered_product(
                    product, factor, "product", offset)
            elif kind == "int" and bits > 1024:
                literal = parse_factor()
                charge(4 * bits * max(literal[(0, 0)].bit_length(), 1024), "product", offset)
                monomial = _mul_terms(monomial, literal)
            else:
                monomial = _mul_terms(monomial, parse_factor())
            kind = peek()[0]
            if kind == "star":
                take()
            elif kind not in ("int", "var", "lparen"):
                if product is None:
                    return monomial
                if max(map(abs, monomial.values()), default=0).bit_length() > 1024:
                    return metered_product(monomial, product, "product", start)
                return _mul_terms(monomial, product)

    def parse_expression():
        # a term that would take the sum past the result-size cap is
        # rejected at its first token before it is added
        terms = {}
        sign = 1
        if peek()[0] in ("plus", "minus"):
            sign = -1 if take()[0] == "minus" else 1
        while True:
            offset = peek()[2]
            term = parse_term()
            cap = apoly.grammar._MAX_TERMS
            if len(terms) + len(term) > cap:
                _error(f"sum too large to expand: it can have more than {cap} terms", text, offset)
            _add_terms(terms, term, sign)
            if peek()[0] not in ("plus", "minus"):
                return terms
            sign = -1 if take()[0] == "minus" else 1

    try:
        result = BivarPoly(parse_expression())
    finally:
        del parse_expression  # the rules refer to each other through their cells
    if peek()[0] != "end":
        _error("unexpected trailing input", text, peek()[2])
    for (i, j), c in result.terms.items():
        if j > _MAX_L_EXPONENT:
            _error(f"expanded L-exponent is above {_MAX_L_EXPONENT}", text, tokens[0][2])
        if abs(c) >= _COEFF_BOUND:
            msg = (f"expanded coefficient of M^{_decimal(i)}*L^{j} "
                   f"is longer than {_MAX_DIGITS} digits")
            _error(msg, text, tokens[0][2])
        if i >= _COEFF_BOUND:
            _error(f"expanded M-exponent is longer than {_MAX_DIGITS} digits", text, tokens[0][2])
    return result


def hull_vertices(points):
    """Reference hull of a nonempty set of lattice points: the monotone
    chain's vertex list, counterclockwise from the lexicographically least
    point. A collinear set gives at most two vertices."""
    pts = sorted(set(points))
    if len(pts) == 1:
        return pts
    chains = []
    for seq in (pts, pts[::-1]):
        chain = []
        for p in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


def hull_has_vertical_edge(vertices):
    """Reference vertical-edge test: whether two cyclically consecutive
    hull vertices share their M-exponent (a segment has one edge, not two).
    None for a single vertex."""
    if len(vertices) < 2:
        return None
    pairs = zip(vertices, vertices[1:] + vertices[:1] if len(vertices) > 2 else vertices[1:])
    return any(a[0] == b[0] for a, b in pairs)


def analyze_by_passes(a, name="", claims_nontrivial_knot=False):
    """Reference apoly.structure.analyze: a pass over the terms for each
    fact, the Newton polygon's from the reference hull, the unit
    evaluations by unit_evaluation_by_division, the abelian multiplicity by trial
    division and the decomposition from the candidate scan."""
    nf = a.normalize()
    vertices = hull_vertices(nf.terms)
    deg_m = nf.deg_m()
    if deg_m == 0:
        cyc = _decompose(is_product_of_cyclotomics_by_scan(nf))
        verdict = UNKNOT_OK if nf == _L_MINUS_1 and not claims_nontrivial_knot else FAIL
        unit_plus = unit_minus = unit_evaluation_by_division(nf, 1)
    else:
        cyc, verdict = None, PASS
        unit_plus = unit_evaluation_by_division(nf, 1)
        unit_minus = unit_evaluation_by_division(nf, -1)
    return AnalysisReport(
        name=name,
        deg_m=deg_m,
        deg_l=nf.deg_l(),
        abelian_multiplicity=abelian_multiplicity_by_division(nf),
        unit_eval_plus=unit_plus,
        unit_eval_minus=unit_minus,
        vertical_edge=hull_has_vertical_edge(vertices),
        cyclotomic=cyc,
        verdict=verdict,
        degenerate=len(vertices) <= 2,
    )


def resultant_t(p, q):
    """Resultant of two TriPolyInT with respect to t, exact over Z[M, L].

    The Sylvester determinant with deg(p) rows of q's coefficients on top,
    so that Res_t(t - f, t - g) = g - f, computed division-free as the
    constant term of the Sylvester matrix's characteristic polynomial
    (berkowitz_charpoly).
    """
    if not p.coeffs or not q.coeffs:
        raise ValueError("resultant of the zero polynomial is undefined")
    m, n = p.degree_t(), q.degree_t()
    if m == 0 and n == 0:
        raise ValueError("both inputs have t-degree 0; nothing to eliminate")
    size = m + n
    rows = []
    for coeffs, count in ((q.coeffs, m), (p.coeffs, n)):
        for r in range(count):
            row = [BivarPoly()] * size
            row[r : r + len(coeffs)] = reversed(coeffs)
            rows.append(row)
    det = berkowitz_charpoly(rows)[size]
    return det if size % 2 == 0 else -det


def eval_complex(p, u, v):
    """Floating evaluation of a BivarPoly at (M, L) = (u, v), terms summed in
    descending graded-lex order so the result is reproducible."""
    acc = 0j
    for i, j in sorted(p.terms, key=lambda ij: (ij[0] + ij[1], ij[1]), reverse=True):
        acc += p.terms[(i, j)] * (u**i) * (v**j)
    return acc


def rel_residual(p, u, v):
    """|p(u, v)| relative to the term-magnitude scale at (u, v)."""
    scale = sum(abs(c) * abs(u) ** i * abs(v) ** j for (i, j), c in p.terms.items())
    return abs(eval_complex(p, u, v)) / scale


def substitute_surgery(p, n):
    """Restriction of p to the 1/n surgery line u = v^(-n), denominators
    cleared: v^(n*deg_M) * p(v^(-n), v) as an exact polynomial in v, a
    BivarPoly in its second variable alone."""
    if p.is_zero:
        raise ValueError("surgery substitution of the zero polynomial")
    if n < 1:
        raise ValueError("surgery denominator n must be >= 1")
    d = p.deg_m()
    out = {}
    for (i, j), c in p.terms.items():
        e = n * (d - i) + j
        out[e] = out.get(e, 0) + c
    return _in_l([out.get(e, 0) for e in range(max(out) + 1)])


def unit_root_points(order, n):
    """Reference points (u, v) on the line u = v^(-n) with v a primitive
    ``order``-th root of unity, as complex floats: v = exp(2 pi i k / order)
    for each k prime to order, and u = v^(-n) = exp(2 pi i r / order) with
    r = -k*n mod order."""
    return [
        (
            cmath.exp(2j * cmath.pi * ((-k * n) % order) / order),
            cmath.exp(2j * cmath.pi * k / order),
        )
        for k in range(order)
        if gcd(k, order) == 1
    ]


def symmetry_check(a):
    """Palindrome test for A(M,L) = sign * M^alpha L^beta A(1/M, 1/L).

    alpha and beta are forced to deg_M and deg_L; returns
    (holds, (alpha, beta, sign) or None).
    """
    alpha, beta = a.deg_m(), a.deg_l()
    for sign in (1, -1):
        if all(a.terms.get((alpha - i, beta - j)) == sign * c for (i, j), c in a.terms.items()):
            return True, (alpha, beta, sign)
    return False, None


def sylvester_resultant(pc, qc):
    """Brute-force resultant oracle: cofactor-expansion determinant of the
    Sylvester matrix over BivarPoly arithmetic (no division anywhere).

    Row convention matches resultant_t: deg(p) rows of q's coefficients
    first, then deg(q) rows of p's, so the linear case gives g - f.

    pc, qc: coefficient lists indexed by t-exponent (BivarPoly entries).
    """
    m = len(pc) - 1
    n = len(qc) - 1
    assert m >= 0 and n >= 0 and not pc[-1].is_zero and not qc[-1].is_zero
    size = m + n
    if size == 0:
        return BivarPoly.const(1)
    rows = []
    for r in range(m):
        row = [BivarPoly()] * size
        for k, c in enumerate(reversed(qc)):
            row[r + k] = c
        rows.append(row)
    for r in range(n):
        row = [BivarPoly()] * size
        for k, c in enumerate(reversed(pc)):
            row[r + k] = c
        rows.append(row)
    memo = {}

    def det(r, cols):
        if r == size:
            return BivarPoly.const(1)
        key = (r, cols)
        if key in memo:
            return memo[key]
        acc = BivarPoly()
        sign = 1
        for pos, c in enumerate(cols):
            entry = rows[r][c]
            if not entry.is_zero:
                sub = det(r + 1, cols[:pos] + cols[pos + 1 :])
                acc = acc + entry * sub * sign
            sign = -sign
        memo[key] = acc
        return acc

    return det(0, tuple(range(size)))


def argparse_oracle():
    """The argparse parser that apoly.cli used before its command table, as
    the reference for apoly.cli._parse_args: parse_args gives a Namespace
    with the command's name in `command` and one attribute per argument."""
    parser = argparse.ArgumentParser(
        prog="apoly",
        description="Exact A-polynomial computation and structural analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="compute the A-polynomial of a knot")
    group = c.add_mutually_exclusive_group(required=True)
    group.add_argument("--unknot", action="store_true")
    group.add_argument("--torus", nargs=2, type=int, metavar=("P", "Q"))
    group.add_argument("--two-bridge", nargs=2, type=int, metavar=("P", "Q"))
    c.add_argument("--json", action="store_true")

    a = sub.add_parser("analyze", help="structural analysis of a polynomial")
    a.add_argument("poly", nargs="?", default="")
    a.add_argument("--file", help="read the polynomial expression from a file")
    a.add_argument("--name", default="")
    a.add_argument("--nontrivial", action="store_true", help="assert the knot is nontrivial")
    a.add_argument("--json", action="store_true")

    v = sub.add_parser("verify-db", help="batch-verify a record file")
    v.add_argument("path")
    v.add_argument("--json", action="store_true")

    n = sub.add_parser("newton", help="Newton polygon, slopes, SVG rendering")
    n.add_argument("poly")
    n.add_argument("--svg", help="write the polygon as SVG to this path")
    n.add_argument("--title", default="")
    n.add_argument("--json", action="store_true")

    r = sub.add_parser("replay", help="replay the deg_M = 0 contradiction")
    r.add_argument("poly")
    r.add_argument("--nmax", type=int, default=5)
    r.add_argument("--json", action="store_true")
    return parser


def random_tripoly_coeffs(rng, t_deg, inner_deg, max_coeff=9):
    """Random nonzero BivarPoly coefficient list for resultant tests."""
    while True:
        coeffs = []
        for _ in range(t_deg + 1):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                i = rng.randint(0, inner_deg)
                j = rng.randint(0, inner_deg - i)
                terms[(i, j)] = rng.randint(-max_coeff, max_coeff)
            coeffs.append(BivarPoly(terms))
        if not coeffs[-1].is_zero:
            return coeffs


@pytest.fixture
def rng():
    return random.Random(20260823)
