import cmath
import random
from math import gcd

import pytest
from hypothesis import strategies as st

from apoly.poly import BivarPoly, UnivarPoly, charpoly

M = BivarPoly({(1, 0): 1})
L = BivarPoly({(0, 1): 1})

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


_division_cache = {1: UnivarPoly([-1, 1])}


def cyclotomic_by_division(d):
    """Reference Phi_d: x^d - 1 divided exactly by Phi_e for every proper
    divisor e of d."""
    if d not in _division_cache:
        f = UnivarPoly([-1] + [0] * (d - 1) + [1])
        for e in range(1, d):
            if d % e == 0:
                f = f.try_divide(cyclotomic_by_division(e))
        _division_cache[d] = f
    return _division_cache[d]


def reconstruct_profile(prof):
    """The polynomial +/- prod Phi_d^m that a CyclotomicProfile describes."""
    f = UnivarPoly([prof.sign])
    for d, m in prof.factors:
        f = f * cyclotomic_by_division(d) ** m
    return f


def reconstruct_unit_form(form):
    """The polynomial +/- L^a (L-1)^b (L+1)^c of a UnitEvaluationForm."""
    f = UnivarPoly([form.sign]).shift(form.a)
    return f * UnivarPoly([-1, 1]) ** form.b * UnivarPoly([1, 1]) ** form.c


_L_MINUS_1 = BivarPoly({(0, 1): 1, (0, 0): -1})


def abelian_multiplicity_by_division(a):
    """Reference multiplicity of (L-1) in a nonzero a: exact trial division
    by L - 1 in Z[M][L] until it fails."""
    mult = 0
    while True:
        q = a.try_divide(_L_MINUS_1)
        if q is None:
            return mult
        a, mult = q, mult + 1


def divide_out_by_division(f, g):
    """Reference (f / g^k, k) for the largest k with g^k dividing the nonzero
    UnivarPoly f: exact trial division until it fails."""
    count = 0
    while True:
        q = f.try_divide(g)
        if q is None:
            return f, count
        f, count = q, count + 1


def unit_evaluation_by_division(a, m):
    """Reference (sign, a, b, c) of +/- L^a (L-1)^b (L+1)^c for A(m, L), or
    ("failure", residual): L, then L - 1, then L + 1 divided out by trial
    division."""
    f = a.eval_m(m)
    if f.is_zero:
        return "failure", f
    av = next(k for k, c in enumerate(f.coeffs) if c)
    f, b = divide_out_by_division(UnivarPoly(f.coeffs[av:]), UnivarPoly([-1, 1]))
    f, c = divide_out_by_division(f, UnivarPoly([1, 1]))
    if f.degree() != 0 or abs(f.coeffs[0]) != 1:
        return "failure", f
    return f.coeffs[0], av, b, c


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


def resultant_t(p, q):
    """Resultant of two TriPolyInT with respect to t, exact over Z[M, L].

    The Sylvester determinant with deg(p) rows of q's coefficients on top,
    so that Res_t(t - f, t - g) = g - f, computed division-free as the
    constant term of the Sylvester matrix's characteristic polynomial.
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
    det = charpoly(rows)[size]
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
    cleared: v^(n*deg_M) * p(v^(-n), v) as an exact UnivarPoly in v."""
    if p.is_zero:
        raise ValueError("surgery substitution of the zero polynomial")
    if n < 1:
        raise ValueError("surgery denominator n must be >= 1")
    d = p.deg_m()
    out = {}
    for (i, j), c in p.terms.items():
        e = n * (d - i) + j
        out[e] = out.get(e, 0) + c
    return UnivarPoly([out.get(e, 0) for e in range(max(out) + 1)])


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
