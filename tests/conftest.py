import random

import pytest
from hypothesis import strategies as st

from apoly.poly import BivarPoly, UnivarPoly


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
def univar_polys(draw, max_deg=6, max_coeff=9, allow_zero=True):
    n = draw(st.integers(min_value=0 if allow_zero else 1, max_value=max_deg + 1))
    coeffs = [draw(st.integers(min_value=-max_coeff, max_value=max_coeff)) for _ in range(n)]
    result = UnivarPoly(coeffs)
    if not allow_zero and result.is_zero:
        result = UnivarPoly([1])
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
