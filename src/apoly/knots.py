"""A-polynomial generators: unknot, torus knots, two-bridge elimination.

Two-bridge A-polynomials are computed from the standard 2-generator
presentation (Riley, Quart. J. Math. 1984): the meridian generators are
sent to the one-parameter normal form

    a -> [[M, 1], [0, 1/M]],   b -> [[M, 0], [t, 1/M]],

the relator gives a single polynomial condition phi(M, t) = 0, and the
preferred longitude's (1,1) entry lambda(M, t) is its eigenvalue L. Words
are multiplied exactly over Laurent polynomials in M and t, dicts
{(M-exponent, t-exponent): c}, which carry phi and lambda to the end.
phi's leading t-coefficient is a unit monomial, so phi is monic over
Z[M^+-1] and t is eliminated by the characteristic polynomial det(L*I - X)
of the matrix X of multiplication by lambda in Z[M^+-1][t]/(phi), which
equals Res_t(phi, lambda - L) up to sign and a power of M (the tests'
resultant oracle). From there on every dense polynomial is a coefficient
list in M: the matrix entries, their characteristic polynomial
(``_charpoly``), the square-free step and the abelian factor test on
r(M, 1). The longitude word convention (including the meridian framing correction)
is pinned here and validated by the oracle tests; see the presentation
docstring.

The relator word w is the only word evaluated, to W, which serves both
phi and lambda. The longitude is w * wbar * a^k with k = -2e, and only its (1,1)
entry is read, so its tail a^k is never multiplied out: a is upper
triangular with (1,1) entry M, so a^k is upper triangular with (1,1)
entry M^k (for k < 0 too, as a^-1 = [[1/M, -1], [0, M]] is), and the
first column of a^k is (M^k, 0). Hence, with Wbar = eval(wbar),

    lambda = (W Wbar a^k)_11 = (W Wbar)_11 M^k
           = M^(-2e) (W_11 Wbar_11 + W_12 Wbar_21).

Wbar is read off W. With J = [[0, 1], [1, 0]], tau(X) = J X^T J at
M -> 1/M reverses products and fixes a and b, so tau(eval(v)) =
eval(reverse(v)) for every word v. The sign sequence is a palindrome
(for 0 < i < p, floor((p - i) qtilde/p) = qtilde - 1 - floor(i qtilde/p),
of the same parity, as qtilde is odd), and w alternates b, ..., a, so
reverse(w) = wbar: Wbar = tau(W) = [[W_22, W_12], [W_21, W_11]] at 1/M, and

    lambda = M^(-2e) (W_11 W_22(1/M, t) + W_12 W_21(1/M, t)).

The elimination accepts p <= 25 (MAX_TWO_BRIDGE_P) and raises ValueError
above it, before any word is evaluated.
"""

from __future__ import annotations

from itertools import zip_longest
from math import gcd

from ._record import Record
from .poly import _L_MINUS_1, BivarPoly, _add_terms, _horner, _mul_coeffs, _mul_terms, _trim

__all__ = [
    "GroupPresentation",
    "unknot_a",
    "torus_a",
    "two_bridge_presentation",
    "sl2_word_eval",
    "eliminate_two_bridge",
    "EliminationDegeneracyError",
]


class GroupPresentation(Record):
    """Two-generator presentation <a, b | a w = w b> with longitude word.

    Words are tuples of (generator, exponent) letters. The longitude is
    w * wbar * a^(-2e) where wbar swaps the generators of w and e is the
    total exponent sum of w, so the longitude has exponent sum zero in the
    abelianization.
    """

    __slots__ = ("w", "longitude", "sign_sequence")


def unknot_a() -> BivarPoly:
    """The unknot's A-polynomial, L - 1."""
    return _L_MINUS_1


def two_bridge_presentation(p: int, q: int) -> GroupPresentation:
    """Standard presentation of the two-bridge knot group for p/q.

    Sign sequence eps_i = (-1)^floor(i*qtilde/p) for i = 1..p-1, where
    qtilde is the odd representative of q modulo 2p in (-p, p); w
    alternates b, a, ... with those exponents. The relator is a w = w b.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("two-bridge p must be odd and >= 3")
    if not (0 < q < p):
        raise ValueError("two-bridge q must satisfy 0 < q < p")
    if gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")
    qt = q if q % 2 == 1 else q - p
    eps = tuple(-1 if (i * qt) // p % 2 else 1 for i in range(1, p))
    w = tuple(("b" if i % 2 == 0 else "a", e) for i, e in enumerate(eps))
    wbar = tuple(("a" if g == "b" else "b", e) for g, e in w)
    e_sum = sum(eps)
    longitude = w + wbar + ((("a", -2 * e_sum),) if e_sum else ())
    return GroupPresentation(w=w, longitude=longitude, sign_sequence=eps)


def _mat_mul(x, y):
    return tuple(
        tuple(
            _add_terms(_mul_terms(x[r][0], y[0][c]), _mul_terms(x[r][1], y[1][c]))
            for c in range(2)
        )
        for r in range(2)
    )


_IDENTITY = (({(0, 0): 1}, {}), ({}, {(0, 0): 1}))
# Riley's normal form: a -> [[M, 1], [0, 1/M]], b -> [[M, 0], [t, 1/M]]
_NORMAL_FORM = {
    "a": (({(1, 0): 1}, {(0, 0): 1}), ({}, {(-1, 0): 1})),
    "b": (({(1, 0): 1}, {}), ({(0, 1): 1}, {(-1, 0): 1})),
}


def sl2_word_eval(word, assignments):
    """Evaluate a word in 2x2 matrices over Laurent polynomials in M and t.

    A matrix is a pair of rows of entries; an entry maps (M-exponent,
    t-exponent) pairs to nonzero integer coefficients, M-exponents may be
    negative. Inverses use the determinant-1 adjugate rule, so every
    assignment must have determinant 1.
    """
    result = _IDENTITY
    for g, e in word:
        if g not in assignments:
            raise KeyError(f"no matrix assigned to generator {g!r}")
        x = assignments[g]
        if e < 0:
            (x00, x01), (x10, x11) = x
            x = ((x11, _add_terms({}, x01, -1)), (_add_terms({}, x10, -1), x00))
        for _ in range(abs(e)):
            result = _mat_mul(result, x)
    return result


class EliminationDegeneracyError(RuntimeError):
    """The elimination is degenerate: the representation condition's
    leading t-coefficient is not a unit monomial in M, or the square-free
    step certified no gcd."""


def _riley_phi(w):
    """phi, the (1,2) entry of a W - W b for the relator matrix W = eval(w).

    The diagonal entries of a W - W b vanish identically and the
    off-diagonal entries agree up to a factor of -t, so the (1,2) entry is
    the single independent condition. With a and b in Riley's normal form,
    (a W)_12 = M W_12 + W_22 and (W b)_12 = W_12 / M, so
    phi = (M - 1/M) W_12 + W_22.
    """
    return _add_terms(_mul_terms({(1, 0): 1, (-1, 0): -1}, w[0][1]), w[1][1])


def _longitude_entry(pres, w):
    """lambda, the (1,1) entry of the longitude w wbar a^(-2e), from the
    relator matrix W = eval(w) alone: eval(wbar) = eval(reverse(w)) is W
    transposed along its antidiagonal at 1/M, so lambda is
    M^(-2e) (W_11 W_22(1/M, t) + W_12 W_21(1/M, t)). The module docstring
    has the proof."""
    (w11, w12), (w21, w22) = w
    wbar11 = {(-i, k): c for (i, k), c in w22.items()}
    wbar21 = {(-i, k): c for (i, k), c in w21.items()}
    shift = -2 * sum(pres.sign_sequence)
    entry = _add_terms(_mul_terms(w11, wbar11), _mul_terms(w12, wbar21))
    return {(i + shift, k): c for (i, k), c in entry.items()}


def _reduce_mod(f, monic, n):
    """f modulo a polynomial that is monic of degree n in t (Laurent dicts)."""
    f = dict(f)  # reduced in place; the caller keeps its f
    while True:
        k = max((kk for _, kk in f), default=-1)
        if k < n:
            return f
        top = {(i, k - n): c for (i, kk), c in f.items() if kk == k}
        _add_terms(f, _mul_terms(top, monic), -1)


def _multiplication_matrix(phi, lam):
    """(M^s * X, s): X is the multiplication by lam in Z[M^+-1][t]/(phi)
    on the basis 1, t, ..., t^(n-1), n = deg_t phi, as rows of coefficient
    lists in M, and s >= 0 the least shift that makes every entry a
    polynomial.

    Raises EliminationDegeneracyError unless phi's leading t-coefficient
    is a unit monomial.
    """
    n = max(k for _, k in phi)
    lead = {i: c for (i, k), c in phi.items() if k == n}
    if len(lead) != 1 or abs(next(iter(lead.values()))) != 1:
        shown = " + ".join(f"{c}*M^{i}" for i, c in sorted(lead.items(), reverse=True))
        raise EliminationDegeneracyError(
            f"leading t-coefficient {shown} of the representation "
            "condition is not a unit monomial"
        )
    ((e, u),) = lead.items()
    monic = {(i - e, k): u * c for (i, k), c in phi.items()}
    # column j of X is t^j * lam reduced mod phi
    cols = [_reduce_mod(lam, monic, n)]
    for _ in range(n - 1):
        shifted = {(i, k + 1): c for (i, k), c in cols[-1].items()}
        cols.append(_reduce_mod(shifted, monic, n))
    s = max(0, -min((i for col in cols for i, _ in col), default=0))
    matrix = [[[] for _ in range(n)] for _ in range(n)]
    for j, col in enumerate(cols):
        for (i, k), c in col.items():
            entry = matrix[k][j]
            entry.extend([0] * (i + s + 1 - len(entry)))
            entry[i + s] = c
    return matrix, s


def _longitude_charpoly(phi, lam):
    """M^(s*n) * det(L*I - X) for the multiplication matrix M^s * X of
    lam modulo phi (see _multiplication_matrix), as its L-coefficients,
    lowest L-degree first, each a coefficient list in M ([] for zero).

    Up to sign and a power of M this is Res_t(phi, lam - L), because the
    leading coefficient of phi is a unit monomial.
    """
    matrix, s = _multiplication_matrix(phi, lam)
    return [[0] * (s * j) + c if c else [] for j, c in enumerate(reversed(_charpoly(matrix)))]


def _dot_coeffs(xs, ys):
    """Sum of the products of paired coefficient lists, in one list."""
    out = []
    for x, y in zip(xs, ys):
        _mul_coeffs(x, y, out)
    return out


def _charpoly(a):
    """Coefficients [1, c_1, ..., c_n] of det(x*I - A), highest degree
    first, as trimmed coefficient lists, for a nonempty square list a of
    rows of coefficient lists: Berkowitz's division-free algorithm (Inf.
    Proc. Letters 18, 1984), where the characteristic polynomial of each
    leading principal submatrix is a lower-triangular Toeplitz matrix times
    that of the previous one. Each inner product adds into one list, and
    skips the zeros of both factors, such as the low ones of the M^s of
    _multiplication_matrix."""
    poly = [[1], [-c for c in a[0][0]]]
    for r in range(1, len(a)):
        row = a[r][:r]
        col = [a[i][r] for i in range(r)]
        # first Toeplitz column: 1, -a_rr, -R C, -R A C, ..., -R A^(r-1) C
        toeplitz = [[1], [-c for c in a[r][r]]]
        for k in range(r):
            toeplitz.append([-c for c in _dot_coeffs(row, col)])
            if k < r - 1:
                col = [_dot_coeffs(a[i][:r], col) for i in range(r)]
        poly = [_dot_coeffs(toeplitz[i::-1], poly) for i in range(r + 2)]
    return [_trim(c) for c in poly]


# Polynomials in L are coefficient lists, lowest degree first, with no
# trailing zero: over Z of ints, over Z[M] of such lists in M. A zero
# element, 0 or [], is falsy in both rings.


def _remainder_gcd(f, g):
    """Primitive gcd, leading coefficient positive, of the nonzero
    polynomials f and g over Z, by the primitive remainder sequence."""
    a, b = (f, g) if len(f) >= len(g) else (g, f)
    while b:
        c = gcd(*b) if b[-1] > 0 else -gcd(*b)
        b = [x // c for x in b]
        lb, n = b[-1], len(b) - 1
        while len(a) > n:
            # a * lb - la * b * L^k cancels a's leading term
            la, k = a[-1], len(a) - 1 - n
            a = [x * lb for x in a]
            for i, x in enumerate(b):
                a[k + i] -= la * x
            _trim(a)
        a, b = b, a
    return a


def _divide(f, d):
    """f / d over Z[M] when d's leading coefficient is +-M^j and d divides
    f exactly, else None."""
    *low, u = d[-1]
    if any(low) or abs(u) != 1:
        return None
    j, n = len(low), len(d) - 1
    rem = [list(c) for c in f]
    quot = [[] for _ in range(len(f) - n)]
    minus_d = [[-x for x in c] for c in d[:n]]
    for k in range(len(quot) - 1, -1, -1):
        c = _trim(rem[k + n])
        if any(c[:j]):
            return None
        q = quot[k] = [u * x for x in c[j:]]
        for i, di in enumerate(minus_d):  # rem[k + n] cancels
            _mul_coeffs(q, di, rem[k + i])
    return None if any(map(any, rem[:n])) else quot


def _squarefree_bivar(r):
    """Product of the distinct factors of positive L-degree of r, up to
    M-power and sign, when r's leading L-coefficient is +-M^j; r and the
    result are polynomials in L over Z[M], lists of L-coefficients that
    are coefficient lists in M. r is returned when it is square-free.

    Char, Geddes and Gonnet's heuristic gcd (GCDHEU, J. Symbolic Comput.
    7, 1989): at M = x, with x > 2 max|coeff r|, the leading coefficient
    does not vanish, so G = gcd(r, dr/dL) maps to a divisor of
    h = gcd(r(x, L), dr/dL(x, L)) over Z. If h is constant, so is G.
    Otherwise the balanced base-x digits of h's coefficients, made
    primitive, give a candidate g, kept when it divides both r and dr/dL
    with a leading coefficient +-M^j: then g divides G, has h's L-degree,
    which is at least G's, and so equals G up to a power of M. A candidate
    that fails is retried at a larger x.
    """
    dr = [[j * a for a in c] for j, c in enumerate(r)][1:]
    x = 2 * max(abs(c) for col in r for c in col) + 2
    for _ in range(6):
        f = [_horner(col, x) for col in r]
        df = [j * v for j, v in enumerate(f)][1:]
        h = _remainder_gcd(f, df)
        if len(h) == 1:
            return r
        g, scale = [], gcd(*f, *df)
        for c in h:  # balanced base-x digits of c * scale
            c, digits = c * scale, []
            while c:
                digits.append((c + x // 2) % x - x // 2)
                c = (c - digits[-1]) // x
            g.append(digits)
        content = gcd(*(d for c in g for d in c))
        g = [[d // content for d in c] for c in g]
        quotient = _divide(r, g)
        if quotient is not None and _divide(dr, g) is not None:
            return quotient
        x = x * 73794 // 27011  # the paper's step, about 1 + sqrt(3)
    raise EliminationDegeneracyError(
        "the square-free step found no gcd of the eliminant and its L-derivative "
        "that divides both"
    )


# Largest p accepted by the elimination. The slowest knots within it, 25/7
# and the other p = 25 knots, spend their time mostly in _charpoly:
# `compute --two-bridge 25 7 --json` took 1.09-1.92 s end to end (Python
# 3.11, 2 vCPUs, over a host whose speed varied by 1.8x).
MAX_TWO_BRIDGE_P = 25


def eliminate_two_bridge(p: int, q: int) -> BivarPoly:
    """A-polynomial of the two-bridge knot p/q by elimination of t.

    Eliminates the representation parameter t from the relator condition
    and the longitude eigenvalue relation, takes the square-free part,
    guarantees one abelian (L-1) factor, and returns A-normal form.
    Raises ValueError for p above MAX_TWO_BRIDGE_P.
    """
    pres = two_bridge_presentation(p, q)
    if p > MAX_TWO_BRIDGE_P:
        raise ValueError(
            f"two-bridge p = {p} is above the largest accepted, {MAX_TWO_BRIDGE_P}"
        )
    w = sl2_word_eval(pres.w, _NORMAL_FORM)
    lam = _longitude_entry(pres, w)
    r = _squarefree_bivar(_longitude_charpoly(_riley_phi(w), lam))
    if any(map(sum, zip_longest(*r, fillvalue=0))):
        # r(M, 1) != 0: times L - 1, which keeps the normal form's content,
        # M- and L-shifts and sign; the zeros it leaves are dropped below
        r = [[a - b for a, b in zip_longest(prev, c, fillvalue=0)]
             for prev, c in zip([[]] + r, r + [[]])]
    return BivarPoly._adopt(
        {(i, j): c for j in range(len(r) - 1, -1, -1) for i, c in enumerate(r[j]) if c}
    ).normalize()


def torus_a(p: int, q: int) -> BivarPoly:
    """Closed-form torus knot A-polynomial.

    Irreducible representations send the central fiber to +/-I and satisfy
    v = +/- u^(-pq) on the boundary; the minus sign always occurs, the plus
    sign only when both parameters exceed 2. Negative parameters (mirror
    images) invert the longitude eigenvalue.
    """
    if abs(p) < 2 or abs(q) < 2:
        raise ValueError("torus knot parameters need |p| >= 2 and |q| >= 2")
    if gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")
    mirror = (p * q) < 0
    a, b = abs(p), abs(q)
    pq = a * b
    minus = BivarPoly({(pq, 1): 1, (0, 0): 1})  # L*M^pq + 1
    if a == 2 or b == 2:
        out = _L_MINUS_1 * minus
    else:
        plus = BivarPoly({(pq, 1): 1, (0, 0): -1})  # L*M^pq - 1
        out = _L_MINUS_1 * minus * plus
    if mirror:
        out = out.invert_l()
    return out.normalize()
