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
resultant oracle). The longitude word convention (including the meridian
framing correction) is pinned here and validated by the oracle tests; see
the presentation docstring.
"""

from __future__ import annotations

from math import gcd

from ._record import Record
from .poly import _L_MINUS_1, BivarPoly, UnivarPoly, _add_terms, _mul_terms, charpoly, gcd_univar

__all__ = [
    "TorusKnot",
    "TwoBridgeKnot",
    "GroupPresentation",
    "unknot_a",
    "torus_a",
    "two_bridge_presentation",
    "sl2_word_eval",
    "eliminate_two_bridge",
    "EliminationDegeneracyError",
]


class TorusKnot(Record):
    __slots__ = ("p", "q")

    def __init__(self, p, q):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if abs(p) < 2 or abs(q) < 2:
            raise ValueError("torus knot parameters need |p| >= 2 and |q| >= 2")
        if gcd(p, q) != 1:
            raise ValueError("p and q must be coprime")


class TwoBridgeKnot(Record):
    __slots__ = ("p", "q")

    def __init__(self, p, q):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if p < 3 or p % 2 == 0:
            raise ValueError("two-bridge p must be odd and >= 3")
        if not (0 < q < p):
            raise ValueError("two-bridge q must satisfy 0 < q < p")
        if gcd(p, q) != 1:
            raise ValueError("p and q must be coprime")


class GroupPresentation(Record):
    """Two-generator presentation <a, b | a w = w b> with longitude word.

    Words are tuples of (generator, exponent) letters. The longitude is
    w * wbar * a^(-2e) where wbar swaps the generators of w and e is the
    total exponent sum of w, so the longitude has exponent sum zero in the
    abelianization.
    """

    __slots__ = ("w", "longitude", "sign_sequence")

    def __init__(self, w, longitude, sign_sequence):
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "longitude", longitude)
        object.__setattr__(self, "sign_sequence", sign_sequence)


def unknot_a() -> BivarPoly:
    """The unknot's A-polynomial, L - 1."""
    return _L_MINUS_1


def two_bridge_presentation(p: int, q: int) -> GroupPresentation:
    """Standard presentation of the two-bridge knot group for p/q.

    Sign sequence eps_i = (-1)^floor(i*qtilde/p) for i = 1..p-1, where
    qtilde is the odd representative of q modulo 2p in (-p, p); w
    alternates b, a, ... with those exponents. The relator is a w = w b.
    """
    TwoBridgeKnot(p, q)  # validate
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
    leading t-coefficient is not a unit monomial in M."""


def riley_polynomial(p: int, q: int):
    """The representation condition phi(M, t) = 0, as a Laurent dict
    {(M-exponent, t-exponent): c}, and the presentation.

    Evaluates a w - w b on the normal-form matrices; the diagonal entries
    vanish identically and the off-diagonal entries agree up to a factor
    of -t, so the (1,2) entry is the single independent condition.
    """
    pres = two_bridge_presentation(p, q)
    a, b = _NORMAL_FORM["a"], _NORMAL_FORM["b"]
    w = sl2_word_eval(pres.w, _NORMAL_FORM)
    left, right = _mat_mul(a, w), _mat_mul(w, b)
    return _add_terms(left[0][1], right[0][1], -1), pres


def _reduce_mod(f, monic, n):
    """f modulo a polynomial that is monic of degree n in t (Laurent dicts)."""
    f = dict(f)  # reduced in place; the caller keeps its f
    while True:
        k = max((kk for _, kk in f), default=-1)
        if k < n:
            return f
        top = {(i, k - n): c for (i, kk), c in f.items() if kk == k}
        _add_terms(f, _mul_terms(top, monic), -1)


def _longitude_charpoly(phi, lam) -> BivarPoly:
    """M^(s*n) * det(L*I - X), X the multiplication by lam in
    Z[M^+-1][t]/(phi) on the basis 1, t, ..., t^(n-1), n = deg_t phi.

    The shift s is the least that makes every entry of M^s * X a
    polynomial. Up to sign and a power of M this is Res_t(phi, lam - L),
    because the leading coefficient of phi is a unit monomial.
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
    entries = [[{} for _ in range(n)] for _ in range(n)]
    for j, col in enumerate(cols):
        for (i, k), c in col.items():
            entries[k][j][i + s] = c
    matrix = [
        [UnivarPoly([d.get(i, 0) for i in range(max(d, default=-1) + 1)]) for d in row]
        for row in entries
    ]
    terms = {}
    for k, coeff in enumerate(charpoly(matrix)):
        for i, c in enumerate(coeff.coeffs):
            if c:
                terms[(i + s * (n - k), n - k)] = c
    return BivarPoly(terms)


def _l_lead(f: BivarPoly) -> BivarPoly:
    d = f.deg_l()
    return BivarPoly({(i, 0): c for (i, j), c in f.terms.items() if j == d})


def _l_primitive(f: BivarPoly) -> BivarPoly:
    """f divided by the gcd over Z[M] of its L-coefficients."""
    content = None
    for u in f._l_coeffs().values():
        content = u if content is None else gcd_univar(content, u)
    return f.try_divide(BivarPoly.from_univar_m(content))


def _gcd_l(f: BivarPoly, g: BivarPoly) -> BivarPoly:
    """Primitive gcd of f and g in Z[M][L], by the primitive remainder
    sequence in L."""
    a, b = _l_primitive(f), _l_primitive(g)
    if a.deg_l() < b.deg_l():
        a, b = b, a
    while not b.is_zero:
        lb, db = _l_lead(b), b.deg_l()
        while not a.is_zero and a.deg_l() >= db:
            a = a * lb - _l_lead(a) * b * BivarPoly.term(1, 0, a.deg_l() - db)
        a, b = b, (a if a.is_zero else _l_primitive(a))
    return a


def _squarefree_bivar(r: BivarPoly) -> BivarPoly:
    """Product of the distinct factors of positive L-degree of r, up to
    M-power and integer content, when r's leading L-coefficient is a
    monomial in M.

    Such a monomial does not vanish at M = 3, so a square factor of r
    stays a square factor of r(3, L) of the same L-degree: if r(3, L) is
    square-free, so is r. Otherwise r is divided by its gcd with dr/dL.
    """
    f = r.eval_m(3)
    if gcd_univar(f, f.derivative()).degree() == 0:
        return r
    r = _l_primitive(r)
    dr = BivarPoly({(i, j - 1): j * c for (i, j), c in r.terms.items() if j})
    return r.try_divide(_gcd_l(r, dr))


def eliminate_two_bridge(p: int, q: int) -> BivarPoly:
    """A-polynomial of the two-bridge knot p/q by elimination of t.

    Eliminates the representation parameter t from the relator condition
    and the longitude eigenvalue relation, takes the square-free part,
    guarantees one abelian (L-1) factor, and returns A-normal form.
    """
    phi, pres = riley_polynomial(p, q)
    lam = sl2_word_eval(pres.longitude, _NORMAL_FORM)[0][0]
    nf = _squarefree_bivar(_longitude_charpoly(phi, lam)).normalize()
    if not nf.taylor_at_l1(0).is_zero:  # A(M, 1) != 0: no (L-1) factor
        nf = nf * _L_MINUS_1  # a product of A-normal forms is A-normal
    return nf


def torus_a(p: int, q: int) -> BivarPoly:
    """Closed-form torus knot A-polynomial.

    Irreducible representations send the central fiber to +/-I and satisfy
    v = +/- u^(-pq) on the boundary; the minus sign always occurs, the plus
    sign only when both parameters exceed 2. Negative parameters (mirror
    images) invert the longitude eigenvalue.
    """
    TorusKnot(p, q)  # validate
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
