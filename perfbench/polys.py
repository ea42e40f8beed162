"""Polynomials in M and L as term dicts {(i, j): c}, meaning c * M^i * L^j.

The benchmark builds its inputs and checks the program's outputs with
these helpers and with sympy, never with apoly's own arithmetic, so a
fault in apoly cannot hide itself from the checks.
"""

from __future__ import annotations

from math import gcd

import sympy as sp

M, L = sp.symbols("M L")

L_MINUS_1 = {(0, 1): 1, (0, 0): -1}


def mul(a: dict, b: dict) -> dict:
    out = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return {ij: c for ij, c in out.items() if c}


def from_univar_l(coeffs) -> dict:
    """Term dict of sum(coeffs[j] * L^j)."""
    return {(0, j): int(c) for j, c in enumerate(coeffs) if c}


def fmt(terms: dict) -> str:
    """Text in apoly's input grammar: terms joined by ' + ' / ' - '."""
    parts = []
    for (i, j), c in sorted(terms.items(), reverse=True):
        mono = "*".join(
            f for f in (f"M^{i}" if i else "", f"L^{j}" if j else "") if f
        )
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return text + "".join(f" {s} {b}" for s, b in parts[1:])


def parse(text: str) -> dict:
    """Term dict of an expression printed by apoly, parsed by sympy."""
    expr = sp.sympify(text.replace("^", "**"), locals={"M": M, "L": L})
    return {(int(i), int(j)): int(c) for (i, j), c in sp.Poly(expr, M, L).as_dict().items()}


def deg_m(terms: dict) -> int:
    return max(i for i, _ in terms) - min(i for i, _ in terms)


def normalize(terms: dict) -> dict:
    """A-normal form as apoly's README defines it: no monomial factor,
    content 1, and a positive coefficient on the leading term in graded-lex
    order with L > M. Equal results mean equal up to a unit."""
    i0 = min(i for i, _ in terms)
    j0 = min(j for _, j in terms)
    g = 0
    for c in terms.values():
        g = gcd(g, c)
    lead = max(terms, key=lambda ij: (ij[0] + ij[1], ij[1]))
    g = g if terms[lead] > 0 else -g
    return {(i - i0, j - j0): c // g for (i, j), c in terms.items()}


def invert_l(terms: dict) -> dict:
    """L -> 1/L with the denominator cleared."""
    top = max(j for _, j in terms)
    return {(i, top - j): c for (i, j), c in terms.items()}


def is_palindromic(terms: dict) -> bool:
    """A(M, L) = +/- M^a L^b A(1/M, 1/L) for some a, b."""
    a = max(i for i, _ in terms) + min(i for i, _ in terms)
    b = max(j for _, j in terms) + min(j for _, j in terms)
    for sign in (1, -1):
        if all(terms.get((a - i, b - j)) == sign * c for (i, j), c in terms.items()):
            return True
    return False


def l_minus_1_multiplicity_is_one(terms: dict) -> bool:
    """(L - 1) divides A exactly once: A(M, 1) = 0 but dA/dL(M, 1) != 0."""
    at_one = {}
    slope = {}
    for (i, j), c in terms.items():
        at_one[i] = at_one.get(i, 0) + c
        slope[i] = slope.get(i, 0) + j * c
    return not any(at_one.values()) and any(slope.values())


def eval_m(terms: dict, m: int) -> tuple:
    """A(m, L) as sorted (j, c) pairs, c != 0."""
    coeffs = {}
    for (i, j), c in terms.items():
        coeffs[j] = coeffs.get(j, 0) + c * m**i
    return tuple(sorted((j, c) for j, c in coeffs.items() if c))


def unit_eval_form(coeffs: tuple):
    """Exponents of f(L) = sign * L^a (L-1)^b (L+1)^c from a sympy
    factorisation of f = sum c * L^j over ``coeffs``, or None when f has no
    such form."""
    if not coeffs:
        return None
    content, factors = sp.factor_list(sum(c * L**j for j, c in coeffs), L)
    if content not in (1, -1):
        return None
    exps = {"a": 0, "b": 0, "c": 0}
    names = {L: "a", L - 1: "b", L + 1: "c"}
    for fac, e in factors:
        if fac not in names:
            return None
        exps[names[fac]] += e
    return {"sign": int(content), **exps}
