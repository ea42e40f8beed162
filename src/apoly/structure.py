"""Structural analysis of A-polynomials.

Covers the abelian (L-1) factor, whose multiplicity is counted by
synthetic division, unit evaluations at M = +1/-1 against the
+/- L^a (L-1)^b (L+1)^c form, monicity at the units, and the M-degree
verdict. ``analyze`` reduces its input to A-normal form once, splits that
form into its M-slices {i: {j: c}} in one walk over the terms, and reads
every check off the slices: both degrees, both unit evaluations, the
abelian multiplicity and the two Newton-polygon facts. Those need no
hull: the slices are the columns of the support (its L-exponents at each
M-exponent), and the hull of a support is the hull of each column's
lowest and highest point. At deg_M = 0 it adds the degree-zero
decomposition of ``apoly.recognition``, which it imports only then.
"""

from __future__ import annotations

from itertools import accumulate

from ._record import _JSON_FLAG, Record, _json_str
from .poly import _L_MINUS_1, BivarPoly, _in_l, _trim, format_poly

__all__ = [
    "UnitEvaluationForm",
    "UnitEvalFailure",
    "check_unit_evaluation",
    "PASS",
    "FAIL",
    "UNKNOT_OK",
    "AnalysisReport",
    "analyze",
]


class UnitEvaluationForm(Record):
    """Exponents of +/- L^a (L-1)^b (L+1)^c."""

    __slots__ = ("sign", "a", "b", "c")

    # L, L-1 and L+1 are monic, so the evaluation's leading coefficient is sign
    monic = True

    def as_dict(self):
        return {"sign": self.sign, "a": self.a, "b": self.b, "c": self.c}

    def json_text(self, indent):
        i = "\n" + indent + '  "'
        return f'{{{i}sign": {self.sign},{i}a": {self.a},{i}b": {self.b},{i}c": {self.c}\n{indent}}}'


class UnitEvalFailure(Record):
    __slots__ = ("residual",)

    @property
    def monic(self):
        # the evaluation's leading coefficient is the residual's; None if it is 0
        r = self.residual
        return None if r.is_zero else abs(r.terms[0, r.deg_l()]) == 1

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
    plus, minus = _unit_evaluations(_m_slices(a.terms), a.deg_l())
    return _unit_form(plus if m == 1 else minus)


def _strip_units(coeffs):
    """(a, b, c, r) with coeffs = L^a (L-1)^b (L+1)^c r and r prime to L,
    L - 1 and L + 1, for the nonzero ascending coefficient list coeffs."""
    a = next(k for k, c in enumerate(coeffs) if c)
    r, b = _strip_root(coeffs[a:], 1)  # L - 1
    r, c = _strip_root(r, -1)  # L + 1
    return a, b, c, r


def _unit_form(coeffs, parts=None):
    """check_unit_evaluation of the evaluation A(m, L) with ascending
    coefficient list coeffs, no trailing zero, from its _strip_units parts
    when they are given."""
    if not coeffs:
        return UnitEvalFailure(BivarPoly())
    a, b, c, r = parts or _strip_units(coeffs)
    if len(r) != 1 or abs(r[0]) != 1:
        return UnitEvalFailure(_in_l(r))
    return UnitEvaluationForm(r[0], a, b, c)


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
    """A(1, L) and A(-1, L) from the M-slices of A, as ascending
    coefficient lists with no trailing zero: the sum of the slices, and
    that sum less twice the odd ones. Without an odd slice the two are
    equal, and the one list is returned twice."""
    plus = [0] * (deg_l + 1)
    odd = []
    for i, s in slices.items():
        for j, c in s.items():
            plus[j] += c
        if i & 1:
            odd.append(s)
    if not odd:
        return _trim(plus), plus
    minus = plus[:]
    for s in odd:
        for j, c in s.items():
            minus[j] -= 2 * c
    return _trim(plus), _trim(minus)


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


class AnalysisReport(Record):
    """All structural checks on one polynomial, with its text and --json.

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
    _defaults = {"degenerate": False}

    def as_dict(self):
        cyc = self.cyclotomic
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
            "cyclotomic": None if cyc is None else cyc.as_dict(),
            "verdict": self.verdict,
        }

    def _lines(self):
        """A "key: value" line for each key of as_dict but the name, the
        value as str() writes it."""
        plus, minus, cyc = self.unit_eval_plus, self.unit_eval_minus, self.cyclotomic
        return (
            f"deg_M: {self.deg_m}", f"deg_L: {self.deg_l}",
            f"abelian_multiplicity: {self.abelian_multiplicity}",
            f"unit_eval_plus: {plus.as_dict()}", f"unit_eval_minus: {minus.as_dict()}",
            f"monic_plus: {plus.monic}", f"monic_minus: {minus.monic}",
            f"vertical_edge: {self.vertical_edge}",
            f"cyclotomic: {None if cyc is None else cyc.as_dict()}", f"verdict: {self.verdict}",
        )

    def to_text(self):
        """analyze's text: the name's line, then the other keys' lines."""
        return f"name: {self.name}\n" + "\n".join(self._lines())

    def compute_text(self, polynomial):
        """compute's text: the polynomial, then the lines of to_text but the
        name's, indented by two."""
        return format_poly(polynomial) + "".join("\n  " + line for line in self._lines())

    def compute_json_text(self, polynomial):
        """compute's --json: an object of the name, the polynomial and the
        report."""
        return (f'{{\n  "name": {_json_str(self.name)},\n  "polynomial": '
                f'{_json_str(format_poly(polynomial))},\n  "report": {self.json_text("  ")}\n}}')

    def json_text(self, indent=""):
        """The text of json.dumps(self.as_dict(), indent=2), each line after
        the first starting with indent; a shared unit form is written once."""
        inner, cyc = indent + "  ", self.cyclotomic
        plus, minus = self.unit_eval_plus, self.unit_eval_minus
        plus_text = plus.json_text(inner)
        minus_text = plus_text if minus is plus else minus.json_text(inner)
        cyc_text = "null" if cyc is None else cyc.json_text(inner)
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
        from .recognition import _decompose, _recognize

        # without M, A(1, L) = A(-1, L) is the polynomial itself: L - 1 and
        # L + 1 are divided out of it once, for its unit form, its abelian
        # multiplicity (that of L - 1) and its recognition
        parts = _strip_units(plus)
        unit_plus = unit_minus = _unit_form(plus, parts)
        abelian = parts[1]
        cyc = _decompose(_recognize(parts))
        verdict = UNKNOT_OK if nf == _L_MINUS_1 and not claims_nontrivial_knot else FAIL
    else:
        unit_plus = _unit_form(plus)
        unit_minus = unit_plus if minus is plus else _unit_form(minus)
        abelian = _abelian_multiplicity(slices)
        cyc, verdict = None, PASS
    return AnalysisReport(name, deg_m, deg_l, abelian, unit_plus, unit_minus,
                          _vertical_edge(slices), cyc, verdict, _collinear(slices))
