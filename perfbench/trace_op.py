"""Run one apoly CLI invocation with spans around each layer's public functions.

Usage: python trace_op.py SPANS_JSON CLI_ARG...

apoly is imported first; then every function in LAYER_SPANS is replaced,
in each apoly module that holds it, by a wrapper that records a span
(name, parent span, start, end, sizes). ``apoly.cli.main`` then runs on
CLI_ARG... and prints to this process's stdout as the plain CLI would.
The spans are kept in memory and written to SPANS_JSON when main returns
or raises. A name that apoly no longer has is skipped; its metrics then
read zero.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import apoly.cli


def _resultant_sizes(args, result):
    p, q = args[0], args[1]
    return {"in_tdeg": p.degree_t() + q.degree_t(), "out_terms": len(result.terms)}


def _count(args, result):
    return {"count": len(result)}


# (module, attribute, span name, sizes(args, result) or None)
LAYER_SPANS = (
    ("apoly.db", "load_table", "db.load", None),
    ("apoly.db", "verify_all", "db.verify", None),
    ("apoly.knots", "eliminate_two_bridge", "knots.eliminate", None),
    ("apoly.knots", "riley_polynomial", "knots.riley", None),
    ("apoly.knots", "sl2_word_eval", "knots.word_eval", None),
    ("apoly.poly", "resultant_t", "poly.resultant", _resultant_sizes),
    ("apoly.poly", "parse_poly", "poly.parse", None),
    ("apoly.poly", "BivarPoly.normalize", "poly.normalize", None),
    ("apoly.poly", "BivarPoly.try_divide", "poly.bivar_try_divide", None),
    ("apoly.structure", "analyze", "structure.analyze", None),
    ("apoly.structure", "mdeg_trivial_decomposition", "structure.decomposition", None),
    ("apoly.structure", "is_product_of_cyclotomics", "structure.recognition", None),
    ("apoly.structure", "cyclotomic_candidates", "structure.candidates", _count),
    ("apoly.structure", "abelian_multiplicity", "structure.abelian_multiplicity", None),
    ("apoly.structure", "check_unit_evaluation", "structure.unit_eval", None),
    ("apoly.newton", "newton_polygon", "newton.polygon", None),
    ("apoly.surgery", "replay_contradiction", "surgery.replay", None),
    ("apoly.surgery", "surgery_intersection", "surgery.intersection", None),
    ("apoly.surgery", "classify_unit_root", "surgery.classify", None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end, sizes or None]
        self._stack = []

    def wrap(self, name, fn, sizes):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, parent, time.perf_counter(), None, None])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][3] = time.perf_counter()
            if sizes is not None:
                self.spans[idx][4] = sizes(args, result)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "apoly"]
        for modname, attr, name, sizes in LAYER_SPANS:
            owner = sys.modules.get(modname)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            wrapped = self.wrap(name, original, sizes)
            if path:
                setattr(owner, leaf, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    main_span = tracer.wrap("cli.main", apoly.cli.main, None)
    try:
        return main_span(cli_args)
    finally:
        sys.stdout.flush()
        loaded = sorted(m for m in ("sympy", "numpy") if m in sys.modules)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "loaded": loaded}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
