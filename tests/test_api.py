"""The public API: what each module exports, and what it no longer does."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import apoly

MODULES = ["apoly", "apoly.poly", "apoly.grammar", "apoly.newton", "apoly.structure",
           "apoly.recognition", "apoly.surgery", "apoly.knots", "apoly.db", "apoly.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    for attr in module.__all__:
        assert hasattr(module, attr), f"{name}.{attr}"


def test_package_exports():
    assert apoly.__all__ == [
        "BivarPoly",
        "PolyParseError",
        "parse_poly",
        "format_poly",
        "__version__",
    ]


def test_grammar_found_on_first_use():
    # the package exports the grammar's names from apoly.grammar, which
    # only its first use imports; apoly.poly no longer holds them
    grammar = importlib.import_module("apoly.grammar")
    assert apoly.parse_poly is grammar.parse_poly
    assert apoly.PolyParseError is grammar.PolyParseError
    assert grammar.__all__ == ["PolyParseError", "parse_poly"]
    poly = importlib.import_module("apoly.poly")
    assert not {"parse_poly", "PolyParseError"} & set(poly.__all__)
    assert not hasattr(poly, "parse_poly")
    with pytest.raises(AttributeError):
        apoly.no_such_name


@pytest.mark.parametrize("name", ["apoly", "apoly.poly", "apoly.structure"])
def test_test_oracles_not_exported(name):
    # deleted, or kept only as test oracles in conftest.py
    module = importlib.import_module(name)
    for attr in ("TriPolyInT", "resultant_t", "squarefree_univar", "symmetry_check"):
        assert not hasattr(module, attr), f"{name}.{attr}"


# each stood for another name's value or was built only to run a check;
# the remainder sequence is written once, in apoly.knots, and the carrier
# methods that served its two copies are gone (a dotted name is a method);
# the characteristic polynomial is apoly.knots' private _charpoly;
# recognition and the degree-zero decomposition live in apoly.recognition;
# a polynomial in L is a BivarPoly with no term in M; recognition reads
# the cyclotomic exponent sequence, with no candidate rows or filter values;
# the unit evaluations, the abelian multiplicity and the decomposition are
# fields of analyze's report
DELETED = {
    "apoly": ["gcd_univar", "UnivarPoly"],
    "apoly.cli": ["_emit_json", "_json_parts", "build_parser", "argparse"],
    "apoly.structure": ["check_unit_evaluation", "abelian_multiplicity", "NotCyclotomic", "cyclotomic", "euler_phi", "cyclotomic_candidates",
                        "CyclotomicProfile", "is_product_of_cyclotomics", "Violation",
                        "mdeg_trivial_decomposition", "_prime_factors", "_moebius_pairs",
                        "_moebius_product", "_cyclotomic_value", "_orders", "_KEPT_PHI",
                        "_kept_rows", "_candidate_rows", "_rows", "_recognize", "_decompose"],
    "apoly.recognition": ["mdeg_trivial_decomposition", "_KEPT_PHI", "_kept_rows", "_candidate_rows", "_rows",
                          "_cyclotomic_value", "_orders", "_prime_factors"],
    "apoly.newton": ["Edge", "has_vertical_edge", "vertical_edge", "collinear"],
    "apoly.knots": ["TorusKnot", "TwoBridgeKnot", "riley_polynomial", "_gcd_l", "_l_lead",
                    "_l_primitive", "charpoly", "_exact_quotient", "_primitive_m",
                    "_quotient_m", "_primitive_z"],
    "apoly.poly": ["gcd_univar", "_pseudo_rem", "UnivarPoly", "BivarPoly.try_divide",
                   "BivarPoly._l_coeffs", "BivarPoly.from_univar_m", "BivarPoly.term",
                   "charpoly", "_dot_coeffs", "_text"],
}


@pytest.mark.parametrize("name", sorted(DELETED))
def test_restated_names_deleted(name):
    module = importlib.import_module(name)
    for attr in DELETED[name]:
        *path, leaf = attr.split(".")
        owner = module
        for part in path:
            owner = getattr(owner, part)
        assert not hasattr(owner, leaf), f"{name}.{attr}"


def test_restated_methods_and_modules_deleted():
    from apoly.newton import NewtonPolygon
    from apoly.poly import BivarPoly

    # the degeneracy is the vertex count, the vertical edge a slope, the
    # (L-1) test the abelian multiplicity, and the column readings
    # structure's own
    assert "degenerate" not in NewtonPolygon.__slots__
    assert not hasattr(BivarPoly, "taylor_at_l1")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("apoly._columns")


def test_one_type_per_outcome():
    from apoly.newton import NewtonPolygon
    from apoly.structure import AnalysisReport

    # the monicity is read off the unit evaluations, and edges off the vertices
    assert "monic_plus" not in AnalysisReport.__slots__
    assert "monic_minus" not in AnalysisReport.__slots__
    assert not hasattr(NewtonPolygon, "edges")


SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def _programs(path):
    """The syntax tree of the script at path, and of every child program it
    holds in a string: each string constant that parses as Python."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                yield ast.parse(node.value)
            except SyntaxError:
                pass


def _apoly_imports(tree):
    """(module, name) for each name of a `from apoly... import name`, and
    (module, None) for each `import apoly...`, in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "apoly":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "apoly")


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_resolve(path):
    # a committed script, or a child program it runs, imports only what
    # apoly still has: an attribute, or a submodule such as apoly.knots
    found = [(module, name) for tree in _programs(path) for module, name in _apoly_imports(tree)]
    for module, name in found:
        owner = importlib.import_module(module)
        if name is not None and not hasattr(owner, name):
            submodule = hasattr(owner, "__path__") and importlib.util.find_spec(f"{module}.{name}")
            assert submodule, f"{path.name}: {module}.{name}"
