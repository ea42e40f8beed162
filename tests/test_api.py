"""The public API: what each module exports, and what it no longer does."""

import importlib

import pytest

import apoly

MODULES = ["apoly", "apoly.poly", "apoly.newton", "apoly.structure", "apoly.surgery",
           "apoly.knots", "apoly.db", "apoly.cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    for attr in module.__all__:
        assert hasattr(module, attr), f"{name}.{attr}"


def test_package_exports():
    assert apoly.__all__ == [
        "BivarPoly",
        "UnivarPoly",
        "PolyParseError",
        "parse_poly",
        "format_poly",
        "gcd_univar",
        "__version__",
    ]


@pytest.mark.parametrize("name", ["apoly", "apoly.poly", "apoly.structure"])
def test_test_oracles_not_exported(name):
    # deleted, or kept only as test oracles in conftest.py
    module = importlib.import_module(name)
    for attr in ("TriPolyInT", "resultant_t", "squarefree_univar", "symmetry_check"):
        assert not hasattr(module, attr), f"{name}.{attr}"


# each stood for another name's value or was built only to run a check
DELETED = {
    "apoly.cli": ["_emit_json", "_json_parts"],
    "apoly.structure": ["NotCyclotomic"],
    "apoly.newton": ["Edge", "has_vertical_edge", "vertical_edge", "collinear"],
    "apoly.knots": ["TorusKnot", "TwoBridgeKnot", "riley_polynomial"],
}


@pytest.mark.parametrize("name", sorted(DELETED))
def test_restated_names_deleted(name):
    module = importlib.import_module(name)
    for attr in DELETED[name]:
        assert not hasattr(module, attr), f"{name}.{attr}"


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
