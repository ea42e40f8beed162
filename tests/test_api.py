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
