"""Every exported name resolves, so wrapping a module's public API by
iterating its __all__ (as the benchmark tracer does) cannot hit a stale
entry."""

import ast
import importlib
from pathlib import Path

import pytest

import frcage

LAYERS = ("gf", "mols", "cage", "design", "verify", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_all_names_resolve(layer):
    mod = importlib.import_module(f"frcage.{layer}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_imports_exist():
    tree = ast.parse(Path(frcage.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        mod = importlib.import_module(f"frcage.{module}")
        assert hasattr(mod, name), (module, name)
        assert getattr(frcage, name) is getattr(mod, name)
