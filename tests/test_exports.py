"""The package's public names and the modules that define them."""

import ast
import importlib
from pathlib import Path

import hilbertfield


def test_every_package_export_is_listed_by_its_module():
    tree = ast.parse(Path(hilbertfield.__file__).read_text())
    defining_module = {
        alias.asname or alias.name: node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    for name in hilbertfield.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(f"hilbertfield.{defining_module[name]}")
        assert name in module.__all__, f"{name} is missing from {module.__name__}.__all__"


def test_test_oracles_live_in_the_tests():
    # the brute-force and closed-form oracles stay in tests/conftest.py, apart from the code they check
    for name in ("brute_force_splittings", "stirling2"):
        assert name not in hilbertfield.__all__
        for module in ("splittings", "analyticity", "field", "symbolic", "grid", "cli"):
            assert not hasattr(importlib.import_module(f"hilbertfield.{module}"), name), (module, name)
