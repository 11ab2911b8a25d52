"""The package is numpy-only and reads no environment switches."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "thermoflux"
MODULES = sorted(PACKAGE.glob("*.py"))


def test_package_found():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            pytest.fail(f"{path.name}:{node.lineno} reads os.{node.attr}")
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            names = {alias.name for alias in node.names}
            assert not names & {"environ", "getenv"}, f"{path.name}:{node.lineno}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_package(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level > 0:
                continue  # intra-package
            roots = [node.module.split(".")[0]]
        else:
            continue
        for root in roots:
            assert root in sys.stdlib_module_names or root in ("numpy", "thermoflux"), (
                f"{path.name}:{node.lineno} imports {root}"
            )
