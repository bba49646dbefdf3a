"""Checks on the package source itself."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "slopesmith"


def test_package_has_no_assert_statements():
    # ``python -O`` strips assert statements; a check must survive it.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imports_numpy(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def test_only_the_numerical_half_imports_numpy():
    numerical = {"hyperbolic.py", "tracking.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name not in numerical
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if _imports_numpy(node)
    ]
    assert found == []
