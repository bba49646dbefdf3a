"""Checks on the package source itself."""

import ast
import importlib.util
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


def test_benchmark_trace_targets_resolve():
    # Only ``perfbench/run.py --trace 1`` installs perfbench/tracer.py, so a
    # moved target would break nothing else.  Resolve each target the way
    # ``Tracer.install`` does, without installing it.
    path = PACKAGE.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for modname, attr, label in tracer.SPANNED + tracer.COUNTED:
        module = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(meth)), label
        else:
            assert callable(getattr(module, attr, None)), label
