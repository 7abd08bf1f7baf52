"""Package modules do not import each other's private names."""

import ast
from pathlib import Path

import trigspec

PACKAGE = Path(trigspec.__file__).resolve().parent


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0 and node.module:
                found += [
                    f"{path.name}:{node.lineno} {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert not found


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield node.module or ""
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name for alias in node.names)


def test_spline_stack_imports_nothing_from_signal_model():
    # Grid, gains and spline need only callables; analytic signals are
    # one caller among others.
    found = [
        f"{name}.py: {imported}"
        for name in ("sampling", "spline_kernel", "trig_spline")
        for imported in _imported_names(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")))
        if "signal_model" in imported
    ]
    assert not found
