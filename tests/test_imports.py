"""Package modules do not import each other's private names, and read only the listed ones."""

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


# Every private name a package module reads from another through the
# module (`from . import x`, then `x._name`): the bodies that cached builders
# and the spline's plans call so that a store miss adds no public calls.
# A new read must be added here, with its reason in the reading module.
PRIVATE_READS = {
    "spline_kernel.py": ["_series._progression_tail", "_series._ratio_power", "_series._ratio_tail"],
    "trig_spline.py": ["_series._alias_fold", "_series._lerch_singular",
                       "sampling._folded_coefficient", "spline_kernel._folded_gain"],
}


def _private_reads(tree):
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0 and not node.module
        for alias in node.names
    }
    return sorted({
        f"{node.value.id}.{node.attr}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules and node.attr.startswith("_")
    })


def test_private_names_read_through_a_module_are_the_listed_ones():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        reads = _private_reads(ast.parse(path.read_text(encoding="utf-8")))
        if reads:
            found[path.name] = reads
    assert found == PRIVATE_READS


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
