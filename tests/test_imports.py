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
