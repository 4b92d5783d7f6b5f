"""No module of the package imports a private name from another."""

from __future__ import annotations

import ast
from pathlib import Path

import causeway

SOURCES = sorted(Path(causeway.__file__).parent.glob("*.py"))


def test_no_module_imports_a_private_name_from_another_module():
    assert SOURCES
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").split(".")[0] == "causeway":
                found += [
                    f"{path.name}: {alias.name} from {node.module}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert found == []
