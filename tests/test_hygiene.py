"""Source hygiene: no module under src/ or tests/ imports a name it never uses.

No linter ships with the project, so this AST scan is the gate. A name
counts as used when the module reads it anywhere (including inside
string annotations) or lists it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # string annotations and __all__ entries
            try:
                sub = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(sub) if isinstance(n, ast.Name))
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import():
    src = "import os\nfrom math import pi, tau\nfrom typing import List\nx: 'List' = pi\n"
    assert unused_imports(src) == [("os", 1), ("tau", 2)]
