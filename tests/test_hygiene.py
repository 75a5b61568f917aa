"""Source hygiene, checked by AST scans since no linter ships with the project.

- No module under src/, tests/, perfbench/ or tools/ imports a name it never uses. A name
  counts as used when the module reads it anywhere (including inside
  string annotations) or lists it in ``__all__``.
- No top-level ``_``-prefixed function or class in src/contensor goes
  unreferenced by the package outside its own definition: what only
  tests reach, or nothing, is dead code.
- Every keyword-only parameter of a public top-level function in
  src/contensor is passed by name, to a call of that function, somewhere
  in src/ or perfbench/: an option only tests set is dead code too.
- compiler.py reads no stored data, only the format: it calls none of a
  tensor's or level's lookups and reads none of their data columns, so a
  plan cannot depend on what an input stores.
"""

import ast
import collections
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")),
                *(p for d in ("perfbench", "tools") for p in (ROOT / d).glob("*.py"))])
SRC = sorted((ROOT / "src" / "contensor").rglob("*.py"))
CALLERS = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")])


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


def referenced_names(tree) -> collections.Counter:
    """How often each name is read, as a plain name, as an attribute
    (``mod._f``, ``_Cls.meth``) or by ``from ... import``."""
    refs = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            refs.update(a.name for a in node.names)
    return refs


def unreferenced_private(sources: dict) -> list:
    """(module, name) of each top-level private function or class in
    sources (module -> text) that no module references outside the
    definition itself."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    refs = sum((referenced_names(t) for t in trees.values()), collections.Counter())
    out = []
    for mod, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and refs[node.name] == referenced_names(node)[node.name]):
                out.append((mod, node.name))
    return out


def test_every_private_function_and_class_is_used():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in SRC}
    assert unreferenced_private(sources) == []


def test_scan_flags_an_unused_private_function():
    sources = {
        "a.py": "def _used():\n    pass\ndef _dead(n):\n    return _dead(n - 1)\n"
                "class _Table:\n    pass\nT = {'f': _used}\n",
        "b.py": "from a import _Table\n",
    }
    assert unreferenced_private(sources) == [("a.py", "_dead")]


def keyword_options(tree):
    """(function, parameter) for each keyword-only parameter of a public
    top-level function."""
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not node.name.startswith("_")):
            for a in node.args.kwonlyargs:
                yield node.name, a.arg


def keywords_passed(tree):
    """(callee, keyword) for each keyword a call passes by name, the
    callee keyed by its name whether called bare or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            yield from ((callee, k.arg) for k in node.keywords if k.arg is not None)


def unpassed_options(defining: dict, calling: dict) -> list:
    """(module, function, parameter) of each keyword-only option defined
    in defining (module -> text) that no call in calling passes."""
    passed = {kw for text in calling.values() for kw in keywords_passed(ast.parse(text))}
    return [(mod, *opt) for mod, text in defining.items()
            for opt in keyword_options(ast.parse(text)) if opt not in passed]


def test_every_keyword_option_is_passed_outside_tests():
    defining = {str(p.relative_to(ROOT)): p.read_text() for p in SRC}
    calling = {str(p.relative_to(ROOT)): p.read_text() for p in CALLERS}
    assert unpassed_options(defining, calling) == []


def test_scan_flags_an_unpassed_option():
    defining = {"a.py": "def run(x, *, fast=False, trace=None):\n    pass\n"
                        "def _helper(*, quiet=False):\n    pass\n"}
    calling = {"b.py": "import a\na.run(1, trace=print)\nother(fast=True)\n"}
    assert unpassed_options(defining, calling) == [("a.py", "run", "fast")]


# what a lowering that reads the format alone may not touch: a tensor's or
# level's lookups (called) and its data columns (read as attributes; a
# call such as a dict's .values() is not a column)
DATA_CALLS = {"n_entries", "n_fibers", "span", "seek", "probe", "fiber_entries", "at", "pieces"}
DATA_COLUMNS = {"values", "ptr", "starts", "stops", "los", "his"}


def data_reads(source: str) -> list:
    """(name, line) of each lookup call and data column read in source."""
    tree = ast.parse(source)
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in DATA_CALLS:
                out.append((name, node.lineno))
        elif (isinstance(node, ast.Attribute) and node.attr in DATA_COLUMNS
              and id(node) not in called):
            out.append((node.attr, node.lineno))
    return sorted(out, key=lambda r: r[1])


def test_lowering_reads_no_stored_data():
    assert data_reads((ROOT / "src" / "contensor" / "compiler.py").read_text()) == []


def test_scan_flags_a_read_of_stored_data():
    src = ("def _fiber_weight(a):\n"
           "    n = a.tensor.n_entries(a.rank)\n"
           "    return n / max(1, a.tensor.n_fibers(a.rank))\n"
           "acc = _Access(tensor=t, idx=idx, miss=not t.values)\n"
           "names = [str(v) for v in marks.values()]\n"
           "first = lv.starts[lv.ptr[f]]\n"
           "width = lv.his[p] - lv.los[p]\n")
    assert data_reads(src) == [("n_entries", 2), ("n_fibers", 3), ("values", 4),
                               ("starts", 6), ("ptr", 6), ("his", 7), ("los", 7)]
