"""Every name imported under src/ and tests/ is read somewhere in its module,
and so is every private module-level function, class and constant under src/.
Every public module-level function and class under src/ is read by some
module under src/, so no helper there serves only the tests.

No linter runs offline, so this walks the syntax trees instead. A name
listed in the module's __all__ counts as read for the import check: that is
how a package re-exports it. It does not count for the public-name check,
and neither does an import.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def unread_private_names(source: str) -> list[str]:
    """Module-level names starting with one underscore that no expression in
    the module reads."""
    tree = ast.parse(source)
    defined: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"line {line}: {name}"
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes without a leading underscore that
    no module of `sources` (path -> text) reads, as a name or an attribute."""
    defined: list[tuple[str, int, str]] = []
    read: set[str] = set()
    for path, source in sources.items():
        tree = ast.parse(source)
        defined += [
            (path, node.lineno, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{path} line {line}: {name}" for path, line, name in defined if name not in read]


def test_unused_import_found():
    assert unused_imports("import os\nimport json\nfrom a import b, c\njson.dumps(c)\n") == [
        "line 1: os",
        "line 3: b",
    ]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): unused
        for folder in ("src", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_unread_private_name_found():
    source = (
        "_USED = 1\n_UNUSED: int = 2\nPUBLIC = 3\n__dunder__ = 4\n"
        "def _helper():\n    return _USED\n"
        "class _Orphan:\n    pass\n"
        "def f():\n    _local = 5\n    return _helper()\n"
    )
    assert unread_private_names(source) == ["line 2: _UNUSED", "line 7: _Orphan"]


def test_no_unread_private_names():
    found = {
        str(path.relative_to(ROOT)): unread
        for path in sorted((ROOT / "src").rglob("*.py"))
        if (unread := unread_private_names(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_unread_public_name_found():
    sources = {
        "a.py": "__all__ = ['orphan', 'Used']\ndef orphan():\n    pass\nclass Used:\n    pass\n",
        "b.py": "from a import orphan, Used\nimport a\ndef main():\n    return a.helper(Used)\n",
        "c.py": "def helper():\n    return 1\n",
    }
    assert unread_public_names(sources) == ["a.py line 2: orphan", "b.py line 3: main"]


def test_no_unread_public_names():
    sources = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    assert unread_public_names(sources) == []
