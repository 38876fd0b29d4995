"""Every name imported under src/ and tests/ is read somewhere in its module.

No linter runs offline, so this walks the syntax trees instead. A name
listed in the module's __all__ counts as read: that is how a package
re-exports it.
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
