"""Static checks in place of a linter: every name a module of surfhodge or
a script in scripts/ imports is used in that file or re-exported through
its __all__, and every name in surfhodge.__all__ resolves."""

import ast
from pathlib import Path

import pytest

import surfhodge

PACKAGE = Path(surfhodge.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nprint(sys)\n") == ["os (line 1)"]
    assert unused_imports("from a import b as c\n__all__ = ['c']\n") == []


@pytest.mark.parametrize("path", MODULES + SCRIPTS,
                         ids=[p.name for p in MODULES] + [f"scripts/{p.name}" for p in SCRIPTS])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_package_exports_resolve():
    """A stale __all__ entry breaks `from surfhodge import *`."""
    assert len(surfhodge.__all__) == len(set(surfhodge.__all__))
    missing = [name for name in surfhodge.__all__ if not hasattr(surfhodge, name)]
    assert missing == []
    namespace: dict = {}
    exec("from surfhodge import *", namespace)
    assert set(surfhodge.__all__) <= set(namespace)
