"""Every name a sepkit module or a script imports is used in that file.

``__init__.py`` is left out: it imports names only to re-export them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sepkit"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
SCRIPTS = sorted(f"scripts/{path.name}" for path in (ROOT / "scripts").glob("*.py"))


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that nothing else in ``source`` reads.

    A name read only inside a quoted annotation counts as read.
    """
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    trees = [tree]
    for annotation in _annotations(tree):
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            trees.append(ast.parse(annotation.value, mode="eval"))
    used = {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_every_module_is_checked():
    assert {"cli.py", "construction.py", "exact.py", "separation.py"} <= set(MODULES)
    assert "scripts/render_figures.py" in SCRIPTS


@pytest.mark.parametrize("name", MODULES + SCRIPTS)
def test_no_unused_imports(name):
    path = PACKAGE / name if name in MODULES else ROOT / name
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_reported():
    source = (
        "from __future__ import annotations\n"
        "import json.decoder\n"
        "from dataclasses import dataclass, replace\n"
        "from fractions import Fraction\n"
        "@dataclass\n"
        "class A:\n"
        "    x: 'Fraction'\n"
        "    def f(self):\n"
        "        return json.decoder\n"
    )
    assert unused_imports(source) == ["replace"]
