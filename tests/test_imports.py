"""Every name a module of the package imports is used in that module.

Re-exports in ``__init__.py`` and imports under ``if TYPE_CHECKING:`` are
exempt, as is ``from __future__ import ...``.
"""

import ast
from pathlib import Path

import pytest

import wsext

PACKAGE = Path(wsext.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _type_checking_only(tree: ast.Module) -> set[int]:
    """ids of the import nodes inside ``if TYPE_CHECKING:`` blocks."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            skipped |= {id(n) for stmt in node.body for n in ast.walk(stmt)}
    return skipped


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    skipped = _type_checking_only(tree)
    imported = {}
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # a name may also be used only inside a string annotation
    for annotation in _annotations(tree):
        for n in ast.walk(annotation):
            if isinstance(n, ast.Constant) and isinstance(n.value, str):
                expr = ast.parse(n.value, mode="eval")
                used |= {m.id for m in ast.walk(expr) if isinstance(m, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_catches_an_unused_import():
    source = ("from __future__ import annotations\n"
              "from itertools import chain, product\n"
              "from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n"
              "    from os import sep\n"
              "x: 'TYPE_CHECKING' = list(chain())\n")
    assert unused_imports(source) == ["product (line 2)"]
