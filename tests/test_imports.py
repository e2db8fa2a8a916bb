"""Every name a module of the package imports is used in that module, and
every module imports only from the layers below its own.

Re-exports in ``__init__.py`` and imports under ``if TYPE_CHECKING:`` are
exempt, as is ``from __future__ import ...``.  Starting the CLI imports no
module it does not need.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wsext
from conftest import SRC

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


def test_cli_start_up_imports_no_dataclasses_and_every_layer():
    """``import wsext.cli`` in a fresh interpreter adds neither ``dataclasses``
    nor ``inspect``, which with ``ast``, ``dis`` and ``tokenize`` would be
    compiled or loaded on every start of the CLI, and it loads every layer,
    which ``perfbench/traced.py`` relies on to rebind their functions."""
    probe = ("import json, sys; before = set(sys.modules); import wsext.cli; "
             "print(json.dumps(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True).stdout
    added = set(json.loads(out))
    assert not added & {"dataclasses", "inspect"}
    assert {"wsext.serialize", "wsext.extension", "wsext.canonical",
            "wsext.gammabuild"} <= added


# The layers of the package, lowest first.  canonical and gammabuild share
# one: both are clients of the action-data layer, ambient, and neither
# imports the other.
LAYERS = [{"errors"}, {"report"}, {"terms"}, {"algebra"}, {"ambient"}, {"extension"},
          {"canonical", "gammabuild"}, {"serialize"}, {"cli"}, {"__main__"}]
LAYER_OF = {module: i for i, layer in enumerate(LAYERS) for module in layer}


def package_imports(source: str) -> set[str]:
    """The top-level package modules that a module imports at run time."""
    tree = ast.parse(source)
    skipped = _type_checking_only(tree)
    found = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = f"wsext.{node.module or ''}" if node.level else node.module
            names = ([f"wsext.{alias.name}" for alias in node.names]
                     if module.rstrip(".") == "wsext" else [module])
        else:
            continue
        found |= {name.split(".")[1] for name in names if name.startswith("wsext.")}
    return found


def layering_violations(sources: dict[str, str]) -> list[str]:
    """'module imports target' wherever target is not in a lower layer."""
    return sorted(f"{module} imports {target}"
                  for module, source in sources.items()
                  for target in package_imports(source)
                  if LAYER_OF[target] >= LAYER_OF[module])


def test_every_module_has_a_layer():
    assert {p.stem for p in MODULES if p.parent == PACKAGE} == set(LAYER_OF)


def test_each_module_imports_only_from_lower_layers():
    sources = {p.stem: p.read_text() for p in MODULES if p.parent == PACKAGE}
    assert layering_violations(sources) == []


def test_the_layering_check_catches_upward_and_sibling_imports():
    sources = {
        "gammabuild": "from .canonical import membership_by_term\n",
        "algebra": "import wsext.ambient\nfrom wsext.errors import ToolkitError\n",
        "canonical": ("from typing import TYPE_CHECKING\n"
                      "if TYPE_CHECKING:\n    from .gammabuild import GammaData\n"
                      "from . import ambient, extension\n"),
        "report": "from wsext import terms\n",
    }
    assert layering_violations(sources) == [
        "algebra imports ambient", "gammabuild imports canonical", "report imports terms"]
