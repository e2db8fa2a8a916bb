"""Only ``cli.main`` writes to stdout or stderr.

Every command returns its report and ``main`` writes it once, so a
``--json`` run prints one document, and no library function can change
what a command prints.  No other code in the package may call ``print``
or touch ``sys.stdout`` or ``sys.stderr``.
"""

import ast
from pathlib import Path

import pytest

import wsext

PACKAGE = Path(wsext.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))
STREAMS = {"stdout", "stderr", "__stdout__", "__stderr__"}


def writers(source: str, allowed: str = "") -> list[str]:
    """Every use of ``print`` or of a ``sys`` stream outside the top-level
    function named ``allowed``."""
    tree = ast.parse(source)
    skipped = {id(n) for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == allowed
               for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name) and node.id == "print":
            found.append((node.lineno, "print"))
        elif (isinstance(node, ast.Attribute) and node.attr in STREAMS
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            found.append((node.lineno, f"sys.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [(node.lineno, f"sys.{a.name}") for a in node.names if a.name in STREAMS]
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_only_cli_main_writes(path):
    allowed = "main" if path.relative_to(PACKAGE) == Path("cli.py") else ""
    assert writers(path.read_text(), allowed) == []


def test_the_check_catches_every_writer():
    source = ("import sys\n"
              "from sys import stderr\n"
              "def helper(text):\n"
              "    sys.stdout.write(text)\n"
              "    print(text, file=sys.__stderr__)\n"
              "def main():\n"
              "    print('ok', file=sys.stderr)\n")
    assert writers(source, "main") == [
        "sys.stderr (line 2)", "sys.stdout (line 4)", "print (line 5)",
        "sys.__stderr__ (line 5)"]
