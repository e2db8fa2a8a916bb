"""Nothing in the package needs interpreter teardown.

``cli.run`` ends the process with ``os._exit`` once ``main`` has returned,
so no ``atexit`` hook, finalizer or ``__del__`` method runs and no open
file is flushed or closed by the interpreter.  ``main`` flushes what it
writes, and every file is opened as a ``with`` item, so it is closed
before ``main`` returns.  ``cli.run`` is the one place that may exit hard,
and every way of starting the CLI goes through it.
"""

import ast
from pathlib import Path

import pytest

import wsext

PACKAGE = Path(wsext.__file__).resolve().parent
ROOT = PACKAGE.parent.parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def teardown_uses(source: str, allowed: str = "") -> list[str]:
    """Everything a hard exit would skip or that exits hard itself outside
    the top-level function named ``allowed``: an ``atexit`` import, a
    ``__del__`` method, ``weakref.finalize``, an ``open`` call that is not
    a ``with`` item, and ``os._exit``."""
    tree = ast.parse(source)
    with_items = {id(item.context_expr) for node in ast.walk(tree)
                  if isinstance(node, (ast.With, ast.AsyncWith)) for item in node.items}
    allowed_nodes = {id(n) for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == allowed
                     for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "atexit") for a in node.names if a.name == "atexit"]
        elif isinstance(node, ast.ImportFrom):
            if node.module == "atexit":
                found.append((node.lineno, "atexit"))
            found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names
                      if (node.module, a.name) in {("weakref", "finalize"), ("os", "_exit")}]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "__del__":
            found.append((node.lineno, "__del__"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and (node.value.id, node.attr) in {("weakref", "finalize"), ("os", "_exit")}
              and id(node) not in allowed_nodes):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif (isinstance(node, ast.Call) and id(node) not in with_items
              and (isinstance(node.func, ast.Name) and node.func.id == "open"
                   or isinstance(node.func, ast.Attribute) and node.func.attr == "open")):
            found.append((node.lineno, "open outside with"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_module_needs_interpreter_teardown(path):
    allowed = "run" if path.relative_to(PACKAGE) == Path("cli.py") else ""
    assert teardown_uses(path.read_text(), allowed) == []


def test_the_check_catches_every_teardown_use():
    source = ("import atexit, os\n"
              "import weakref\n"
              "from os import _exit\n"
              "class Handle:\n"
              "    def __del__(self):\n"
              "        weakref.finalize(self, print)\n"
              "def helper(path):\n"
              "    with open(path) as f, path.open() as g:\n"
              "        pass\n"
              "    log = open(path, 'w')\n"
              "    os._exit(path.open().write('x'))\n"
              "def run():\n"
              "    os._exit(0)\n")
    assert teardown_uses(source, "run") == [
        "atexit (line 1)", "os._exit (line 3)", "__del__ (line 5)",
        "weakref.finalize (line 6)", "open outside with (line 10)",
        "open outside with (line 11)", "os._exit (line 11)"]


def test_every_way_of_starting_the_cli_goes_through_run():
    main_module = ast.parse((PACKAGE / "__main__.py").read_text())
    assert any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "run" for node in ast.walk(main_module))
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"wsext": "wsext.cli:run"}
