"""Terms are evaluated in the library only by the table kernels of
``algebra``: ``_tabulate`` over argument columns and ``_factored``.

Every law the library checks is an ``Equation`` handed to
``check_equation``, which tabulates both sides block by block with
``_factored``, each subterm over the axes of its own variables.  No module
of the package may name ``eval_term`` or call a method named ``eval``, so
a second, per-entry evaluator cannot come back beside the kernels.  The
per-entry evaluator lives in ``tests/oracles.py``, as the reference the
kernels are compared against.
"""

import ast
from pathlib import Path

import pytest

import wsext

PACKAGE = Path(wsext.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def second_evaluators(source: str) -> list[str]:
    """Every use of the name ``eval_term`` (a reference, an attribute, a
    definition or an import) and every call of an attribute ``eval``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "eval_term":
            found.append((node.lineno, "eval_term"))
        elif isinstance(node, ast.Attribute) and node.attr == "eval_term":
            found.append((node.lineno, ".eval_term"))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "eval_term":
            found.append((node.lineno, "def eval_term"))
        elif isinstance(node, ast.alias) and "eval_term" in (node.name, node.asname):
            found.append((node.lineno, "import eval_term"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "eval"):
            found.append((node.lineno, ".eval()"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_second_term_evaluator(path):
    assert second_evaluators(path.read_text()) == []


def test_the_check_catches_every_form():
    source = ("from .terms import eval_term as ev\n"
              "import wsext.terms\n"
              "def eval_term(t, A, env):\n"
              "    return wsext.terms.eval_term(t, A, env)\n"
              "def law(theta, A):\n"
              "    return theta.eval(A, (0, 1))\n")
    assert second_evaluators(source) == [
        "import eval_term (line 1)", "def eval_term (line 3)", ".eval_term (line 4)",
        ".eval() (line 6)"]
