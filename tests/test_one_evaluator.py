"""Terms are evaluated in the library only by the one term kernel of
``algebra``, ``_factored``, each subterm over the axes of its own
variables, in a FiniteAlgebra or in the candidate operations alike.

Every law the library checks is an ``Equation`` handed to
``check_equation``, and every term over a grid of argument values is
tabulated by one call, ``algebra.tabulate_grid``; both run ``_factored``
over the blocks of ``algebra.grid_blocks``.  No module of the package may
name ``eval_term`` or call a method named ``eval``, so a second, per-entry
evaluator cannot come back beside the kernel.  The per-entry evaluator
lives in ``tests/oracles.py``, as the reference the kernel is compared
against.  Only ``algebra`` names ``_factored`` or ``_spread``, and no
module names the grid and index helpers the kernel replaced, so a second
kernel or index fold cannot come back under an old name.

Only ``algebra`` and ``extension``, whose comparison-map and alpha
columns are not a grid, may name ``_tabulate``, the kernel over argument
columns, so a block loop around it cannot come back in another module.
An operation's table is a term's (``terms.operation_term``), so the
action-data layers ``gammabuild`` and ``canonical`` walk no grid by hand
either: neither names ``grid_blocks`` nor an operation's ``columns``
kernel, except ``sigma_tau_decompose``, whose early-exit check mixes
lookups in X, B and the sigma/tau tables that no one algebra's term
expresses.
"""

import ast
from pathlib import Path

import pytest

import wsext

PACKAGE = Path(wsext.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))
TABULATE_USERS = ("algebra.py", "extension.py")
KERNEL_NAMES = ("_factored", "_spread")
DELETED_NAMES = ("lex_grid", "_axis_columns", "fold_indices")
# each action-data layer and the functions in it that may walk a grid by hand
GRID_WALKERS = {"gammabuild.py": (), "canonical.py": ("sigma_tau_decompose",)}


def uses(code, name: str) -> list[tuple[int, str]]:
    """(line, form) of every use of ``name`` in source text or a syntax
    tree: a reference, an attribute, a definition or an import."""
    found = []
    for node in ast.walk(ast.parse(code) if isinstance(code, str) else code):
        if isinstance(node, ast.Name) and node.id == name:
            found.append((node.lineno, name))
        elif isinstance(node, ast.Attribute) and node.attr == name:
            found.append((node.lineno, "." + name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name:
            found.append((node.lineno, "def " + name))
        elif isinstance(node, ast.alias) and name in (node.name, node.asname):
            found.append((node.lineno, "import " + name))
    return found


def listed(found: list[tuple[int, str]]) -> list[str]:
    return [f"{form} (line {line})" for line, form in sorted(found)]


def second_evaluators(source: str) -> list[str]:
    """Every use of the name ``eval_term`` and every call of an attribute
    ``eval``."""
    calls = [(node.lineno, ".eval()") for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "eval"]
    return listed(uses(source, "eval_term") + calls)


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_only_algebra_and_extension_name_the_column_kernel(path):
    found = listed(uses(path.read_text(), "_tabulate"))
    if str(path.relative_to(PACKAGE)) in TABULATE_USERS:
        assert found
    else:
        assert found == []


def test_the_kernel_check_catches_a_block_loop_outside_algebra():
    source = ("from .algebra import _tabulate, grid_blocks\n"
              "from . import algebra\n"
              "def table(spec, A, axes):\n"
              "    out = []\n"
              "    for columns in grid_blocks(spec.vars, list(map(Var, spec.vars)), A, axes):\n"
              "        env = dict(zip(spec.vars, columns))\n"
              "        out += algebra._tabulate(spec.term, A, env, len(columns[0]))\n"
              "    return out\n"
              "kernel = _tabulate\n")
    assert listed(uses(source, "_tabulate")) == [
        "import _tabulate (line 1)", "._tabulate (line 7)", "_tabulate (line 9)"]


def kernel_uses(source: str, module: str) -> list[str]:
    """Every use of a deleted helper's name, and outside ``algebra.py``
    every use of the kernel's names."""
    names = DELETED_NAMES + (KERNEL_NAMES if module != "algebra.py" else ())
    return listed([use for name in names for use in uses(source, name)])


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_one_term_kernel_and_one_index_fold(path):
    module = str(path.relative_to(PACKAGE))
    assert kernel_uses(path.read_text(), module) == []
    if module == "algebra.py":  # the kernel is still there to be guarded
        assert all(uses(path.read_text(), name) for name in KERNEL_NAMES)


def test_the_kernel_name_check_catches_a_second_kernel():
    source = ("from .algebra import _factored, fold_indices\n"
              "from . import algebra\n"
              "def lex_grid(axes):\n"
              "    return algebra._spread(*_factored(t, A, env, lens), (0,), lens)\n"
              "def _axis_columns(axes):\n"
              "    return fold_indices(2, axes, 2)\n")
    assert kernel_uses(source, "canonical.py") == [
        "import _factored (line 1)", "import fold_indices (line 1)", "def lex_grid (line 3)",
        "._spread (line 4)", "_factored (line 4)", "def _axis_columns (line 5)",
        "fold_indices (line 6)"]
    assert kernel_uses(source, "algebra.py") == [
        "import fold_indices (line 1)", "def lex_grid (line 3)", "def _axis_columns (line 5)",
        "fold_indices (line 6)"]


def grid_walks(source: str, allowed: tuple[str, ...] = ()) -> list[str]:
    """Every reference to ``grid_blocks`` and every ``columns`` attribute or
    definition outside the top-level functions named in ``allowed``.  An
    import is not a walk (the allowed functions need it); a call is."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in allowed:
            continue
        found += [use for use in uses(node, "grid_blocks") + uses(node, "columns")
                  if use[1] != "columns" and not use[1].startswith("import ")]
    return listed(found)


@pytest.mark.parametrize("module", sorted(GRID_WALKERS))
def test_the_action_data_layers_walk_no_grid_by_hand(module):
    source, allowed = (PACKAGE / module).read_text(), GRID_WALKERS[module]
    assert grid_walks(source, allowed) == []
    if allowed:  # the exemption still covers a grid walk
        assert grid_walks(source) != []


def test_the_grid_check_catches_a_block_loop_in_an_action_data_layer():
    source = ("from .algebra import grid_blocks, tabulate_grid\n"
              "def closure(ops, name, arity, Y, names, terms):\n"
              "    return [z for args in grid_blocks(names, terms, ops, [Y] * arity)\n"
              "            for z in ops.columns(name, args, len(args[0]))]\n"
              "def sigma_tau_decompose(e, add, names, terms, axes):\n"
              "    for args in grid_blocks(names, terms, e.A, axes):\n"
              "        yield e.A.columns(add, args, len(args[0]))\n"
              "columns = 0\n"
              "kernel = ops.columns\n")
    assert grid_walks(source, ("sigma_tau_decompose",)) == [
        "grid_blocks (line 3)", ".columns (line 4)", ".columns (line 9)"]
