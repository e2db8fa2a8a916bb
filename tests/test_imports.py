"""Every name a module of the package imports is used in that module, and
every module imports only from the layers below its own.

Re-exports in ``__init__.py`` and imports under ``if TYPE_CHECKING:`` are
exempt, as is ``from __future__ import ...``.  Starting the CLI imports no
module it does not need, each command executes only the layers it runs,
and ``import wsext`` executes none while every public name still resolves.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wsext
from conftest import SRC
from wsext.cli import main
from wsext.fixtures import fixture_path

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


def budget_error_sites(source: str) -> list[str]:
    """'function (line n)' wherever ``source`` constructs or raises
    SearchBudgetExceeded, by the innermost enclosing function ('<module>'
    outside every function)."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        target = node.func if isinstance(node, ast.Call) else getattr(node, "exc", None)
        if getattr(target, "id", getattr(target, "attr", None)) == "SearchBudgetExceeded":
            sites.append(f"{where} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_only_the_budget_gate_raises_a_budget_error():
    """Every budget gate is a call of errors.charge, the one place that
    compares a cost with the budget and raises."""
    sites = [(str(p.relative_to(PACKAGE)), site) for p in sorted(PACKAGE.rglob("*.py"))
             for site in budget_error_sites(p.read_text())]
    assert [(path, site.split()[0]) for path, site in sites] == [("errors.py", "charge")]


def test_the_gate_check_catches_a_direct_raise():
    source = ("from . import errors\n"
              "from .errors import SearchBudgetExceeded, charge\n"
              "def gate(cost, budget):\n"
              "    charge(cost, budget, 'fine')\n"
              "    if cost > budget:\n"
              "        raise SearchBudgetExceeded(f'needs {cost}')\n"
              "def bare():\n"
              "    raise errors.SearchBudgetExceeded\n"
              "error = SearchBudgetExceeded('at import')\n")
    assert budget_error_sites(source) == ["gate (line 6)", "bare (line 8)", "<module> (line 9)"]


def _probe(code: str):
    """The JSON value that ``code`` prints, run in a fresh interpreter on
    this checkout's sources."""
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


# the package modules executed so far: a module registered with the CLI's
# _lazy but not yet executed is in sys.modules, but not a plain module
EXECUTED = ("sorted(n for n, m in sys.modules.items() "
            "if n.startswith('wsext') and type(m) is types.ModuleType)")
OPTIONAL = {"wsext.canonical", "wsext.gammabuild", "wsext.transport"}


def test_cli_start_up_imports_no_dataclasses_and_every_layer():
    """``import wsext.cli`` in a fresh interpreter adds neither ``dataclasses``
    nor ``inspect``, which with ``ast``, ``dis`` and ``tokenize`` would be
    compiled or loaded on every start of the CLI, and it registers every
    layer, which ``perfbench/traced.py`` relies on to rebind their
    functions.  The optional layers are registered but not executed."""
    added, executed = _probe(
        "import json, sys, types; before = set(sys.modules); import wsext.cli; "
        f"print(json.dumps([sorted(set(sys.modules) - before), {EXECUTED}]))")
    added = set(added)
    assert not added & {"dataclasses", "inspect"}
    assert {"wsext.serialize", "wsext.extension", "wsext.canonical",
            "wsext.gammabuild", "wsext.transport"} <= added
    assert not OPTIONAL & set(executed)


def test_importing_the_package_executes_no_layer():
    assert _probe(f"import json, sys, types, wsext; print(json.dumps({EXECUTED}))") == ["wsext"]


BASE = ["wsext", "wsext.algebra", "wsext.cli", "wsext.errors", "wsext.extension",
        "wsext.report", "wsext.serialize", "wsext.terms"]


@pytest.mark.parametrize("command,layer", [
    ("check", None), ("canonicalize", "wsext.canonical"), ("gamma-check", "wsext.gammabuild"),
    ("gamma-check without --rebuild", "wsext.gammabuild")])
def test_each_command_executes_only_its_layers(command, layer, tmp_path, capsys):
    """``check`` executes neither the action-data layer, ``ambient``, nor
    the document writer, nor the library-only ``extras``; the other two run
    the action-data layer through their own, and the writer only when they
    write a document (a canonical document's schema is ``ambient``'s)."""
    ext, theta = str(fixture_path("example_monoid")), str(fixture_path("theta_monoid_xzy"))
    canon = tmp_path / "canon.json"
    argv = {
        "check": ["check", ext, "--theta", theta],
        "canonicalize": ["canonicalize", ext, "--theta", theta, "-o", str(canon)],
        "gamma-check": ["gamma-check", str(canon), "--rebuild", str(tmp_path / "rebuilt.json")],
        "gamma-check without --rebuild": ["gamma-check", str(canon)],
    }[command]
    if argv[0] == "gamma-check":
        assert main(["canonicalize", ext, "--theta", theta, "-o", str(canon)]) == 0
        capsys.readouterr()
    code, executed = _probe(
        "import contextlib, io, json, sys, types\n"
        "from wsext import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        f"print(json.dumps([code, {EXECUTED}]))")
    assert code == 0
    writes = ["wsext.writer"] if argv[-2] in ("-o", "--rebuild") else []
    assert executed == sorted(BASE + ([layer, "wsext.ambient"] + writes if layer else []))


def test_each_input_file_has_one_decoding_path():
    """A file goes by name to its decoder (serialize._resolve); the wrappers
    that loaded it by hand, and the CLI's own term parsing, are gone."""
    from wsext import cli, serialize

    assert not {"load_algebra", "load_morphism"} & set(vars(serialize))
    assert "parse_term" not in vars(cli)


# the names the package exported when it imported every layer eagerly
EXPORTS = [
    "App", "CandidateOps", "CanonicalExtension", "CheckResult", "DEFAULT_BUDGET", "Equation",
    "ExtensionMorphism", "FiniteAlgebra", "FnTable", "GammaData", "ProductCheck", "Report",
    "ReportEntry", "Signature", "SplitExtension", "Term", "TermSpec", "ThetaSpec",
    "TupleSpace", "Var", "Witness", "build_canonical", "build_extension_from_gamma",
    "check_commuting", "check_conditions", "check_equation", "check_morphism_surjectivity",
    "check_theta_admissible", "compute_Y", "count_witnesses", "enumerate_homomorphisms",
    "extract_gamma", "feasible_tuples", "find_witnesses", "format_term", "gamma_table",
    "is_homomorphism", "is_schreier", "make_algebra", "membership_by_term", "parse_term",
    "phi", "product_algebra", "product_extension_check",
    "psi", "pullback_algebra", "pullback_extension", "semiabelian_witness",
    "sigma_tau_decompose", "subalgebra_closure", "trivial_algebra", "validate_morphism",
    "validate_split_extension", "validate_witness", "verify_isomorphism",
]


def test_the_public_namespace_is_unchanged():
    assert sorted(wsext.__all__) == EXPORTS
    for name in EXPORTS:
        module = importlib.import_module(f"wsext.{wsext._MODULE_OF[name]}")
        value = getattr(wsext, name)
        assert value is getattr(module, name)
        # the table names the module that defines the name, not one that re-exports it
        defined_in = getattr(value, "__module__", "")
        assert not defined_in.startswith("wsext") or defined_in == module.__name__, name
    assert set(EXPORTS) <= set(dir(wsext))
    namespace = {}
    exec("from wsext import *", namespace)
    assert all(namespace[name] is getattr(wsext, name) for name in EXPORTS)
    with pytest.raises(AttributeError, match="no_such_name"):
        wsext.no_such_name


# The layers of the package, lowest first.  canonical, extras, gammabuild
# and transport share one: each serves its own commands (extras none, the
# library only), canonical and gammabuild as clients of the action-data
# layer, ambient, and none of the four imports another.  The document
# writer lies below serialize, which loads it on first use.
LAYERS = [{"errors"}, {"report"}, {"terms"}, {"algebra"}, {"ambient"}, {"extension"},
          {"canonical", "extras", "gammabuild", "transport"}, {"writer"}, {"serialize"},
          {"cli"}, {"__main__"}]
LAYER_OF = {module: i for i, layer in enumerate(LAYERS) for module in layer}


def package_imports(source: str) -> set[str]:
    """The top-level package modules that a module imports at run time,
    counting each module registered through the CLI's ``_lazy``."""
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
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "_lazy"):
            names = [f"wsext.{arg.value}" for arg in node.args if isinstance(arg, ast.Constant)]
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
        "transport": "gb = _lazy('gammabuild')\n",
    }
    assert layering_violations(sources) == [
        "algebra imports ambient", "gammabuild imports canonical", "report imports terms",
        "transport imports gammabuild"]
