"""The benchmark's view of the code stays whole.

``perfbench/traced.py`` rebinds the library functions it times by
``(module, function)`` after ``import wsext.cli``, ``perfbench/test_smoke.py``
reads functions through the layer modules, and ``pipeline.check_rebuilt``
imports its own.  A function that moves to another module without a name
left behind would drop its span, or break the benchmark, without failing
anything else; so each name must resolve where the benchmark looks for it,
and a traced pass must record every span its commands call.
"""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import SRC

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from pipeline import WORKLOADS, run_traced_pass  # noqa: E402
from traced import TRACED  # noqa: E402


def smoke_names() -> set[tuple[str, str]]:
    """(module, attribute) of every ``alias.attribute`` that test_smoke.py
    reads off a layer module it imports as ``from wsext import module as alias``."""
    tree = ast.parse((PERFBENCH / "test_smoke.py").read_text())
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "wsext"
               for alias in node.names}
    return {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def rebuilt_check_names() -> set[tuple[str, str]]:
    """(module, name) of each import in pipeline.check_rebuilt."""
    tree = ast.parse((PERFBENCH / "pipeline.py").read_text())
    check = next(node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == "check_rebuilt")
    return {(node.module.removeprefix("wsext."), alias.name) for node in ast.walk(check)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_every_name_the_benchmark_reads_resolves_after_the_cli_import():
    traced = sorted(set(TRACED.values()))
    imported = sorted(smoke_names() | rebuilt_check_names())
    assert ("serialize", "load_extension") in imported
    assert ("extension", "feasible_tuples") in imported
    code = (
        "import importlib, json, sys\n"
        "import wsext.cli\n"
        # traced.install reads each module as the CLI import left it
        f"traced = [hasattr(sys.modules['wsext.' + m], f) for m, f in {traced!r}]\n"
        f"imported = [hasattr(importlib.import_module('wsext.' + m), f) for m, f in {imported!r}]\n"
        "print(json.dumps([traced, imported]))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True).stdout
    found_traced, found_imported = json.loads(out)
    assert [name for name, ok in zip(traced, found_traced) if not ok] == []
    assert [name for name, ok in zip(imported, found_imported) if not ok] == []


# the span names each command of a canon-product pass calls
SPANS = {
    "check": {"serialize.ext_decode", "serialize.json_parse", "serialize.report_text",
              "extension.validate", "extension.count_witnesses",
              "extension.find_witnesses", "extension.is_schreier"},
    "canonicalize": {"serialize.ext_decode", "serialize.json_parse", "serialize.report_text",
                     "extension.validate", "extension.find_witnesses", "canonical.build",
                     "canonical.verify", "serialize.canonical_to_obj", "serialize.dump"},
    "gamma-check": {"serialize.json_parse", "serialize.gamma_decode", "serialize.report_text",
                    "extension.validate", "gammabuild.check_conditions", "gammabuild.compute_Y",
                    "gammabuild.rebuild", "serialize.extension_to_obj", "serialize.dump"},
}


def test_a_traced_pass_records_every_span_its_commands_call(tmp_path):
    wl = dataclasses.replace(WORKLOADS["canon-product"], m=2)
    assert set(SPANS) == set(wl.commands)
    assert set().union(*SPANS.values()) == set(TRACED)
    fam = wl.family(3)
    fam.write(tmp_path)
    invs, trace = run_traced_pass(wl, fam, tmp_path, 0)
    assert all(not inv.problems for inv in invs), [inv.problems for inv in invs]
    spans = trace["spans"]
    # each span under the top-level span of its command
    command_of = {}
    for s in spans:
        parent = s["parent"]
        command_of[s["id"]] = (s["name"].removeprefix("cli.") if parent is None
                               else command_of[parent])
    recorded = {command: set() for command in wl.commands}
    for s in spans:
        if s["parent"] is not None and command_of[s["id"]] in recorded:
            recorded[command_of[s["id"]]].add(s["name"])
    assert recorded == SPANS
