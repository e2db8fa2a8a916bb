"""Each test structure has one home: ``conftest.py`` holds the monoid
signature, Z_m over any signature of operations of arity at most 2, the
product extension, the semidirect product of groups, the outcome of a
call, the label-independence check and the round-trip check, and
``test_properties.py`` draws its algebras from one strategy per kind
(``free_algebras``, ``unital_algebras``) and its terms from one
(``sig_terms``), each driven by the signature.  No test module but
``conftest.py`` may define a function under the name of a helper that was
folded into one of these, so a copy cannot come back under its old name.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
RETIRED = ("product_family", "dihedral_extension", "outcome", "any_outcome", "read_outcome",
           "small_algebras", "sig4_algebras", "zsig_algebras", "unital_magmas", "sig4_terms",
           "usig_terms", "semidirect", "cyclic", "cyclic_group")


def retired_definitions(source: str) -> list[str]:
    """Every definition of a function under a retired name, at any depth."""
    return [f"def {node.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name in RETIRED]


def test_no_module_but_conftest_defines_a_retired_helper():
    found = {path.name: retired_definitions(path.read_text())
             for path in sorted(TESTS.glob("*.py")) if path.name != "conftest.py"}
    assert {name: defs for name, defs in found.items() if defs} == {}


def test_the_scan_catches_a_retired_helper():
    source = ("from conftest import outcome\n"
              "def any_outcome(fn):\n"
              "    try:\n"
              "        return outcome(fn)\n"
              "    except Exception as exc:\n"
              "        return 'raised', type(exc)\n"
              "class Cases:\n"
              "    async def semidirect(self, X, B, alpha):\n"
              "        def product_family(m):\n"
              "            return m\n")
    assert retired_definitions(source) == [
        "def any_outcome (line 2)", "def semidirect (line 8)", "def product_family (line 9)"]
