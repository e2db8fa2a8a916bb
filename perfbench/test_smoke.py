"""Tiny-size checks of the benchmark's generators, closed forms and gate.

Run with the library on the path, e.g.
``PYTHONPATH=src python -m pytest perfbench/test_smoke.py``.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from families import FAMILIES  # noqa: E402
from pipeline import WORKLOADS, check_report, run_pass, run_traced_pass  # noqa: E402
from wsext import canonical as can  # noqa: E402
from wsext import extension as ext  # noqa: E402
from wsext import serialize as S  # noqa: E402


def _load_oracles():
    spec = importlib.util.spec_from_file_location(
        "wsext_test_oracles", HERE.parent / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()
CASES = [(kind, m) for kind in sorted(FAMILIES) for m in (2, 3)]


def _load(fam):
    e, _, axioms = S.extension_from_obj(fam.ext)
    theta = S.theta_from_obj(fam.theta, e.X.signature)
    return e, theta, axioms


@pytest.mark.parametrize("kind,m", CASES)
@pytest.mark.parametrize("seed", [1, 2])
def test_family_is_a_valid_split_extension(kind, m, seed):
    fam = FAMILIES[kind](m, seed)
    e, theta, _ = _load(fam)
    assert ext.validate_split_extension(e).ok
    assert ext.count_witnesses(e, theta) == fam.witness_count
    assert ext.is_schreier(e, theta) is fam.schreier


@pytest.mark.parametrize("kind,m", [("product", 2), ("dihedral", 2), ("dihedral", 3)])
def test_closed_form_witness_count_matches_brute_force(kind, m):
    # the product at m = 3 has 3^18 candidate function pairs, too many to list
    e, theta, _ = _load(FAMILIES[kind](m, 1))
    assert len(oracles.brute_force_witnesses(e, theta, normalized=True)) == \
        FAMILIES[kind](m, 1).witness_count


@pytest.mark.parametrize("kind,m", CASES)
def test_counts_repeat_across_seeds_and_match_the_library(kind, m):
    fams = [FAMILIES[kind](m, seed) for seed in (1, 2)]
    if m == 3:  # at m = 2 there are too few relabelings to tell seeds apart
        assert fams[0].ext != fams[1].ext
    assert fams[0].counts() == fams[1].counts()
    counts = fams[0].counts()
    for fam in fams:
        e, theta, axioms = _load(fam)
        T = ext.feasible_tuples(e, theta, normalize=False)
        assert sum(map(len, T)) == counts["feasible_hits"]
        w = ext.find_witnesses(e, theta, limit=1)[0]
        c = can.build_canonical(e, theta, w)
        assert len(c.Y) == counts["carrier_size"] == e.A.size
        assert sum(len(t) for t in c.gamma.values()) == counts["gamma_entries"]
        assert sum(len(c.Y) ** len(ax.vars) for ax in axioms) == counts["axiom_cases"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pipeline_passes_the_gate_at_tiny_size(name, tmp_path):
    wl = dataclasses.replace(WORKLOADS[name], m=2)
    fam = wl.family(3)
    fam.write(tmp_path)
    for invs in (run_pass(wl, fam, tmp_path), run_traced_pass(wl, fam, tmp_path, 0)[0]):
        assert [inv.command for inv in invs] == list(wl.commands)
        assert all(not inv.problems for inv in invs), [inv.problems for inv in invs]
    _, trace = run_traced_pass(wl, fam, tmp_path, 1)
    names = {s["name"] for s in trace["spans"]}
    assert {"extension.validate", "extension.count_witnesses"} <= names
    if "gamma-check" in wl.commands:
        assert {"canonical.build", "gammabuild.check_conditions", "gammabuild.rebuild",
                "serialize.gamma_decode"} <= names
    for s in trace["spans"]:
        assert 0 <= s["self_s"] <= s["duration_s"] + 1e-9


def test_gate_rejects_a_wrong_answer(tmp_path):
    wl = dataclasses.replace(WORKLOADS["search-product"], m=2)
    fam = wl.family(1)
    fam.write(tmp_path)
    (inv,) = run_pass(wl, fam, tmp_path)
    assert not inv.problems
    inv.problems.clear()
    check_report(inv, dataclasses.replace(fam, witness_count=fam.witness_count + 1))
    assert inv.problems
