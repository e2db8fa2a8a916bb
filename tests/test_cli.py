import argparse
import builtins
import contextlib
import copy
import gc
import io
import json
import re
import sys
import tempfile
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from wsext import (
    build_canonical,
    build_extension_from_gamma,
    canonical,
    check_conditions,
    cli,
    gammabuild,
    verify_isomorphism,
)
from wsext import extension as ext
from wsext.algebra import FiniteAlgebra, check_theta_admissible, is_homomorphism
from wsext.ambient import Carrier, membership_by_term
from wsext.cli import main
from wsext.errors import SectionNotHomomorphism
from wsext.fixtures import EXTENSIONS, fixture_path
from wsext.serialize import (
    canonical_to_obj,
    dump_json,
    extension_to_obj,
    gamma_from_obj,
    load_extension,
    to_text,
)

from conftest import (
    TEXT_MUTATIONS,
    assert_rebuilds,
    load_fixture,
    mutate_text,
    projections,
    run_cli,
    runs_of,
)
from oracles import brute_force_rebuild

EXAMPLE = str(fixture_path("example_monoid"))
THETA_XZY = str(fixture_path("theta_monoid_xzy"))
THETA_SUM = str(fixture_path("theta_monoid_sum"))
HEYTING = str(fixture_path("heyting_chain"))
THETA_H = str(fixture_path("theta_heyting"))
MAGMA = str(fixture_path("left_unital_magma"))


def _assert_one_error_line(res):
    assert res.stdout == ""
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in res.stderr


def test_check_example_exits_zero_and_reports_sizes():
    res = run_cli("check", EXAMPLE, "--theta", THETA_XZY)
    assert res.returncode == 0
    assert "|A| = 5" in res.stdout
    assert "|X x B| = 4" in res.stdout
    assert "q1 = [0, 0, 0, 0, 1]; q2 = [0, 1, 0, 1, 0]" in res.stdout


def test_check_example_json_mode():
    res = run_cli("check", EXAMPLE, "--theta", THETA_XZY, "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["schema"] == "wsext.report/1"
    assert payload["sizes"]["A"] == 5
    assert payload["sizes"]["X_times_B"] == 4
    assert payload["witness_count"] == 6
    assert [[0, 0, 0, 0, 1], [0, 1, 0, 1, 0]] in payload["witnesses"]
    assert payload["schreier"] is False


def test_check_strictness_exits_one():
    res = run_cli("check", EXAMPLE, "--theta", THETA_SUM)
    assert res.returncode == 1
    assert "witnesses: 0" in res.stdout


def test_check_inline_theta_wins_over_file():
    res = run_cli("check", EXAMPLE, "--theta", THETA_SUM,
                  "--theta-vars", "x1,x2,y", "--theta-term", "(+ x1 (+ y x2))",
                  "--json")
    assert res.returncode == 0
    assert json.loads(res.stdout)["n"] == 2


def test_check_invalid_extension_exits_two(tmp_path):
    doc = json.loads(fixture_path("example_monoid").read_text())
    doc["s"] = [0, 3]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    res = run_cli("check", str(path), "--theta", THETA_XZY)
    assert res.returncode == 2
    assert "validation: FAIL" in res.stdout


def test_check_malformed_json_exits_64(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops")
    res = run_cli("check", str(path), "--theta", THETA_XZY)
    assert res.returncode == 64


def test_check_missing_theta_exits_64():
    res = run_cli("check", EXAMPLE)
    assert res.returncode == 64


@pytest.mark.parametrize("theta_vars, theta_term, message", [
    ("x1,x2,y", "", "empty term (at offset 0)"),
    ("", "(+ x1 (+ y x2))", "symbol 'x1' is neither a variable nor an operation"),
], ids=["empty term", "empty vars"])
def test_an_empty_inline_theta_flag_is_named(theta_vars, theta_term, message):
    # both flags given, one of them empty: the error names what is wrong
    # with the term, not a missing flag
    argv = ["check", EXAMPLE, "--theta-vars", theta_vars, "--theta-term", theta_term]
    assert _run_main(argv) == (64, "", f"error: {message}\n")


@pytest.mark.parametrize("flags", [["--theta-term", "(+ x1 (+ y x2))"],
                                   ["--theta-vars", "x,y"]], ids=["term only", "vars only"])
def test_one_inline_theta_flag_alone_is_named(flags):
    assert _run_main(["check", EXAMPLE, *flags]) == \
        (64, "", "error: --theta-vars and --theta-term must be given together\n")


def test_empty_theta_vars_alone_fall_back_to_the_theta_file():
    argv = ["check", EXAMPLE, "--theta", THETA_XZY]
    assert _run_main(argv + ["--theta-vars", ""]) == _run_main(argv)
    assert _run_main(argv)[0] == 0


def test_a_witness_with_n_0_is_named(tmp_path):
    doc = json.loads(fixture_path("example_monoid").read_text())
    doc["witness"] = {"n": 0, "q": []}
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(doc))
    assert _run_main(["check", str(path), "--theta", THETA_XZY]) == \
        (64, "", "error: witness n must be at least 1, got 0\n")


def test_check_usage_error_exits_64():
    res = run_cli("check")
    assert res.returncode == 64


def test_check_no_normalize():
    res = run_cli("check", HEYTING, "--theta", THETA_H, "--no-normalize",
                  "--json")
    assert json.loads(res.stdout)["witness_count"] == 16


def test_canonicalize_writes_gamma_checkable_file(tmp_path):
    out = tmp_path / "canon.json"
    res = run_cli("canonicalize", EXAMPLE, "--theta", THETA_XZY, "-o", str(out))
    assert res.returncode == 0
    assert "canonical carrier: 5 tuples" in res.stdout
    assert "section_transport: PASS" in res.stdout

    res2 = run_cli("gamma-check", str(out))
    assert res2.returncode == 0
    for line in ("axioms_hold_on_carrier: PASS",
                 "kernel_embedding_well_defined: PASS",
                 "kernel_embedding_homomorphism: PASS",
                 "projection_witness: PASS"):
        assert line in res2.stdout


def test_gamma_check_rebuild_roundtrip(tmp_path):
    canon = tmp_path / "canon.json"
    rebuilt = tmp_path / "rebuilt.json"
    run_cli("canonicalize", EXAMPLE, "--theta", THETA_XZY, "-o", str(canon))
    res = run_cli("gamma-check", str(canon), "--rebuild", str(rebuilt))
    assert res.returncode == 0
    res2 = run_cli("check", str(rebuilt), "--theta", THETA_XZY, "--json")
    assert res2.returncode == 0
    assert json.loads(res2.stdout)["sizes"]["A"] == 5


def test_gamma_check_mutated_data_fails(tmp_path):
    canon = tmp_path / "canon.json"
    run_cli("canonicalize", EXAMPLE, "--theta", THETA_XZY, "-o", str(canon))
    doc = json.loads(canon.read_text())
    doc["gamma"]["+"][2][1] = [1, 1]   # the psi(1) + psi(2) entry
    mutated = tmp_path / "mutated.json"
    mutated.write_text(json.dumps(doc))
    res = run_cli("gamma-check", str(mutated))
    assert res.returncode == 1
    assert "FAIL" in res.stdout


def test_canonicalize_heyting_witness_index(tmp_path):
    out = tmp_path / "h.json"
    res = run_cli("canonicalize", HEYTING, "--theta", THETA_H,
                  "--witness-index", "0", "-o", str(out))
    # the lexicographically first witness is not the zero-tuple one:
    # the section entry fails, the isomorphism core passes
    assert res.returncode == 0
    assert "section_transport: FAIL" in res.stdout
    assert "phi_psi_identity: PASS" in res.stdout


def test_pullback_identity(tmp_path):
    hom = tmp_path / "hom.json"
    n2 = json.loads(fixture_path("n2").read_text())
    hom.write_text(json.dumps({"B_prime": n2, "f": [0, 1]}))
    out = tmp_path / "pulled.json"
    res = run_cli("pullback", EXAMPLE, str(hom), "--theta", THETA_XZY,
                  "-o", str(out))
    assert res.returncode == 0
    res2 = run_cli("check", str(out), "--theta", THETA_XZY, "--json")
    assert res2.returncode == 0
    assert json.loads(res2.stdout)["sizes"]["A"] == 5


def test_pullback_along_terminal_map_yields_kernel(tmp_path):
    hom = tmp_path / "hom.json"
    one = {"signature": {"ops": [{"name": "+", "arity": 2},
                                 {"name": "0", "arity": 0}], "constant": "0"},
           "size": 1, "tables": {"+": [[0]], "0": 0}}
    hom.write_text(json.dumps({"B_prime": one, "f": [0]}))
    out = tmp_path / "pulled.json"
    res = run_cli("pullback", EXAMPLE, str(hom), "--theta", THETA_XZY,
                  "-o", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["A"]["size"] == 2  # the kernel of p


def test_pullback_rejects_non_homomorphism(tmp_path):
    hom = tmp_path / "hom.json"
    n2 = json.loads(fixture_path("n2").read_text())
    hom.write_text(json.dumps({"B_prime": n2, "f": [1, 0]}))
    res = run_cli("pullback", EXAMPLE, str(hom), "--theta", THETA_XZY)
    assert res.returncode == 2


def test_pullback_respects_budget(tmp_path):
    # the pullback along the identity has 5 elements: 5^2 + 5^0 = 26 entries
    hom = tmp_path / "hom.json"
    n2 = json.loads(fixture_path("n2").read_text())
    hom.write_text(json.dumps({"B_prime": n2, "f": [0, 1]}))
    argv = ["pullback", EXAMPLE, str(hom), "--theta", THETA_XZY, "--budget"]
    assert run_cli(*argv, "26").returncode == 0
    res = run_cli(*argv, "25")
    assert res.returncode == 64
    _assert_one_error_line(res)
    assert res.stderr == "error: pullback tables need 26 entries, budget is 25\n"


@pytest.mark.parametrize("json_mode", [False, True], ids=["plain", "json"])
def test_check_respects_budget(json_mode):
    # the fibre walk is the dearest gate: |A| * |X|^n = 5 * 2^2 evaluations
    argv = ["check", EXAMPLE, "--theta", THETA_XZY, *(["--json"] if json_mode else []), "--budget"]
    assert run_cli(*argv, "20").returncode == 0
    res = run_cli(*argv, "19")
    assert res.returncode == 64
    _assert_one_error_line(res)
    assert res.stderr == "error: witness feasibility needs 20 evaluations, budget is 19\n"


@pytest.mark.parametrize("json_mode", [False, True], ids=["plain", "json"])
def test_gamma_check_respects_budget(json_mode, tmp_path):
    # associativity, axiom 0, is the dearest gate: |Y|^3 = 5^3 cases
    canon = tmp_path / "canon.json"
    assert run_cli("canonicalize", EXAMPLE, "--theta", THETA_XZY, "-o", str(canon)).returncode == 0
    argv = ["gamma-check", str(canon), *(["--json"] if json_mode else []), "--budget"]
    assert run_cli(*argv, "125").returncode == 0
    res = run_cli(*argv, "124")
    assert res.returncode == 64
    _assert_one_error_line(res)
    assert res.stderr == "error: axiom 0 check exceeds budget\n"


def test_product_check_monoid_passes():
    res = run_cli("product-check", str(fixture_path("n2")),
                  "--theta-vars", "x,y", "--theta-term", "(+ x y)")
    assert res.returncode == 0


def test_product_check_magma_obstruction():
    res = run_cli("product-check", MAGMA,
                  "--theta-vars", "x,y", "--theta-term", "(* x y)", "--json")
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert payload["ok"] is False
    assert payload["obstruction"] == 1


def test_product_check_respects_budget(tmp_path):
    # theta(ys, 0) is tabulated over |X|^n = 12^5 tuples, far over the budget
    z12 = {"signature": {"ops": [{"name": "+", "arity": 2}, {"name": "0", "arity": 0}],
                         "constant": "0"},
           "size": 12, "tables": {"+": [[(a + b) % 12 for b in range(12)] for a in range(12)],
                                  "0": 0}}
    path = tmp_path / "z12.json"
    path.write_text(json.dumps(z12))
    res = run_cli("product-check", str(path), "--theta-vars", "x1,x2,x3,x4,x5,y",
                  "--theta-term", "(+ x1 y)", "--budget", "10")
    assert res.returncode == 64
    _assert_one_error_line(res)
    assert res.stderr == "error: product check needs 248832 evaluations, budget is 10\n"
    res = run_cli("product-check", str(path), "--theta-vars", "x,y",
                  "--theta-term", "(+ x y)", "--budget", "12")
    assert res.returncode == 0


def test_morphism_check_identity(tmp_path):
    doc = json.loads(fixture_path("example_monoid").read_text())
    doc.pop("witness"); doc.pop("axioms")
    m = {"source": doc, "target": doc,
         "f": [0, 1], "g": [0, 1, 2, 3, 4], "h": [0, 1]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(m))
    res = run_cli("morphism-check", str(path))
    assert res.returncode == 0
    assert "surjection_lemma: PASS" in res.stdout


def test_morphism_check_validates_the_morphism_once(tmp_path, capsys):
    # f, g and h are each checked once: the surjectivity report reads the
    # validation the command already made
    doc = json.loads(fixture_path("example_monoid").read_text())
    doc.pop("witness"); doc.pop("axioms")
    m = {"source": doc, "target": doc,
         "f": [0, 1], "g": [0, 1, 2, 3, 4], "h": [0, 1]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(m))
    with runs_of(is_homomorphism) as checks:
        assert main(["morphism-check", str(path)]) == 0
    assert len(checks) == 3
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in [
        "morphism validation:",
        *(f"  {name}: PASS" for name in ("f_homomorphism", "g_homomorphism", "h_homomorphism",
                                         "kernel_square", "quotient_square", "section_square")),
        "surjectivity:",
        *(f"  {name}: PASS" for name in ("f_surjective", "h_surjective", "g_surjective",
                                         "joint_generation", "surjection_lemma"))])


def test_morphism_check_broken_square(tmp_path):
    doc = json.loads(fixture_path("example_monoid").read_text())
    doc.pop("witness"); doc.pop("axioms")
    m = {"source": doc, "target": doc,
         "f": [0, 1], "g": [0, 0, 0, 0, 0], "h": [0, 1]}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(m))
    res = run_cli("morphism-check", str(path))
    assert res.returncode == 2


def test_outputs_are_deterministic_across_runs_and_workers():
    base = run_cli("check", EXAMPLE, "--theta", THETA_XZY)
    again = run_cli("check", EXAMPLE, "--theta", THETA_XZY)
    threaded = run_cli("check", EXAMPLE, "--theta", THETA_XZY, "--workers", "4")
    assert base.stdout == again.stdout == threaded.stdout


def test_canonicalize_json_mode(tmp_path):
    out = tmp_path / "canon.json"
    res = run_cli("canonicalize", EXAMPLE, "--theta", THETA_XZY,
                  "-o", str(out), "--json")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["carrier_size"] == 5
    assert all(entry["ok"] for entry in payload["verification"])


def test_canonicalize_ignores_witness_of_other_arity(tmp_path):
    # the embedded example witness has n = 2; with the binary sum term the
    # command must fall back to searching (and find nothing)
    res = run_cli("canonicalize", EXAMPLE, "--theta", THETA_SUM,
                  "-o", str(tmp_path / "c.json"))
    assert res.returncode == 1
    assert "no witness" in res.stdout


def test_canonicalize_trivial_extension(tmp_path):
    one = {"signature": {"ops": [{"name": "+", "arity": 2},
                                 {"name": "0", "arity": 0}], "constant": "0"},
           "size": 1, "tables": {"+": [[0]], "0": 0}}
    n2 = json.loads(fixture_path("n2").read_text())
    doc = {"X": n2, "A": n2, "B": one,
           "k": [0, 1], "p": [0, 0], "s": [0]}
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "canon.json"
    res = run_cli("canonicalize", str(path), "--theta-vars", "x,y",
                  "--theta-term", "(+ x y)", "-o", str(out))
    assert res.returncode == 0
    assert "canonical carrier: 2 tuples" in res.stdout
    payload = json.loads(out.read_text())
    # the carrier is X x {0} carrying X's own addition
    assert payload["Y"] == [[0, 0], [1, 0]]
    assert payload["ops_Y"]["+"] == [[0, 1], [1, 1]]


def test_gamma_check_rebuild_refuses_incompatible_witness(tmp_path):
    canon = tmp_path / "canon.json"
    res = run_cli("canonicalize", HEYTING, "--theta", THETA_H,
                  "--witness-index", "0", "-o", str(canon))
    assert res.returncode == 0
    res2 = run_cli("gamma-check", str(canon), "--rebuild",
                   str(tmp_path / "never.json"))
    # the four conditions hold, but the zero-tuple section misses the carrier
    assert res2.returncode == 1
    assert "rebuild: FAIL" in res2.stdout
    assert not (tmp_path / "never.json").exists()


def test_gamma_check_rebuild_refuses_a_section_that_is_not_a_homomorphism(tmp_path):
    # X = B = Z_2, theta = x + y: the four conditions hold and every
    # zero-tuple is in the carrier, but b -> (0, b) does not preserve +
    z2 = {"signature": {"ops": [{"name": "0", "arity": 0}, {"name": "+", "arity": 2}],
                        "constant": "0"},
          "size": 2, "tables": {"0": 0, "+": [[0, 1], [1, 0]]}}
    plus = [0, 0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1]
    doc = {"X": z2, "B": z2, "theta": {"vars": ["x", "y"], "term": "(+ x y)"},
           "gamma": {"0": [0], "+": [[[v] for v in plus[i:i + 4]] for i in range(0, 16, 4)]},
           "axioms": [{"vars": ["a", "b", "c"], "lhs": "(+ a (+ b c))",
                       "rhs": "(+ (+ a b) c)"}]}
    message = ("zero-tuple section is not a homomorphism: "
               "{'op': '+', 'args': [1, 1], 'f(op(args))': 0, 'op(f(args))': 2}")
    g = gamma_from_obj(doc)
    assert check_conditions(g).ok
    for rebuild in (build_extension_from_gamma, brute_force_rebuild):
        with pytest.raises(SectionNotHomomorphism) as exc:
            rebuild(g)
        assert str(exc.value) == message

    path, out = tmp_path / "gamma.json", tmp_path / "never.json"
    path.write_text(json.dumps(doc))
    res = run_cli("gamma-check", str(path), "--rebuild", str(out))
    assert res.returncode == 1 and res.stderr == ""
    assert res.stdout.splitlines()[-1] == f"rebuild: FAIL [{message}]"
    res = run_cli("gamma-check", str(path), "--rebuild", str(out), "--json")
    assert res.returncode == 1
    payload = json.loads(res.stdout)
    assert all(entry["ok"] for entry in payload["conditions"])
    assert payload["rebuild"] == {"ok": False, "error": message}
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ("check", EXAMPLE, "--theta", THETA_XZY, "--limit", "-1"),
    ("check", EXAMPLE, "--theta", THETA_XZY, "--workers", "-3"),
    ("check", EXAMPLE, "--theta", THETA_XZY, "--budget", "-1"),
    ("canonicalize", EXAMPLE, "--theta", THETA_XZY, "--witness-index", "-1"),
])
def test_negative_counts_are_usage_errors(args):
    res = run_cli(*args)
    assert res.returncode == 64
    assert "non-negative" in res.stderr
    assert "Traceback" not in res.stderr


def test_canonicalize_respects_budget():
    res = run_cli("canonicalize", EXAMPLE, "--theta", THETA_XZY, "--budget", "1")
    assert res.returncode == 64
    _assert_one_error_line(res)


def test_deeply_nested_json_is_a_file_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    res = run_cli("gamma-check", str(path))
    assert res.returncode == 64
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr


def _deep(depth, inner):
    """(+ x1 (+ x1 .. inner)): a term ``depth`` applications deep."""
    return "(+ x1 " * depth + inner + ")" * depth


def test_deep_inline_term_is_a_parse_error():
    res = run_cli("check", EXAMPLE, "--theta-vars", "x1,x2,y",
                  "--theta-term", _deep(3000, "(+ y x2)"))
    assert res.returncode == 64
    _assert_one_error_line(res)


def test_deep_theta_file_is_a_parse_error(tmp_path):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps({"vars": ["x1", "x2", "y"], "term": _deep(3000, "(+ y x2)")}))
    res = run_cli("check", EXAMPLE, "--theta", str(path))
    assert res.returncode == 64
    _assert_one_error_line(res)


def test_deep_extension_axiom_is_a_parse_error(tmp_path):
    e, w, _ = load_extension(EXAMPLE)
    doc = extension_to_obj(e, witness=w)
    doc["axioms"] = [{"vars": ["x1", "y"], "lhs": _deep(3000, "y"), "rhs": "y"}]
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(doc))
    res = run_cli("check", str(path), "--theta", THETA_XZY)
    assert res.returncode == 64
    _assert_one_error_line(res)


def test_internal_errors_exit_70_with_one_line(monkeypatch, capsys):
    def broken(args):
        raise ZeroDivisionError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_check", broken)
    assert main(["check", EXAMPLE, "--theta", THETA_XZY]) == 70
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: ZeroDivisionError: boom second line\n"


def _wrong_table(read_off):
    """The carrier with one entry of its '+' table moved to the next member."""
    def carrier(action_data, budget):
        car = read_off(action_data, budget)
        tables = dict(car.algebra.tables)
        plus = list(tables["+"])
        plus[5] = (plus[5] + 1) % len(car.Y)
        tables["+"] = tuple(plus)
        algebra = FiniteAlgebra(car.algebra.signature, car.algebra.size, tables)
        return Carrier(**{**{f: getattr(car, f) for f in car._fields}, "algebra": algebra})
    return carrier


def _one_member_short(read_off):
    """The carrier read off Y without its last member."""
    return lambda action_data, budget: read_off(action_data, budget, lambda c, budget: (
        membership_by_term(c, budget=budget)[:-1]))


@pytest.mark.parametrize("json_mode", [False, True], ids=["plain", "json"])
@pytest.mark.parametrize("patch, code, line", [
    # Y's operations disagree with the transport along psi: a verification FAIL
    (_wrong_table, 2, "  psi_homomorphism: FAIL  [op '+' at (2, 0)]"),
    # a carrier that is not closed: an internal check, one stderr line
    (_one_member_short, 64, "error: carrier not closed under '+' at (2, 1)"),
], ids=["wrong-table", "short-carrier"])
def test_a_carrier_that_disagrees_with_the_witness_names_the_law(
        patch, code, line, json_mode, monkeypatch, capsys):
    # only a bug reaches either: the canonical form reads Y off the action data
    monkeypatch.setattr(canonical, "carrier", patch(canonical.carrier))
    assert main(["canonicalize", EXAMPLE, "--theta", THETA_XZY,
                 *(["--json"] if json_mode else [])]) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if code == 64:
        assert (out, err) == ("", line + "\n")
    elif json_mode:
        name, _, detail = line.strip().partition(": FAIL  ")
        assert {"name": name, "ok": False, "detail": detail[1:-1]} in \
            json.loads(out)["verification"]
        assert err == ""
    else:
        assert line in out.splitlines() and err == ""


def test_a_theta_file_is_named_as_given(tmp_path, monkeypatch, capsys):
    # the --theta file was resolved against the absolute working directory,
    # so its errors named the absolute path, unlike every other input's
    (tmp_path / "ext.json").write_text(Path(EXAMPLE).read_text())
    monkeypatch.chdir(tmp_path)
    assert main(["check", "nope.json", "--theta", THETA_XZY]) == 64
    missing_extension = capsys.readouterr()
    assert main(["check", "ext.json", "--theta", "nope.json"]) == 64
    assert capsys.readouterr() == missing_extension
    assert missing_extension.err.startswith("error: cannot read nope.json: ")


def test_a_failed_report_write_exits_70_with_one_line():
    class BrokenPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    err = io.StringIO()
    with contextlib.redirect_stdout(BrokenPipe()), contextlib.redirect_stderr(err):
        assert main(["check", EXAMPLE, "--theta", THETA_XZY, "--json"]) == 70
    assert err.getvalue() == "internal error: BrokenPipeError: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("json_mode", [False, True], ids=["plain", "json"])
def test_a_full_stdout_exits_70_with_one_line_in_every_buffering_mode(json_mode, unbuffered):
    # block-buffered stdout used to fail only at interpreter teardown: exit 120
    with open("/dev/full", "w") as full:
        res = run_cli("check", EXAMPLE, "--theta", THETA_XZY, *(["--json"] if json_mode else []),
                      stdout=full, PYTHONUNBUFFERED=unbuffered)
    assert res.returncode == 70
    assert res.stderr == "internal error: OSError: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]], ids=["wsext", "check"])
def test_help_on_a_full_stdout_exits_70_with_one_line(argv, unbuffered):
    # argparse used to drop the failed write (exit 0) or leave it to teardown (exit 120)
    with open("/dev/full", "w") as full:
        res = run_cli(*argv, stdout=full, PYTHONUNBUFFERED=unbuffered)
    assert res.returncode == 70
    assert res.stderr == "internal error: OSError: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full device")
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
def test_an_embedder_exits_70_with_one_line_after_a_failed_stdout_write(unbuffered):
    # main returned 70, but teardown flushed the report again: exit 120
    embedder = ("-c", "import sys; from wsext.cli import main; sys.exit(main())")
    with open("/dev/full", "w") as full:
        res = run_cli("check", EXAMPLE, "--theta", THETA_XZY, entry=embedder, stdout=full,
                      PYTHONUNBUFFERED=unbuffered)
    assert res.returncode == 70
    assert res.stderr == "internal error: OSError: [Errno 28] No space left on device\n"


def _main_exit(argv):
    """(exit code, stdout, stderr) of main in this process, argparse's
    ``SystemExit`` included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _invalid_example(tmp_path):
    doc = json.loads(fixture_path("example_monoid").read_text())
    doc["s"] = [0, 3]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    return str(path)


# (exit code, argv; a callable argument is given tmp_path)
PROCESS_EXITS = {
    "found": (0, ["check", EXAMPLE, "--theta", THETA_XZY]),
    "no witness": (1, ["check", EXAMPLE, "--theta", THETA_SUM]),
    "invalid extension": (2, ["check", _invalid_example, "--theta", THETA_XZY]),
    "no theta": (64, ["check", EXAMPLE]),
    "usage error": (64, ["check"]),
    "help": (0, ["--help"]),
    "command help": (0, ["check", "--help"]),
}


@pytest.mark.parametrize("json_mode", [False, True], ids=["plain", "json"])
@pytest.mark.parametrize("case", sorted(PROCESS_EXITS))
def test_a_cli_process_exits_as_main_returns(case, json_mode, tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps alike in both processes
    code, argv = PROCESS_EXITS[case]
    argv = [a(tmp_path) if callable(a) else a for a in argv] + (["--json"] if json_mode else [])
    res = run_cli(*argv)
    main_code, out, err = _main_exit(argv)
    assert res.returncode == main_code == code
    assert res.stdout == out
    if case != "usage error":  # argparse wraps its usage line to the terminal
        assert res.stderr == err


def test_a_json_report_larger_than_the_stdout_buffer_arrives_whole():
    argv = ["check", str(fixture_path("n2_product")), "--theta-vars", "x1,x2,x3,x4,y",
            "--theta-term", "(+ x1 (+ x2 (+ x3 (+ x4 y))))", "--no-normalize",
            "--limit", "1000", "--json"]
    res = run_cli(*argv, PYTHONUNBUFFERED=None)
    assert res.returncode == 0 and res.stderr == ""
    assert len(res.stdout) > 4 * io.DEFAULT_BUFFER_SIZE
    assert res.stdout == _main_exit(argv)[1]
    doc = json.loads(res.stdout)
    assert len(doc["witnesses"]) == doc["witness_count"] == 225


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_files_written_by_a_cli_process_equal_the_files_of_main(name, tmp_path):
    written = {}
    for side in ("process", "main"):
        canon, rebuilt = tmp_path / f"{side}-canon.json", tmp_path / f"{side}-rebuilt.json"
        for argv in (["canonicalize", str(fixture_path(name)), "--theta",
                      str(fixture_path(EXTENSIONS[name])), "-o", str(canon)],
                     ["gamma-check", str(canon), "--rebuild", str(rebuilt)]):
            code = run_cli(*argv).returncode if side == "process" else _main_exit(argv)[0]
            assert code == 0
        written[side] = canon.read_bytes(), rebuilt.read_bytes()
    assert written["process"] == written["main"]
    canon, rebuilt = tmp_path / "process-canon.json", tmp_path / "process-rebuilt.json"
    assert check_conditions(gamma_from_obj(json.loads(canon.read_text()), tmp_path)).ok
    e, _, _ = load_extension(rebuilt)
    assert ext.validate_split_extension(e).ok


def test_unwritable_output_is_a_file_error(tmp_path):
    out = tmp_path / "missing-dir" / "canon.json"
    res = run_cli("canonicalize", EXAMPLE, "--theta", THETA_XZY, "-o", str(out))
    assert res.returncode == 64
    assert res.stderr.startswith("error: cannot write ")
    assert "Traceback" not in res.stderr


def _input_cases(tmp_path):
    """command -> (argv, the input files it reads), every file in tmp_path
    written before the command runs."""
    n2, theta_sum = str(fixture_path("n2")), str(fixture_path("theta_monoid_sum"))
    canon = tmp_path / "canon.json"
    hom = tmp_path / "hom.json"
    hom.write_text(json.dumps({"B_prime": json.loads(Path(n2).read_text()), "f": [0, 1]}))
    target = json.loads(Path(EXAMPLE).read_text())
    morphism = tmp_path / "m.json"  # the source by name, the target inline
    morphism.write_text(json.dumps({"source": EXAMPLE, "target": target,
                                    "f": [0, 1], "g": [0, 1, 2, 3, 4], "h": [0, 1]}))
    theta = ["--theta", THETA_XZY]
    return {
        "check": (["check", EXAMPLE, *theta], [EXAMPLE, THETA_XZY]),
        "canonicalize": (["canonicalize", EXAMPLE, *theta, "-o", str(canon)],
                         [EXAMPLE, THETA_XZY]),
        "gamma-check": (["gamma-check", str(canon), "--rebuild", str(tmp_path / "rebuilt.json")],
                        [canon]),
        "pullback": (["pullback", EXAMPLE, str(hom), *theta], [EXAMPLE, str(hom), THETA_XZY]),
        "product-check": (["product-check", n2, "--theta", theta_sum], [n2, theta_sum]),
        "morphism-check": (["morphism-check", str(morphism)], [str(morphism), EXAMPLE]),
    }


@pytest.mark.parametrize("command", ["check", "canonicalize", "gamma-check", "pullback",
                                     "product-check", "morphism-check"])
def test_each_input_file_is_opened_once(command, tmp_path, monkeypatch, capsys):
    cases = _input_cases(tmp_path)
    argv, inputs = cases[command]
    if command == "gamma-check":
        assert main(cases["canonicalize"][0]) == 0
    reads = Counter()
    real_open, real_read_text = builtins.open, Path.read_text

    def counting_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, Path)) and not set(mode) & set("wax+"):
            reads[Path(file).resolve()] += 1
        return real_open(file, mode, *args, **kwargs)

    def counting_read_text(self, *args, **kwargs):
        reads[self.resolve()] += 1
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(Path, "read_text", counting_read_text)
    assert main(argv) == 0
    assert reads == Counter(Path(f).resolve() for f in inputs)


def _leaf_rows(table, arity):
    """The innermost lists of a nested action table: one row per line."""
    if arity <= 1:
        return [table]
    return [row for sub in table for row in _leaf_rows(sub, arity - 1)]


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_written_files_hold_the_document_one_row_per_line(name, tmp_path, capsys):
    canon, rebuilt = tmp_path / "canon.json", tmp_path / "rebuilt.json"
    theta_file = str(fixture_path(EXTENSIONS[name]))
    assert main(["canonicalize", str(fixture_path(name)), "--theta", theta_file,
                 "-o", str(canon)]) == 0
    assert main(["gamma-check", str(canon), "--rebuild", str(rebuilt)]) == 0
    capsys.readouterr()

    e, w, axioms, theta = load_fixture(name)
    c = build_canonical(e, theta, w)
    doc = canonical_to_obj(c, axioms=axioms, verification=verify_isomorphism(e, c, w))
    text = canon.read_text()
    assert json.loads(text) == json.loads(to_text(doc))
    lines = [ln.rstrip(",") for ln in text.splitlines()]
    for op, arity in c.X.signature.ops:
        for row in _leaf_rows(doc["gamma"][op], arity):
            assert any(ln.endswith(json.dumps(row)) for ln in lines)

    g = gamma_from_obj(json.loads(text))
    e2, w2 = gammabuild.build_extension_from_gamma(g)
    assert json.loads(rebuilt.read_text()) == json.loads(to_text(
        extension_to_obj(e2, witness=w2, axioms=g.axioms)))


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_gamma_check_rebuild_computes_the_carrier_once(name, tmp_path, monkeypatch, capsys):
    canon, rebuilt = tmp_path / "canon.json", tmp_path / "rebuilt.json"
    theta_file = str(fixture_path(EXTENSIONS[name]))
    assert main(["canonicalize", str(fixture_path(name)), "--theta", theta_file,
                 "-o", str(canon)]) == 0
    capsys.readouterr()

    calls = []
    compute_Y = gammabuild.compute_Y
    monkeypatch.setattr(gammabuild, "compute_Y",
                        lambda *a, **kw: calls.append(a) or compute_Y(*a, **kw))
    assert main(["gamma-check", str(canon), "--rebuild", str(rebuilt), "--json"]) == 0
    assert len(calls) == 1

    # the report and the rebuilt file are the canonical form read back
    e, w, axioms, theta = load_fixture(name)
    c = assert_rebuilds(e, theta, w, axioms)
    assert json.loads(capsys.readouterr().out) == {
        "schema": "wsext.report/1",
        "command": "gamma-check",
        "conditions": [{"name": n, "ok": True, "detail": ""} for n in (
            "axioms_hold_on_carrier", "kernel_embedding_well_defined",
            "kernel_embedding_homomorphism", "projection_witness")],
        "carrier_size": len(c.Y),
        "rebuild": {"ok": True, "out": str(rebuilt)},
    }
    assert json.loads(rebuilt.read_text()) == json.loads(json.dumps(
        extension_to_obj(c.extension, witness=projections(c), axioms=axioms)))


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_check_walks_the_fibres_of_phi_once(name, capsys):
    argv = ["check", str(fixture_path(name)), "--theta", str(fixture_path(EXTENSIONS[name]))]
    with runs_of(ext._fibres) as walks:
        assert main(argv) == 0
    capsys.readouterr()
    assert len(walks) == 1


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_canonicalize_builds_phi_once_and_checks_the_unit_law_on_a_x_and_b(
        name, tmp_path, capsys):
    argv = ["canonicalize", str(fixture_path(name)), "--theta",
            str(fixture_path(EXTENSIONS[name])), "-o", str(tmp_path / "canon.json")]
    with runs_of(ext.phi) as tables, runs_of(check_theta_admissible) as unit_laws:
        assert main(argv) == 0
    capsys.readouterr()
    e = load_fixture(name)[0]
    assert len(tables) == 1
    assert [run["A"] for run in unit_laws] == [e.A, e.X, e.B]


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_gamma_check_rebuild_checks_the_unit_law_once_on_x_and_on_b(name, tmp_path, capsys):
    canon, rebuilt = tmp_path / "canon.json", tmp_path / "rebuilt.json"
    assert main(["canonicalize", str(fixture_path(name)), "--theta",
                 str(fixture_path(EXTENSIONS[name])), "-o", str(canon)]) == 0
    with runs_of(check_theta_admissible) as unit_laws:
        assert main(["gamma-check", str(canon), "--rebuild", str(rebuilt)]) == 0
    capsys.readouterr()
    e = load_fixture(name)[0]
    assert [run["A"] for run in unit_laws] == [e.X, e.B]


def _subparsers(parser) -> dict:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def test_a_run_adds_the_arguments_of_its_own_command_only(monkeypatch, capsys):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda *a: built.append(build(*a)) or built[-1])
    assert main(["check", EXAMPLE, "--theta", THETA_XZY]) == 0
    capsys.readouterr()
    (parser,) = built
    held = {name: [a.dest for a in sub._actions if not isinstance(a, argparse._HelpAction)]
            for name, sub in _subparsers(parser).items()}
    assert "extension" in held.pop("check")
    assert held == dict.fromkeys(held, [])


def _declared(action) -> dict:
    return {k: v for k, v in vars(action).items() if k != "container"}


def test_each_command_parser_reads_as_in_the_parser_of_every_command():
    every = _subparsers(cli.build_parser())
    assert len(every) == 6
    for name, sub in every.items():
        alone = _subparsers(cli.build_parser(name))[name]
        assert alone.format_help() == sub.format_help()
        assert list(map(_declared, alone._actions)) == list(map(_declared, sub._actions))


# -- malformed action data ---------------------------------------------------------------

@lru_cache(maxsize=None)
def _canonical_text(name: str = "example_monoid") -> str:
    """The canonical document of a fixture (example_monoid: n = 2, 8
    ambient tuples; s3: a group with a unary operation and axioms)."""
    e, w, axioms, theta = load_fixture(name)
    return json.dumps(canonical_to_obj(build_canonical(e, theta, w), axioms))


def _set(path, value):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return mutate


MALFORMED_GAMMA = {
    "missing op table": lambda doc: doc["gamma"].pop("+"),
    "unknown op": lambda doc: doc["gamma"].update({"*": doc["gamma"]["0"]}),
    "wrong entry length": _set(("gamma", "+", 1, 2), [0]),
    "out-of-range value": _set(("gamma", "+", 1, 2, 0), 2),
    "true value": _set(("gamma", "+", 1, 2, 1), True),
    "float value": _set(("gamma", "+", 1, 2, 0), 1.5),
    "non-list entry": _set(("gamma", "0"), 0),
    "ragged nesting": lambda doc: doc["gamma"]["+"][3].pop(),
    "unknown schema": _set(("schema",), "x"),
    "n contradicts theta": _set(("n",), 99),
    "float n": _set(("n",), 2.0),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GAMMA))
def test_gamma_check_malformed_data_is_a_file_error(case, tmp_path):
    doc = json.loads(_canonical_text())
    MALFORMED_GAMMA[case](doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    res = run_cli("gamma-check", str(path))
    assert res.returncode == 64
    _assert_one_error_line(res)


def _collector_cases(tmp):
    """(argv, expected exit) for the commands that read or write action data."""
    good, bad, broken = tmp / "good.json", tmp / "bad.json", tmp / "broken.json"
    good.write_text(_canonical_text())
    doc = json.loads(_canonical_text())
    MALFORMED_GAMMA["out-of-range value"](doc)
    bad.write_text(json.dumps(doc))
    broken.write_text("{oops")
    return {
        "gamma-check": (["gamma-check", str(good), "--rebuild", str(tmp / "r.json")], 0),
        "canonicalize -o": (["canonicalize", EXAMPLE, "--theta", THETA_XZY,
                             "-o", str(tmp / "c.json")], 0),
        "malformed action data": (["gamma-check", str(bad)], 64),
        "invalid JSON": (["gamma-check", str(broken)], 64),
        "unwritable output": (["canonicalize", EXAMPLE, "--theta", THETA_XZY,
                               "-o", str(tmp / "missing-dir" / "c.json")], 64),
    }


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case", ["gamma-check", "canonicalize -o", "malformed action data",
                                  "invalid JSON", "unwritable output"])
def test_cli_restores_the_collector_state(case, enabled, tmp_path, capsys):
    argv, code = _collector_cases(tmp_path)[case]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()
    capsys.readouterr()


def _leaf_paths(node, path=()):
    """Paths to every scalar of a JSON document, in document order."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, child in items for p in _leaf_paths(child, path + (key,))]


FUZZ_VALUES = [True, None, 1.5, -1, 0, 1, 2, 3, 99, 10 ** 30, "x", [], [0, 0, 0], {}]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["example_monoid", "s3"]), st.booleans(), st.data())
def test_gamma_check_exit_code_contract_under_leaf_fuzz(name, rebuild, data):
    doc = json.loads(_canonical_text(name))
    leaf = st.tuples(st.sampled_from(_leaf_paths(doc)), st.sampled_from(FUZZ_VALUES))
    for path, value in data.draw(st.lists(leaf, min_size=1, max_size=2)):
        _set(path, value)(doc)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.json"
        path.write_text(json.dumps(doc))
        argv = ["gamma-check", str(path)] + (["--rebuild", str(Path(tmp) / "r.json")]
                                             if rebuild else [])
        # an exception escaping main would be a traceback at the shell
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 64)
    assert "Traceback" not in err.getvalue()


# -- every command: early exits, hostile documents, fuzz ------------------------------------

def _documents():
    """The documents the commands read, by role: bundled fixtures."""
    ext = json.loads(fixture_path("example_monoid").read_text())
    bare = {key: ext[key] for key in ("X", "A", "B", "k", "p", "s")}
    n2 = json.loads(fixture_path("n2").read_text())
    return {
        "extension": ext,
        "theta": json.loads(Path(THETA_XZY).read_text()),
        "hom": {"B_prime": n2, "f": [0, 1]},
        "morphism": {"source": bare, "target": json.loads(json.dumps(bare)),
                     "f": [0, 1], "g": [0, 1, 2, 3, 4], "h": [0, 1]},
        "algebra": json.loads(json.dumps(n2)),
        "canonical": json.loads(_canonical_text()),
    }


# the argv of each command; a role stands for the file that holds its document
COMMAND_ARGV = {
    "check": ["check", "extension", "--theta", "theta"],
    "canonicalize": ["canonicalize", "extension", "--theta", "theta"],
    "gamma-check": ["gamma-check", "canonical"],
    "pullback": ["pullback", "extension", "hom", "--theta", "theta"],
    "product-check": ["product-check", "algebra", "--theta", "theta"],
    "morphism-check": ["morphism-check", "morphism"],
}


def _write_documents(docs, tmp: Path) -> dict:
    """Write each document to <role>.json (bytes are written as they are)."""
    paths = {}
    for role, doc in docs.items():
        paths[role] = tmp / f"{role}.json"
        if isinstance(doc, bytes):
            paths[role].write_bytes(doc)
        else:
            paths[role].write_text(json.dumps(doc))
    return paths


def _argv(command: str, paths: dict) -> list[str]:
    return [str(paths[a]) if a in paths else a for a in COMMAND_ARGV[command]]


def _run_main(argv):
    """(exit code, stdout, stderr) of main in this process; an exception
    escaping main would be a traceback at the shell."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# mutations that stop a command before its report: (command, mutation,
# exit code, first words of the plain output)
EARLY_EXITS = {
    "canonicalize, invalid extension": (
        "canonicalize", _set(("extension", "s"), [0, 3]), 2, "validation: FAIL\n  "),
    "canonicalize, no witness": (
        "canonicalize", _set(("theta",), json.loads(Path(THETA_SUM).read_text())), 1,
        "no witness at index 0 (found 0)\n"),
    "pullback, not a homomorphism": (
        "pullback", _set(("hom", "f"), [1, 0]), 2, "f is not a homomorphism: "),
    "pullback, no witness": (
        "pullback", _set(("theta",), json.loads(Path(THETA_SUM).read_text())), 1,
        "no witness for the source extension\n"),
    "pullback, invalid extension": (
        "pullback", _set(("extension", "s"), [0, 3]), 2, "validation: FAIL\n  "),
}


@pytest.mark.parametrize("case", sorted(EARLY_EXITS))
def test_early_exits_print_one_json_document(case, tmp_path):
    command, mutate, code, opening = EARLY_EXITS[case]
    docs = _documents()
    mutate(docs)
    argv = _argv(command, _write_documents(docs, tmp_path))
    plain_code, plain, err = _run_main(argv)
    json_code, out, json_err = _run_main(argv + ["--json"])
    assert plain_code == json_code == code
    assert err == json_err == ""
    assert plain.startswith(opening)
    doc = json.loads(out)
    assert list(doc)[:2] == ["schema", "command"]
    assert doc.pop("schema") == "wsext.report/1" and doc.pop("command") == command
    if case.endswith("invalid extension"):
        # the keys and the values that check reports for the same file
        check = json.loads(_run_main(["check", argv[1]] + argv[argv.index("--theta"):]
                                     + ["--json"])[1])
        assert doc == {"valid": False, "validation": check["validation"]}
    else:
        assert plain.count("\n") == 1 and doc == {"error": plain.rstrip("\n")}


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
@pytest.mark.parametrize("with_witness", [True, False])
def test_a_broken_section_exits_2_before_any_witness_work(name, with_witness, tmp_path):
    ext = json.loads(fixture_path(name).read_text())
    ext["s"] = [0] * len(ext["s"])
    if not with_witness:
        del ext["witness"]
    paths = _write_documents({"extension": ext, "hom": {
        "B_prime": ext["B"], "f": list(range(ext["B"]["size"]))}}, tmp_path)
    source, hom = str(paths["extension"]), str(paths["hom"])
    theta = ["--theta", str(fixture_path(EXTENSIONS[name]))]
    check = json.loads(_run_main(["check", source] + theta + ["--json"])[1])
    for command, *files in (["check", source], ["canonicalize", source],
                            ["pullback", source, hom]):
        argv = [command, *files, *theta]
        code, out, err = _run_main(argv)
        assert (code, err) == (2, "")
        assert "validation: FAIL\n" in out
        if command != "check":
            code, out, _ = _run_main(argv + ["--json"])
            assert code == 2
            assert json.loads(out) == {"schema": "wsext.report/1", "command": command,
                                       "valid": False, "validation": check["validation"]}


# documents that are not objects where an object or a file name belongs,
# and files that cannot be read as text
HOSTILE = {
    "extension X is a list": ("extension", _set(("extension", "X"), [1, 2])),
    "hom B_prime is an int": ("hom", _set(("hom", "B_prime"), 5)),
    "morphism target B is null": ("morphism", _set(("morphism", "target", "B"), None)),
    "algebra ops is an int": ("algebra", _set(("algebra", "signature", "ops"), 5)),
    "canonical theta is a float": ("canonical", _set(("canonical", "theta"), 1.5)),
    "extension is a list": ("extension", _set(("extension",), [1, 2])),
    "theta is true": ("theta", _set(("theta",), True)),
    "hom is null": ("hom", _set(("hom",), None)),
    "file name with a NUL": ("extension", _set(("extension", "A"), "a\x00b")),
    "algebra is not UTF-8": ("algebra", _set(("algebra",), b"\xff\xfe{}")),
    "canonical is not UTF-8": ("canonical", _set(("canonical",), b"{\"X\": \"\xd7\"}")),
    "file name with a newline": ("extension", _set(("extension", "A"), "a\nb")),
}


@pytest.mark.parametrize("case, command", [
    (case, command) for case, (role, _) in sorted(HOSTILE.items())
    for command in sorted(COMMAND_ARGV) if role in COMMAND_ARGV[command]])
def test_hostile_documents_are_file_errors(case, command, tmp_path):
    docs = _documents()
    HOSTILE[case][1](docs)
    argv = _argv(command, _write_documents(docs, tmp_path))
    for flags in ([], ["--json"]):
        code, out, err = _run_main(argv + flags)
        assert code == 64
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


# an integer literal past the interpreter's default limit on int-string
# conversion (4300 digits): the whole-text decode raises ValueError, not
# JSONDecodeError; (role, path to the literal, command that reads the role)
LONG_INTEGERS = {
    "extension k": ("extension", ("extension", "k", 1), "check"),
    "theta vars": ("theta", ("theta", "vars", 0), "check"),
    "canonical n": ("canonical", ("canonical", "n"), "gamma-check"),
}


@pytest.mark.parametrize("case", sorted(LONG_INTEGERS))
@pytest.mark.parametrize("json_mode", [False, True])
def test_an_integer_past_the_digit_limit_is_a_file_error(case, json_mode, tmp_path):
    role, path, command = LONG_INTEGERS[case]
    docs = _documents()
    _set(path, "<long>")(docs)
    paths = _write_documents(docs, tmp_path)
    paths[role].write_text(paths[role].read_text().replace('"<long>"', "9" * 5000))
    res = run_cli(*_argv(command, paths), *(["--json"] if json_mode else []),
                  PYTHONINTMAXSTRDIGITS=None)
    assert res.returncode == 64
    _assert_one_error_line(res)
    assert res.stderr.startswith(f"error: {paths[role]}: invalid JSON: ")


# names that UTF-8 cannot encode, which a plain report could not print
LONE_SURROGATES = {
    "theta variable": ("theta", ("theta", "vars", 0), "x1", "check"),
    "axiom variable": ("extension", ("extension", "axioms", 1, "vars", 0), "x", "canonicalize"),
    "operation name": ("algebra", ("algebra", "signature", "ops", 0, "name"), "+",
                       "product-check"),
    "signature constant": ("extension", ("extension", "X", "signature", "constant"), "0",
                           "check"),
}


@pytest.mark.parametrize("case", sorted(LONE_SURROGATES))
@pytest.mark.parametrize("json_mode", [False, True])
def test_a_name_with_a_lone_surrogate_is_a_file_error(case, json_mode, tmp_path):
    role, path, name, command = LONE_SURROGATES[case]
    docs = _documents()
    _set(path, "\ud800")(docs)
    # the name's other occurrences too, so that only its encoding is wrong
    text = json.dumps(docs[role]).replace(json.dumps(f"({name} "), json.dumps("(\ud800 "))
    docs[role] = json.loads(text)
    res = run_cli(*_argv(command, _write_documents(docs, tmp_path)),
                  *(["--json"] if json_mode else []))
    assert res.returncode == 64
    _assert_one_error_line(res)
    assert "'\\ud800' cannot be encoded as UTF-8" in res.stderr


# a repeated key and a constant that json reads and JSON does not have, in
# a file without row lines (an extension as json.dumps writes it) and in
# one with them (a canonical document as canonicalize writes it): (role,
# text, its replacement, command, what the error names); "<row>" is the
# first row line
INVALID_JSON = {
    "repeated key, extension": ("extension", '"k"', '"k": [0], "k"', "check",
                                'duplicate key "k"'),
    "repeated key, canonical": ("canonical", '"schema"', '"gamma": {}, "schema"',
                                "gamma-check", 'duplicate key "gamma"'),
    "-Infinity, extension": ("extension", '"k": [', '"k": [-Infinity, ', "check",
                             "-Infinity is not a JSON value"),
    "NaN, canonical extra key": ("canonical", '"pi_B": [', '"pi_B": [NaN, ', "gamma-check",
                                 "NaN is not a JSON value"),
    "Infinity, canonical row line": ("canonical", "<row>", "[Infinity, ", "gamma-check",
                                     "Infinity is not a JSON value"),
}


@pytest.mark.parametrize("case", sorted(INVALID_JSON))
@pytest.mark.parametrize("json_mode", [False, True])
def test_a_repeated_key_or_a_non_finite_constant_is_a_file_error(case, json_mode, tmp_path):
    role, old, new, command, named = INVALID_JSON[case]
    paths = _write_documents(_documents(), tmp_path)
    dump_json(json.loads(paths["canonical"].read_text()), paths["canonical"])
    text = paths[role].read_text()
    if old == "<row>":
        old = next(line for line in text.splitlines(True)
                   if re.fullmatch(r'\s*\[[^"]*\],?\s*', line))
        new = old.replace("[", new, 1)
    paths[role].write_text(text.replace(old, new, 1))
    code, out, err = _run_main(_argv(command, paths) + (["--json"] if json_mode else []))
    assert (code, out, err) == (64, "", f"error: {paths[role]}: invalid JSON: {named}\n")


@seed(1)
@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(COMMAND_ARGV)), st.booleans(), st.data())
def test_every_command_keeps_the_exit_code_contract_under_text_fuzz(command, json_mode, data):
    """One input file with one text mutation (``mutate_text``), laid out
    by json.dumps or as canonicalize writes; stdout encodes strictly as
    UTF-8, as a terminal's does."""
    docs = _documents()
    role = data.draw(st.sampled_from([a for a in COMMAND_ARGV[command] if a in docs]))
    kind = data.draw(st.sampled_from(TEXT_MUTATIONS))

    def pick(values):
        return data.draw(st.sampled_from(values))

    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_documents(docs, Path(tmp))
        if data.draw(st.booleans()):  # the layout canonicalize writes, row lines and all
            dump_json(json.loads(paths[role].read_text()), paths[role])
        paths[role].write_text(mutate_text(paths[role].read_text(), kind, pick))
        argv = _argv(command, paths) + (["--json"] if json_mode else [])
        out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            sys.set_int_max_str_digits(limit)
        out, err = out.buffer.getvalue().decode(), err.getvalue()
    assert code in (0, 1, 2, 64)
    assert "Traceback" not in out + err
    if kind != "lone surrogate":
        assert code == 64
    if code == 64:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert err == ""


# replacement values: leaves, containers, and whole documents of other roles
FUZZ_DOCUMENT_VALUES = FUZZ_VALUES + [
    False, -10 ** 30, "", "a\x00b", "a\nb", "theta.json", [1, 2], [[0, 1], [1, 0]],
    {"x": 0}, json.loads("[" * 100 + "]" * 100),
    json.loads(fixture_path("n2").read_text()),
    json.loads(Path(THETA_XZY).read_text()),
]
TERM_TOKENS = ["(", ")", " ", "+", "*", "x1", "x2", "y", "0", "meet"]


def _nodes(node, path=()):
    """(path, node) for every node of a JSON document, the root included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    return [(path, node)] + [pn for key, child in items for pn in _nodes(child, path + (key,))]


def _mutate(doc, path, kind, value):
    """The document with the node at path replaced, dropped, or given an
    extra key or item."""
    holder = [doc]
    *head, last = (0,) + path
    parent = holder
    for key in head:
        parent = parent[key]
    if kind == "replace":
        parent[last] = value
    elif kind == "drop" and path:
        del parent[last]
    elif isinstance(parent[last], dict):
        parent[last]["extra"] = value
    elif isinstance(parent[last], list):
        parent[last].append(value)
    return holder[0]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(COMMAND_ARGV)), st.booleans(), st.data())
def test_every_command_keeps_the_exit_code_contract_under_fuzz(command, json_mode, data):
    docs = _documents()
    role = data.draw(st.sampled_from([a for a in COMMAND_ARGV[command] if a in docs]))
    for _ in range(data.draw(st.integers(1, 2))):
        whole = data.draw(st.booleans())
        paths = [p for p, node in _nodes(docs[role])
                 if isinstance(node, (dict, list)) == whole] or [()]
        docs[role] = _mutate(docs[role], data.draw(st.sampled_from(paths)),
                             data.draw(st.sampled_from(["replace", "drop", "extra"])),
                             copy.deepcopy(data.draw(st.sampled_from(FUZZ_DOCUMENT_VALUES))))
    with tempfile.TemporaryDirectory() as tmp:
        argv = _argv(command, _write_documents(docs, Path(tmp)))
        if "--theta" in argv and data.draw(st.booleans()):
            i = argv.index("--theta")
            term = "".join(data.draw(st.lists(st.sampled_from(TERM_TOKENS), max_size=12)))
            argv[i:i + 2] = ["--theta-vars", data.draw(st.sampled_from(
                ["x1,x2,y", "x,y", "y", "x1,,y", ""])), "--theta-term", term]
        if data.draw(st.booleans()):
            argv += {"canonicalize": ["-o", str(Path(tmp) / "out.json")],
                     "gamma-check": ["--rebuild", str(Path(tmp) / "out.json")],
                     "pullback": ["-o", str(Path(tmp) / "out.json")]}.get(command, [])
        budget = data.draw(st.sampled_from([None, "0", "7", "100"]))
        argv += (["--budget", budget] if budget else []) + (["--json"] if json_mode else [])
        code, out, err = _run_main(argv)
    assert code in (0, 1, 2, 64)
    assert "Traceback" not in out + err
    if code == 64:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert err == ""
        if json_mode:
            doc = json.loads(out)  # exactly one document: loads rejects extra data
            assert doc["schema"] == "wsext.report/1" and doc["command"] == command
