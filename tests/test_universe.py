"""The paper's claims on a whole class: every split extension of monoids
with |A| <= 5.

Each monoid of order <= 5 with identity 0 is taken once up to relabelling
(1, 2, 7, 35 and 228 of them).  Every idempotent endomorphism e of a
monoid A splits it: B = e(A), X = e^-1(0), p = e, and s and k the
inclusions (``conftest.split_extensions``), 3,173 splits in all.  The
tests assert that the weakly Schreier extensions (a witness for x + y)
lie strictly inside the new class (a witness for x1 + y + x2), that every
witnessed pair canonicalizes, checks and rebuilds, and that no answer
depends on the labels; the figures for orders <= 4 are asserted as well.
A seeded sample of the splits with |A| <= 4 goes through ``check --json``
and must give the library's answers.
"""

import json
import random
from itertools import chain, product

import pytest

from wsext import (
    Equation,
    FiniteAlgebra,
    ThetaSpec,
    count_witnesses,
    find_witnesses,
    is_schreier,
    parse_term,
    validate_split_extension,
)
from wsext.cli import main
from wsext.serialize import dump_json, extension_to_obj
from wsext.terms import theta_to_obj
from conftest import (
    MSIG,
    assert_labels_do_not_matter,
    assert_rebuilds,
    split_extensions,
    unital_tables,
)
from oracles import brute_force_witnesses

ASSOCIATIVITY = Equation(("x", "y", "z"), parse_term("(+ (+ x y) z)", MSIG, ["x", "y", "z"]),
                         parse_term("(+ x (+ y z))", MSIG, ["x", "y", "z"]))
# the distinguished variable y comes last
WEAKLY_SCHREIER = ThetaSpec(("x", "y"), parse_term("(+ x y)", MSIG, ["x", "y"]))
NEW_CLASS = ThetaSpec(("x1", "x2", "y"), parse_term("(+ x1 (+ y x2))", MSIG, ["x1", "x2", "y"]))
THETAS = (WEAKLY_SCHREIER, NEW_CLASS)


def monoids(size: int) -> list[tuple[int, ...]]:
    """The flat + tables of the monoids on 0..size-1 with identity 0, one
    per class (``conftest.unital_tables``): a cell takes any value, and a
    partial table is dropped when an instance of associativity that reads
    the cell just set is defined and fails."""
    pairs = list(product(range(size), repeat=2))

    def associative_through(t, a, b) -> bool:
        # the instances (u v) w = u (v w) that read cell (a, b): (a b) z,
        # z (a b), (x y) b with x y = a, and a (x y) with x y = b
        triples = chain(((a, b, z) for z in range(size)), ((z, a, b) for z in range(size)),
                        ((x, y, b) for x, y in pairs if t[x * size + y] == a),
                        ((a, x, y) for x, y in pairs if t[x * size + y] == b))
        for u, v, w in triples:
            uv, vw = t[u * size + v], t[v * size + w]
            if uv is not None and vw is not None:
                left, right = t[uv * size + w], t[u * size + vw]
                if left is not None and right is not None and left != right:
                    return False
        return True

    return unital_tables(size, lambda t, a, b: range(size), associative_through)


@pytest.fixture(scope="module")
def universe():
    """(monoid counts by order, extensions, the first witness found for
    each extension and each of THETAS, as lists of at most one)."""
    counts, extensions = [], []
    for size in range(1, 6):
        tables = monoids(size)
        counts.append(len(tables))
        extensions += [e for table in tables for e in split_extensions(
            FiniteAlgebra(MSIG, size, {"+": table, "0": (0,)}))]
    witnesses = [[find_witnesses(e, theta, limit=1) for theta in THETAS] for e in extensions]
    return counts, extensions, witnesses


def test_the_universe_has_every_monoid_class_and_split_extension(universe):
    counts, extensions, _ = universe
    assert counts == [1, 2, 7, 35, 228]
    assert len(extensions) == 3173
    assert sum(e.A.size <= 4 for e in extensions) == 267
    assert all(validate_split_extension(e).ok for e in extensions)


def class_sizes(witnesses) -> tuple[int, int, int]:
    """(weakly Schreier, new class, new class only), after asserting that
    the first lies inside the second."""
    old = {i for i, (found, _) in enumerate(witnesses) if found}
    new = {i for i, (_, found) in enumerate(witnesses) if found}
    assert old <= new
    return len(old), len(new), len(new - old)


def test_weakly_schreier_extensions_lie_strictly_inside_the_new_class(universe):
    _, extensions, witnesses = universe
    assert class_sizes(witnesses) == (738, 767, 29)
    small = [found for e, found in zip(extensions, witnesses) if e.A.size <= 4]
    assert class_sizes(small) == (121, 124, 3)


def test_every_witnessed_pair_canonicalizes_checks_and_rebuilds(universe):
    _, extensions, witnesses = universe
    pairs = []
    for e, found in zip(extensions, witnesses):
        for theta, ws in zip(THETAS, found):
            if not ws:
                continue
            pairs.append(e.A.size)
            assert_rebuilds(e, theta, ws[0], [ASSOCIATIVITY])
    assert len(pairs) == 1505
    assert sum(size <= 4 for size in pairs) == 245


def test_answers_do_not_depend_on_the_labels(universe):
    assert_labels_do_not_matter(universe[1], THETAS)


def test_a_seeded_sample_checks_the_same_through_the_cli(universe, tmp_path, capsys):
    """12 of the 267 splits with |A| <= 4, drawn by random.Random(30), each
    written to a file and run through ``check --json`` under both terms:
    the witness count, the Schreier answer and the exit code (0 iff there
    is a witness, else 1) are the library's."""
    sample = random.Random(30).sample([e for e in universe[1] if e.A.size <= 4], 12)
    theta_files = [tmp_path / f"theta{j}.json" for j in range(len(THETAS))]
    for theta, path in zip(THETAS, theta_files):
        dump_json(theta_to_obj(theta), path)
    codes = set()
    for i, e in enumerate(sample):
        ext = tmp_path / f"ext{i}.json"
        dump_json(extension_to_obj(e), ext)
        for theta, path in zip(THETAS, theta_files):
            code = main(["check", str(ext), "--theta", str(path), "--json"])
            report = json.loads(capsys.readouterr().out)
            count = count_witnesses(e, theta)
            assert (report["witness_count"], report["schreier"], code) == \
                (count, is_schreier(e, theta), 0 if count else 1)
            codes.add(code)
    assert codes == {0, 1}


def test_witness_counts_match_brute_force_up_to_order_three(universe):
    _, extensions, _ = universe
    small = [e for e in extensions if e.A.size <= 3]
    assert small
    for e, theta, normalize in product(small, THETAS, (True, False)):
        assert count_witnesses(e, theta, normalize=normalize) == \
            len(brute_force_witnesses(e, theta, normalize))
