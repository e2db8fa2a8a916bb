"""The paper's claims on a whole class: every split extension of monoids
with |A| <= 4.

Each monoid of order <= 4 with identity 0 is taken once up to relabelling
(1, 2, 7 and 35 of them).  Every idempotent endomorphism e of a monoid A
splits it: B = e(A), X = e^-1(0), p = e, and s and k the inclusions
(``conftest.split_extensions``).
"""

from itertools import permutations, product

import pytest

from wsext import (
    Equation,
    FiniteAlgebra,
    Signature,
    ThetaSpec,
    build_canonical,
    build_extension_from_gamma,
    check_conditions,
    count_witnesses,
    extract_gamma,
    find_witnesses,
    parse_term,
    validate_split_extension,
)
from conftest import split_extensions
from oracles import brute_force_witnesses

MSIG = Signature((("+", 2), ("0", 0)), "0")
ASSOCIATIVITY = Equation(("x", "y", "z"), parse_term("(+ (+ x y) z)", MSIG, ["x", "y", "z"]),
                         parse_term("(+ x (+ y z))", MSIG, ["x", "y", "z"]))
# the distinguished variable y comes last
WEAKLY_SCHREIER = ThetaSpec(("x", "y"), parse_term("(+ x y)", MSIG, ["x", "y"]))
NEW_CLASS = ThetaSpec(("x1", "x2", "y"), parse_term("(+ x1 (+ y x2))", MSIG, ["x1", "x2", "y"]))
THETAS = (WEAKLY_SCHREIER, NEW_CLASS)


def monoids(size: int) -> list[tuple[int, ...]]:
    """The flat + tables of the monoids on 0..size-1 with identity 0, one
    per class under relabelling the other elements.  A backtracking fill
    of the cells of the non-identity elements, in table order, that drops
    a partial table as soon as a defined instance of associativity fails;
    each class is kept as its least relabelled table."""
    cells = [(a, b) for a in range(1, size) for b in range(1, size)]
    table = {(a, b): max(a, b) if 0 in (a, b) else None
             for a in range(size) for b in range(size)}
    triples = list(product(range(size), repeat=3))
    classes = set()

    def associative_so_far() -> bool:
        for a, b, c in triples:
            ab, bc = table[a, b], table[b, c]
            if ab is not None and bc is not None:
                left, right = table[ab, c], table[a, bc]
                if left is not None and right is not None and left != right:
                    return False
        return True

    def fill(i: int) -> None:
        if i == len(cells):
            flat = [table[a, b] for a in range(size) for b in range(size)]
            classes.add(min(_relabelled(flat, size, (0,) + perm)
                            for perm in permutations(range(1, size))))
            return
        for value in range(size):
            table[cells[i]] = value
            if associative_so_far():
                fill(i + 1)
        table[cells[i]] = None

    fill(0)
    return sorted(classes)


def _relabelled(flat, size: int, perm) -> tuple[int, ...]:
    """The table with element a renamed perm[a]."""
    out = [0] * (size * size)
    for a, b in product(range(size), repeat=2):
        out[perm[a] * size + perm[b]] = perm[flat[a * size + b]]
    return tuple(out)


@pytest.fixture(scope="module")
def universe():
    """(monoid counts by order, extensions, the first witness found for
    each extension and each of THETAS, as lists of at most one)."""
    counts, extensions = [], []
    for size in range(1, 5):
        tables = monoids(size)
        counts.append(len(tables))
        extensions += [e for table in tables for e in split_extensions(
            FiniteAlgebra(MSIG, size, {"+": table, "0": (0,)}))]
    witnesses = [[find_witnesses(e, theta, limit=1) for theta in THETAS] for e in extensions]
    return counts, extensions, witnesses


def test_the_universe_has_every_monoid_class_and_split_extension(universe):
    counts, extensions, _ = universe
    assert counts == [1, 2, 7, 35]
    assert len(extensions) == 267
    assert all(validate_split_extension(e).ok for e in extensions)


def test_weakly_schreier_extensions_lie_strictly_inside_the_new_class(universe):
    _, _, witnesses = universe
    old = {i for i, (found, _) in enumerate(witnesses) if found}
    new = {i for i, (_, found) in enumerate(witnesses) if found}
    assert old <= new
    assert (len(old), len(new), len(new - old)) == (121, 124, 3)


def test_every_witnessed_pair_canonicalizes_checks_and_rebuilds(universe):
    _, extensions, witnesses = universe
    pairs = 0
    for e, found in zip(extensions, witnesses):
        for theta, ws in zip(THETAS, found):
            if not ws:
                continue
            pairs += 1
            c = build_canonical(e, theta, ws[0])
            g = extract_gamma(c, [ASSOCIATIVITY])
            assert check_conditions(g).ok
            e2, _ = build_extension_from_gamma(g)
            # the rebuilt extension is the canonical form, entry for entry
            assert e2.A == c.y_algebra()
            assert (e2.k, e2.p, e2.s) == (c.k_prime, c.pi_B, c.iota_B)
            assert (e2.X, e2.B) == (e.X, e.B)
    assert pairs == 245


def test_witness_counts_match_brute_force_up_to_order_three(universe):
    _, extensions, _ = universe
    small = [e for e in extensions if e.A.size <= 3]
    assert small
    for e, theta, normalize in product(small, THETAS, (True, False)):
        assert count_witnesses(e, theta, normalize=normalize) == \
            len(brute_force_witnesses(e, theta, normalize))
