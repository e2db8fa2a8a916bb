"""The paper's claims on a class of groups: every semidirect product
X ⋊_α B of the groups of order <= 4.

X and B range over Z1, Z2, Z3, Z4 and the Klein four-group V4, and α over
every homomorphism B -> Aut(X).  The element (x, b) of A = X ⋊_α B is
b * |X| + x, with (x1, b1)(x2, b2) = (x1 · α(b1)(x2), b1 b2); k and s are
the inclusions x ↦ (x, e) and b ↦ (e, b), and p the projection.  With
θ = x·y the comparison map (x, b) ↦ k(x)·s(b) = (x, b) is a bijection, so
every member is Schreier with exactly one normalized witness.
"""

from itertools import permutations, product

import pytest

from wsext import (
    Equation,
    ThetaSpec,
    check_equation,
    count_witnesses,
    find_witnesses,
    is_schreier,
    parse_term,
    validate_split_extension,
)
from conftest import GSIG, assert_labels_do_not_matter, group, semidirect
from oracles import brute_force_equation, brute_force_schreier, brute_force_witnesses


def _axiom(vars_, lhs, rhs):
    vs = vars_.split()
    return Equation(tuple(vs), parse_term(lhs, GSIG, vs), parse_term(rhs, GSIG, vs))


GROUP_AXIOMS = [
    _axiom("x y z", "(* (* x y) z)", "(* x (* y z))"),
    _axiom("x", "(* e x)", "x"),
    _axiom("x", "(* x e)", "x"),
    _axiom("x", "(* x (inv x))", "e"),
    _axiom("x", "(* (inv x) x)", "e"),
]
THETA = ThetaSpec(("x", "y"), parse_term("(* x y)", GSIG, ["x", "y"]))


GROUPS = {
    "Z1": group(1, lambda a, b: 0),
    "Z2": group(2, lambda a, b: (a + b) % 2),
    "Z3": group(3, lambda a, b: (a + b) % 3),
    "Z4": group(4, lambda a, b: (a + b) % 4),
    "V4": group(4, lambda a, b: a ^ b),
}


def automorphisms(X):
    """Every permutation of X's carrier that commutes with its product."""
    return [f for f in permutations(range(X.size))
            if all(f[X.op("*", (a, b))] == X.op("*", (f[a], f[b]))
                   for a, b in product(range(X.size), repeat=2))]


def actions(B, auts):
    """Every homomorphism B -> Aut(X), as a tuple of automorphisms."""
    return [alpha for alpha in product(auts, repeat=B.size)
            if all(alpha[B.op("*", (b, c))] == tuple(alpha[b][x] for x in alpha[c])
                   for b, c in product(range(B.size), repeat=2))]


@pytest.fixture(scope="module")
def universe():
    return [(x_name, b_name, semidirect(X, B, alpha))
            for x_name, X in GROUPS.items()
            for b_name, B in GROUPS.items()
            for alpha in actions(B, automorphisms(X))]


def test_the_universe_has_every_semidirect_product(universe):
    counts = {}
    for x_name, b_name, e in universe:
        counts[x_name, b_name] = counts.get((x_name, b_name), 0) + 1
        assert validate_split_extension(e).ok
    # |Hom(B, Aut X)|: Aut Z3 = Aut Z4 = Z2 and Aut V4 = S3
    assert [counts[x, b] for x in GROUPS for b in GROUPS] == [
        1, 1, 1, 1, 1,
        1, 1, 1, 1, 1,
        1, 2, 1, 2, 4,
        1, 2, 1, 2, 4,
        1, 4, 3, 4, 10]
    assert len(universe) == 52


def test_every_member_satisfies_the_group_axioms(universe):
    for _, _, e in universe:
        for eq in GROUP_AXIOMS:
            fast = check_equation(e.A, eq)
            assert fast.ok
            assert repr(fast) == repr(brute_force_equation(e.A, eq))


def test_every_member_is_schreier_with_one_normalized_witness(universe):
    brute_forced = 0
    for _, _, e in universe:
        assert is_schreier(e, THETA) and brute_force_schreier(e, THETA)
        assert count_witnesses(e, THETA, normalize=True) == 1
        (w,) = find_witnesses(e, THETA)
        assert w.values_at(e.A.zero) == (e.X.zero,)
        # the oracle tries all |X|^|A| candidates
        if e.X.size ** e.A.size <= 4 ** 8:
            assert brute_force_witnesses(e, THETA, True) == [w]
            brute_forced += 1
    assert brute_forced == 22


def test_answers_do_not_depend_on_the_labels(universe):
    assert_labels_do_not_matter([e for _, _, e in universe], [THETA])
