"""The paper's semi-abelian case on a class that is not associative:
every split extension of the loops with at most 6 elements.

A loop is a set with a product ``*``, left and right division ``ld`` and
``rd`` and a two-sided unit ``e``, here the element 0:
``x * (x ld y) = y`` and ``(y rd x) * x = y``.  Loops form a semi-abelian
variety; with theta = x * y and alpha = x rd y every split extension is a
theta-extension, and the comparison map (x, b) -> k(x) * s(b) is a
bijection, so each member is Schreier with exactly one witness, the
semi-abelian witness of alpha.  Each loop of order <= 6 is taken once up
to relabelling (1, 1, 1, 2, 6 and 109 of them), and split along each
idempotent endomorphism (``conftest.split_extensions``): 262 splits, 236
of them with a middle loop that is not associative.  Every member
canonicalizes, checks and rebuilds, and no answer depends on the labels.
"""

from itertools import product

import pytest

from conftest import assert_labels_do_not_matter, assert_rebuilds, split_extensions, unital_tables
from wsext import (
    Equation,
    Signature,
    TermSpec,
    ThetaSpec,
    check_equation,
    count_witnesses,
    find_witnesses,
    is_schreier,
    make_algebra,
    parse_term,
    semiabelian_witness,
    validate_split_extension,
    verify_isomorphism,
)

LSIG = Signature((("*", 2), ("ld", 2), ("rd", 2), ("e", 0)), "e")


def _axiom(vars_, lhs, rhs):
    vs = vars_.split()
    return Equation(tuple(vs), parse_term(lhs, LSIG, vs), parse_term(rhs, LSIG, vs))


LOOP_AXIOMS = [
    _axiom("x", "(* e x)", "x"),
    _axiom("x", "(* x e)", "x"),
    _axiom("x y", "(ld x (* x y))", "y"),
    _axiom("x y", "(* x (ld x y))", "y"),
    _axiom("x y", "(rd (* y x) x)", "y"),
    _axiom("x y", "(* (rd y x) x)", "y"),
]
ASSOCIATIVITY = _axiom("x y z", "(* (* x y) z)", "(* x (* y z))")
THETA = ThetaSpec(("x", "y"), parse_term("(* x y)", LSIG, ["x", "y"]))
ALPHA = TermSpec(("x", "y"), parse_term("(rd x y)", LSIG, ["x", "y"]))


def loops(size: int) -> list[tuple[int, ...]]:
    """The flat * tables of the loops on 0..size-1 with unit 0, one per
    class under the relabellings that fix 0 (``conftest.unital_tables``):
    the normalised Latin squares, each cell taking only the values missing
    from its row and its column."""
    def missing(t, a, b):
        return sorted(set(range(size)).difference(t[a * size:(a + 1) * size], t[b::size]))

    return unital_tables(size, missing, lambda t, a, b: True)


def loop(size: int, mul: tuple[int, ...]):
    """The loop with product table ``mul``, its divisions read off the square."""
    rows = [mul[a * size:(a + 1) * size] for a in range(size)]
    columns = [mul[b::size] for b in range(size)]
    ld = [rows[a].index(b) for a, b in product(range(size), repeat=2)]  # a * z = b
    rd = [columns[b].index(a) for a, b in product(range(size), repeat=2)]  # z * b = a
    return make_algebra(LSIG, size, {"*": mul, "ld": ld, "rd": rd, "e": [0]})


@pytest.fixture(scope="module")
def universe():
    """(loop classes by order, split extensions)."""
    counts, extensions = [], []
    for size in range(1, 7):
        tables = loops(size)
        counts.append(len(tables))
        extensions += [e for mul in tables for e in split_extensions(loop(size, mul))]
    return counts, extensions


def test_the_universe_has_every_loop_class_and_split_extension(universe):
    counts, extensions = universe
    assert counts == [1, 1, 1, 2, 6, 109]
    assert len(extensions) == 262
    assert all(validate_split_extension(e).ok for e in extensions)
    assert sum(not check_equation(e.A, ASSOCIATIVITY).ok for e in extensions) == 236


def test_every_member_is_schreier_with_one_witness(universe):
    _, extensions = universe
    for e in extensions:
        assert is_schreier(e, THETA)
        assert count_witnesses(e, THETA) == 1
        assert find_witnesses(e, THETA) == [semiabelian_witness(e, THETA, [ALPHA])]


def test_every_member_canonicalizes_checks_and_rebuilds(universe):
    _, extensions = universe
    for e in extensions:
        (w,) = find_witnesses(e, THETA)
        assert verify_isomorphism(e, assert_rebuilds(e, THETA, w, LOOP_AXIOMS), w).ok


def test_answers_do_not_depend_on_the_labels(universe):
    assert_labels_do_not_matter(universe[1], [THETA])
