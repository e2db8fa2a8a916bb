"""The paper's semi-abelian case on a class that is not associative:
every split extension of the loops with at most 5 elements.

A loop is a set with a product ``*``, left and right division ``ld`` and
``rd`` and a two-sided unit ``e``, here the element 0:
``x * (x ld y) = y`` and ``(y rd x) * x = y``.  Loops form a semi-abelian
variety; with theta = x * y and alpha = x rd y every split extension is a
theta-extension, and the comparison map (x, b) -> k(x) * s(b) is a
bijection, so each member is Schreier with exactly one witness.  Each loop
of order <= 5 is taken once up to relabelling (1, 1, 1, 2 and 6 of them),
and split along each idempotent endomorphism (``conftest.split_extensions``).
"""

from itertools import permutations, product

import pytest

from conftest import relabelled, split_extensions
from wsext import (
    Equation,
    Signature,
    TermSpec,
    ThetaSpec,
    build_canonical,
    build_extension_from_gamma,
    check_conditions,
    check_equation,
    count_witnesses,
    extract_gamma,
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
    class under the relabellings that fix 0: the normalised Latin squares,
    filled cell by cell in table order by backtracking, each class kept as
    its least relabelled table."""
    cells = [(a, b) for a in range(1, size) for b in range(1, size)]
    table = {(a, b): a + b for a in range(size) for b in range(size) if 0 in (a, b)}
    in_row = [{a} for a in range(size)]
    in_column = [{b} for b in range(size)]
    classes = set()

    def fill(i: int) -> None:
        if i == len(cells):
            flat = [table[a, b] for a in range(size) for b in range(size)]
            classes.add(min(relabelled(flat, size, (0,) + perm)
                            for perm in permutations(range(1, size))))
            return
        a, b = cells[i]
        for value in set(range(size)) - in_row[a] - in_column[b]:
            table[a, b] = value
            in_row[a].add(value)
            in_column[b].add(value)
            fill(i + 1)
            in_row[a].remove(value)
            in_column[b].remove(value)

    fill(0)
    return sorted(classes)


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
    for size in range(1, 6):
        tables = loops(size)
        counts.append(len(tables))
        extensions += [e for mul in tables for e in split_extensions(loop(size, mul))]
    return counts, extensions


def test_the_universe_has_every_loop_class_and_split_extension(universe):
    counts, extensions = universe
    assert counts == [1, 1, 1, 2, 6]
    assert len(extensions) == 27
    assert all(validate_split_extension(e).ok for e in extensions)
    # five of the six loops of order 5 are not groups, each split two ways
    assert sum(not check_equation(e.A, ASSOCIATIVITY).ok for e in extensions) == 10


def test_every_member_is_schreier_with_one_witness(universe):
    _, extensions = universe
    for e in extensions:
        assert is_schreier(e, THETA)
        assert count_witnesses(e, THETA) == 1
        assert semiabelian_witness(e, THETA, [ALPHA]).n == THETA.n


def test_every_member_canonicalizes_checks_and_rebuilds(universe):
    _, extensions = universe
    for e in extensions:
        (w,) = find_witnesses(e, THETA)
        c = build_canonical(e, THETA, w)
        assert verify_isomorphism(e, c, w).ok
        g = extract_gamma(c, LOOP_AXIOMS)
        assert check_conditions(g).ok
        e2, _ = build_extension_from_gamma(g)
        # the rebuilt extension is the canonical form, entry for entry
        assert e2.A == c.y_algebra()
        assert (e2.k, e2.p, e2.s) == (c.k_prime, c.pi_B, c.iota_B)
        assert (e2.X, e2.B) == (e.X, e.B)
