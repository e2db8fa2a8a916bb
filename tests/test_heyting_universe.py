"""The paper's semi-abelian case on a whole class: every split extension
of the distributive lattices with at most 5 elements, as Heyting
semilattices.

The 8 lattices (1, 1, 1, 2 and 3 of orders 1 to 5) are the chains, the
square 2 x 2, and the square with a new top or a new bottom, each built as
a ring of sets: meet is intersection and x -> y is the largest element
whose meet with x lies below y.  Their elements are sorted by size, so
top, the pointed zero, is the last one.  Every idempotent endomorphism e
of a lattice A splits it: B = e(A), X = e^-1(top), p = e, and s and k the
inclusions (``conftest.split_extensions``).  Heyting semilattices are
semi-abelian, and the witness term (meet (imp x z) y) of the
heyting_chain fixture makes every member a theta-extension.
"""

from itertools import product

import pytest

from conftest import assert_labels_do_not_matter, load_fixture, split_extensions
from oracles import brute_force_witnesses
from wsext import (
    FiniteAlgebra,
    SplitExtension,
    TermSpec,
    count_witnesses,
    find_witnesses,
    parse_term,
    semiabelian_witness,
    validate_split_extension,
)

_, _, _, THETA = load_fixture("heyting_chain")
SIG = load_fixture("heyting_chain")[0].A.signature
# the alpha terms of the heyting_chain fixture (ALPHA_TEXTS in test_properties)
ALPHAS = [TermSpec(("x", "y"), parse_term(text, SIG, ["x", "y"]))
          for text in ("(imp x y)", "(imp (imp (imp x y) y) x)")]


def lattice(sets) -> FiniteAlgebra:
    """The ring of sets ``sets`` (closed under intersection and union) as
    a Heyting semilattice, its elements sorted by size."""
    elements = sorted(map(frozenset, sets), key=lambda s: (len(s), sorted(s)))
    index = {s: i for i, s in enumerate(elements)}
    meet = [index[a & b] for a, b in product(elements, repeat=2)]
    imp = [index[frozenset().union(*(c for c in elements if c & a <= b))]
           for a, b in product(elements, repeat=2)]
    return FiniteAlgebra(SIG, len(elements), {"meet": tuple(meet), "imp": tuple(imp),
                                              "top": (len(elements) - 1,)})


LATTICES = [lattice(range(i) for i in range(k)) for k in range(1, 6)] + [
    lattice([(), (0,), (1,), (0, 1)]),
    lattice([(), (0,), (1,), (0, 1), (0, 1, 2)]),
    lattice([(), (2,), (0, 2), (1, 2), (0, 1, 2)]),
]


@pytest.fixture(scope="module")
def universe() -> list[SplitExtension]:
    return [e for A in LATTICES for e in split_extensions(A)]


def test_the_universe_has_every_lattice_and_split_extension(universe):
    assert [A.size for A in LATTICES] == [1, 2, 3, 4, 5, 4, 5, 5]
    assert len(universe) == 35
    assert all(validate_split_extension(e).ok for e in universe)
    # the pointed zero is top, the last element, in X, A and B alike
    assert all(alg.zero == alg.size - 1 for e in universe for alg in (e.X, e.A, e.B))


def test_every_member_has_a_witness(universe):
    counts = [count_witnesses(e, THETA) for e in universe]
    assert all(find_witnesses(e, THETA, limit=1) for e in universe)
    # not every member is Schreier: the counts range from 1 to 1,024
    assert (min(counts), max(counts)) == (1, 1024)


def test_witness_counts_match_brute_force(universe):
    # the oracle tries all |X|^(n|A|) function pairs: 23 members at 3^8 or fewer
    small = [e for e in universe if e.X.size ** (THETA.n * e.A.size) <= 3 ** 8]
    assert len(small) == 23
    for e, normalize in product(small, (True, False)):
        assert count_witnesses(e, THETA, normalize=normalize) == \
            len(brute_force_witnesses(e, THETA, normalize))


def test_the_semiabelian_witness_exists_on_every_member(universe):
    for e in universe:
        w = semiabelian_witness(e, THETA, ALPHAS)
        assert w.n == THETA.n


def test_answers_do_not_depend_on_the_labels(universe):
    assert_labels_do_not_matter(universe, [THETA])
