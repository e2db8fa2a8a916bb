"""Property-based checks over randomly generated small structures."""

import json
import tempfile
import tracemalloc
from contextlib import contextmanager
from itertools import product
from math import prod
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from wsext import (
    App,
    Equation,
    FiniteAlgebra,
    FnTable,
    Signature,
    SplitExtension,
    TermSpec,
    ThetaSpec,
    Var,
    build_canonical,
    build_extension_from_gamma,
    check_commuting,
    check_conditions,
    extract_gamma,
    gamma_table,
    membership_by_term,
    check_equation,
    enumerate_homomorphisms,
    find_witnesses,
    format_term,
    is_homomorphism,
    check_theta_admissible,
    make_algebra,
    parse_term,
    product_algebra,
    pullback_algebra,
    semiabelian_witness,
    sigma_tau_decompose,
    subalgebra_closure,
    trivial_algebra,
)

from wsext import algebra, canonical, transport
from wsext.ambient import ActionTable, carrier
from wsext.canonical import psi, verify_isomorphism
from wsext.errors import (
    ArityMismatch,
    SearchBudgetExceeded,
    ToolkitError,
)
from wsext.extension import (
    Witness,
    count_witnesses,
    feasible_tuples,
    is_schreier,
    phi,
    validate_witness,
)
from wsext.fixtures import fixture_path
from wsext.gammabuild import GammaData, _checked
from wsext.report import CheckResult
from wsext.serialize import (
    _ROW_REF,
    _load_json,
    canonical_to_obj,
    dump_json,
    gamma_from_obj,
    theta_from_obj,
)
from wsext.terms import operation_term, substitute
from wsext.transport import product_extension_check

from conftest import (
    EXTENSION_NAMES,
    GSIG,
    MSIG,
    cyclic,
    group,
    load_fixture,
    mutate_text,
    outcome,
    product_extension,
    semidirect,
    unclosed_constant_data,
)

from oracles import (
    PerEntryOps,
    brute_force_admissible,
    brute_force_closure,
    brute_force_commuting,
    brute_force_conditions,
    brute_force_cross_check,
    brute_force_entry_error,
    brute_force_equation,
    brute_force_feasible,
    brute_force_gamma,
    brute_force_gamma_table,
    brute_force_homomorphism,
    brute_force_homs,
    brute_force_membership,
    brute_force_phi,
    brute_force_product,
    brute_force_product_check,
    brute_force_pullback,
    brute_force_rebuild,
    brute_force_schreier,
    brute_force_semiabelian_witness,
    brute_force_sigma_tau,
    brute_force_transport,
    brute_force_verify,
    brute_force_witness_check,
    listing_canonical_to_obj,
    per_entry_read_gamma,
    plain_rows,
    term_value,
)


# grid block sizes for the flat kernels: tiny ones cut even small grids
# into many blocks, the real one keeps them whole
GRID_BLOCKS = st.sampled_from([1, 2, 3, 7, algebra.GRID_BLOCK])


@contextmanager
def grid_block(points):
    with mock.patch.object(algebra, "GRID_BLOCK", points):
        yield


def _with_wide_radix(args):
    radices, wide, at = args
    return radices[:at] + [wide] + radices[at:]


# small grids, and grids with one coordinate wider than any patched block
LEX_RADICES = st.one_of(
    st.lists(st.integers(1, 4), max_size=4),
    st.tuples(st.lists(st.integers(1, 4), max_size=2), st.integers(21, 60),
              st.integers(0, 2)).map(_with_wide_radix))


def grid_block_columns(axes):
    """(points, columns) of each block of algebra.grid_blocks over axes:
    the values of each bare variable, and as points the length of the
    values of the constant, which has no variable."""
    names = [f"v{j}" for j in range(len(axes))]
    terms = [Var(v) for v in names] + [App("0", ())]
    return [(len(values[-1]), values[:-1])
            for values in algebra.grid_blocks(names, terms, trivial_algebra(MSIG), axes)]


@given(LEX_RADICES, st.integers(1, 20))
def test_grid_blocks_cut_the_lex_grid_in_order(radices, points):
    axes = list(map(range, radices))
    with grid_block(points):
        blocks = grid_block_columns(axes)
    grid = [list(column) for column in zip(*product(*axes))]
    joined = [[v for _, columns in blocks for v in columns[j]] for j in range(len(radices))]
    assert joined == grid
    assert sum(p for p, _ in blocks) == len(list(product(*map(range, radices))))
    for p, columns in blocks:
        assert all(len(c) == p for c in columns)
        assert p <= points
    # the longest suffix that fits is whole in every block, and the
    # coordinate before it runs in as many values as fit beside it
    split, tail = len(radices), 1
    while split and tail * radices[split - 1] <= points:
        split -= 1
        tail *= radices[split]
    expected = 1 if not split else (
        prod(radices[:split - 1]) * -(-radices[split - 1] // (points // tail)))
    assert len(blocks) == expected


def test_grid_blocks_split_a_coordinate_wider_than_a_block():
    assert [p for p, _ in grid_block_columns([range(20000)])] == \
        [algebra.GRID_BLOCK, 20000 - algebra.GRID_BLOCK]
    assert [p for p, _ in grid_block_columns([range(200)] * 2)] == [81 * 200, 81 * 200, 38 * 200]


@st.composite
def free_algebras(draw, sig: Signature, max_size=3):
    """Algebras over sig on {0..size-1}, size at most max_size, with every
    table entry free."""
    size = draw(st.integers(1, max_size))
    entries = st.integers(0, size - 1)
    return make_algebra(sig, size, {
        name: draw(st.lists(entries, min_size=size ** arity, max_size=size ** arity))
        for name, arity in sig.ops})


def sig_terms(sig: Signature, vars_, depth=None, max_leaves=6):
    """Terms over sig and vars_, leaves being the variables and the
    constants: with ``depth``, applications nested at most that deep; else
    hypothesis's recursive terms of at most ``max_leaves`` leaves."""
    leaves = st.sampled_from([Var(v) for v in vars_]
                             + [App(name, ()) for name, arity in sig.ops if arity == 0])

    def apply(kids):
        return st.one_of(*(st.tuples(*[kids] * arity).map(lambda args, name=name: App(name, args))
                           for name, arity in sig.ops if arity))

    if depth is None:
        return st.recursive(leaves, apply, max_leaves=max_leaves)
    terms = leaves
    for _ in range(depth):
        terms = st.one_of(leaves, apply(terms))
    return terms


MSIG_TERMS = sig_terms(MSIG, "xy", max_leaves=8)


@given(MSIG_TERMS)
def test_parse_inverts_format(t):
    assert parse_term(format_term(t), MSIG, ["x", "y"]) == t


@given(free_algebras(MSIG), free_algebras(MSIG))
def test_enumeration_matches_brute_force(A, B):
    fast = enumerate_homomorphisms(A, B)
    slow = brute_force_homs(A, B)
    assert [h.values for h in fast] == [h.values for h in slow]


@given(free_algebras(MSIG), free_algebras(MSIG))
def test_enumeration_is_sorted(A, B):
    values = [h.values for h in enumerate_homomorphisms(A, B)]
    assert values == sorted(values)


@given(free_algebras(MSIG), free_algebras(MSIG))
def test_product_projections_are_homomorphisms(A, B):
    P = product_algebra(A, B)
    proj_A = FnTable(A.size, tuple(i // B.size for i in range(P.size)))
    proj_B = FnTable(B.size, tuple(i % B.size for i in range(P.size)))
    assert is_homomorphism(proj_A, P, A)
    assert is_homomorphism(proj_B, P, B)
    assert P.zero == A.zero * B.size + B.zero


@given(free_algebras(MSIG))
def test_unique_map_to_trivial_algebra(A):
    homs = enumerate_homomorphisms(A, trivial_algebra(MSIG))
    assert len(homs) == 1


@given(MSIG_TERMS, MSIG_TERMS)
def test_equations_hold_on_one_element_algebra(lhs, rhs):
    one = trivial_algebra(MSIG)
    eq = Equation(("x", "y"), lhs, rhs)
    assert check_equation(one, eq)


@given(free_algebras(MSIG), free_algebras(MSIG))
@settings(max_examples=50)
def test_pullback_carrier_is_closed(A, B):
    # pull any hom A -> B back along any hom B' = B -> B; closure is
    # asserted inside the constructor, so reaching the end is the point
    homs = enumerate_homomorphisms(A, B)
    if not homs:
        return
    p = homs[0]
    for f in enumerate_homomorphisms(B, B, limit=4):
        P, proj_A, proj_B = pullback_algebra(A, p, B, f, B)
        for i in range(P.size):
            assert p(proj_A(i)) == f(proj_B(i))


@given(free_algebras(MSIG), free_algebras(MSIG))
def test_product_matches_the_per_entry_oracle(A, B):
    P = product_algebra(A, B)
    assert (P.size, P.tables) == (A.size * B.size, brute_force_product(A, B).tables)


def draw_map(S, B, data, label):
    """A map S -> B: one of the first homomorphisms, or any value array."""
    homs = enumerate_homomorphisms(S, B, limit=8)
    if homs and data.draw(st.booleans(), label=f"{label} is a homomorphism"):
        return data.draw(st.sampled_from(homs), label=label)
    values = data.draw(st.lists(st.integers(0, B.size - 1), min_size=S.size,
                                max_size=S.size), label=label)
    return FnTable(B.size, tuple(values))


def pullback_outcome(build, *args):
    def call():
        P, proj_A, proj_Bp = build(*args)
        return P.size, P.tables, proj_A.values, proj_Bp.values
    return outcome(call)


@given(free_algebras(MSIG), free_algebras(MSIG), free_algebras(MSIG), st.data())
@settings(max_examples=80)
def test_pullback_matches_the_per_entry_oracle(A, B_prime, B, data):
    # tables and projections, or the NotHomomorphism message of the first
    # map that fails (f is often not a homomorphism)
    p, f = draw_map(A, B, data, "p"), draw_map(B_prime, B, data, "f")
    got = pullback_outcome(pullback_algebra, A, p, B_prime, f, B)
    assert got == pullback_outcome(brute_force_pullback, A, p, B_prime, f, B)
    if p(A.zero) != B.zero or f(B_prime.zero) != B.zero:
        return
    # past the map check, the carrier's own closure check names the first
    # result outside it; maps that keep the constants keep (0, 0') in it
    with mock.patch.object(transport, "is_homomorphism", lambda *_: CheckResult(True)):
        got = pullback_outcome(pullback_algebra, A, p, B_prime, f, B)
    assert got == pullback_outcome(brute_force_pullback, A, p, B_prime, f, B, False)


@given(free_algebras(MSIG), st.data())
def test_subalgebra_closure_matches_the_per_entry_oracle(A, data):
    generators = data.draw(st.lists(st.integers(0, A.size - 1), max_size=3))
    assert subalgebra_closure(A, generators) == brute_force_closure(A, generators)


@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4))
def test_tuple_space_kernel_tuples_follow_the_encoding(x_size, n, b_size):
    from wsext import TupleSpace
    space = TupleSpace(x_size, n, b_size)
    assert space.radices == [x_size] * n + [b_size]
    assert algebra.fold(space.radices, [range(r) for r in space.radices]) == \
        list(space.indices())
    for z in space.indices():
        xs, b = space.unpack(z)
        assert space.kernel_tuples[z // b_size] == xs
        assert space.kernel_rows[xs] == space.pack(xs, 0)
        assert algebra.fold(space.radices, [[x] for x in xs] + [[b]]) == [z]


def test_space_is_built_once_per_object():
    e, w, axioms, theta = load_fixture("example_monoid")
    c = build_canonical(e, theta, w)
    assert c.space is c.space
    g = extract_gamma(c, axioms)
    assert g.space is g.space


@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 4), st.data())
def test_tuple_space_pack_unpack_roundtrip(x_size, n, b_size, data):
    from wsext import TupleSpace
    space = TupleSpace(x_size, n, b_size)
    assert space.size == x_size ** n * b_size
    z = data.draw(st.integers(0, space.size - 1))
    xs, b = space.unpack(z)
    assert space.pack(xs, b) == z
    # ascending index order is lexicographic order on (xs, b)
    listed = [space.unpack(i) for i in space.indices()]
    assert listed == sorted(listed)


# -- check_equation against the per-assignment oracle ---------------------------------

SIG4 = Signature((("0", 0), ("-", 1), ("+", 2), ("m", 3)), "0")


def _identity(vars_, lhs, rhs):
    vs = vars_.split()
    return Equation(tuple(vs), parse_term(lhs, SIG4, vs), parse_term(rhs, SIG4, vs))


# identities of Z_n with m(x, y, z) = x - y + z
GROUP_IDENTITIES = [
    _identity("x y z", "(+ x (+ y z))", "(+ (+ x y) z)"),
    _identity("x y", "(+ x y)", "(+ y x)"),
    _identity("x", "(+ x (- x))", "0"),
    _identity("x y", "(m x x y)", "y"),
    _identity("x y z", "(m x y z)", "(+ x (+ (- y) z))"),
    _identity("", "(- 0)", "0"),
    _identity("x y z", "(+ y 0)", "y"),  # x and z declared but unused
    # every branch of the factored kernel: a declared order unlike the order
    # of first occurrence, a variable repeated across arguments, sides over
    # some or none of the variables, ordered ternary nodes
    _identity("z x y", "(+ x (+ y z))", "(+ (+ x y) z)"),
    _identity("y x", "(+ x y)", "(+ y x)"),
    _identity("x y", "(+ x x)", "(+ x (+ x 0))"),
    _identity("x y", "(m x y x)", "(+ x (+ (- y) x))"),
    _identity("x y z", "(- (- y))", "(+ 0 y)"),
    _identity("x y z", "(+ 0 0)", "(- 0)"),
    _identity("x y z", "(+ z (- z))", "0"),
    _identity("x y z", "(m x (+ y z) z)", "(+ x (- y))"),
]


def assert_same_result(A, eq):
    fast, slow = check_equation(A, eq), brute_force_equation(A, eq)
    # repr also pins the key order of the counterexample's assignment
    assert repr(fast) == repr(slow)
    return slow


@st.composite
def relabelled_cyclic_groups(draw):
    """Z_n on a shuffled carrier, as SIG4 tables."""
    size = draw(st.integers(1, 4))
    label = draw(st.permutations(range(size)))

    def table(f, arity):
        return [label[f(*(label.index(a) for a in args)) % size]
                for args in product(range(size), repeat=arity)]

    return make_algebra(SIG4, size, {
        "0": [label[0]],
        "-": table(lambda a: -a, 1),
        "+": table(lambda a, b: a + b, 2),
        "m": table(lambda a, b, c: a - b + c, 3),
    })


@given(relabelled_cyclic_groups(), GRID_BLOCKS, st.data())
def test_check_equation_matches_oracle_on_perturbed_groups(G, points, data):
    name, arity = data.draw(st.sampled_from(SIG4.ops))
    tables = {n: list(t) for n, t in G.tables.items()}
    i = data.draw(st.integers(0, len(tables[name]) - 1))
    tables[name][i] = data.draw(st.integers(0, G.size - 1))
    perturbed = make_algebra(SIG4, G.size, tables)
    with grid_block(points):
        for eq in GROUP_IDENTITIES:
            assert assert_same_result(G, eq).ok
            assert_same_result(perturbed, eq)


def test_perturbing_one_entry_breaks_an_identity():
    G = make_algebra(SIG4, 2, {"0": [0], "-": [0, 1], "+": [0, 1, 1, 0],
                               "m": [a ^ b ^ c for a, b, c in product(range(2), repeat=3)]})
    tables = dict(G.tables, **{"+": (1, 1, 1, 0)})
    res = assert_same_result(make_algebra(SIG4, 2, tables), GROUP_IDENTITIES[0])
    assert not res.ok
    assert res.counterexample == {"assignment": {"x": 0, "y": 0, "z": 1}, "lhs": 1, "rhs": 0}


@given(free_algebras(SIG4), GRID_BLOCKS, st.data())
def test_check_equation_matches_oracle_on_random_algebras(A, points, data):
    vars_ = data.draw(st.lists(st.sampled_from("xyz"), max_size=3, unique=True))
    terms_ = sig_terms(SIG4, vars_)
    with grid_block(points):
        assert_same_result(A, Equation(tuple(vars_), data.draw(terms_), data.draw(terms_)))


ASSOCIATIVITY = Equation(("x", "y", "z"), parse_term("(+ (+ x y) z)", MSIG, ["x", "y", "z"]),
                         parse_term("(+ x (+ y z))", MSIG, ["x", "y", "z"]))


@pytest.mark.parametrize("a", [0, 23, 24, 25])
def test_check_equation_finds_the_first_failure_in_either_block_of_a_real_grid(a):
    """Left projection on 26 elements with the entry (a, 1) changed to 2:
    associativity fails first where x = a.  The 26^3 grid is two blocks
    at the real GRID_BLOCK, x < 24 and x >= 24."""
    assert [len(axes[0]) for axes in algebra._block_axes([26] * 3)] == [24, 2]
    plus = [u for u in range(26) for _ in range(26)]
    plus[a * 26 + 1] = 2
    A = make_algebra(MSIG, 26, {"+": plus, "0": [0]})
    res = assert_same_result(A, ASSOCIATIVITY)
    assert not res.ok and res.counterexample["assignment"]["x"] == a


def test_check_equation_holds_less_than_one_full_grid_list():
    """Associativity on Z_64 has 262,144 assignments; a list of them all
    takes 2 MB, and the kernel holds a few blocks of 16,384 at a time."""
    Z = cyclic(64, MSIG)
    tracemalloc.start()
    try:
        assert check_equation(Z, ASSOCIATIVITY)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 ** 3 * 8


# -- canonical action tables against the per-entry oracle -----------------------------

USIG = Signature((("+", 2), ("-", 1), ("0", 0)), "0")
TSIG = Signature((("+", 2), ("t", 3), ("-", 1), ("0", 0)), "0")
THETAS = {
    1: ThetaSpec(("x", "y"), parse_term("(+ x y)", USIG, ["x", "y"])),
    2: ThetaSpec(("x1", "x2", "y"), parse_term("(+ x1 (+ y x2))", USIG, ["x1", "x2", "y"])),
}


@st.composite
def unital_algebras(draw, max_size, sig=USIG):
    """Algebras over sig (USIG, TSIG or MSIG) on {0..size-1} where 0 is a
    two-sided unit of +, the constant, and a fixed point of every other
    operation; every other entry is free, so + need not be associative."""
    size = draw(st.integers(1, max_size))
    entries = st.integers(0, size - 1)

    def table(name, arity):
        if name == "+":
            return [a if b == 0 else b if a == 0 else draw(entries)
                    for a, b in product(range(size), repeat=2)]
        return [0] + [draw(entries) for _ in range(size ** arity - 1)]

    return make_algebra(sig, size, {name: table(name, arity) for name, arity in sig.ops})


@given(unital_algebras(3), unital_algebras(2), st.sampled_from(sorted(THETAS)), st.data())
@settings(max_examples=60, deadline=None)
def test_gamma_matches_oracle_on_product_extensions(X, B, n, data):
    e = product_extension(X, B)
    theta = THETAS[n]
    w = data.draw(st.sampled_from(find_witnesses(e, theta, limit=4)))
    c = build_canonical(e, theta, w)
    assert (c.gamma, c.gamma_id) == brute_force_gamma(e, theta, w)


@given(unital_algebras(3, TSIG), unital_algebras(2, TSIG), st.sampled_from(sorted(THETAS)), st.data())
@settings(max_examples=40, deadline=None)
def test_action_tables_read_as_the_oracles_flat_tables(X, B, n, data):
    # every arity from 0 to 3: indexing, len, iteration and equality read
    # the rows as the flat table, and a table differing in one entry differs
    e = product_extension(X, B)
    theta = THETAS[n]
    w = data.draw(st.sampled_from(find_witnesses(e, theta, limit=4)))
    c = build_canonical(e, theta, w)
    gamma, _ = brute_force_gamma(e, theta, w)
    size = c.space.size
    for name, arity in TSIG.ops:
        table, flat = c.gamma[name], gamma[name]
        assert len(table) == len(flat) == size ** arity
        assert [table[z] for z in range(len(flat))] == list(table) == list(flat)
        assert table == flat and flat == table and not table != flat
        assert len(table.rows) == size ** max(arity - 1, 0)
        assert len(table.distinct()) <= e.A.size ** max(arity - 1, 0)
        z = data.draw(st.integers(0, len(flat) - 1))
        other = (flat[z][0] + 1,) + flat[z][1:]
        assert table != flat[:z] + (other,) + flat[z + 1:]
        assert table != flat[:-1]


# -- action-data entry checks against the per-entry oracle ----------------------------

def sum_theta(n: int) -> ThetaSpec:
    """(+ x1 (+ x2 .. (+ xn y))): admissible wherever 0 is a unit of +."""
    vars_ = [f"x{i + 1}" for i in range(n)] + ["y"]
    text = "y"
    for v in reversed(vars_[:-1]):
        text = f"(+ {v} {text})"
    return ThetaSpec(tuple(vars_), parse_term(text, USIG, vars_))


BAD_LEAVES = ["wrong length", True, 1.5, -1, "|X|", 10 ** 30, "x", None]


@given(unital_algebras(3), unital_algebras(2), st.integers(1, 3), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_gamma_data_entry_checks_match_oracle(X, B, n, as_lists, data):
    ambient = X.size ** n * B.size
    entry = st.lists(st.integers(0, X.size - 1), min_size=n, max_size=n)
    tables = {name: data.draw(st.lists(entry, min_size=ambient ** arity,
                                       max_size=ambient ** arity))
              for name, arity in USIG.ops}
    for _ in range(data.draw(st.integers(0, 2))):
        name = data.draw(st.sampled_from(USIG.op_names()))
        i = data.draw(st.integers(0, len(tables[name]) - 1))
        target = tables[name][i]
        bad = data.draw(st.sampled_from(BAD_LEAVES))
        if bad == "wrong length":
            tables[name][i] = data.draw(st.sampled_from([target[:-1], target + [0]]))
        elif target:
            j = data.draw(st.integers(0, len(target) - 1))
            target[j] = X.size if bad == "|X|" else bad
    as_tuples = {name: tuple(map(tuple, t)) for name, t in tables.items()}
    assert_entries_checked(X, B, n, tables if as_lists else as_tuples, as_tuples)


def assert_entries_checked(X, B, n, given_tables, as_tuples) -> None:
    """GammaData on ``given_tables`` raises the per-entry oracle's first
    entry error, or holds ``as_tuples`` with equal entries as one shared
    tuple."""
    expected = brute_force_entry_error(USIG.ops, as_tuples, n, X.size)
    got = outcome(lambda: GammaData(X, B, sum_theta(n), given_tables, ()))
    if expected is not None:
        assert got == ("raised", *expected)
        return
    assert got[0] == "value" and got[1].gamma == as_tuples
    for table in got[1].gamma.values():
        assert len(set(map(id, table))) == len(set(table))


def put_bad_leaf(row: list, j: int, bad, size: int, data) -> None:
    """Entry j of row made bad as BAD_LEAVES names it."""
    if bad == "wrong length":
        row[j] = data.draw(st.sampled_from([row[j][:-1], row[j] + [0]]))
    elif row[j]:
        i = data.draw(st.integers(0, len(row[j]) - 1))
        row[j][i] = size if bad == "|X|" else bad


@given(unital_algebras(3), unital_algebras(2), st.integers(1, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_shared_leaf_rows_are_checked_like_the_flat_table(X, B, n, data):
    # rows drawn from a pool of at most three, so that rows repeat; a bad
    # leaf lands in a pool row (and so in each of its copies) or in one
    # copy, and equal rows are then one shared object, as the reader hands
    # them over
    ambient = X.size ** n * B.size
    entry = st.lists(st.integers(0, X.size - 1), min_size=n, max_size=n)
    pool = data.draw(st.lists(st.lists(entry, min_size=ambient, max_size=ambient),
                              min_size=1, max_size=3))
    for _ in range(data.draw(st.integers(0, 2))):
        row = data.draw(st.sampled_from(pool))
        put_bad_leaf(row, data.draw(st.integers(0, len(row) - 1)),
                     data.draw(st.sampled_from(BAD_LEAVES)), X.size, data)
    # a nullary table is one row of one entry
    tables = {name: [[list(e) for e in data.draw(st.sampled_from(pool))][:ambient if arity else 1]
                     for _ in range(ambient ** (arity - 1) if arity else 1)]
              for name, arity in USIG.ops}
    for _ in range(data.draw(st.integers(0, 2))):
        rows = tables[data.draw(st.sampled_from(USIG.op_names()))]
        row = data.draw(st.sampled_from(rows))
        put_bad_leaf(row, data.draw(st.integers(0, len(row) - 1)),
                     data.draw(st.sampled_from(BAD_LEAVES)), X.size, data)
    shared: dict = {}
    given_tables = {name: ActionTable(shared.setdefault(json.dumps(row), row) for row in rows)
                    for name, rows in tables.items()}
    as_tuples = {name: tuple(tuple(e) for row in rows for e in row)
                 for name, rows in tables.items()}
    assert_entries_checked(X, B, n, given_tables, as_tuples)


# -- is_homomorphism against the per-tuple oracle ----------------------------------------

@given(relabelled_cyclic_groups(), st.data())
def test_is_homomorphism_matches_oracle(G, data):
    # the identity of G, and of algebras one entry away from G, perturbed in
    # at most one value: the counterexample must be the oracle's first one
    B = data.draw(st.one_of(st.just(G), free_algebras(SIG4).filter(lambda B: B.size == G.size)))
    values = list(range(G.size))
    if data.draw(st.booleans()):
        values[data.draw(st.integers(0, G.size - 1))] = data.draw(st.integers(0, G.size - 1))
    f = FnTable(G.size, tuple(values))
    assert repr(is_homomorphism(f, G, B)) == repr(brute_force_homomorphism(f, G, B))


@given(free_algebras(SIG4), free_algebras(SIG4), st.data())
def test_is_homomorphism_matches_oracle_on_random_maps(A, B, data):
    f = FnTable(B.size, tuple(data.draw(st.lists(
        st.integers(0, B.size - 1), min_size=A.size, max_size=A.size))))
    assert repr(is_homomorphism(f, A, B)) == repr(brute_force_homomorphism(f, A, B))


# -- the comparison map against the per-element oracles -----------------------------------

def perturb(f: FnTable, data) -> FnTable:
    """f with one value replaced (possibly by itself)."""
    values = list(f.values)
    values[data.draw(st.integers(0, f.dom_size - 1))] = data.draw(
        st.integers(0, f.cod_size - 1))
    return FnTable(f.cod_size, tuple(values))


@given(unital_algebras(3), unital_algebras(2), st.integers(1, 3), st.booleans(),
       st.sampled_from(["none", "p", "s"]), GRID_BLOCKS, st.data())
@settings(max_examples=120, deadline=None)
def test_comparison_map_matches_oracles(X, B, n, normalize, broken, points, data):
    with grid_block(points):
        compare_comparison_map(X, B, n, normalize, broken, data)


def compare_comparison_map(X, B, n, normalize, broken, data):
    e = product_extension(X, B)
    if broken != "none":
        maps = {"k": e.k, "p": e.p, "s": e.s}
        maps[broken] = perturb(maps[broken], data)
        e = SplitExtension(X, e.A, B, **maps)
    vars_ = [f"x{i + 1}" for i in range(n)] + ["y"]
    # the sum term is admissible; a random term usually is not
    theta = data.draw(st.one_of(
        st.just(sum_theta(n)),
        sig_terms(USIG, vars_).map(lambda t: ThetaSpec(tuple(vars_), t))))

    assert outcome(lambda: feasible_tuples(e, theta, normalize=normalize)) == \
        outcome(lambda: brute_force_feasible(e, theta, normalize))
    # the count against the list lengths, at, under and far over its budget
    cost = e.A.size * X.size ** n
    budget = data.draw(st.sampled_from([algebra.DEFAULT_BUDGET, cost, cost - 1]))
    assert outcome(lambda: count_witnesses(e, theta, normalize, budget)) == \
        outcome(lambda: prod(map(len, feasible_tuples(e, theta, normalize, budget))))
    assert outcome(lambda: is_schreier(e, theta)) == \
        outcome(lambda: brute_force_schreier(e, theta))
    if check_theta_admissible(theta, e.A):
        assert phi(e, theta).values == tuple(brute_force_phi(e, theta))

    # a found witness, or random maps, with at most one value changed
    found = outcome(lambda: find_witnesses(e, theta, normalize=normalize, limit=3))
    q = (list(data.draw(st.sampled_from(found[1])).q) if found[0] == "value" and found[1]
         else [FnTable(X.size, tuple(data.draw(st.lists(
             st.integers(0, X.size - 1), min_size=e.A.size, max_size=e.A.size))))
               for _ in range(n)])
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, n - 1))
        q[i] = perturb(q[i], data)
    w = Witness(tuple(q))
    for normalized in (False, True):
        assert repr(validate_witness(e, theta, w, normalized)) == \
            repr(brute_force_witness_check(e, theta, w, normalized))


def single_changes(w: Witness):
    """w and every witness that differs from it in exactly one value."""
    yield w
    for i, qi in enumerate(w.q):
        for a in range(qi.dom_size):
            for x in range(qi.cod_size):
                if x != qi(a):
                    values = list(qi.values)
                    values[a] = x
                    q = list(w.q)
                    q[i] = FnTable(qi.cod_size, tuple(values))
                    yield Witness(tuple(q))


@pytest.mark.parametrize("name", EXTENSION_NAMES)
def test_comparison_map_matches_oracles_on_fixtures(name):
    # every bundled witness term of the fixture's signature; on
    # example_monoid the binary sum term has |X x B| < |A|, so phi can be
    # injective without being onto
    e, file_witness, _, _ = load_fixture(name)
    for theta_name in ("theta_monoid_sum", "theta_monoid_xzy", "theta_group", "theta_heyting"):
        try:
            theta = theta_from_obj(json.loads(fixture_path(theta_name).read_text()),
                                   e.A.signature)
        except ToolkitError:
            continue
        for normalize in (False, True):
            assert outcome(lambda: feasible_tuples(e, theta, normalize=normalize)) == \
                outcome(lambda: brute_force_feasible(e, theta, normalize))
        assert outcome(lambda: is_schreier(e, theta)) == \
            outcome(lambda: brute_force_schreier(e, theta))
        assert phi(e, theta).values == tuple(brute_force_phi(e, theta))
        candidates = find_witnesses(e, theta, normalize=False, limit=2)
        if file_witness is not None and file_witness.n == theta.n:
            candidates.append(file_witness)
        for w in candidates:
            for changed in single_changes(w):
                for normalized in (False, True):
                    assert repr(validate_witness(e, theta, changed, normalized)) == \
                        repr(brute_force_witness_check(e, theta, changed, normalized))


@given(unital_algebras(4), st.integers(1, 3), GRID_BLOCKS, st.data())
@settings(deadline=None)
def test_product_check_matches_oracle(X, n, points, data):
    vars_ = [f"x{i + 1}" for i in range(n)] + ["y"]
    theta = data.draw(st.one_of(
        st.just(sum_theta(n)),
        sig_terms(USIG, vars_).map(lambda t: ThetaSpec(tuple(vars_), t))))
    with grid_block(points):
        res = outcome(lambda: product_extension_check(X, theta))
    expected = outcome(lambda: brute_force_product_check(X, theta))
    if expected[0] == "raised":
        assert res == expected
        return
    choices, obstruction = expected[1]
    ok, q, got_obstruction = res[1].ok, res[1].q, res[1].obstruction
    assert (ok, got_obstruction) == (obstruction is None, obstruction)
    if ok:
        assert [tuple(qi(x) for qi in q) for x in range(X.size)] == choices
    else:
        assert q is None


# -- the term laws against the per-assignment oracles ------------------------------------

# a second constant declared before the distinguished one, so that no law
# can read "the zero" off the first nullary operation by accident
ZSIG = Signature((("1", 0), ("-", 1), ("+", 2), ("0", 0)), "0")


def checked(fn):
    """outcome with a check's result as its repr, which also pins the key
    order of its counterexample."""
    return outcome(lambda: repr(fn()))


@given(free_algebras(ZSIG, 4), st.integers(1, 2), st.integers(0, 2), GRID_BLOCKS, st.data())
@settings(max_examples=300, deadline=None)
def test_admissibility_and_interchange_match_the_oracles(A, n, m, points, data):
    theta_vars = [f"x{i + 1}" for i in range(n)] + ["y"]
    theta = ThetaSpec(tuple(theta_vars), data.draw(sig_terms(ZSIG, theta_vars, 3)))
    omega_vars = [f"v{i}" for i in range(m)]
    omega = TermSpec(tuple(omega_vars), data.draw(sig_terms(ZSIG, omega_vars, 3)))
    domain = A.size ** (m * theta.arity)
    budget = data.draw(st.sampled_from([algebra.DEFAULT_BUDGET, domain, domain - 1]))
    with grid_block(points):
        # omega of arity 0 has no argument for x: ArityMismatch on both sides
        for spec in (theta, omega):
            assert checked(lambda: check_theta_admissible(spec, A)) == \
                checked(lambda: brute_force_admissible(spec, A))
        assert checked(lambda: check_commuting(omega, theta, A, budget)) == \
            checked(lambda: brute_force_commuting(omega, theta, A, budget))


@pytest.mark.parametrize("name", EXTENSION_NAMES)
def test_interchange_matches_the_oracle_on_fixtures(name):
    # every basic operation against the fixture's witness term on X, A and
    # B; several fail at a matrix that is not its own transpose
    e, _, _, theta = load_fixture(name)
    for op, arity in e.A.signature.ops:
        omega = operation_term(op, arity)
        for alg in (e.X, e.A, e.B):
            assert repr(check_commuting(omega, theta, alg)) == \
                repr(brute_force_commuting(omega, theta, alg))


def test_a_closed_term_has_no_unit_law():
    A = make_algebra(ZSIG, 2, {"1": [1], "-": [0, 1], "+": [0, 1, 1, 0], "0": [0]})
    omega = TermSpec((), App("1", ()))
    with pytest.raises(ArityMismatch) as exc:
        check_theta_admissible(omega, A)
    assert outcome(lambda: brute_force_admissible(omega, A)) == \
        ("raised", ArityMismatch, str(exc.value))


ALPHA_TEXTS = {
    "klein_four": ["(* x (inv y))"],
    "s3": ["(* x (inv y))"],
    "heyting_chain": ["(imp x y)", "(imp (imp (imp x y) y) x)"],
}


@given(st.sampled_from(sorted(ALPHA_TEXTS)), GRID_BLOCKS, st.data())
@settings(deadline=None)
def test_semiabelian_witness_matches_the_oracle(name, points, data):
    # the fixture's alpha terms, or random terms in their place, with the
    # variables in either order and now and then of the wrong arity or number
    e, _, _, theta = load_fixture(name)
    sig = e.A.signature
    alphas = []
    for text in ALPHA_TEXTS[name]:
        vars_ = data.draw(st.sampled_from([("x", "y"), ("y", "x"), ("x",), ("x", "y", "z")]))
        terms_ = [sig_terms(sig, vars_, 2)]
        if {"x", "y"} <= set(vars_):
            terms_.append(st.just(parse_term(text, sig, ["x", "y"])))
        alphas.append(TermSpec(vars_, data.draw(st.one_of(terms_))))
    alphas = data.draw(st.sampled_from([alphas, alphas[:-1], alphas + alphas[:1]]))
    with grid_block(points):
        assert outcome(lambda: semiabelian_witness(e, theta, alphas).arrays()) == \
            outcome(lambda: brute_force_semiabelian_witness(e, theta, alphas).arrays())


def test_semiabelian_witness_matches_the_oracle_on_the_fixture_terms():
    for name, texts in ALPHA_TEXTS.items():
        e, _, _, theta = load_fixture(name)
        alphas = [TermSpec(("x", "y"), parse_term(t, e.A.signature, ["x", "y"]))
                  for t in texts]
        w = semiabelian_witness(e, theta, alphas)
        assert w.arrays() == brute_force_semiabelian_witness(e, theta, alphas).arrays()


@pytest.mark.parametrize("points", [1, 7, algebra.GRID_BLOCK])
def test_sigma_tau_matches_the_oracle_on_fixtures(points):
    # every example_monoid witness, and n2_product with the twisted ternary sum
    e, _, _, theta = load_fixture("example_monoid")
    cases = [(e, theta, w) for w in find_witnesses(e, theta)]
    e, _, _, _ = load_fixture("n2_product")
    twisted = ThetaSpec(("x1", "x2", "y"), parse_term("(+ x1 (+ y x2))", MSIG, ["x1", "x2", "y"]))
    cases.append((e, twisted, find_witnesses(e, twisted)[0]))
    assert len(cases) == 7
    for e, theta, w in cases:
        with grid_block(points):
            dec = sigma_tau_decompose(e, theta, w)
        assert dec.report.ok
        assert dec == brute_force_sigma_tau(e, theta, w)


XZY = ThetaSpec(("x1", "x2", "y"), parse_term("(+ (+ x1 y) x2)", MSIG, ["x1", "x2", "y"]))


@given(unital_algebras(3, MSIG), unital_algebras(2, MSIG), GRID_BLOCKS, st.data())
@settings(max_examples=80, deadline=None)
def test_sigma_tau_matches_the_oracle_on_product_extensions(X, B, points, data):
    # X -> X x B -> B with theta = x + z + y; without associativity the
    # decomposition identity can fail, and its detail is compared
    e = product_extension(X, B)
    found = find_witnesses(e, XZY, normalize=False, limit=4)
    w = (data.draw(st.sampled_from(found)) if found else
         Witness(tuple(FnTable(X.size, tuple(data.draw(st.lists(
             st.integers(0, X.size - 1), min_size=e.A.size, max_size=e.A.size))))
             for _ in range(2))))
    with grid_block(points):
        got = outcome(lambda: sigma_tau_decompose(e, XZY, w))
    assert got == outcome(lambda: brute_force_sigma_tau(e, XZY, w))


# -- canonical form: writer, cross-checks and report against the per-entry oracles ----

def ternary_group(m: int):
    """Z_m over TSIG: Z_m over USIG with the ternary t(x, y, z) = x - y + z."""
    return make_algebra(TSIG, m, {**cyclic(m, USIG).tables, "t": [
        (u - v + w) % m for u, v, w in product(range(m), repeat=3)]})


GROUP_THETA = ThetaSpec(("x", "y"), parse_term("(* x y)", GSIG, ["x", "y"]))


@st.composite
def canonical_cases(draw, max_product_m=5):
    """(e, theta, w, axioms): a product family Z_m -> Z_m^2 -> Z_m with the
    sum term of n kernel arguments and a witness drawn fibre by fibre (over
    USIG, or over TSIG, whose ternary t has a prefix index over |S|^2), a
    dihedral family Z_m -> D_m -> Z_2, or a bundled fixture with one of its
    first witnesses.  Every signature has a binary, a unary or a nullary
    operation."""
    kind = draw(st.sampled_from(["product", "ternary", "dihedral", "fixture"]))
    if kind in ("product", "ternary"):
        # sampled, not drawn as integers, so that the largest family
        # (5^8 binary entries at m=5, n=3; 9^3 ternary ones) is no likelier
        # than the others
        m, n = draw(st.sampled_from([(m, n) for m in range(2, max_product_m + 1)
                                     for n in (1, 2, 3)] if kind == "product"
                                    else [(2, 1), (2, 2), (3, 1)]))
        Z = cyclic(m, USIG) if kind == "product" else ternary_group(m)
        e, theta = product_extension(Z, Z), sum_theta(n)
        T = feasible_tuples(e, theta)
        choice = [draw(st.sampled_from(ts)) for ts in T]
        w = Witness(tuple(FnTable(m, tuple(xs[i] for xs in choice)) for i in range(n)))
        return e, theta, w, ()
    if kind == "dihedral":
        # the reflection acts on Z_m by negation
        m = draw(st.integers(2, 6))
        Z_m, Z_2 = (group(k, lambda a, b, k=k: (a + b) % k) for k in (m, 2))
        e = semidirect(Z_m, Z_2, (tuple(range(m)), tuple(-x % m for x in range(m))))
        return e, GROUP_THETA, find_witnesses(e, GROUP_THETA)[0], ()
    e, file_witness, axioms, theta = load_fixture(draw(st.sampled_from(EXTENSION_NAMES)))
    witnesses = find_witnesses(e, theta, limit=3)
    return e, theta, draw(st.sampled_from(witnesses + [file_witness])), axioms


# seeded: the cost of a draw swings with the size of its family, and seed 3
# draws the largest product family (m = 5, n = 3) twice in its 60 examples
@seed(3)
@given(canonical_cases())
@settings(max_examples=60, deadline=None)
def test_writer_matches_the_listing_oracle(case):
    e, theta, w, axioms = case
    c = build_canonical(e, theta, w)
    verification = verify_isomorphism(e, c, w)
    doc = canonical_to_obj(c, axioms=axioms, verification=verification)
    expected = listing_canonical_to_obj(c, axioms, verification)
    assert doc == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "canon.json"
        dump_json(doc, path)
        assert path.read_bytes() == (plain_rows(expected, "") + "\n").encode()
        assert json.loads(path.read_text()) == doc


def assert_same_report(e, c, w):
    assert outcome(lambda: verify_isomorphism(e, c, w).to_json(), crashes=True) == \
        outcome(lambda: brute_force_verify(e, c, w).to_json(), crashes=True)


def replace(record, **changes):
    """The record rebuilt from its fields, with some of them changed."""
    fields = {f: getattr(record, f) for f in record._fields}
    return type(record)(**{**fields, **changes})


def corrupt(c, data, fields=("A", "gamma", "gamma_id", "k", "p", "Y", "theta")):
    """c with one entry of one of its tables replaced, within range, or
    with its witness term replaced by a projection; one of ``fields``, the
    tables A, k and p those of its extension."""
    field = data.draw(st.sampled_from(fields))
    pick = lambda seq: data.draw(st.integers(0, len(seq) - 1))  # noqa: E731
    kernel_tuple = st.tuples(*[st.integers(0, c.X.size - 1)] * c.n)
    if field == "gamma":
        name = data.draw(st.sampled_from(c.X.signature.op_names()))
        table = list(c.gamma[name])
        table[pick(table)] = data.draw(kernel_tuple)
        size = c.space.size
        table = ActionTable(table[i:i + size] for i in range(0, len(table), size))
        return replace(c, gamma={**c.gamma, name: table})
    if field == "A":
        A = c.extension.A
        name = data.draw(st.sampled_from(c.X.signature.op_names()))
        table = list(A.tables[name])
        table[pick(table)] = data.draw(st.integers(0, len(c.Y) - 1))
        A = replace(A, tables={**A.tables, name: tuple(table)})
        return replace(c, extension=replace(c.extension, A=A))
    if field == "gamma_id":
        table = list(c.gamma_id)
        table[pick(table)] = data.draw(kernel_tuple)
        return replace(c, gamma_id=tuple(table))
    if field == "theta":  # a projection: theta_X(ys, 0) need not be injective
        return replace(c, theta=ThetaSpec(
            c.theta.vars, Var(data.draw(st.sampled_from(c.theta.vars)))))
    if field in ("k", "p"):
        f = getattr(c.extension, field)
        return replace(c, extension=replace(c.extension, **{field: perturb(f, data)}))
    Y = [list(t) for t in c.Y]
    i = pick(Y)
    j = data.draw(st.integers(0, c.n))
    Y[i][j] = data.draw(st.integers(0, (c.X.size if j < c.n else c.B.size) - 1))
    return replace(c, Y=tuple(map(tuple, Y)))


def transported(e, theta, w, c):
    """c with the Y, operations on Y and k' of the transport along psi, one
    entry at a time (brute_force_transport), in place of its own."""
    psi_t = psi(e, w)
    image = sorted(psi_t.values)
    Y = tuple((*xs, b) for xs, b in map(c.space.unpack, image))
    y_pos = {z: i for i, z in enumerate(image)}
    A = FiniteAlgebra(c.X.signature, len(Y), brute_force_transport(e, theta, w, Y))
    k = FnTable(len(Y), tuple(y_pos[psi_t(a)] for a in e.k.values))
    return replace(c, Y=Y, extension=replace(c.extension, A=A, k=k))


def verified(e, w, build):
    """Whether the form ``build`` returns passes every entry of
    verify_isomorphism but section_transport, which the canonicalize
    command reads as the isomorphism itself."""
    rep = verify_isomorphism(e, build(), w)
    return all(en.ok for en in rep.entries if en.name != "section_transport")


@given(canonical_cases(max_product_m=4), st.data())
@settings(max_examples=300, deadline=None)
def test_cross_checks_and_report_match_the_per_entry_loops(case, data):
    e, theta, w, _ = case
    c = build_canonical(e, theta, w)
    assert c.extension.A.tables == brute_force_transport(e, theta, w, c.Y)
    brute_force_cross_check(c)
    assert verify_isomorphism(e, c, w).to_json() == brute_force_verify(e, c, w).to_json()

    # the action data (gamma, theta) corrupted before Y is read off it: the
    # form passes verify_isomorphism exactly when the per-entry cross-check
    # accepts the same data with the transported Y, operations on Y and k'
    seen, read_off = [], canonical.carrier

    def corrupted_carrier(action_data, budget):
        seen.append(corrupt(action_data, data, ("gamma", "theta")))
        return read_off(seen[-1], budget)

    with mock.patch.object(canonical, "carrier", corrupted_carrier):
        passes = outcome(lambda: verified(e, w, lambda: build_canonical(e, theta, w)))
    ref = replace(transported(e, theta, w, c), gamma=seen[0].gamma, theta=seen[0].theta)
    assert (passes == ("value", True)) == \
        (outcome(lambda: brute_force_cross_check(ref)) == ("value", None))

    bad = corrupt(c, data)
    assert_same_report(e, bad, w)

    # a witness with one value changed: the same report (or the same kind
    # of failure) for c, and the checks pass on its own canonical form
    i = data.draw(st.integers(0, w.n - 1))
    mutant = Witness(w.q[:i] + (perturb(w.q[i], data),) + w.q[i + 1:])
    assert_same_report(e, c, mutant)
    if validate_witness(e, theta, mutant, normalized=True):
        c2 = build_canonical(e, theta, mutant)
        assert c2.extension.A.tables == brute_force_transport(e, theta, mutant, c2.Y)
        brute_force_cross_check(c2)


# -- action data: conditions, carrier and term tables against the per-entry oracles ----

def membership_variants(theta: ThetaSpec) -> list[TermSpec]:
    """Terms over theta's variables to cut Y out with: theta itself, theta
    with its kernel arguments reversed, theta nested in its own last
    argument, the last variable alone (all with the unit property), and
    the first variable alone (without it unless the algebras are trivial)."""
    *xs, y = theta.vars
    terms = [theta.term,
             substitute(theta.term, {x: Var(v) for x, v in zip(xs, reversed(xs))}),
             substitute(theta.term, {y: theta.term}),
             Var(y), Var(xs[0])]
    return [TermSpec(theta.vars, t) for t in terms]


def gamma_mutant(g: GammaData, data) -> GammaData:
    """g, or g with one or two action entries replaced by kernel tuples;
    each entry sits at an argument tuple of carrier members half of the
    time, where the conditions look."""
    count = data.draw(st.integers(0, 2))
    if not count:
        return g
    gamma, size, members = dict(g.gamma), g.space.size, membership_by_term(g)
    for _ in range(count):
        name, arity = data.draw(st.sampled_from(g.X.signature.ops))
        table = list(gamma[name])
        if arity and data.draw(st.booleans()):
            j = 0
            for _ in range(arity):
                j = j * size + data.draw(st.sampled_from(members))
        else:
            j = data.draw(st.integers(0, len(table) - 1))
        table[j] = data.draw(st.tuples(*[st.integers(0, g.X.size - 1)] * g.n))
        gamma[name] = tuple(table)
    return GammaData(g.X, g.B, g.theta, gamma, g.axioms)


def condition_costs(g: GammaData, Y, kernel) -> list[int]:
    """Every budget a condition check compares against, one under and at."""
    costs = {g.space.size, len(kernel) ** g.n * g.B.size}
    for _, arity in g.X.signature.ops:
        costs |= {len(Y) ** arity, len(kernel) ** arity}
    costs |= {len(Y) ** len(ax.vars) for ax in g.axioms}
    return sorted({c + d for c in costs for d in (-1, 0)} - {-1})


def carrier_outcome(g: GammaData, budget: int):
    rep, carrier = _checked(g, budget)
    assert check_conditions(g, budget) is rep
    tables = None if carrier.algebra is None else dict(carrier.algebra.tables)
    return rep.to_json(), carrier.Y, [g.space.unpack(z)[0] for z in carrier.kz], tables


def oracle_carrier_outcome(g: GammaData, budget: int):
    rep, Y, kernel, tables = brute_force_conditions(g, budget)
    return rep.to_json(), Y, kernel, tables


def rebuilt(result):
    ext, w = result
    return (ext.A.size, dict(ext.A.tables), ext.k.values, ext.p.values, ext.s.values,
            w.arrays())


@given(canonical_cases(), GRID_BLOCKS, st.data())
@settings(max_examples=200, deadline=None)
def test_action_data_checks_match_the_per_entry_oracles(case, points, data):
    e, theta, w, axioms = case
    g = gamma_mutant(extract_gamma(build_canonical(e, theta, w), axioms), data)
    _, Y, kernel, _ = brute_force_conditions(g)
    budget = data.draw(st.one_of(st.just(algebra.DEFAULT_BUDGET),
                                 st.sampled_from(condition_costs(g, Y, kernel))))
    size = g.space.size
    with grid_block(points):
        assert outcome(lambda: carrier_outcome(g, budget), crashes=True) == \
            outcome(lambda: oracle_carrier_outcome(g, budget), crashes=True)
        assert outcome(lambda: rebuilt(build_extension_from_gamma(g, budget)), crashes=True) == \
            outcome(lambda: rebuilt(brute_force_rebuild(g, budget)), crashes=True)

        for omega in membership_variants(g.theta):
            for cap in (size, size - 1):
                assert outcome(lambda: membership_by_term(g, omega, budget=cap), crashes=True) == \
                    outcome(lambda: brute_force_membership(g, omega, budget=cap), crashes=True)

        basic = [operation_term(name, arity) for name, arity in g.X.signature.ops]
        for omega in basic + membership_variants(g.theta)[:1]:
            cost = size ** omega.arity
            # the full tables only where the per-entry oracle stays quick
            for cap in ((cost, cost - 1) if cost <= 5000 else (cost - 1,)):
                assert outcome(lambda: gamma_table(g, omega, budget=cap), crashes=True) == \
                    outcome(lambda: brute_force_gamma_table(g, omega, budget=cap), crashes=True)


def budget_bounds():
    """Per gate: (a call of a budget, the exact cost it charges at that gate,
    which no earlier gate masks, its value at that cost, the message one
    below).  e is Z_2 -> Z_2 x Z_2 -> Z_2 with theta = x1 + y, so Y is all
    4 ambient tuples."""
    Z2, Z3 = cyclic(2, USIG), cyclic(3, USIG)
    e, theta, plus = product_extension(Z2, Z2), sum_theta(1), operation_term("+", 2)
    w = find_witnesses(e, theta)[0]
    c = build_canonical(e, theta, w)
    unit = Equation(("x",), parse_term("(+ 0 x)", USIG, ["x"]), Var("x"))
    assoc = Equation(("x", "y", "z"), parse_term("(+ x (+ y z))", USIG, ["x", "y", "z"]),
                     parse_term("(+ (+ x y) z)", USIG, ["x", "y", "z"]))
    g = extract_gamma(c, (unit, assoc))
    example, example_w, _, example_theta = load_fixture("example_monoid")
    e9, theta2 = product_extension(Z3, Z3), sum_theta(2)
    g3, g4 = unclosed_constant_data(1), unclosed_constant_data(2)
    return {
        # |A|^(2 * 2) matrices
        "check_commuting": (lambda budget: check_commuting(plus, theta, Z2, budget).ok,
                            16, True, "commutation check needs 16 cases, budget is 15"),
        "membership_by_term": (lambda budget: membership_by_term(c, budget=budget),
                               4, [0, 1, 2, 3],
                               "membership test needs 4 ambient tuples, budget is 3"),
        "gamma_table": (lambda budget: len(gamma_table(c, plus, budget=budget)),
                        16, 16, "action table needs 16 entries, budget is 15"),
        # |Y|^2 for '+', the first operation, over the 4 ambient tuples
        "closure": (lambda budget: carrier(c, budget).algebra.size,
                    16, 4, "closure check for '+' exceeds budget"),
        # 4^2 + 4^1 + 4^0 entries for +, - and 0
        "build_canonical": (lambda budget: len(build_canonical(e, theta, w, budget=budget).Y),
                            21, 4, "action tables need 21 entries, budget is 20"),
        # |A|^3 + (|X|^2 |B|)^2 = 5^3 + 8^2
        "sigma_tau_decompose": (
            lambda budget: sigma_tau_decompose(example, example_theta, example_w,
                                               budget=budget).report.ok,
            189, True, "decomposition needs 189 evaluations, budget is 188"),
        # |A| * |X|^n
        "fibre walk": (lambda budget: count_witnesses(e, theta, budget=budget),
                       8, 1, "witness feasibility needs 8 evaluations, budget is 7"),
        # 3^8 normalized witnesses, over a fibre walk of 9 * 3^2 evaluations
        "find_witnesses": (lambda budget: len(find_witnesses(e9, theta2, budget=budget)),
                           3 ** 8, 3 ** 8,
                           "would materialize 6561 witnesses, budget is 6560"),
        # the first 1000 of the 3^8, so the message names 1000, not 6561
        "find_witnesses under a limit": (
            lambda budget: len(find_witnesses(e9, theta2, limit=1000, budget=budget)),
            1000, 1000, "would materialize 1000 witnesses, budget is 999"),
        # |Y|^3 for associativity, axiom 1, over the closure's 4^2
        "axiom": (lambda budget: check_conditions(g, budget).ok,
                  64, True, "axiom 1 check exceeds budget"),
        "condition 3": (lambda budget: check_conditions(g3, budget).ok,
                        9, False, "condition 3 for '+' exceeds budget"),
        "condition 4": (lambda budget: check_conditions(g4, budget).ok,
                        18, False, "condition 4 exceeds budget"),
        # 0 is the only value at position 0 that the constant allows: 3 nodes
        # there, 3 at position 1 and 3 * 3 at position 2
        "enumerate_homomorphisms": (
            lambda budget: len(enumerate_homomorphisms(Z3, Z3, budget=budget)),
            15, 3, "homomorphism search exceeded 14 nodes"),
        # the pullback along the identity is A itself: 4^2 + 4 + 1 entries
        "pullback_algebra": (
            lambda budget: pullback_algebra(e.A, e.p, Z2, FnTable(2, (0, 1)), Z2,
                                            budget=budget)[0].size,
            21, 4, "pullback tables need 21 entries, budget is 20"),
        # |X|^n
        "product_extension_check": (
            lambda budget: product_extension_check(Z3, theta2, budget=budget).ok,
            9, True, "product check needs 9 evaluations, budget is 8"),
    }


@pytest.mark.parametrize("site", list(budget_bounds()))
def test_a_budget_bound_passes_at_its_cost_and_raises_one_below(site):
    run, cost, value, message = budget_bounds()[site]
    assert run(cost) == value
    with pytest.raises(SearchBudgetExceeded) as raised:
        run(cost - 1)
    assert str(raised.value) == message


# -- tabulate_grid against the per-entry evaluators -------------------------------------

def grid_axes(values, data, arity):
    """arity axes of up to 4 values each, repeats allowed; an axis may be
    empty or one constant value."""
    return [data.draw(st.lists(st.sampled_from(values), max_size=4)) for _ in range(arity)]


def grid_term(sig: Signature, vars_, terms, data) -> TermSpec:
    """A term over vars_ drawn from ``terms``, or one basic operation of
    sig over its own variables."""
    if data.draw(st.booleans()):
        return TermSpec(tuple(vars_), data.draw(terms))
    return operation_term(*data.draw(st.sampled_from(sig.ops)))


@given(free_algebras(SIG4), GRID_BLOCKS, st.data())
def test_tabulate_matches_the_term_value_oracle_on_columns(A, points, data):
    """_tabulate over argument columns that are not a grid: 0 to 5 rows,
    repeats allowed; the term may omit declared variables or have none."""
    vars_ = data.draw(st.lists(st.sampled_from("xyz"), max_size=3, unique=True))
    t = data.draw(st.one_of(*(sig_terms(SIG4, vs) for vs in (vars_, vars_[:1], []))))
    block = data.draw(st.integers(0, 5))
    rows = st.lists(st.integers(0, A.size - 1), min_size=block, max_size=block)
    env = {v: data.draw(rows) for v in vars_}
    with grid_block(points):
        got = algebra._tabulate(t, A, env, block)
    spec = TermSpec(tuple(vars_), t)
    assert got == [term_value(spec, A, [env[v][i] for v in vars_]) for i in range(block)]


@given(free_algebras(SIG4), GRID_BLOCKS, st.data())
def test_tabulate_grid_matches_the_term_value_oracle(A, points, data):
    vars_ = data.draw(st.lists(st.sampled_from("xyz"), max_size=3, unique=True))
    spec = grid_term(SIG4, vars_, sig_terms(SIG4, vars_), data)
    axes = grid_axes(range(A.size), data, spec.arity)
    with grid_block(points):
        got = algebra.tabulate_grid(spec, A, axes)
    assert got == [term_value(spec, A, args) for args in product(*axes)]


@given(canonical_cases(max_product_m=3), GRID_BLOCKS, st.data())
@settings(max_examples=60, deadline=None)
def test_tabulate_grid_matches_the_per_entry_candidate_operations(case, points, data):
    e, theta, w, _ = case
    c = build_canonical(e, theta, w)
    per_entry = PerEntryOps(c)
    vars_ = theta.vars[:data.draw(st.integers(0, theta.arity))]
    spec = grid_term(c.X.signature, vars_, sig_terms(c.X.signature, vars_, 2), data)
    if spec.vars and data.draw(st.booleans()):
        # the retraction's axes: the zero tuple in every variable but the last
        axes = [[c.zero_row + c.B.zero]] * (spec.arity - 1) + [c.space.indices()]
    else:
        axes = grid_axes(c.space.indices(), data, spec.arity)
    with grid_block(points):
        got = algebra.tabulate_grid(spec, c, axes)
    assert got == [per_entry.eval(spec, args) for args in product(*axes)]


@pytest.mark.parametrize("name", EXTENSION_NAMES)
def test_an_operation_term_tabulates_to_the_operation_table(name):
    e, _, _, _ = load_fixture(name)
    for A in (e.X, e.A, e.B):
        for op, arity in A.signature.ops:
            assert algebra.tabulate_grid(operation_term(op, arity), A,
                                         [range(A.size)] * arity) == list(A.tables[op])


# -- the row-sharing reader against the whole-document oracle ---------------------------

def row_slots(doc) -> list[tuple]:
    """(container, key) of every leaf row of doc's gamma tables, in table
    order: container[key] is the row, the innermost list of entries."""
    arity = {op["name"]: op["arity"] for op in doc["X"]["signature"]["ops"]}
    slots = []
    for name in doc["gamma"]:
        level = [(doc["gamma"], name)]
        for _ in range(arity[name] - 1):
            level = [(c[k], i) for c, k in level if isinstance(c[k], list)
                     for i in range(len(c[k]))]
        slots += level if arity[name] else []
    return slots


def spaced_text(obj, rnd) -> str:
    """JSON text of obj with random whitespace between its tokens; a list of
    lists is written on a line of its own half of the time, so that some
    leaf rows are whole lines and others are split across lines."""
    def ws():
        return rnd.choice(["", " ", "\t", "\n", "\r\n", "\n    ", " \n\t"])

    def emit(v):
        if isinstance(v, dict):
            return "{" + ws() + ("," + ws()).join(
                f"{json.dumps(k)}{ws()}:{ws()}{emit(x)}{ws()}" for k, x in v.items()) + "}"
        if isinstance(v, list):
            if v and isinstance(v[0], list) and rnd.random() < 0.5:
                return "\n" + json.dumps(v) + "\n"
            return "[" + ws() + ("," + ws()).join(emit(x) + ws() for x in v) + "]"
        return json.dumps(v)
    return emit(obj)


PLACEHOLDER = "\u0001placeholder"
# text put where PLACEHOLDER is written: deep nesting, and objects that the
# reader's row reference could be mistaken for, on a line of their own
PLACED = ["[" * 100_000 + "]" * 100_000, json.dumps({_ROW_REF: 0}),
          '{"\\u0000row": 1}', json.dumps({_ROW_REF: 0, "a": 1}), json.dumps({_ROW_REF: "x"})]
DOC_FAULTS = ["deeper row", "deeper entry", "shallower table", "short row", "non-list row",
              "non-list entry", "bad leaf", "row text in strings", "marker object",
              "placed text"]
TEXT_FAULTS = ["truncated", "not UTF-8", "raw newline in a string", "duplicate key",
               "non-finite"]


def faulty_doc(doc: dict, data) -> dict:
    """An unshared copy of a canonical document with up to two drawn faults."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 2))):
        add_fault(doc, data.draw(st.one_of(st.just("none"), st.sampled_from(DOC_FAULTS))), data)
    return doc


def well_formed(row) -> bool:
    return isinstance(row, list) and all(
        isinstance(e, list) and e and all(type(x) is int for x in e) for e in row)


def add_fault(doc: dict, fault: str, data) -> None:
    if fault == "row text in strings":
        doc["X"]["element_names"] = [f"[[{x}]]" for x in range(doc["X"]["size"])]
        return
    if fault == "marker object":
        doc["gamma"][doc["X"]["signature"]["ops"][0]["name"]] = {_ROW_REF: 0}
        return
    slots = [(c, k) for c, k in row_slots(doc) if c[k] and well_formed(c[k])]
    if fault == "none" or not slots:
        return
    # a row whose value occurred before (a later repeat) or a first occurrence
    seen, firsts, repeats = set(), [], []
    for slot in slots:
        key = json.dumps(slot[0][slot[1]])
        (repeats if key in seen else firsts).append(slot)
        seen.add(key)
    c, k = data.draw(st.sampled_from(repeats if repeats and data.draw(st.booleans()) else firsts))
    row = c[k]
    j = data.draw(st.integers(0, len(row) - 1))
    if fault == "deeper row":
        c[k] = [row]
    elif fault == "deeper entry":
        row[j] = [row[j]]
    elif fault == "shallower table":
        name = data.draw(st.sampled_from(sorted(doc["gamma"])))
        if isinstance(doc["gamma"][name], list) and doc["gamma"][name]:
            doc["gamma"][name] = doc["gamma"][name][0]
    elif fault == "short row":
        row.pop()
    elif fault == "non-list row":
        c[k] = data.draw(st.sampled_from([0, "row", None, {}]))
    elif fault == "non-list entry":
        row[j] = data.draw(st.sampled_from([0, "x", None, {}]))
    elif fault == "bad leaf":
        put_bad_leaf(row, j, data.draw(st.sampled_from(BAD_LEAVES)), doc["X"]["size"], data)
    else:  # placed text: a middle row, so that the row layout gives it a line
        c, k = slots[len(slots) // 2]
        c[k] = PLACEHOLDER


def layout(doc: dict, data, tmp: Path) -> bytes:
    """doc as one of the layouts a reader must take, with one drawn fault
    in the text."""
    fault = data.draw(st.one_of(st.just("none"), st.sampled_from(TEXT_FAULTS)))
    if fault == "raw newline in a string":
        doc = dict(doc, X=dict(doc["X"], element_names=["[[0]]"] * doc["X"]["size"]))
    kind = data.draw(st.sampled_from(["rows", "spaced", "compact", "indent"]))
    if kind == "rows":
        dump_json(doc, tmp / "rows.json")
        text = (tmp / "rows.json").read_text()
    elif kind == "spaced":
        text = spaced_text(doc, data.draw(st.randoms(use_true_random=False)))
    else:
        text = json.dumps(doc, indent=2 if kind == "indent" else None)
    text = text.replace(json.dumps(PLACEHOLDER), data.draw(st.sampled_from(PLACED)))
    if fault == "truncated":
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    elif fault == "raw newline in a string":
        text = text.replace('"[[0]]"', '"\n[[0]]\n"', 1)
    elif fault in ("duplicate key", "non-finite"):
        text = mutate_text(text, fault, lambda values: data.draw(st.sampled_from(values)))
    raw = text.encode()
    if fault == "not UTF-8":
        i = data.draw(st.integers(0, len(raw)))
        raw = raw[:i] + b"\xff" + raw[i:]
    return raw


@given(canonical_cases(max_product_m=3), st.data())
@settings(max_examples=200, deadline=None)
def test_row_sharing_reader_matches_the_whole_document_oracle(case, data):
    e, theta, w, axioms = case
    doc = canonical_to_obj(build_canonical(e, theta, w), axioms)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "gamma.json"
        path.write_bytes(layout(faulty_doc(doc, data), data, Path(tmp)))
        got = outcome(lambda: gamma_from_obj(_load_json(path), path.parent))
        expected = outcome(lambda: per_entry_read_gamma(path))
        shared = outcome(lambda: _load_json(path))
    if got[0] == "value":
        g = got[1]
        assert expected == ("value", (g.gamma, g.axioms))
        for (name, arity), flat in zip(g.X.signature.ops, expected[1][0].values()):
            table = g.gamma[name]
            assert len(set(map(id, table))) == len(set(table))
            # the stored rows, one per row object the reader handed over,
            # are the oracle's flat table cut at the leading arguments
            level = [shared[1]["gamma"][name]]
            for _ in range(arity - 1):
                level = [row for sub in level for row in sub]
            assert len(table.distinct()) == len(set(map(id, level)))
            width = len(flat) // len(table.rows)
            assert list(table.rows) == [flat[i:i + width] for i in range(0, len(flat), width)]
            assert {type(row) for row in table.rows} == {tuple}
    else:
        assert got == expected
