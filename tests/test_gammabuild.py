import re
import tracemalloc
from itertools import product

import pytest

from wsext import (
    GammaData,
    Signature,
    TermSpec,
    ThetaSpec,
    build_canonical,
    build_extension_from_gamma,
    check_conditions,
    compute_Y,
    extract_gamma,
    find_witnesses,
    make_algebra,
    membership_by_term,
    parse_term,
    product_algebra,
    psi,
    validate_split_extension,
    validate_witness,
)
from wsext.errors import (
    ArityMismatch,
    ConditionsFailed,
    EntryOutOfRange,
    IotaNotInY,
    SearchBudgetExceeded,
    WrongTheta,
)
from wsext.canonical import membership_by_gamma_id
from wsext.gammabuild import LeafRows

from conftest import MSIG, assert_rebuilds, load_fixture, projections, unclosed_constant_data


def extracted(name):
    e, w, axioms, theta = load_fixture(name)
    c = build_canonical(e, theta, w)
    return e, w, theta, c, extract_gamma(c, axioms)


def product_gamma_data():
    """Componentwise action data for the direct product N2 x N2."""
    N2 = make_algebra(MSIG, 2, {"+": [0, 1, 1, 1], "0": [0]})
    theta = ThetaSpec(("x", "y"), parse_term("(+ x y)", MSIG, ["x", "y"]))
    space_size = 4  # X^1 x B
    gamma_plus = []
    for z1 in range(space_size):
        for z2 in range(space_size):
            x1, x2 = z1 // 2, z2 // 2
            gamma_plus.append((N2.op("+", (x1, x2)),))
    gamma = {"+": tuple(gamma_plus), "0": ((0,),)}
    axioms = (
        # the left unit law, parsed once and reused on the carrier
    )
    return GammaData(N2, N2, theta, gamma, ())


# -- compute_Y -----------------------------------------------------------------------

def test_extracted_example_carrier_has_five_elements():
    e, w, theta, c, g = extracted("example_monoid")
    Y = compute_Y(g)
    assert len(Y) == 5
    assert Y == membership_by_gamma_id(c)


def test_compute_Y_respects_budget():
    g = product_gamma_data()
    assert compute_Y(g, budget=4) == list(range(4))
    with pytest.raises(SearchBudgetExceeded):
        compute_Y(g, budget=3)


def test_product_data_carrier_is_everything():
    g = product_gamma_data()
    assert compute_Y(g) == list(range(4))


def test_membership_is_a_filter_not_an_iteration():
    # corrupt the action so the retraction of one carrier member moves:
    # that member drops out, everything else is judged independently,
    # and no error is raised even though the data is no longer idempotent
    e, w, theta, c, g = extracted("example_monoid")
    space = g.space
    from wsext.algebra import table_index
    zero = space.pack((0, 0), 0)
    member = space.pack((0, 1), 0)  # psi(1), a carrier member
    before = compute_Y(g)
    assert member in before

    table = list(g.gamma["+"])
    # retraction of `member` is gamma_+(zero, inner) with inner = member + 0;
    # rewriting the (zero, member) entry moves it off its own coordinates
    table[table_index(space.size, (zero, member))] = (1, 1)
    g2 = GammaData(g.X, g.B, g.theta, {"+": tuple(table), "0": g.gamma["0"]},
                   g.axioms)
    after = compute_Y(g2)
    assert member not in after
    # the tuple the mutated entry points at now retracts to itself
    assert space.pack((1, 1), 0) in after


def test_membership_variant_agreement_and_discrepancy():
    e, w, theta, c, g = extracted("example_monoid")
    omega = TermSpec(("x", "y"), parse_term("(+ x y)", MSIG, ["x", "y"]))
    assert membership_by_term(g, omega) == compute_Y(g)

    # break the binary action so the two membership terms disagree
    space = g.space
    zero = space.pack((0, 0), 0)
    table = list(g.gamma["+"])
    target = space.pack((1, 1), 0)
    from wsext.algebra import table_index
    idx = table_index(space.size, (zero, target))
    table[idx] = (1, 1)  # claim (1,1,0) is fixed by 0 + z
    broken = GammaData(g.X, g.B, g.theta, {"+": tuple(table), "0": g.gamma["0"]},
                       g.axioms)
    # only the target moves: omega now keeps it, theta does not
    alt, base = membership_by_term(broken, omega), compute_Y(broken)
    assert set(alt) - set(base) == {target} and set(base) <= set(alt)


def test_membership_term_without_unit_property_is_wrong_theta():
    e, w, theta, c, g = extracted("example_monoid")
    first = TermSpec(("x", "y"), parse_term("x", MSIG, ["x", "y"]))
    with pytest.raises(WrongTheta):
        membership_by_term(g, first)


@pytest.mark.parametrize("entry, error", [
    ((0,), ArityMismatch),
    ((0, 0, 0), ArityMismatch),
    ((0, 2), EntryOutOfRange),
    ((-1, 0), EntryOutOfRange),
    ((True, 0), EntryOutOfRange),
    ((0, 1.0), EntryOutOfRange),
])
def test_action_entries_are_checked_on_construction(entry, error):
    e, w, theta, c, g = extracted("example_monoid")
    table = list(g.gamma["+"])
    table[3] = entry
    with pytest.raises(error):
        GammaData(g.X, g.B, g.theta, {"+": tuple(table), "0": g.gamma["0"]}, g.axioms)


@pytest.mark.parametrize("bad_a, bad_b, error, message", [
    ((0, 5), (7, 0), EntryOutOfRange, "action entry (0, 5) outside the kernel carrier"),
    ((0, True), (0, 1.5), EntryOutOfRange, "action entry (0, True) outside the kernel carrier"),
    ((0,), (0, 0, 0), ArityMismatch, "action entry (0,) for '+' is not an 2-tuple"),
])
def test_shared_rows_name_the_first_bad_entry_in_table_order(bad_a, bad_b, error, message):
    # rows a, b, a: b's last occurrence comes before a's, and b's bad entry
    # sits earlier in its row, so only table order names a's
    e, w, theta, c, g = extracted("example_monoid")
    size = g.space.size
    table = list(g.gamma["+"])
    rows = [list(map(list, table[i:i + size])) for i in range(0, size ** 2, size)]
    a, b = rows[0], rows[1]
    a[3], b[0] = list(bad_a), list(bad_b)
    table = LeafRows([a, b, a] + rows[3:])
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        GammaData(g.X, g.B, g.theta, {"+": table, "0": g.gamma["0"]}, g.axioms)


def test_remark_variant_terms_per_fixture(fixture_case):
    name, e, w, axioms, theta = fixture_case
    from wsext.extension import find_witnesses as _  # noqa: F401
    c = build_canonical(e, theta, w)
    g = extract_gamma(c, axioms)
    sig = e.A.signature
    variants = {
        "example_monoid": ("(+ x y)", ["x", "y"]),
        "n2_product": ("(+ x (+ x1 y))", ["x", "x1", "y"]),
        "klein_four": ("(* x (* x1 y))", ["x", "x1", "y"]),
        "s3": ("(* x (* x1 y))", ["x", "x1", "y"]),
        "heyting_chain": ("(meet x y)", ["x", "y"]),
    }
    text, vars_ = variants[name]
    omega = TermSpec(tuple(vars_), parse_term(text, sig, vars_))
    assert membership_by_term(g, omega) == compute_Y(g)


# -- check_conditions ----------------------------------------------------------------

def test_extracted_data_passes_all_conditions(fixture_case):
    name, e, w, axioms, theta = fixture_case
    c = build_canonical(e, theta, w)
    rep = check_conditions(extract_gamma(c, axioms))
    assert rep.ok, rep.render()


def test_extracted_data_passes_for_every_witness(fixture_case):
    name, e, w, axioms, theta = fixture_case
    for w2 in find_witnesses(e, theta, limit=100):
        c = build_canonical(e, theta, w2)
        rep = check_conditions(extract_gamma(c, axioms))
        assert rep.ok, (name, rep.render())


def test_product_data_passes_all_conditions():
    g = product_gamma_data()
    assert check_conditions(g).ok


def test_mutated_action_fails_some_condition():
    e, w, theta, c, g = extracted("example_monoid")
    space = g.space
    from wsext.algebra import table_index
    # corrupt the action at a pair of carrier members
    m_psi = psi(e, w)
    z1, z2 = m_psi(1), m_psi(2)
    idx = table_index(space.size, (z1, z2))
    table = list(g.gamma["+"])
    old = table[idx]
    table[idx] = ((old[0] + 1) % 2, old[1])
    broken = GammaData(g.X, g.B, g.theta, {"+": tuple(table), "0": g.gamma["0"]},
                       g.axioms)
    rep = check_conditions(broken)
    assert not rep.ok
    assert any(not en.ok and en.detail for en in rep.entries)


def test_closure_failure_names_the_first_argument_tuple():
    # two carrier pairs whose action leaves the carrier: the report names
    # the first in lex order, as the per-entry oracle does
    e, w, theta, c, g = extracted("example_monoid")
    from wsext.algebra import table_index
    from oracles import brute_force_conditions
    Y = compute_Y(g)
    table = list(g.gamma["+"])
    # no argument is the zero tuple Y[0], so the carrier itself stays put
    for args in ((Y[2], Y[1]), (Y[1], Y[3])):
        b = g.B.op("+", tuple(z % g.B.size for z in args))
        table[table_index(g.space.size, args)] = next(
            xs for xs in product(range(g.X.size), repeat=2) if g.space.pack(xs, b) not in Y)
    broken = GammaData(g.X, g.B, g.theta, {"+": tuple(table), "0": g.gamma["0"]},
                       g.axioms)
    assert compute_Y(broken) == Y
    rep = check_conditions(broken)
    assert rep.to_json() == brute_force_conditions(broken)[0].to_json()
    assert rep.entry("axioms_hold_on_carrier").detail == \
        f"carrier not closed under '+' at {(Y[1], Y[3])}"


def test_condition_budgets_are_checked_in_order():
    # the carrier is not closed under the constant, which comes first, so
    # the budgets of condition 3 for '+' (3^2 kernel pairs) and of
    # condition 4 (3^2 * 2 cases) are reached and bind above the 8 ambient
    # tuples
    g = unclosed_constant_data(2)
    from oracles import brute_force_conditions
    assert len(compute_Y(g)) == 7
    expected = {7: "membership test needs 8 ambient tuples, budget is 7",
                8: "condition 3 for '+' exceeds budget",
                17: "condition 4 exceeds budget"}
    for budget, message in expected.items():
        for check in (check_conditions, brute_force_conditions):
            with pytest.raises(SearchBudgetExceeded, match=f"^{re.escape(message)}$"):
                check(g, budget)
    rep = check_conditions(g, 18)
    assert rep.to_json() == brute_force_conditions(g, 18)[0].to_json()
    assert rep.entry("axioms_hold_on_carrier").detail == \
        "carrier not closed under '0' at ()"


# -- build_extension_from_gamma ----------------------------------------------------------

def test_roundtrip_is_identity_on_carrier(fixture_case):
    name, e, w, axioms, theta = fixture_case
    c = assert_rebuilds(e, theta, w, axioms)
    assert c.extension.A.size == len(c.Y)
    assert validate_split_extension(c.extension).ok
    assert validate_witness(c.extension, theta, projections(c))


def test_product_data_rebuilds_the_product_extension():
    g = product_gamma_data()
    ext2, w2 = build_extension_from_gamma(g)
    N2 = g.X
    assert ext2.A.tables == product_algebra(N2, N2).tables
    assert ext2.k.values == (0, 2)
    assert ext2.p.values == (0, 1, 0, 1)
    assert ext2.s.values == (0, 1)
    assert w2.q[0].values == (0, 0, 1, 1)


def test_heyting_rebuild_for_compatible_witness():
    e, w, axioms, theta = load_fixture("heyting_chain")
    # the embedded witness sends the section image to the zero tuple
    c = build_canonical(e, theta, w)
    ext2, w2 = build_extension_from_gamma(extract_gamma(c, axioms))
    assert ext2.A.size == 3
    assert validate_split_extension(ext2).ok


def test_heyting_incompatible_witnesses_raise_iota_error():
    e, _, axioms, theta = load_fixture("heyting_chain")
    zero_tuple = (e.X.zero,) * 2
    hits = 0
    for w in find_witnesses(e, theta):
        compatible = all(w.values_at(e.s(b)) == zero_tuple
                         for b in range(e.B.size))
        c = build_canonical(e, theta, w)
        g = extract_gamma(c, axioms)
        assert check_conditions(g).ok
        if compatible:
            ext2, _ = build_extension_from_gamma(g)
            assert validate_split_extension(ext2).ok
        else:
            with pytest.raises(IotaNotInY):
                build_extension_from_gamma(g)
            hits += 1
    assert hits == 6


def test_failed_conditions_raise():
    e, w, theta, c, g = extracted("example_monoid")
    from wsext.algebra import table_index
    space = g.space
    m_psi = psi(e, w)
    idx = table_index(space.size, (m_psi(1), m_psi(2)))
    table = list(g.gamma["+"])
    old = table[idx]
    table[idx] = ((old[0] + 1) % 2, old[1])
    broken = GammaData(g.X, g.B, g.theta, {"+": tuple(table), "0": g.gamma["0"]},
                       g.axioms)
    with pytest.raises(ConditionsFailed):
        build_extension_from_gamma(broken)


def test_decoding_and_budget_check_allocate_by_the_input():
    # a constant-only signature: the one action table has a single entry,
    # while X^n holds 20^4 = 160,000 kernel tuples; reading the data and
    # refusing it over budget must not build anything of that size
    csig = Signature((("0", 0),), "0")
    X = make_algebra(csig, 20, {"0": [0]})
    B = make_algebra(csig, 1, {"0": [0]})
    names = ["x1", "x2", "x3", "x4", "y"]
    theta = ThetaSpec(tuple(names), parse_term("y", csig, names))
    tracemalloc.start()
    try:
        g = GammaData(X, B, theta, {"0": ((0, 0, 0, 0),)}, ())
        with pytest.raises(SearchBudgetExceeded,
                           match="membership test needs 160000 ambient tuples"):
            check_conditions(g, budget=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
