import pytest

from wsext import (
    FiniteAlgebra,
    FnTable,
    TermSpec,
    ThetaSpec,
    Witness,
    build_canonical,
    check_commuting,
    find_witnesses,
    gamma_table,
    make_algebra,
    membership_by_gamma_id,
    membership_by_term,
    parse_term,
    phi,
    psi,
    sigma_tau_decompose,
    trivial_algebra,
    validate_split_extension,
    validate_witness,
    verify_isomorphism,
)
from wsext.algebra import _square_failure
from wsext import canonical
from wsext.canonical import CanonicalExtension, ambient_space
from wsext.errors import (
    InternalCheckFailed,
    SearchBudgetExceeded,
    WitnessInvalid,
    WrongSignature,
    WrongTheta,
)
from wsext.extension import SplitExtension

from conftest import EXTENSION_NAMES, MSIG, load_fixture, projections
from oracles import brute_force_gamma


def unpackd(space, z):
    xs, b = space.unpack(z)
    return xs + (b,)


# -- psi / phi ----------------------------------------------------------------------

def test_psi_values_on_example(example):
    e, w, _, theta = example
    space = ambient_space(e, 2)
    m = psi(e, w)
    assert unpackd(space, m(4)) == (1, 0, 1)
    assert unpackd(space, m(0)) == (0, 0, 0)
    assert unpackd(space, m(3)) == (0, 1, 1)


def test_phi_values_on_example(example):
    e, _, _, theta = example
    space = ambient_space(e, 2)
    m = phi(e, theta)
    assert m(space.pack((1, 0), 1)) == 4
    assert m(space.pack((0, 1), 0)) == 1
    for b in range(2):
        assert m(space.pack((0, 0), b)) == e.s(b)


def test_phi_psi_identity_everywhere(fixture_case):
    name, e, w, axioms, theta = fixture_case
    m_psi, m_phi = psi(e, w), phi(e, theta)
    assert all(m_phi(m_psi(a)) == a for a in range(e.A.size))


# -- build_canonical -------------------------------------------------------------------

def test_example_canonical_carrier(example):
    e, w, _, theta = example
    c = build_canonical(e, theta, w)
    assert c.Y == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 1))
    assert len(c.Y) == 5


def test_gamma_matches_oracle(fixture_case):
    name, e, w, axioms, theta = fixture_case
    for witness in [w] + find_witnesses(e, theta, limit=3):
        c = build_canonical(e, theta, witness)
        assert (c.gamma, c.gamma_id) == brute_force_gamma(e, theta, witness)


def test_build_canonical_respects_budget(example):
    e, w, _, theta = example
    entries = 8 ** 2 + 1  # '+' and '0' over the 8 ambient tuples
    assert build_canonical(e, theta, w, budget=entries).Y
    with pytest.raises(SearchBudgetExceeded):
        build_canonical(e, theta, w, budget=entries - 1)


def test_canonical_of_trivial_quotient():
    X = make_algebra(MSIG, 2, {"+": [0, 1, 1, 1], "0": [0]})
    one = trivial_algebra(MSIG)
    e = SplitExtension(X, X, one, FnTable.identity(2),
                       FnTable.constant(2, 1, 0), FnTable(1, 2, (0,)))
    theta = ThetaSpec(("x", "y"), parse_term("(+ x y)", MSIG, ["x", "y"]))
    w = find_witnesses(e, theta)[0]
    c = build_canonical(e, theta, w)
    # Y is X x {0} with the operations of X
    assert c.Y == ((0, 0), (1, 0))
    assert c.extension.A.tables["+"] == X.tables["+"]


def test_direct_product_extension_is_componentwise():
    e, w, _, theta = load_fixture("klein_four")
    omega = TermSpec(("x", "y"), parse_term("(* x y)", e.A.signature, ["x", "y"]))
    assert check_commuting(omega, theta, e.A)
    c = build_canonical(e, theta, w)
    assert len(c.Y) == 4
    # the transported binary op acts componentwise on the kernel coordinate
    YA = c.extension.A
    for i, (x1, b1) in enumerate(c.Y):
        for j, (x2, b2) in enumerate(c.Y):
            out = c.Y[YA.op("*", (i, j))]
            assert out[0] == e.X.op("*", (x1, x2))
            assert out[1] == e.B.op("*", (b1, b2))


def test_componentwise_on_commuting_ops_in_general(fixture_case):
    name, e, w, axioms, theta = fixture_case
    c = build_canonical(e, theta, w)
    YA = c.extension.A
    for op, arity in e.A.signature.ops:
        if arity == 0:
            continue
        omega = TermSpec(
            tuple(f"v{i}" for i in range(arity)),
            parse_term(f"({op} {' '.join(f'v{i}' for i in range(arity))})",
                       e.A.signature, [f"v{i}" for i in range(arity)]))
        if not check_commuting(omega, theta, e.A):
            continue
        for args in YA.arg_tuples(arity):
            out = c.Y[YA.op(op, args)]
            for coord in range(c.n):
                expected = e.X.op(op, tuple(c.Y[i][coord] for i in args))
                assert out[coord] == expected


def test_build_canonical_rejects_unnormalized_witness(example):
    e, w, _, theta = example
    # swap in a valid but unnormalized witness at a = 0 if one exists;
    # otherwise fabricate one by breaking normalization directly
    bad = Witness(2, (FnTable(5, 2, (1, 0, 0, 0, 1)), w.q[1]))
    with pytest.raises(WitnessInvalid):
        build_canonical(e, theta, bad)


def test_transported_witnesses_are_projections(fixture_case):
    name, e, w, axioms, theta = fixture_case
    for w2 in find_witnesses(e, theta, limit=100):
        c = build_canonical(e, theta, w2)
        m_phi = phi(e, theta)
        space = c.space
        for i, t in enumerate(c.Y):
            a = m_phi(space.pack(t[:-1], t[-1]))
            assert w2.values_at(a) == t[:-1]


def test_the_canonical_form_is_a_witnessed_split_extension():
    """X -> Y -> B with the coordinate projections of Y as its witness, for
    every witness of every bundled fixture: also the 6 of the 17 whose
    section psi o s is not the zero-tuple injection, where the rebuild
    refuses and so checks nothing."""
    forms = other_sections = 0
    for name in EXTENSION_NAMES:
        e, _, _, theta = load_fixture(name)
        for w in find_witnesses(e, theta):
            c = build_canonical(e, theta, w)
            assert validate_split_extension(c.extension).ok
            assert validate_witness(c.extension, theta, projections(c))
            forms += 1
            other_sections += not verify_isomorphism(e, c, w).entry("section_transport").ok
    assert (forms, other_sections) == (17, 6)


def test_three_way_carrier_agreement(fixture_case):
    name, e, w, axioms, theta = fixture_case
    for w2 in find_witnesses(e, theta, limit=100):
        c = build_canonical(e, theta, w2)
        m_psi = psi(e, w2)
        image = sorted(set(m_psi.values))
        assert image == membership_by_gamma_id(c)
        assert image == membership_by_term(c)


def test_remark_variant_membership_terms(fixture_case):
    # any term with the unit property cuts out the same carrier
    name, e, w, axioms, theta = fixture_case
    c = build_canonical(e, theta, w)
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
    assert membership_by_term(c, omega) == membership_by_gamma_id(c)


def test_membership_term_without_unit_property_rejected(example):
    e, w, _, theta = example
    c = build_canonical(e, theta, w)
    omega = TermSpec(("x", "y"), parse_term("x", MSIG, ["x", "y"]))
    with pytest.raises(WrongTheta):
        membership_by_term(c, omega)


def test_transported_structure_satisfies_axioms(fixture_case):
    from wsext import check_equation
    name, e, w, axioms, theta = fixture_case
    c = build_canonical(e, theta, w)
    YA = c.extension.A
    for ax in axioms:
        assert check_equation(YA, ax)


# -- verify_isomorphism -------------------------------------------------------------------

def test_example_verification_all_pass(example):
    e, w, _, theta = example
    c = build_canonical(e, theta, w)
    rep = verify_isomorphism(e, c, w)
    assert rep.ok


def test_corrupted_transport_table_fails_homomorphism_square(example):
    e, w, _, theta = example
    c = build_canonical(e, theta, w)
    YA = c.extension.A
    table = list(YA.tables["+"])
    table[7] = (table[7] + 1) % len(c.Y)
    A = FiniteAlgebra(YA.signature, YA.size, {"+": tuple(table), "0": YA.tables["0"]})
    ext = c.extension
    corrupt = CanonicalExtension(c.X, c.B, c.theta, c.gamma, c.Y,
                                 SplitExtension(ext.X, A, ext.B, ext.k, ext.p, ext.s),
                                 c.gamma_id)
    rep = verify_isomorphism(e, corrupt, w)
    assert not rep.ok
    assert not (rep.entry("psi_homomorphism").ok and rep.entry("phi_homomorphism").ok)


def test_a_section_outside_the_carrier_is_an_internal_check(example, monkeypatch):
    # only a bug reaches this: iota_B is psi o s, and Y is read off the
    # action data; it raises InternalCheckFailed, never a KeyError
    e, w, _, theta = example
    space = ambient_space(e, theta.n)
    values = list(psi(e, w).values)
    values[e.s(1)] = space.pack((1, 1), 0)  # not a member of Y
    assert space.pack((1, 1), 0) not in membership_by_gamma_id(build_canonical(e, theta, w))
    monkeypatch.setattr(canonical, "psi", lambda *_: FnTable(e.A.size, space.size, tuple(values)))
    with pytest.raises(InternalCheckFailed,
                       match=r"^psi\(s\(1\)\) = \(\(1, 1\), 0\) lies outside the carrier$"):
        build_canonical(e, theta, w)


def test_square_failure_names_the_first_argument_outside_a_partial_map():
    # every sum is 0, so f(a + b) is defined even where f(b) is not
    A = make_algebra(MSIG, 2, {"+": [0, 0, 0, 0], "0": [0]})
    one = trivial_algebra(MSIG)
    assert _square_failure([0, 0], A, one) is None
    assert _square_failure([0, None], A, one) == ("+", (0, 1))
    assert _square_failure([None, 0], A, one) == ("+", (0, 0))


def test_trivial_extension_verification():
    X = make_algebra(MSIG, 2, {"+": [0, 1, 1, 1], "0": [0]})
    one = trivial_algebra(MSIG)
    e = SplitExtension(X, X, one, FnTable.identity(2),
                       FnTable.constant(2, 1, 0), FnTable(1, 2, (0,)))
    theta = ThetaSpec(("x", "y"), parse_term("(+ x y)", MSIG, ["x", "y"]))
    w = find_witnesses(e, theta)[0]
    c = build_canonical(e, theta, w)
    assert verify_isomorphism(e, c, w).ok


def test_section_transport_entry_flags_non_canonical_witness(heyting):
    e, _, _, theta = heyting
    flagged = 0
    for w in find_witnesses(e, theta):
        c = build_canonical(e, theta, w)
        rep = verify_isomorphism(e, c, w)
        core = [en.ok for en in rep.entries if en.name != "section_transport"]
        assert all(core)
        if not rep.entry("section_transport").ok:
            flagged += 1
            # exactly the witnesses whose q-tuple misses zero on im(s)
            assert any(w.values_at(e.s(b)) != (e.X.zero,) * 2
                       for b in range(e.B.size))
    assert flagged == 6


# -- gamma tables ------------------------------------------------------------------------------

def test_gamma_id_values_on_example(example):
    e, w, _, theta = example
    c = build_canonical(e, theta, w)
    space = c.space
    assert c.gamma_id[space.pack((1, 0), 1)] == (1, 0)       # member
    assert c.gamma_id[space.pack((1, 1), 0)] == (0, 1)       # not a member
    assert space.pack((1, 1), 0) not in membership_by_gamma_id(c)


def test_gamma_tables_preserve_zero(fixture_case):
    name, e, w, axioms, theta = fixture_case
    c = build_canonical(e, theta, w)
    space = c.space
    zero = space.pack((e.X.zero,) * c.n, e.B.zero)
    for op, arity in e.A.signature.ops:
        from wsext.algebra import table_index
        entry = c.gamma[op][table_index(space.size, (zero,) * arity)]
        assert entry == (e.X.zero,) * c.n


def test_gamma_table_for_basic_op_matches_stored(example):
    e, w, _, theta = example
    c = build_canonical(e, theta, w)
    omega = TermSpec(("x", "y"), parse_term("(+ x y)", MSIG, ["x", "y"]))
    assert gamma_table(c, omega) == c.gamma["+"]


def test_gamma_table_respects_budget(example):
    e, w, _, theta = example
    c = build_canonical(e, theta, w)
    assert len(gamma_table(c, theta, budget=8 ** 3)) == 8 ** 3
    with pytest.raises(SearchBudgetExceeded):
        gamma_table(c, theta, budget=8 ** 3 - 1)


def test_membership_by_term_respects_budget(example):
    e, w, _, theta = example
    c = build_canonical(e, theta, w)
    assert membership_by_term(c, budget=8) == membership_by_gamma_id(c)
    with pytest.raises(SearchBudgetExceeded):
        membership_by_term(c, budget=7)


def test_gamma_table_for_theta_retracts_to_gamma_id(example):
    e, w, _, theta = example
    c = build_canonical(e, theta, w)
    table = gamma_table(c, theta)
    space = c.space
    zero = space.pack((0, 0), 0)
    from wsext.algebra import table_index
    for z in space.indices():
        assert table[table_index(space.size, (zero, zero, z))] == c.gamma_id[z]


# -- sigma/tau decomposition ---------------------------------------------------------------------

def test_sigma_tau_values_on_example(example):
    e, w, _, theta = example
    dec = sigma_tau_decompose(e, theta, w)
    assert dec.report.ok
    assert dec.sigma[0](0, 1, 0) == 0
    assert dec.sigma[1](0, 1, 0) == 1


def test_tau_at_zero_kernel_coordinates(example):
    e, w, _, theta = example
    dec = sigma_tau_decompose(e, theta, w)
    for i in range(2):
        for b in range(e.B.size):
            assert dec.tau[i](0, b, 0) == w.q[i](e.s(b))


def test_decomposition_holds_for_every_example_witness(example):
    e, _, _, theta = example
    for w in find_witnesses(e, theta):
        assert sigma_tau_decompose(e, theta, w).report.ok


def test_sigma_tau_rejects_wrong_theta_arity():
    e, w, _, theta = load_fixture("n2_product")
    with pytest.raises(WrongTheta):
        sigma_tau_decompose(e, theta, w)


def test_sigma_tau_rejects_non_witness(example):
    e, w, _, _ = example
    straight = ThetaSpec(("x1", "x2", "y"),
                         parse_term("(+ x1 (+ x2 y))", MSIG, ["x1", "x2", "y"]))
    with pytest.raises(WitnessInvalid):
        sigma_tau_decompose(e, straight, w)


def test_sigma_tau_on_commutative_middle_algebra():
    # on a commutative monoid the straight and twisted ternary sums agree,
    # so the decomposition applies to either spelling
    e, _, _, _ = load_fixture("n2_product")
    twisted = ThetaSpec(("x1", "x2", "y"),
                        parse_term("(+ x1 (+ y x2))", MSIG, ["x1", "x2", "y"]))
    w = find_witnesses(e, twisted)[0]
    assert sigma_tau_decompose(e, twisted, w).report.ok


def test_sigma_tau_rejects_wrong_signature():
    e, w, _, theta = load_fixture("heyting_chain")
    with pytest.raises(WrongSignature):
        sigma_tau_decompose(e, theta, w)


def test_sigma_tau_respects_budget(example):
    e, w, _, theta = example
    cost = e.A.size ** 3 + (e.X.size ** 2 * e.B.size) ** 2
    assert sigma_tau_decompose(e, theta, w, budget=cost).report.ok
    with pytest.raises(SearchBudgetExceeded, match=f"needs {cost} evaluations"):
        sigma_tau_decompose(e, theta, w, budget=cost - 1)


def test_sigma_tau_checks_its_inputs_before_the_budget(example):
    e, w, _, _ = example
    straight = ThetaSpec(("x1", "x2", "y"),
                         parse_term("(+ x1 (+ x2 y))", MSIG, ["x1", "x2", "y"]))
    with pytest.raises(WitnessInvalid):
        sigma_tau_decompose(e, straight, w, budget=0)
    e, w, _, theta = load_fixture("heyting_chain")
    with pytest.raises(WrongSignature):
        sigma_tau_decompose(e, theta, w, budget=0)
    e, w, _, theta = load_fixture("n2_product")
    with pytest.raises(WrongTheta):
        sigma_tau_decompose(e, theta, w, budget=0)
