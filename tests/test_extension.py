import tracemalloc

import pytest

from wsext import (
    ExtensionMorphism,
    FnTable,
    SplitExtension,
    TermSpec,
    ThetaSpec,
    check_morphism_surjectivity,
    count_witnesses,
    feasible_tuples,
    find_witnesses,
    is_schreier,
    make_algebra,
    parse_term,
    product_extension_check,
    pullback_extension,
    semiabelian_witness,
    trivial_algebra,
    validate_morphism,
    validate_split_extension,
    validate_witness,
)
from wsext.errors import (
    AlphaAxiomFailed,
    InternalCheckFailed,
    InvalidMorphism,
    NotHomomorphism,
    SearchBudgetExceeded,
    ThetaNotAdmissible,
)
from wsext.serialize import algebra_from_obj
from wsext.fixtures import fixture_path

from conftest import MSIG, load_fixture
from oracles import brute_force_witnesses, classical_weakly_schreier, witness_key


def trivial_quotient_extension(X):
    """X --id--> X --> 1 with the unique section."""
    one = trivial_algebra(X.signature)
    return SplitExtension(X, X, one,
                          FnTable.identity(X.size),
                          FnTable.constant(X.size, 1, 0),
                          FnTable(1, X.size, (X.zero,)))


# -- validate_split_extension ---------------------------------------------------

def test_all_fixture_extensions_validate(fixture_case):
    name, e, w, axioms, theta = fixture_case
    assert validate_split_extension(e).ok


def test_example_with_bad_section_fails():
    e, _, _, _ = load_fixture("example_monoid")
    bad = SplitExtension(e.X, e.A, e.B, e.k, e.p, FnTable(2, 5, (0, 3)))
    rep = validate_split_extension(bad)
    assert rep.entry("section_law").ok          # p(3) = 1
    assert not rep.entry("s_homomorphism").ok   # 3 + 3 = 4 != 3
    assert not rep.ok


def test_trivial_quotient_extension_validates():
    X = make_algebra(MSIG, 2, {"+": [0, 1, 1, 1], "0": [0]})
    assert validate_split_extension(trivial_quotient_extension(X)).ok


def test_broken_kernel_is_reported():
    e, _, _, _ = load_fixture("example_monoid")
    bad = SplitExtension(e.X, e.A, e.B, FnTable(2, 5, (0, 0)), e.p, e.s)
    rep = validate_split_extension(bad)
    assert not rep.entry("k_injective").ok
    assert not rep.entry("kernel_image").ok


# -- find_witnesses ----------------------------------------------------------------

def test_example_witnesses_contain_papers_tables(example):
    e, w, _, theta = example
    found = find_witnesses(e, theta)
    keys = [witness_key(x) for x in found]
    assert ((0, 0, 0, 0, 1), (0, 1, 0, 1, 0)) in keys
    assert len(found) == count_witnesses(e, theta) == 6


def test_example_has_no_witness_for_binary_sum(example):
    e, _, _, _ = example
    theta1 = ThetaSpec(("x", "y"), parse_term("(+ x y)", MSIG, ["x", "y"]))
    assert find_witnesses(e, theta1) == []
    assert count_witnesses(e, theta1) == 0


def test_mutually_inverse_section_admits_zero_witness():
    # 1 --k--> B --p/s-- B with p = s = id: the all-zero tuple works
    B = make_algebra(MSIG, 2, {"+": [0, 1, 1, 1], "0": [0]})
    one = trivial_algebra(MSIG)
    e = SplitExtension(one, B, B, FnTable(1, 2, (0,)),
                       FnTable.identity(2), FnTable.identity(2))
    theta = ThetaSpec(("x", "y"), parse_term("(+ x y)", MSIG, ["x", "y"]))
    found = find_witnesses(e, theta)
    assert [witness_key(w) for w in found] == [((0, 0),)]


def test_witness_enumeration_is_lexicographic(example):
    e, _, _, theta = example
    found = find_witnesses(e, theta)
    rows = [tuple(w.values_at(a) for a in range(e.A.size)) for w in found]
    assert rows == sorted(rows)


def test_unnormalized_enumeration_is_larger(example):
    e, _, _, theta = example
    # T(0) = {(0,0)} only, so normalization does not change the count here
    assert count_witnesses(e, theta, normalize=False) == 6
    e2, _, _, theta2 = load_fixture("heyting_chain")
    assert count_witnesses(e2, theta2, normalize=False) == 16
    assert count_witnesses(e2, theta2, normalize=True) == 8


def test_a_budget_error_is_not_memoised(example):
    e, _, _, theta = example
    cost = e.A.size * e.X.size ** theta.n
    for _ in range(2):
        with pytest.raises(SearchBudgetExceeded, match=f"needs {cost} evaluations"):
            count_witnesses(e, theta, budget=cost - 1)
    assert count_witnesses(e, theta, budget=cost) == 6


def test_count_witnesses_checks_admissibility_then_budget_then_zero(example):
    e, _, _, theta = example
    cost = e.A.size * e.X.size ** theta.n
    assert count_witnesses(e, theta, budget=cost) == 6
    with pytest.raises(SearchBudgetExceeded, match=f"needs {cost} evaluations"):
        count_witnesses(e, theta, budget=cost - 1)
    bogus = ThetaSpec(("x1", "x2", "y"), parse_term("(+ x1 x2)", MSIG, ["x1", "x2", "y"]))
    with pytest.raises(ThetaNotAdmissible):
        count_witnesses(e, bogus, budget=0)
    # s(b) = 1 for every b: the all-zero tuple decomposes s(p(0_A)) = 1, not 0_A
    broken = SplitExtension(e.X, e.A, e.B, e.k, e.p, FnTable.constant(e.B.size, e.A.size, 1))
    with pytest.raises(SearchBudgetExceeded):
        count_witnesses(broken, theta, budget=cost - 1)
    with pytest.raises(InternalCheckFailed, match="all-zero tuple infeasible"):
        count_witnesses(broken, theta)
    # p(0_A) = 1: the all-zero tuple is looked up at base 1, where it gives s(1)
    p = list(e.p.values)
    p[e.A.zero] = 1
    broken = SplitExtension(e.X, e.A, e.B, e.k, FnTable(e.A.size, e.B.size, tuple(p)), e.s)
    with pytest.raises(InternalCheckFailed, match="all-zero tuple infeasible"):
        count_witnesses(broken, theta)


def test_find_witnesses_limit(example):
    e, _, _, theta = example
    assert len(find_witnesses(e, theta, limit=2)) == 2


def test_find_witnesses_budget(example):
    e, _, _, theta = example
    with pytest.raises(SearchBudgetExceeded):
        find_witnesses(e, theta, budget=3)


def test_find_witnesses_decodes_only_the_rows_it_returns():
    """n2_product with the sum term of 14 kernel variables: each fibre
    holds up to 2^14 rows.  With the fibres walked, one witness reads and
    decodes one row per element, while a list with one pointer per kernel
    tuple, or a copy of a whole fibre, takes 2^14 * 8 bytes."""
    e, _, _, _ = load_fixture("n2_product")
    names = [f"x{i}" for i in range(1, 15)] + ["y"]
    text = "y"
    for name in reversed(names[:-1]):
        text = f"(+ {name} {text})"
    theta = ThetaSpec(tuple(names), parse_term(text, MSIG, names))
    assert count_witnesses(e, theta) > 1
    tracemalloc.start()
    try:
        [w] = find_witnesses(e, theta, limit=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 14 * 8
    # the lex-first tuple of each T(a)
    assert [w.values_at(a) for a in range(e.A.size)] == \
        [ts[0] for ts in feasible_tuples(e, theta)]


def test_witnesses_match_brute_force(fixture_case):
    name, e, w, axioms, theta = fixture_case
    assert e.X.size ** (theta.n * e.A.size) <= 10 ** 6
    for normalized in (True, False):
        fast = sorted(witness_key(x) for x in
                      find_witnesses(e, theta, normalize=normalized))
        slow = sorted(witness_key(x) for x in
                      brute_force_witnesses(e, theta, normalized))
        assert fast == slow


def test_embedded_witnesses_validate(fixture_case):
    name, e, w, axioms, theta = fixture_case
    assert w is not None
    assert validate_witness(e, theta, w, normalized=True)


def test_classical_definition_agrees_on_monoid_fixtures():
    theta1 = ThetaSpec(("x", "y"), parse_term("(+ x y)", MSIG, ["x", "y"]))
    for name in ("example_monoid", "n2_product"):
        e, _, _, _ = load_fixture(name)
        lib = bool(find_witnesses(e, theta1))
        assert lib == classical_weakly_schreier(e, "+")


# -- semiabelian_witness -----------------------------------------------------------

def test_klein_four_difference_witness():
    e, _, _, theta = load_fixture("klein_four")
    alpha = TermSpec(("x", "y"), parse_term("(* x (inv y))", e.A.signature, ["x", "y"]))
    w = semiabelian_witness(e, theta, [alpha])
    assert witness_key(w) == ((0, 0, 1, 1),)
    assert witness_key(w) in [witness_key(x) for x in find_witnesses(e, theta)]


def test_s3_difference_witness():
    e, _, _, theta = load_fixture("s3")
    alpha = TermSpec(("x", "y"), parse_term("(* x (inv y))", e.A.signature, ["x", "y"]))
    w = semiabelian_witness(e, theta, [alpha])
    assert validate_witness(e, theta, w)
    assert witness_key(w) in [witness_key(x) for x in find_witnesses(e, theta)]


def test_heyting_difference_witness():
    e, _, _, theta = load_fixture("heyting_chain")
    sig = e.A.signature
    a1 = TermSpec(("x", "y"), parse_term("(imp x y)", sig, ["x", "y"]))
    a2 = TermSpec(("x", "y"),
                  parse_term("(imp (imp (imp x y) y) x)", sig, ["x", "y"]))
    w = semiabelian_witness(e, theta, [a1, a2])
    # q_1(w) = w => s(p(w)) lands on the top element everywhere on the chain
    assert w.q[0].values == (1, 1, 1)
    assert validate_witness(e, theta, w)
    assert witness_key(w) in [witness_key(x) for x in find_witnesses(e, theta)]


def test_alpha_axiom_failure_is_detected():
    e, _, _, theta = load_fixture("heyting_chain")
    sig = e.A.signature
    # the projection alpha_2(x, y) = x violates alpha(x, x) = 0
    a1 = TermSpec(("x", "y"), parse_term("(imp x y)", sig, ["x", "y"]))
    a2 = TermSpec(("x", "y"), parse_term("x", sig, ["x", "y"]))
    with pytest.raises(AlphaAxiomFailed):
        semiabelian_witness(e, theta, [a1, a2])


def test_inadmissible_theta_is_rejected_downstream(example):
    from wsext.errors import ThetaNotAdmissible
    from wsext import product_extension_check as pec
    e, _, _, _ = example
    bogus = ThetaSpec(("x", "y"),
                      parse_term("(+ x (+ y y))", MSIG, ["x", "y"]))
    with pytest.raises(ThetaNotAdmissible):
        find_witnesses(e, bogus)
    with pytest.raises(ThetaNotAdmissible):
        is_schreier(e, bogus)
    with pytest.raises(ThetaNotAdmissible):
        pec(e.A, bogus)


# -- is_schreier --------------------------------------------------------------------

def test_direct_product_is_schreier():
    e, _, _, theta = load_fixture("n2_product")
    assert is_schreier(e, theta)
    assert len(find_witnesses(e, theta)) == 1


def test_heyting_is_not_schreier():
    e, _, _, theta = load_fixture("heyting_chain")
    assert not is_schreier(e, theta)


def test_example_is_not_schreier(example):
    e, _, _, theta = example
    # 8 ambient tuples onto 5 elements: pigeonhole
    assert not is_schreier(e, theta)


def test_schreier_implies_unique_witness(fixture_case):
    name, e, w, axioms, theta = fixture_case
    if is_schreier(e, theta):
        assert len(find_witnesses(e, theta, normalize=False)) == 1


# -- pullback_extension -----------------------------------------------------------------

def test_pullback_along_identity_preserves_everything(example):
    e, w, _, theta = example
    e2, w2 = pullback_extension(e, theta, e.B, FnTable.identity(2), w)
    assert e2.A.tables == e.A.tables
    assert [q.values for q in w2.q] == [q.values for q in w.q]


def test_pullback_along_terminal_map_gives_kernel(example):
    e, w, _, theta = example
    one = trivial_algebra(MSIG)
    e2, w2 = pullback_extension(e, theta, one, FnTable(1, 2, (0,)), w)
    assert e2.A.size == e.X.size
    # q'_i(x) = q_i(k(x))
    for i in range(w.n):
        assert w2.q[i].values == tuple(w.q[i](e.k(x)) for x in range(e.X.size))


def test_pullback_validates_for_every_fixture_hom(fixture_case):
    from wsext import enumerate_homomorphisms
    name, e, w, axioms, theta = fixture_case
    for B_prime in (e.B, e.X, trivial_algebra(e.B.signature)):
        for f in enumerate_homomorphisms(B_prime, e.B, limit=50):
            e2, w2 = pullback_extension(e, theta, B_prime, f, w)
            assert validate_split_extension(e2).ok
            assert validate_witness(e2, theta, w2)


def test_pullback_respects_budget(fixture_case):
    from wsext import enumerate_homomorphisms
    name, e, w, axioms, theta = fixture_case
    for B_prime in (e.B, trivial_algebra(e.B.signature)):
        for f in enumerate_homomorphisms(B_prime, e.B, limit=3):
            e2, _ = pullback_extension(e, theta, B_prime, f, w)
            cost = sum(e2.A.size ** arity for _, arity in e.A.signature.ops)
            assert pullback_extension(e, theta, B_prime, f, w, budget=cost)[0] == e2
            with pytest.raises(SearchBudgetExceeded,
                               match=f"need {cost} entries, budget is {cost - 1}$"):
                pullback_extension(e, theta, B_prime, f, w, budget=cost - 1)


def test_pullback_checks_homomorphisms_before_the_budget(example):
    e, w, _, theta = example
    with pytest.raises(NotHomomorphism):
        pullback_extension(e, theta, e.B, FnTable(2, 2, (1, 0)), w, budget=0)


# -- product_extension_check ---------------------------------------------------------------

def test_monoid_product_check_uses_identity():
    e, _, _, _ = load_fixture("n2_product")
    theta = ThetaSpec(("x", "y"), parse_term("(+ x y)", MSIG, ["x", "y"]))
    res = product_extension_check(e.X, theta)
    assert res.ok
    assert res.q[0].values == (0, 1)


def test_magma_product_check_obstructed_at_one():
    M = algebra_from_obj(fixture_path("left_unital_magma"))
    theta = ThetaSpec(("x", "y"), parse_term("(* x y)", M.signature, ["x", "y"]))
    res = product_extension_check(M, theta)
    assert not res.ok
    assert res.obstruction == 1
    assert res.q is None


def test_product_check_respects_budget(example):
    e, _, _, theta = example  # n = 2 over a 2-element kernel: 4 tuples ys
    with pytest.raises(SearchBudgetExceeded, match="needs 4 evaluations, budget is 3"):
        product_extension_check(e.X, theta, budget=3)
    assert product_extension_check(e.X, theta, budget=4).ok
    # admissibility is checked before the budget
    bogus = ThetaSpec(theta.vars, parse_term("(+ x1 x2)", MSIG, list(theta.vars)))
    with pytest.raises(ThetaNotAdmissible):
        product_extension_check(e.X, bogus, budget=0)


def test_example_kernel_passes_product_check(example):
    e, _, _, theta = example
    res = product_extension_check(e.X, theta)
    assert res.ok


def test_all_fixture_kernels_pass_product_check(fixture_case):
    name, e, w, axioms, theta = fixture_case
    assert product_extension_check(e.X, theta).ok


# -- morphisms ---------------------------------------------------------------------------------

def test_identity_morphism_is_fully_surjective(example):
    e, _, _, _ = example
    m = ExtensionMorphism(e, e, FnTable.identity(2), FnTable.identity(5),
                          FnTable.identity(2))
    assert validate_morphism(m).ok
    rep = check_morphism_surjectivity(m)
    assert rep.ok
    assert rep.entry("f_surjective").ok
    assert rep.entry("g_surjective").ok
    assert rep.entry("joint_generation").ok


def test_quotient_morphism_onto_trivial_base(example):
    # collapse the example onto X --id--> X --> 1; g folds through the
    # kernel decomposition and is forced to be surjective by the lemma
    e, _, _, _ = example
    target = trivial_quotient_extension(e.X)
    g = FnTable(5, 2, (0, 1, 0, 1, 1))
    m = ExtensionMorphism(e, target, FnTable.identity(2), g,
                          FnTable.constant(2, 1, 0))
    assert validate_morphism(m).ok
    rep = check_morphism_surjectivity(m)
    assert rep.entry("f_surjective").ok
    assert rep.entry("h_surjective").ok
    assert rep.entry("surjection_lemma").ok


def test_morphism_with_non_surjective_h_makes_no_claim():
    src_X = make_algebra(MSIG, 2, {"+": [0, 1, 1, 1], "0": [0]})
    src = trivial_quotient_extension(src_X)
    tgt, _, _, _ = load_fixture("n2_product")
    g = FnTable(2, 4, (0, 2))  # x -> (x, 0) = k2(x)
    m = ExtensionMorphism(src, tgt, FnTable.identity(2), g, FnTable(1, 2, (0,)))
    assert validate_morphism(m).ok
    rep = check_morphism_surjectivity(m)
    assert rep.entry("f_surjective").ok
    assert not rep.entry("h_surjective").ok
    assert not rep.entry("g_surjective").ok
    assert "not applicable" in rep.entry("surjection_lemma").detail


def test_invalid_morphism_raises():
    e, _, _, _ = load_fixture("example_monoid")
    m = ExtensionMorphism(e, e, FnTable.identity(2), FnTable.constant(5, 5, 0),
                          FnTable.identity(2))
    assert not validate_morphism(m).ok
    with pytest.raises(InvalidMorphism):
        check_morphism_surjectivity(m)


def test_feasible_tuple_sets_on_example(example):
    from wsext import feasible_tuples
    e, _, _, theta = example
    T = feasible_tuples(e, theta, normalize=False)
    assert T == [
        [(0, 0)],
        [(0, 1), (1, 0), (1, 1)],
        [(0, 0)],
        [(0, 1)],
        [(1, 0), (1, 1)],
    ]
    # normalization only pins the zero element's tuple
    T2 = feasible_tuples(e, theta, normalize=True)
    assert T2[0] == [(0, 0)] and T2[1:] == T[1:]
