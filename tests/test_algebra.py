import pytest

from wsext import (
    Equation,
    FnTable,
    Signature,
    check_equation,
    enumerate_homomorphisms,
    is_homomorphism,
    make_algebra,
    parse_term,
    product_algebra,
    pullback_algebra,
    subalgebra_closure,
    trivial_algebra,
)
from wsext.errors import (
    ArityMismatch,
    EntryOutOfRange,
    MissingTable,
    NotHomomorphism,
    SearchBudgetExceeded,
    SignatureMismatch,
)

from conftest import load_fixture
from oracles import brute_force_homs, brute_force_pullback

MSIG = Signature((("+", 2), ("0", 0)), "0")


def n2():
    return make_algebra(MSIG, 2, {"+": [0, 1, 1, 1], "0": [0]})


# -- signature invariants ------------------------------------------------------

def test_signature_rejects_duplicate_names():
    with pytest.raises(SignatureMismatch):
        Signature((("+", 2), ("+", 1), ("0", 0)), "0")


def test_signature_requires_nullary_constant():
    with pytest.raises(ArityMismatch):
        Signature((("+", 2),), "+")
    with pytest.raises(SignatureMismatch):
        Signature((("+", 2),), "0")


@pytest.mark.parametrize("name", [0, None, ["+"]], ids=["int", "None", "list"])
def test_signature_refuses_a_name_that_is_not_a_string(name):
    with pytest.raises(SignatureMismatch, match="is not a string"):
        Signature(((name, 2), ("0", 0)), "0")


@pytest.mark.parametrize("arity", [2.0, 2.7, True, False, "2"],
                         ids=["float", "fraction", "True", "False", "str"])
def test_signature_refuses_an_arity_that_is_not_an_int(arity):
    with pytest.raises(ArityMismatch, match="is not an integer"):
        Signature((("+", arity), ("0", 0)), "0")


def test_signature_refuses_a_constant_name_that_is_not_a_string():
    with pytest.raises(SignatureMismatch, match="is not a string"):
        Signature((("+", 2), ("0", 0)), 0)


def test_signature_keeps_its_operations_as_tuples():
    sig = Signature([["+", 2], ("0", 0)], "0")
    assert sig.ops == (("+", 2), ("0", 0))
    assert type(sig.ops) is tuple and all(type(op) is tuple for op in sig.ops)


# -- make_algebra ----------------------------------------------------------------

def test_make_algebra_saturating_monoid():
    A = n2()
    assert A.size == 2
    assert A.zero == 0
    assert A.op("+", (1, 1)) == 1
    assert A.op("+", (0, 1)) == 1


def test_make_algebra_trivial():
    one = trivial_algebra(MSIG)
    assert one.size == 1
    assert one.op("+", (0, 0)) == 0


def test_make_algebra_entry_out_of_range():
    with pytest.raises(EntryOutOfRange):
        make_algebra(MSIG, 4, {"+": [0] * 15 + [5], "0": [0]})


def test_make_algebra_rejects_bool_entries():
    with pytest.raises(EntryOutOfRange):
        make_algebra(MSIG, 2, {"+": [0, 1, 1, True], "0": [0]})


def test_fn_table_rejects_float_values():
    with pytest.raises(EntryOutOfRange):
        FnTable(2, 2, (0, 1.0))


def test_make_algebra_missing_table():
    with pytest.raises(MissingTable):
        make_algebra(MSIG, 2, {"+": [0, 1, 1, 1]})


def test_make_algebra_wrong_table_length():
    with pytest.raises(ArityMismatch):
        make_algebra(MSIG, 2, {"+": [0, 1, 1], "0": [0]})


def test_zero_element_may_be_any_index():
    # Heyting fixtures put the constant at the top of the chain
    e, _, _, _ = load_fixture("heyting_chain")
    assert e.X.zero == 1
    assert e.A.zero == 2


# -- is_homomorphism ----------------------------------------------------------------

def test_identity_is_homomorphism():
    A = n2()
    assert is_homomorphism(FnTable.identity(2), A, A)


def test_kernel_inclusion_into_example_is_homomorphism():
    e, _, _, _ = load_fixture("example_monoid")
    assert is_homomorphism(e.k, e.X, e.A)


def test_swap_map_is_not_homomorphism():
    A = n2()
    res = is_homomorphism(FnTable(2, 2, (1, 0)), A, A)
    assert not res
    # the constant is the first operation checked that fails
    assert res.counterexample["op"] in ("+", "0")


def test_homomorphism_size_mismatch():
    from wsext.errors import SizeMismatch
    A = n2()
    one = trivial_algebra(MSIG)
    with pytest.raises(SizeMismatch):
        is_homomorphism(FnTable.identity(2), A, one)


# -- enumerate_homomorphisms -----------------------------------------------------------

def test_enumerate_endomorphisms_of_n2():
    A = n2()
    homs = enumerate_homomorphisms(A, A)
    assert [h.values for h in homs] == [(0, 0), (0, 1)]


def test_enumerate_into_trivial_algebra():
    A = n2()
    homs = enumerate_homomorphisms(A, trivial_algebra(MSIG))
    assert len(homs) == 1


def test_enumerate_with_contradictory_fixed_assignment():
    A = n2()
    # zero must map to zero; pinning it elsewhere kills the search
    assert enumerate_homomorphisms(A, A, fixed={0: 1}) == []


def test_enumerate_respects_budget():
    e, _, _, _ = load_fixture("s3")
    with pytest.raises(SearchBudgetExceeded):
        enumerate_homomorphisms(e.A, e.A, budget=3)


def test_enumerate_matches_brute_force_on_fixture_algebras():
    for name in ("example_monoid", "klein_four", "heyting_chain"):
        e, _, _, _ = load_fixture(name)
        for A, B in ((e.X, e.B), (e.B, e.B), (e.X, e.A)):
            fast = enumerate_homomorphisms(A, B)
            slow = brute_force_homs(A, B)
            assert [h.values for h in fast] == [h.values for h in slow]


# -- product_algebra --------------------------------------------------------------------

def test_product_of_n2_with_itself():
    A = n2()
    P = product_algebra(A, A)
    assert P.size == 4
    # (1,0) + (0,1) = (1,1): indices 2 + 1 -> 3
    assert P.op("+", (2, 1)) == 3
    assert P.zero == 0


def test_product_with_trivial_is_isomorphic():
    A = n2()
    P = product_algebra(A, trivial_algebra(MSIG))
    assert P.size == A.size
    assert P.tables == A.tables


def test_example_ambient_product_has_eight_elements():
    e, _, _, _ = load_fixture("example_monoid")
    P = product_algebra(product_algebra(e.X, e.X), e.B)
    assert P.size == 8


def test_product_projections_are_homomorphisms():
    A = n2()
    P = product_algebra(A, A)
    proj1 = FnTable(4, 2, tuple(i // 2 for i in range(4)))
    proj2 = FnTable(4, 2, tuple(i % 2 for i in range(4)))
    assert is_homomorphism(proj1, P, A)
    assert is_homomorphism(proj2, P, A)


# -- pullback_algebra ---------------------------------------------------------------------

def test_pullback_along_identity_is_isomorphic_to_domain():
    e, _, _, _ = load_fixture("example_monoid")
    P, proj_A, proj_B = pullback_algebra(e.A, e.p, e.B, FnTable.identity(2), e.B)
    assert P.size == e.A.size
    # elements are (a, p(a)) in order of a
    assert proj_A.values == tuple(range(5))
    assert P.tables == e.A.tables


def test_pullback_along_zero_map_is_kernel():
    e, _, _, _ = load_fixture("example_monoid")
    one = trivial_algebra(MSIG)
    P, proj_A, _ = pullback_algebra(e.A, e.p, one, FnTable(1, 2, (0,)), e.B)
    assert proj_A.values == (0, 1)  # p^-1(0)
    assert P.size == 2


def test_pullback_rejects_non_homomorphism():
    e, _, _, _ = load_fixture("example_monoid")
    bad = FnTable(2, 2, (1, 0))
    with pytest.raises(NotHomomorphism) as raised:
        pullback_algebra(e.A, e.p, e.B, bad, e.B)
    with pytest.raises(NotHomomorphism) as expected:
        brute_force_pullback(e.A, e.p, e.B, bad, e.B)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value).startswith("f is not a homomorphism: ")


def test_subalgebra_closure_contains_constants():
    e, _, _, _ = load_fixture("example_monoid")
    assert subalgebra_closure(e.A, []) == [0]
    assert subalgebra_closure(e.A, [2]) == [0, 2]
    assert subalgebra_closure(e.A, [1, 2]) == [0, 1, 2, 3, 4]


# -- check_equation ---------------------------------------------------------------------------

def _eq(sig, vars_, lhs, rhs):
    return Equation(tuple(vars_), parse_term(lhs, sig, vars_), parse_term(rhs, sig, vars_))


def test_associativity_on_example_middle_algebra():
    e, _, _, _ = load_fixture("example_monoid")
    eq = _eq(e.A.signature, ["x", "y", "z"], "(+ (+ x y) z)", "(+ x (+ y z))")
    assert check_equation(e.A, eq)


def test_left_unit_on_magma_holds():
    from wsext.fixtures import fixture_path
    from wsext.serialize import algebra_from_obj
    M = algebra_from_obj(fixture_path("left_unital_magma"))
    eq = _eq(M.signature, ["x"], "(* 0 x)", "x")
    assert check_equation(M, eq)


def test_right_unit_on_magma_fails_at_one():
    from wsext.fixtures import fixture_path
    from wsext.serialize import algebra_from_obj
    M = algebra_from_obj(fixture_path("left_unital_magma"))
    eq = _eq(M.signature, ["x"], "(* x 0)", "x")
    res = check_equation(M, eq)
    assert not res
    assert res.counterexample["assignment"] == {"x": 1}


def test_equations_always_hold_on_one_element_algebra():
    one = trivial_algebra(MSIG)
    eq = _eq(MSIG, ["x", "y"], "(+ x y)", "(+ y x)")
    assert check_equation(one, eq)
