from itertools import product

import pytest

from wsext import (
    App,
    Equation,
    Signature,
    TermSpec,
    ThetaSpec,
    Var,
    check_commuting,
    check_theta_admissible,
    format_term,
    make_algebra,
    parse_term,
    trivial_algebra,
)
from wsext.algebra import _tabulate
from wsext.errors import (
    ArityMismatch,
    SearchBudgetExceeded,
    TermSyntaxError,
    UnboundVariable,
    UnknownSymbol,
)

from conftest import MSIG, load_fixture

HSIG = Signature((("meet", 2), ("imp", 2), ("top", 0)), "top")


# -- parsing --------------------------------------------------------------------

def test_parse_ternary_sum_term():
    t = parse_term("(+ x1 (+ y x2))", MSIG, ["x1", "x2", "y"])
    assert t == App("+", (Var("x1"), App("+", (Var("y"), Var("x2")))))


def test_parse_single_variable():
    assert parse_term("x", MSIG, ["x"]) == Var("x")


def test_parse_heyting_witness_term():
    t = parse_term("(meet (imp x1 y) x2)", HSIG, ["x1", "x2", "y"])
    assert t == App("meet", (App("imp", (Var("x1"), Var("y"))), Var("x2")))


def test_parse_bare_constant():
    assert parse_term("0", MSIG, ["x"]) == App("0", ())
    assert parse_term("(0)", MSIG, ["x"]) == App("0", ())


def test_parse_errors():
    with pytest.raises(UnknownSymbol):
        parse_term("(+ x z)", MSIG, ["x", "y"])
    with pytest.raises(ArityMismatch):
        parse_term("(+ x)", MSIG, ["x"])
    with pytest.raises(TermSyntaxError) as exc:
        parse_term("(+ x y", MSIG, ["x", "y"])
    assert exc.value.position == 0
    with pytest.raises(TermSyntaxError):
        parse_term("x y", MSIG, ["x", "y"])
    with pytest.raises(TermSyntaxError):
        parse_term("", MSIG, ["x"])
    with pytest.raises(TermSyntaxError):
        # variable shadowing an operation symbol
        parse_term("(+ 0 x)", MSIG, ["0", "x"])


def test_parse_roundtrip_on_fixture_terms():
    cases = [
        ("(+ x1 (+ y x2))", MSIG, ["x1", "x2", "y"]),
        ("(+ x y)", MSIG, ["x", "y"]),
        ("(meet (imp x z) y)", HSIG, ["x", "y", "z"]),
        ("x", MSIG, ["x"]),
        ("(+ x 0)", MSIG, ["x"]),
    ]
    for text, sig, vars_ in cases:
        t = parse_term(text, sig, vars_)
        assert parse_term(format_term(t), sig, vars_) == t


# -- evaluation -------------------------------------------------------------------

def test_eval_on_example_table():
    e, _, _, theta = load_fixture("example_monoid")
    # 1 (+) 2 (+) 0 = 4 and 0 (+) 2 (+) 1 = 3 in the 5-element table
    columns = ([1, 0], [0, 1], [2, 2])
    assert _tabulate(theta.term, e.A, dict(zip(theta.vars, columns)), 2) == [4, 3]


def test_eval_on_one_element_algebra():
    one = trivial_algebra(MSIG)
    t = parse_term("(+ x (+ y 0))", MSIG, ["x", "y"])
    assert _tabulate(t, one, {"x": [0], "y": [0]}, 1) == [0]


def test_eval_depth_one_matches_table_lookup():
    e, _, _, _ = load_fixture("example_monoid")
    t = parse_term("(+ x y)", MSIG, ["x", "y"])
    xs, ys = map(list, zip(*product(range(5), range(5))))
    assert _tabulate(t, e.A, {"x": xs, "y": ys}, 25) == [
        e.A.op("+", (x, y)) for x, y in zip(xs, ys)]


# -- term specs ----------------------------------------------------------------------

def test_termspec_rejects_undeclared_variables():
    with pytest.raises(UnboundVariable):
        TermSpec(("x",), parse_term("(+ x y)", MSIG, ["x", "y"]))


def test_undeclared_variables_are_named_with_the_noun():
    t = parse_term("(+ z (+ x y))", MSIG, ["x", "y", "z"])
    with pytest.raises(UnboundVariable) as term:
        TermSpec(("x",), t)
    assert str(term.value) == "term uses undeclared variables ['y', 'z']"
    with pytest.raises(UnboundVariable) as equation:
        Equation(("y",), t, Var("x"))
    assert str(equation.value) == "equation uses undeclared variables ['x', 'z']"


def test_thetaspec_needs_two_variables():
    with pytest.raises(ArityMismatch):
        ThetaSpec(("x",), Var("x"))


def test_repeated_variable_names_rejected_like_the_parser():
    with pytest.raises(TermSyntaxError) as parsed:
        parse_term("x", MSIG, ["x", "x"])
    for make in (lambda: TermSpec(("x", "x"), Var("x")),
                 lambda: ThetaSpec(("x", "x"), Var("x")),
                 lambda: Equation(("x", "x"), Var("x"), Var("x"))):
        with pytest.raises(TermSyntaxError) as exc:
            make()
        assert str(exc.value) == str(parsed.value)


# -- admissibility ----------------------------------------------------------------------

def test_monoid_sum_admissible_everywhere():
    for name in ("example_monoid", "n2_product"):
        e, _, _, theta = load_fixture(name)
        for alg in (e.X, e.A, e.B):
            assert check_theta_admissible(theta, alg)


def test_heyting_term_admissible_on_chain():
    e, _, _, theta = load_fixture("heyting_chain")
    assert check_theta_admissible(theta, e.A)
    assert check_theta_admissible(theta, e.X)


def test_magma_product_admissible_but_not_right_unital():
    from wsext.fixtures import fixture_path
    from wsext.serialize import algebra_from_obj
    M = algebra_from_obj(fixture_path("left_unital_magma"))
    theta = ThetaSpec(("x", "y"), parse_term("(* x y)", M.signature, ["x", "y"]))
    assert check_theta_admissible(theta, M)


def test_inadmissible_term_reports_counterexample():
    A = make_algebra(MSIG, 2, {"+": [0, 1, 1, 1], "0": [0]})
    theta = ThetaSpec(("x", "y"), parse_term("x", MSIG, ["x", "y"]))
    res = check_theta_admissible(theta, A)
    assert not res and res.counterexample["x"] == 1


# -- commutation -----------------------------------------------------------------------

def test_commuting_sum_with_itself_on_commutative_monoid():
    A = make_algebra(MSIG, 2, {"+": [0, 1, 1, 1], "0": [0]})
    omega = TermSpec(("x", "y"), parse_term("(+ x y)", MSIG, ["x", "y"]))
    theta = ThetaSpec(("x", "y"), parse_term("(+ x y)", MSIG, ["x", "y"]))
    assert check_commuting(omega, theta, A)


def test_commuting_trivial_algebra():
    one = trivial_algebra(MSIG)
    omega = TermSpec(("x", "y"), parse_term("(+ x y)", MSIG, ["x", "y"]))
    theta = ThetaSpec(("x", "y"), parse_term("(+ x y)", MSIG, ["x", "y"]))
    assert check_commuting(omega, theta, one)


def test_sum_does_not_commute_with_ternary_term_on_example():
    e, _, _, theta = load_fixture("example_monoid")
    omega = TermSpec(("x", "y"), parse_term("(+ x y)", MSIG, ["x", "y"]))
    res = check_commuting(omega, theta, e.A)
    assert not res
    assert "matrix" in res.counterexample


def test_commuting_budget():
    e, _, _, theta = load_fixture("example_monoid")
    omega = TermSpec(("x", "y"), parse_term("(+ x y)", MSIG, ["x", "y"]))
    with pytest.raises(SearchBudgetExceeded):
        check_commuting(omega, theta, e.A, budget=100)
