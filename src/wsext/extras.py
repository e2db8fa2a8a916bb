"""Library-only checks: the interchange law of a term with the witness
term (``check_commuting``).  No command runs it, so only the package's
name table loads this module.
"""

from __future__ import annotations

from .algebra import DEFAULT_BUDGET, Equation, FiniteAlgebra, check_equation
from .errors import charge
from .report import CheckResult
from .terms import Term, TermSpec, ThetaSpec, Var, substitute


def check_commuting(
    omega: TermSpec,
    theta: ThetaSpec,
    A: FiniteAlgebra,
    budget: int = DEFAULT_BUDGET,
) -> CheckResult:
    """Interchange law between an m-ary term and the witness term.

    For every m x (n+1) matrix of elements: applying theta to each row and
    then omega to the results must equal applying omega down each column
    and then theta.  The matrix entries are the variables of one equation,
    in row-major order, and the counterexample is its first failing
    matrix.  Raises SearchBudgetExceeded when the |A|^(m(n+1)) matrices
    exceed ``budget``.
    """
    m, width = omega.arity, theta.arity
    domain = A.size ** (m * width)
    charge(domain, budget, f"commutation check needs {domain} cases, budget is {budget}")
    rows = [[Var(f"a{j}_{i}") for i in range(width)] for j in range(m)]
    columns = [[row[i] for row in rows] for i in range(width)]

    def apply(spec: TermSpec, args) -> Term:
        return substitute(spec.term, dict(zip(spec.vars, args)))

    res = check_equation(A, Equation(
        tuple(v.name for row in rows for v in row),
        apply(omega, [apply(theta, row) for row in rows]),
        apply(theta, [apply(omega, column) for column in columns])))
    if res:
        return res
    values = list(res.counterexample["assignment"].values())
    return CheckResult(False, {
        "matrix": [values[j * width:(j + 1) * width] for j in range(m)],
        "rows_first": res.counterexample["lhs"],
        "columns_first": res.counterexample["rhs"],
    })
