"""The action-data layer: action data (``ActionData``) as the candidate
operations on the ambient tuple algebra X^n x B (``algebra.TupleSpace``)
and the tabulations of terms in them.

Given one "action" table per basic operation (mapping ambient argument
tuples to the first n output coordinates), the candidate operations make
the ambient set an algebra-like structure, the last coordinate computed
in B.  An ``ActionTable`` is a table as its leaf rows, equal rows one
object where the builder shares them: argument tuple z = prefix * |S| +
last is entry ``last`` of the row at ``prefix``.
``ActionData`` is the one record of action data, X, B, theta and gamma,
that canonical forms and raw action data extend, with its ambient space,
the index of its zero tuple, and ``columns``, the candidate operations'
kernel and the one reader of a table by ambient index.  Every term, a
basic operation too (``terms.operation_term``), is tabulated in the
action data itself by ``algebra.tabulate_grid``, here for the carrier by
term (``membership_by_term``), the operations on it (``carrier``) and the
action table of a term (``gamma_table``).  ``carrier`` is the one reading
of Y off action data, for both: Y's operations, the base coordinate and
the kernel embedding, the maps of the split extension X -> Y -> B.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, repeat
from operator import add, eq, getitem
from typing import Iterable, Mapping, Optional, Sequence

from .algebra import (
    DEFAULT_BUDGET,
    FiniteAlgebra,
    FnTable,
    TupleSpace,
    _node,
    check_theta_admissible,
    table_args,
    tabulate_grid,
)
from .errors import WrongTheta, charge
from .report import CheckResult, Record, _once
from .terms import TermSpec, ThetaSpec, operation_term

# the schema of an action-data document that canonicalize writes and
# gamma-check reads back
CANONICAL_SCHEMA = "wsext.canonical/1"


class ActionTable:
    """An action table by its leaf rows: ``rows`` holds the row, the
    n-tuples over the last argument, at each tuple of leading arguments in
    lex order (a nullary table is one row of one entry); equal rows may be
    one object.  Indexing, ``len``, iteration and equality read it as the
    sequence of its entries in table order."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable):
        self.rows = tuple(rows)

    def __len__(self) -> int:
        return sum(map(len, self.rows))

    def __getitem__(self, z: int):
        prefix, last = divmod(z, len(self.rows[0]))
        return self.rows[prefix][last]

    def __iter__(self):
        return chain.from_iterable(self.rows)

    def __eq__(self, other: Sequence) -> bool:
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"ActionTable({tuple(self)!r})"

    def distinct(self) -> list:
        """The row objects, each once, in order of first occurrence."""
        return list({id(row): row for row in self.rows}.values())


class ActionData(Record):
    """Action data: the kernel and base algebras ``X`` and ``B``, the
    witness term ``theta`` with its ``n`` kernel arguments, and one action
    table per operation in ``gamma``; with its ambient space, the index of
    its zero tuple, and the candidate operations as a column kernel for
    ``algebra._factored``: the action table gives the first n output
    coordinates, B the last."""

    X: FiniteAlgebra
    B: FiniteAlgebra
    theta: ThetaSpec
    gamma: Mapping[str, ActionTable]

    @property
    def n(self) -> int:
        return self.theta.n

    @cached_property
    def space(self) -> TupleSpace:
        return TupleSpace(self.X.size, self.n, self.B.size)

    @cached_property
    def zero_row(self) -> int:
        """The ambient index of (0, .., 0, 0); (0, .., 0, b) sits at
        ``zero_row + b``."""
        return self.space.pack((self.X.zero,) * self.n, 0)

    def columns(self, name: str, args: Sequence[Sequence[int]], block: int) -> list[int]:
        # the row at each point's leading arguments, read at its last one
        rows = _node(self.gamma[name].rows, self.space.size, args[:-1], block)
        xs = map(getitem, rows, args[-1] if args else repeat(0))
        b_size = self.B.size
        base = self.B.columns(name, [[z % b_size for z in col] for col in args], block)
        return list(map(add, map(self.space.kernel_rows.__getitem__, xs), base))


@_once
def _unit_law(c: ActionData, omega: TermSpec) -> Optional[tuple[str, CheckResult]]:
    """(label, check result) at the first of X ("kernel") and B ("base")
    where omega(0, .., 0, x) = x fails; None if neither."""
    for alg, label in ((c.X, "kernel"), (c.B, "base")):
        res = check_theta_admissible(omega, alg)
        if not res:
            return label, res
    return None


def membership_by_term(c: ActionData, omega: Optional[TermSpec] = None,
                       budget: int = DEFAULT_BUDGET) -> list[int]:
    """Ambient indices z whose first n coordinates are reproduced by
    evaluating ``omega`` (default: the witness term) in the candidate
    operations with every other argument at the zero tuple.  Any term with
    the unit property defines the same subset on genuine extension data;
    after the budget check (SearchBudgetExceeded when |X^n x B| exceeds
    ``budget``), the term is checked to have it on X and B (WrongTheta).
    """
    space = c.space
    charge(space.size, budget,
           f"membership test needs {space.size} ambient tuples, budget is {budget}")
    omega = omega or c.theta
    failure = _unit_law(c, omega)
    if failure:
        raise WrongTheta(
            f"membership term lacks the unit property on the {failure[0]} algebra")
    values = tabulate_grid(omega, c, [[c.zero_row + c.B.zero]] * (omega.arity - 1)
                           + [space.indices()])
    b_size = space.b_size
    return [z for z, v in enumerate(values) if v // b_size == z // b_size]


def gamma_table(c: ActionData, omega: TermSpec,
                budget: int = DEFAULT_BUDGET) -> ActionTable:
    """Action table of an arbitrary term: evaluate it in the candidate
    operations over every ambient argument tuple and keep the first n
    output coordinates.  For a single basic operation this reproduces the
    stored table.  Raises SearchBudgetExceeded when the table would hold
    more than ``budget`` entries, |X^n x B|^arity."""
    space = c.space
    needed = space.size ** omega.arity
    charge(needed, budget, f"action table needs {needed} entries, budget is {budget}")
    values = tabulate_grid(omega, c, [space.indices()] * omega.arity)
    kernel_tuples, b_size = space.kernel_tuples, space.b_size
    entries = [kernel_tuples[v // b_size] for v in values]
    return ActionTable(entries[i:i + space.size] for i in range(0, len(entries), space.size))


class Carrier(Record):
    """Y, the carrier theta cuts out of action data, with what the canonical
    form and the conditions read off it (``carrier``): ``Y`` in ascending
    (= lex) ambient indices and ``y_pos``, each one's position; ``algebra``,
    Y with the candidate operations by position, or None with
    ``closure_failure`` naming the first operation and arguments that leave
    Y; ``p``, the base coordinate of each member; ``at_zero``, theta_X(ys,
    0_X) over X^n; ``kz``, the (ys, 0_B) in Y, and ``kx``, the x each
    embeds; ``k``, the kernel embedding X -> Y by position, or None with
    ``kernel_failure`` naming the first x without exactly one kernel
    tuple."""

    Y: list[int]
    y_pos: dict[int, int]
    algebra: Optional[FiniteAlgebra]
    closure_failure: str
    p: FnTable
    at_zero: list[int]
    kz: list[int]
    kx: list[int]
    k: Optional[FnTable]
    kernel_failure: str


@_once
def carrier(c: ActionData, budget: int, members=membership_by_term) -> Carrier:
    """The carrier of action data, once per record, budget and ``members``,
    which gives Y as ``members(c, budget=budget)`` (gammabuild passes its
    ``compute_Y``).  Each operation is tabulated on Y by one
    ``tabulate_grid`` call, up to the first that leaves Y, and raises
    SearchBudgetExceeded first when |Y|^arity exceeds ``budget``."""
    Y = members(c, budget=budget)
    y_pos = {z: i for i, z in enumerate(Y)}
    tables, closure_failure = {}, ""
    for name, arity in c.X.signature.ops:
        charge(len(Y) ** arity, budget, f"closure check for {name!r} exceeds budget")
        table = list(map(y_pos.get, tabulate_grid(operation_term(name, arity), c, [Y] * arity)))
        if None in table:
            args = table_args(len(Y), arity, table.index(None))
            closure_failure = f"carrier not closed under {name!r} at {tuple(Y[i] for i in args)}"
            break
        tables[name] = tuple(table)
    algebra = None if closure_failure else FiniteAlgebra(c.X.signature, len(Y), tables)

    space = c.space
    b_size = space.b_size
    p = FnTable(b_size, tuple(z % b_size for z in Y))
    # over X^n: |X|^n <= |X^n x B|, which members budgeted
    at_zero = tabulate_grid(c.theta, c.X, [range(space.x_size)] * c.n + [[c.X.zero]])
    kz = [z for z, b in zip(Y, p.values) if b == c.B.zero]
    kx = [at_zero[z // b_size] for z in kz]
    groups: list[list[int]] = [[] for _ in range(space.x_size)]
    for z, x in zip(kz, kx):
        groups[x].append(z)
    bad = next((x for x, group in enumerate(groups) if len(group) != 1), None)
    k = None if bad is not None else \
        FnTable(len(Y), tuple(y_pos[group[0]] for group in groups))
    kernel_failure = "" if bad is None else \
        f"x = {bad} has kernel tuples {[space.unpack(z)[0] for z in groups[bad]]}"
    return Carrier(Y, y_pos, algebra, closure_failure, p, at_zero, kz, kx, k, kernel_failure)
