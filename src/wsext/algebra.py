"""Finite algebras over arbitrary finite signatures, as operation tables.

Carriers are always ``{0, .., size-1}``.  Tables are stored flat in
row-major order: the entry for arguments ``(a_1, .., a_k)`` sits at index
``((a_1*size + a_2)*size + ..)*size + a_k``.  Every algebra carries a
distinguished constant (the "zero" of the pointed variety); its value may
be any carrier index, not necessarily 0.

Terms are tabulated over blocks of a lex grid by two table kernels:
``_tabulate`` over argument columns, which ``tabulate_grid`` runs over
every block of a grid of argument values (a basic operation as its own
term, ``terms.operation_term``), and ``_factored``, through which
``check_equation`` checks every identity, over each subterm's own axes.
"""

from __future__ import annotations

from itertools import chain, product
from math import prod
from operator import itemgetter
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .errors import (
    ArityMismatch,
    EntryOutOfRange,
    MissingTable,
    SearchBudgetExceeded,
    SignatureMismatch,
    SizeMismatch,
    ThetaNotAdmissible,
    UnknownSymbol,
)
from .report import CheckResult, Record
from .terms import App, Term, TermSpec, ThetaSpec, Var, require_declared_vars, substitute

DEFAULT_BUDGET = 10_000_000


class Signature(Record):
    """Operation names with arities, plus the distinguished constant.

    ``ops`` preserves declaration order; that order fixes table order in
    serialized files and the iteration order of every exhaustive check.
    """

    ops: tuple[tuple[str, int], ...]
    constant_name: str

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple((n, a) for n, a in self.ops))
        # names and arities are refused, never coerced: str(0) would be a new name
        for name in [n for n, _ in self.ops] + [self.constant_name]:
            if not isinstance(name, str):
                raise SignatureMismatch(f"name {name!r} is not a string")
        for name, a in self.ops:
            if type(a) is not int:
                raise ArityMismatch(f"arity {a!r} of {name!r} is not an integer")
        names = [n for n, _ in self.ops]
        if len(set(names)) != len(names):
            raise SignatureMismatch(f"duplicate operation names in {names}")
        if any(not n for n in names):
            raise SignatureMismatch("empty operation name")
        if any(a < 0 for _, a in self.ops):
            raise ArityMismatch("negative arity")
        arity = dict(self.ops).get(self.constant_name)
        if arity is None:
            raise SignatureMismatch(
                f"constant {self.constant_name!r} is not an operation of the signature")
        if arity != 0:
            raise ArityMismatch(f"constant {self.constant_name!r} has arity {arity}, expected 0")

    def arity(self, name: str) -> int:
        for n, a in self.ops:
            if n == name:
                return a
        raise UnknownSymbol(f"no operation named {name!r} in the signature")

    def op_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.ops)

    def has_op(self, name: str) -> bool:
        return any(n == name for n, _ in self.ops)


def table_index(size: int, args: Sequence[int]) -> int:
    idx = 0
    for a in args:
        idx = idx * size + a
    return idx


def fold_indices(size: int, values: Sequence[int], arity: int) -> list[int]:
    """Flat table indices, radix ``size``, of every arity-tuple drawn from
    ``values`` in lex order: entry j is table_index(size, args) where args
    is the j-th tuple of ``product(values, repeat=arity)``."""
    idx = [0]
    for _ in range(arity):
        idx = [i * size + v for i in idx for v in values]
    return idx


def table_args(size: int, arity: int, idx: int) -> tuple[int, ...]:
    """The argument tuple at a flat table index (inverse of table_index)."""
    args = []
    for _ in range(arity):
        idx, a = divmod(idx, size)
        args.append(a)
    return tuple(reversed(args))


def _axis_columns(axes: Sequence[Sequence[int]]) -> list[list[int]]:
    """The columns of the grid axes[0] x axes[1] x .. in lex order: column
    j holds coordinate j of every grid point, the last coordinate varying
    fastest.  The grid has prod(map(len, axes)) points (1 when empty)."""
    total = stride = prod(map(len, axes))
    columns = []
    for axis in axes:
        stride //= len(axis)
        column = list(chain.from_iterable([v] * stride for v in axis))
        columns.append(column * (total // len(column)))
    return columns


# Grid points per block in lex_grid: kernels that tabulate a term over a
# grid hold O(term nodes * GRID_BLOCK) integers at a time, whatever its size.
GRID_BLOCK = 1 << 14


def _block_axes(radices: Sequence[int]) -> Iterator[list[range]]:
    """The grid of the index ranges of ``radices`` in consecutive blocks,
    in lex order, each the grid of its axes: one range of values per
    coordinate.

    Each block fixes the leading coordinates, runs the trailing ones over
    their whole range (as many as fit in GRID_BLOCK points, at least none)
    and the boundary coordinate before them over a run of as many values
    as fit as well (at least one).  An empty grid (a zero radix) has no
    blocks.
    """
    if 0 in radices:
        return
    split, points = len(radices), 1
    while split and points * radices[split - 1] <= GRID_BLOCK:
        split -= 1
        points *= radices[split]
    tail = [range(r) for r in radices[split:]]
    if not split:
        yield tail
        return
    *lead, edge = radices[:split]
    run = GRID_BLOCK // points
    for head in product(*map(range, lead)):
        for start in range(0, edge, run):
            yield [range(h, h + 1) for h in head] + [range(start, min(start + run, edge))] + tail


def lex_grid(axes: Sequence[Sequence[int]]) -> Iterator[tuple[int, list[list[int]]]]:
    """Every tuple with coordinate j drawn from axes[j], in lex order, as
    value columns in the blocks of _block_axes: (points, columns)."""
    for block in _block_axes([len(axis) for axis in axes]):
        yield prod(map(len, block)), _axis_columns(
            [axis[r.start:r.stop] for axis, r in zip(axes, block)])


class FiniteAlgebra(Record):
    """A finite algebra: carrier {0..size-1} and one flat table per op."""

    signature: Signature
    size: int
    tables: Mapping[str, tuple[int, ...]]

    @property
    def zero(self) -> int:
        """The value of the distinguished constant."""
        return self.tables[self.signature.constant_name][0]

    def op(self, name: str, args: Sequence[int]) -> int:
        return self.tables[name][table_index(self.size, args)]

    def arg_tuples(self, arity: int) -> Iterator[tuple[int, ...]]:
        return product(range(self.size), repeat=arity)

    def columns(self, name: str, args: Sequence[Sequence[int]], block: int) -> list[int]:
        """The operation over one block of argument columns (see _node)."""
        return _node(self.tables[name], self.size, args, block)


def make_algebra(sig: Signature, size: int, tables: Mapping[str, Sequence[int]]) -> FiniteAlgebra:
    """Validate tables against the signature and build the algebra.

    Raises MissingTable, ArityMismatch or EntryOutOfRange on bad input.
    """
    if size < 1:
        raise SizeMismatch(f"carrier size must be positive, got {size}")
    frozen: dict[str, tuple[int, ...]] = {}
    for name, arity in sig.ops:
        if name not in tables:
            raise MissingTable(f"no table for operation {name!r}")
        values = tuple(tables[name])
        if len(values) != size ** arity:
            raise ArityMismatch(
                f"table for {name!r} has {len(values)} entries, expected {size}^{arity}")
        for v in values:
            if type(v) is not int or not (0 <= v < size):
                raise EntryOutOfRange(f"table entry {v!r} for {name!r} outside 0..{size - 1}")
        frozen[name] = values
    extra = set(tables) - {n for n, _ in sig.ops}
    if extra:
        raise SignatureMismatch(f"tables given for unknown operations {sorted(extra)}")
    return FiniteAlgebra(sig, size, frozen)


def trivial_algebra(sig: Signature) -> FiniteAlgebra:
    """The one-element algebra of a signature (terminal object)."""
    return make_algebra(sig, 1, {name: (0,) for name, _ in sig.ops})


# -- function tables ----------------------------------------------------------

class FnTable(Record):
    """A total function {0..dom_size-1} -> {0..cod_size-1} as a value array."""

    dom_size: int
    cod_size: int
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.dom_size:
            raise SizeMismatch(
                f"function table has {len(self.values)} entries, expected {self.dom_size}")
        for v in self.values:
            if type(v) is not int or not (0 <= v < self.cod_size):
                raise EntryOutOfRange(
                    f"function value {v!r} outside 0..{self.cod_size - 1}")

    def __call__(self, x: int) -> int:
        return self.values[x]

    @classmethod
    def identity(cls, size: int) -> "FnTable":
        return cls(size, size, tuple(range(size)))

    @classmethod
    def constant(cls, dom_size: int, cod_size: int, value: int) -> "FnTable":
        return cls(dom_size, cod_size, (value,) * dom_size)

    def then(self, g: "FnTable") -> "FnTable":
        """Composition: first self, then g."""
        if self.cod_size != g.dom_size:
            raise SizeMismatch("composition endpoint mismatch")
        return FnTable(self.dom_size, g.cod_size, tuple(g(v) for v in self.values))

    def is_injective(self) -> bool:
        return len(set(self.values)) == self.dom_size

    def is_surjective(self) -> bool:
        return len(set(self.values)) == self.cod_size

    def image(self) -> list[int]:
        return sorted(set(self.values))


def _require_same_signature(A: FiniteAlgebra, B: FiniteAlgebra) -> None:
    if A.signature != B.signature:
        raise SignatureMismatch("algebras have different signatures")


def _gather(idx: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A callable that reads seq[i] for every i in ``idx`` into one tuple,
    in one C-level pass (operator.itemgetter, which returns a bare item
    rather than a tuple when given a single index); a range of step 1 is
    read as one slice."""
    if type(idx) is range and idx.step == 1:
        return itemgetter(slice(idx.start, idx.stop))
    if len(idx) == 1:
        i = idx[0]
        return lambda seq: (seq[i],)
    return itemgetter(*idx)


def _square_failure(f: Sequence[Optional[int]], A: FiniteAlgebra,
                    B: FiniteAlgebra) -> Optional[tuple[str, tuple[int, ...]]]:
    """First (op, args), in signature then lex order, where the map f from
    A's carrier to B's is undefined (None) at an argument or at op_A(args),
    or where f(op_A(args)) != op_B(f(args)); None when f is a homomorphism.
    Each operation is compared as two flat tables, f read through A's table
    against B's table read at the index fold of f; the argument tuples are
    walked only to name the first failure."""
    defined = [v is not None for v in f]
    total = all(defined)
    f0 = [0 if v is None else v for v in f]
    for name, arity in A.signature.ops:
        lhs = _gather(A.tables[name])(f)
        rhs = _gather(fold_indices(B.size, f0, arity))(B.tables[name])
        if total and lhs == rhs:
            continue
        # bit i of args_defined[j] says whether f is defined at argument i
        args_defined = fold_indices(2, defined, arity)
        bad = next((j for j, (u, v, d) in enumerate(zip(lhs, rhs, args_defined))
                    if u is None or d != 2 ** arity - 1 or u != v), None)
        if bad is not None:
            return name, table_args(A.size, arity, bad)
    return None


def is_homomorphism(f: FnTable, A: FiniteAlgebra, B: FiniteAlgebra) -> CheckResult:
    """Does f commute with every operation table (constants included)?

    Each operation is compared as two flat tables over its argument
    tuples in lex order; the counterexample records the operation and the
    first argument tuple where the two evaluation orders disagree.
    """
    _require_same_signature(A, B)
    if f.dom_size != A.size or f.cod_size != B.size:
        raise SizeMismatch(
            f"table is {f.dom_size}->{f.cod_size}, algebras are {A.size}->{B.size}")
    fail = _square_failure(f.values, A, B)
    if fail is None:
        return CheckResult(True)
    name, args = fail
    return CheckResult(False, {
        "op": name, "args": list(args),
        "f(op(args))": f(A.op(name, args)),
        "op(f(args))": B.op(name, tuple(map(f, args))),
    })


# -- equations ----------------------------------------------------------------

class Equation(Record):
    """An identity lhs = rhs over a shared ordered variable list."""

    vars: tuple[str, ...]
    lhs: Term
    rhs: Term

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        require_declared_vars(self.vars, (self.lhs, self.rhs), "equation")


def check_equation(A: FiniteAlgebra, eq: Equation) -> CheckResult:
    """Exhaustively check an identity on A; the counterexample is the first
    failing assignment in lexicographic order of the variable list.

    The assignments are taken in the blocks of _block_axes, and each side
    is tabulated over a block by _factored: O(nodes * GRID_BLOCK) integers
    at a time, and every assignment is still checked.
    """
    offset, every = 0, tuple(range(len(eq.vars)))
    pos = dict(zip(eq.vars, every))
    for axes in _block_axes([A.size] * len(eq.vars)):
        lhs, rhs = (tuple(_spread(*_factored(side, A, pos, axes), every, axes))
                    for side in (eq.lhs, eq.rhs))
        if lhs != rhs:
            i = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            values = table_args(A.size, len(eq.vars), offset + i)
            return CheckResult(False, {"assignment": dict(zip(eq.vars, values)),
                                       "lhs": lhs[i], "rhs": rhs[i]})
        offset += len(lhs)
    return CheckResult(True)


def _factored(t: Term, A: FiniteAlgebra, pos: Mapping[str, int], axes: list[range]):
    """(vs, values): t over the lex grid of the axes of just its variables,
    whose positions are vs, ascending.  A binary node whose first argument's
    variables all precede its second's is an outer product of table rows;
    other nodes spread their arguments onto one grid for _node."""
    if isinstance(t, Var):
        return (pos[t.name],), axes[pos[t.name]]
    table, n = A.tables[t.op], A.size
    args = [_factored(a, A, pos, axes) for a in t.args]
    if not args:
        return (), (table[0],)
    if len(args) == 1:
        return args[0][0], _gather(args[0][1])(table)
    (vs, first), (ws, second) = args[:2]
    if len(args) == 2 and not ws:
        return vs, _gather(first)(table[second[0]::n])
    if len(args) == 2 and (not vs or vs[-1] < ws[0]):
        row, out = _gather(second), []
        for u in first:
            out += row(table[u * n:u * n + n])
        return vs + ws, out
    joint = tuple(sorted({i for vs, _ in args for i in vs}))
    return joint, _node(table, n, [_spread(*arg, joint, axes) for arg in args],
                        prod(len(axes[i]) for i in joint))


def _spread(vs: tuple[int, ...], values: Sequence[int], joint: tuple[int, ...],
            axes: list[range]) -> Sequence[int]:
    """values over the grid of the axes vs, read at each point of the grid
    of the axes joint, a superset of vs."""
    if vs == joint:
        return values
    idx = [0]
    for j in joint:
        r = range(len(axes[j]))
        idx = [i * len(r) + k for i in idx for k in r] if j in vs else [i for i in idx for _ in r]
    return _gather(idx)(values)


def check_theta_admissible(theta: TermSpec, A: FiniteAlgebra) -> CheckResult:
    """Check the unit law theta(0,..,0,x) = x for every x in the carrier,
    as the identity in the last variable with zero in all the others.

    Any term qualifies; a term without variables has no argument to put
    x in (ArityMismatch).  The counterexample is the first failing x.
    """
    if not theta.vars:
        raise ArityMismatch("term of arity 0 applied to 1 arguments")
    *zeros, x = theta.vars
    zero = App(A.signature.constant_name, ())
    res = check_equation(A, Equation(
        (x,), substitute(theta.term, dict.fromkeys(zeros, zero)), Var(x)))
    if res:
        return res
    return CheckResult(False, {"x": res.counterexample["assignment"][x],
                               "value": res.counterexample["lhs"]})


def require_admissible(theta: ThetaSpec, A: FiniteAlgebra, where: str = "") -> None:
    res = check_theta_admissible(theta, A)
    if not res:
        suffix = f" ({where})" if where else ""
        raise ThetaNotAdmissible(
            f"theta(0,..,0,x) != x at {res.counterexample}{suffix}")


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
    if domain > budget:
        raise SearchBudgetExceeded(
            f"commutation check needs {domain} cases, budget is {budget}")
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


def tabulate_grid(spec: TermSpec, A, axes: Sequence[Sequence[int]]) -> list[int]:
    """The term of ``spec`` at every point of the lex grid of ``axes``,
    axis j holding the values of its j-th variable, in lex order: _tabulate
    over each block of lex_grid, in A's ``columns`` kernel."""
    values: list[int] = []
    for points, columns in lex_grid(axes):
        values += _tabulate(spec.term, A, dict(zip(spec.vars, columns)), points)
    return values


def _tabulate(t: Term, A, env: Mapping[str, list[int]], block: int) -> list[int]:
    """Values of t over one block, given each variable's column, in anything
    with a ``columns`` kernel: a FiniteAlgebra or ``ambient.CandidateOps``."""
    if isinstance(t, Var):
        return env[t.name]
    return A.columns(t.op, [_tabulate(a, A, env, block) for a in t.args], block)


def _node(table: Sequence, size: int, args: Sequence[Sequence[int]],
          block: int) -> list:
    """One operation over one block: the table, radix ``size``, read at
    each row of the argument columns."""
    if not args:
        return [table[0]] * block
    if len(args) == 1:
        return [table[a] for a in args[0]]
    if len(args) == 2:
        return [table[a * size + b] for a, b in zip(*args)]
    return [table[table_index(size, xs)] for xs in zip(*args)]
