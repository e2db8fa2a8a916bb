"""Finite algebras over arbitrary finite signatures, as operation tables.

Carriers are always ``{0, .., size-1}``.  Tables are stored flat in
row-major order: the entry for arguments ``(a_1, .., a_k)`` sits at index
``((a_1*size + a_2)*size + ..)*size + a_k``.  Every algebra carries a
distinguished constant (the "zero" of the pointed variety); its value may
be any carrier index, not necessarily 0.

One kernel, ``_factored``, tabulates every term, each subterm over the
axes of its own variables, in a FiniteAlgebra or ``ambient.CandidateOps``;
``grid_blocks`` runs it over a grid for ``tabulate_grid`` and
``check_equation``, and ``_tabulate`` on columns that are not a grid.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, compress, count, cycle, product, repeat
from math import prod
from operator import add, itemgetter, mul, ne
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .errors import (
    ArityMismatch,
    EntryOutOfRange,
    MissingTable,
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


def fold(radices: Sequence[int], axes: Sequence[Sequence[int]]) -> list[int]:
    """The mixed-radix index, radix radices[j] at coordinate j, of every
    tuple with coordinate j drawn from axes[j], in lex order: entry j is
    the index of the j-th tuple of ``product(*axes)``."""
    idx = list(axes[0]) if axes else [0]
    for radix, axis in zip(radices[1:], axes[1:]):
        scaled = map(mul, idx, repeat(radix))
        idx = list(map(add, chain.from_iterable(map(repeat, scaled, repeat(len(axis)))),
                       cycle(axis)))
    return idx


def table_args(size: int, arity: int, idx: int) -> tuple[int, ...]:
    """The argument tuple at a flat table index (inverse of table_index)."""
    args = []
    for _ in range(arity):
        idx, a = divmod(idx, size)
        args.append(a)
    return tuple(reversed(args))


class TupleSpace(Record):
    """Mixed-radix index <-> tuple conversion for X^n x B (|X| n times, then
    |B|), so index order is lex order on tuples."""

    x_size: int
    n: int
    b_size: int

    @property
    def size(self) -> int:
        return self.x_size ** self.n * self.b_size

    @property
    def radices(self) -> list[int]:
        """The grid of the ambient tuples: n kernel coordinates, then B."""
        return [self.x_size] * self.n + [self.b_size]

    @cached_property
    def kernel_tuples(self) -> list[tuple[int, ...]]:
        """The |X|^n kernel tuples in lex order, built on first use."""
        return list(product(range(self.x_size), repeat=self.n))

    @cached_property
    def kernel_rows(self) -> dict[tuple[int, ...], int]:
        """Each kernel tuple xs -> the index of (xs, 0), built on first use."""
        return {xs: i * self.b_size for i, xs in enumerate(self.kernel_tuples)}

    def pack(self, xs: Sequence[int], b: int) -> int:
        if len(xs) != self.n:
            raise ArityMismatch(f"expected {self.n} kernel coordinates, got {len(xs)}")
        for x in xs:
            if not (0 <= x < self.x_size):
                raise EntryOutOfRange(f"coordinate {x} outside 0..{self.x_size - 1}")
        if not (0 <= b < self.b_size):
            raise EntryOutOfRange(f"base coordinate {b} outside 0..{self.b_size - 1}")
        return table_index(self.x_size, xs) * self.b_size + b

    def unpack(self, idx: int) -> tuple[tuple[int, ...], int]:
        return table_args(self.x_size, self.n, idx // self.b_size), idx % self.b_size

    def indices(self) -> range:
        return range(self.size)


def ambient_space(e, n: int) -> TupleSpace:
    return TupleSpace(e.X.size, n, e.B.size)


# Grid points per block in grid_blocks: kernels that tabulate a term over a
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
    if len(idx) < 2:
        return lambda seq: tuple(map(seq.__getitem__, idx))
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
        rhs = _gather(fold([B.size] * arity, [f0] * arity))(B.tables[name])
        if total and lhs == rhs:
            continue
        # bit i of args_defined[j] says whether f is defined at argument i
        args_defined = fold([2] * arity, [defined] * arity)
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

    Both sides are tabulated block by block (grid_blocks): O(nodes *
    GRID_BLOCK) integers at a time, and every assignment is checked.
    """
    offset = 0
    for lhs, rhs in grid_blocks(eq.vars, (eq.lhs, eq.rhs), A, [range(A.size)] * len(eq.vars)):
        if tuple(lhs) != tuple(rhs):
            i = next(compress(count(), map(ne, lhs, rhs)))
            values = table_args(A.size, len(eq.vars), offset + i)
            return CheckResult(False, {"assignment": dict(zip(eq.vars, values)),
                                       "lhs": lhs[i], "rhs": rhs[i]})
        offset += len(lhs)
    return CheckResult(True)


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


def tabulate_grid(spec: TermSpec, A, axes: Sequence[Sequence[int]]) -> list[int]:
    """The term of ``spec`` at every point of the lex grid of ``axes``,
    axis j holding the values of its j-th variable, in lex order."""
    values: list[int] = []
    for (block,) in grid_blocks(spec.vars, (spec.term,), A, axes):
        values += block
    return values


def grid_blocks(names: Sequence[str], terms: Sequence[Term], A,
                axes: Sequence[Sequence[int]]) -> Iterator[list[Sequence[int]]]:
    """Per block of _block_axes, each term's values in A at the block's
    points of the lex grid of ``axes``, axis j holding variable names[j]."""
    every = tuple(range(len(axes)))
    for block in _block_axes([len(axis) for axis in axes]):
        lens = [len(r) for r in block]
        env = {name: ((j,), axis[r.start:r.stop])
               for j, name, axis, r in zip(every, names, axes, block)}
        yield [_spread(*_factored(t, A, env, lens), every, lens) for t in terms]


def _tabulate(t: Term, A, env: Mapping[str, Sequence[int]], block: int) -> list[int]:
    """t over argument columns that are not a grid, given each variable's
    column: _factored with every variable on one shared axis."""
    env = {name: ((0,), column) for name, column in env.items()}
    return list(_spread(*_factored(t, A, env, [block]), (0,), [block]))


def _factored(t: Term, A, env: Mapping, lens: Sequence[int]):
    """(vs, values): t over the grid of the axes vs (ascending) of its
    variables, given each one's (axes, values) and the axis lengths.  In
    a FiniteAlgebra's tables a unary node or one with a constant second
    argument is a gather, a binary one with ordered variables an outer
    product of rows; other nodes spread their arguments onto one grid for
    A's ``columns`` kernel (all nodes in ``ambient.CandidateOps``)."""
    if isinstance(t, Var):
        return env[t.name]
    args = [_factored(a, A, env, lens) for a in t.args]
    if isinstance(A, FiniteAlgebra) and 0 < len(args) < 3:
        table, n = A.tables[t.op], A.size
        (vs, first), (ws, second) = args[0], args[-1]
        if len(args) == 1:
            return vs, _gather(first)(table)
        if not ws:
            return vs, _gather(first)(table[second[0]::n])
        if not vs or vs[-1] < ws[0]:
            row, out = _gather(second), []
            for u in first:
                out += row(table[u * n:u * n + n])
            return vs + ws, out
    joint = tuple(sorted({i for vs, _ in args for i in vs}))
    return joint, A.columns(t.op, [_spread(*arg, joint, lens) for arg in args],
                            prod(lens[i] for i in joint))


def _spread(vs: tuple[int, ...], values: Sequence[int], joint: tuple[int, ...],
            lens: Sequence[int]) -> Sequence[int]:
    """values over the grid of the axes vs, read at each point of the grid
    of the axes joint, a superset of vs.  Axes of length 1 do not count;
    a constant is repeated, one axis repeated and tiled, more gathered."""
    wide = [j for j in joint if lens[j] != 1]
    own = [j for j in vs if lens[j] != 1]
    if own == wide:
        return values
    if not own:
        return [values[0]] * prod(lens[j] for j in wide)
    if len(own) == 1:
        inner = prod(lens[j] for j in wide if j > own[0])
        column = chain.from_iterable(map(repeat, values, repeat(inner))) if inner > 1 else values
        return list(column) * prod(lens[j] for j in wide if j < own[0])
    return _gather(fold([lens[j] if j in vs else 1 for j in wide],
                        [range(lens[j]) if j in vs else [0] * lens[j] for j in wide]))(values)


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
