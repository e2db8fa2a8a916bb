"""The ambient tuple algebra X^n x B: indexing and candidate operations.

A tuple (x_1, .., x_n, b) is packed into a single index in mixed radix
(|X| repeated n times, then |B|); ascending index order is exactly the
lexicographic order on tuples, which fixes element order everywhere the
ambient space is serialized.

Given one "action" table per basic operation (mapping ambient argument
tuples to the first n output coordinates), the candidate operations make
the full ambient set into an algebra-like structure: the last coordinate
is always computed in B.  Composite terms are evaluated structurally in
these candidate operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import FiniteAlgebra, table_index
from .errors import ArityMismatch, EntryOutOfRange, UnboundVariable
from .terms import Term, TermSpec, Var


@dataclass(frozen=True)
class TupleSpace:
    """Mixed-radix index <-> tuple conversion for X^n x B."""

    x_size: int
    n: int
    b_size: int

    @property
    def size(self) -> int:
        return self.x_size ** self.n * self.b_size

    def pack(self, xs: Sequence[int], b: int) -> int:
        if len(xs) != self.n:
            raise ArityMismatch(f"expected {self.n} kernel coordinates, got {len(xs)}")
        idx = 0
        for x in xs:
            if not (0 <= x < self.x_size):
                raise EntryOutOfRange(f"coordinate {x} outside 0..{self.x_size - 1}")
            idx = idx * self.x_size + x
        if not (0 <= b < self.b_size):
            raise EntryOutOfRange(f"base coordinate {b} outside 0..{self.b_size - 1}")
        return idx * self.b_size + b

    def unpack(self, idx: int) -> tuple[tuple[int, ...], int]:
        b = idx % self.b_size
        idx //= self.b_size
        xs = []
        for _ in range(self.n):
            xs.append(idx % self.x_size)
            idx //= self.x_size
        return tuple(reversed(xs)), b

    def indices(self) -> range:
        return range(self.size)


# gamma tables: per op, a flat tuple over ambient-index argument tuples
# (row-major, radix = space.size), entries are n-tuples of X elements.
GammaTables = Mapping[str, tuple[tuple[int, ...], ...]]


class CandidateOps:
    """Ambient-set operations induced by action tables and the base algebra."""

    def __init__(self, space: TupleSpace, gamma: GammaTables, B: FiniteAlgebra,
                 x_zero: int):
        self.space = space
        self.gamma = gamma
        self.B = B
        self.zero_tuple = space.pack((x_zero,) * space.n, B.zero)

    def apply(self, op: str, args: Sequence[int]) -> int:
        """Apply a basic operation to ambient indices, returning an ambient index."""
        xs = self.gamma[op][table_index(self.space.size, args)]
        b = self.B.op(op, tuple(self.space.unpack(a)[1] for a in args))
        return self.space.pack(xs, b)

    def eval(self, spec: TermSpec, args: Sequence[int]) -> int:
        """Evaluate a term structurally in the candidate operations.

        Leaves evaluate to the ambient arguments themselves; a bare
        variable term therefore denotes the identity on the ambient set.
        """
        if len(args) != spec.arity:
            raise ArityMismatch(
                f"term of arity {spec.arity} applied to {len(args)} arguments")
        env = dict(zip(spec.vars, args))

        def rec(t: Term) -> int:
            if isinstance(t, Var):
                if t.name not in env:
                    raise UnboundVariable(f"variable {t.name!r} not bound")
                return env[t.name]
            return self.apply(t.op, tuple(rec(a) for a in t.args))

        return rec(spec.term)

    def retract(self, theta: TermSpec, z: int) -> int:
        """theta evaluated with every non-distinguished argument at the
        ambient zero tuple; for data extracted from a genuine extension
        this retracts the ambient set onto the canonical carrier."""
        return self.eval(theta, (self.zero_tuple,) * (theta.arity - 1) + (z,))
