"""The ambient tuple algebra X^n x B: indexing and candidate operations.

A tuple (x_1, .., x_n, b) is packed into a single index in mixed radix
(|X| repeated n times, then |B|); ascending index order is exactly the
lexicographic order on tuples, which fixes element order everywhere the
ambient space is serialized.

Given one "action" table per basic operation (mapping ambient argument
tuples to the first n output coordinates), the candidate operations make
the full ambient set into an algebra-like structure: the last coordinate
is always computed in B.  Terms are tabulated in these candidate
operations by ``algebra._tabulate``, as in a finite algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import add
from typing import Mapping, Sequence

from .algebra import FiniteAlgebra, _node
from .errors import ArityMismatch, EntryOutOfRange


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
    """Ambient-set operations induced by action tables and the base algebra.

    ``columns`` is their kernel for ``algebra._tabulate``: the action table
    gives the first n output coordinates, B the last.
    """

    def __init__(self, space: TupleSpace, gamma: GammaTables, B: FiniteAlgebra,
                 x_zero: int):
        self.space = space
        self.gamma = gamma
        self.B = B
        self.zero_tuple = space.pack((x_zero,) * space.n, B.zero)
        # each n-tuple of kernel coordinates -> the ambient index of (xs, 0)
        self._row = {xs: i * B.size for i, xs in
                     enumerate(product(range(space.x_size), repeat=space.n))}

    def columns(self, name: str, args: Sequence[Sequence[int]], block: int) -> list[int]:
        rows = map(self._row.__getitem__,
                   _node(self.gamma[name], self.space.size, args, block))
        b_size = self.B.size
        base = self.B.columns(name, [[z % b_size for z in col] for col in args], block)
        return list(map(add, rows, base))
