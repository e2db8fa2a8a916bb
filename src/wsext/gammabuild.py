"""Reconstruction of a split extension from raw action data.

The input is a kernel algebra X, a base algebra B, a witness term, and
one action table per basic operation (first n output coordinates of the
candidate operation on the ambient set X^n x B).  Four conditions make
the data valid:

  1. the variety's defining identities hold on the carved-out subset Y
     (which must first be closed under the candidate operations);
  2. the kernel embedding is well defined: every x in X has a unique
     tuple (ys, 0) in Y whose theta-value at zero is x;
  3. that embedding is a homomorphism;
  4. the coordinate projections witness the decomposition condition.

When they hold and the zero-tuple section is a homomorphism into Y, the
subset becomes the middle algebra of a split extension whose witness is
the tuple of coordinate projections.  The action-data layer is
``ambient``; nothing here comes from ``canonical``.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

from .ambient import (
    ActionData,
    ActionTable,
    Carrier,
    LeafRows,
    _unit_law,
    carrier,
    membership_by_term,
)
from .algebra import (
    DEFAULT_BUDGET,
    Equation,
    FnTable,
    check_equation,
    fold,
    is_homomorphism,
    table_args,
    tabulate_grid,
)
from .errors import (
    ArityMismatch,
    ConditionsFailed,
    EntryOutOfRange,
    InternalCheckFailed,
    IotaNotInY,
    MissingTable,
    SectionNotHomomorphism,
    SignatureMismatch,
    ThetaNotAdmissible,
    charge,
)
from .extension import SplitExtension, Witness, validate_split_extension, validate_witness
from .report import Report, _once
from .terms import operation_term


class GammaData(ActionData):
    """Raw action data (``ambient.ActionData``) with the axioms of its variety.

    Construction is the one place action tables are checked: one table per
    operation, |X^n x B|^arity entries each, every entry a sequence of n
    exact ints in 0..|X|-1 (bool and float are rejected, not coerced).  A
    table is an ActionTable (LeafRows, say) or flat in table order.  Each
    distinct row and entry is checked once; a rejected table names its
    first bad entry in table order.  The rows given, read and not changed,
    are stored as rows of shared n-tuples.
    """

    axioms: tuple[Equation, ...]

    def __post_init__(self):
        if self.X.signature != self.B.signature:
            raise SignatureMismatch("kernel and base algebras differ in signature")
        failure = _unit_law(self, self.theta)
        if failure:
            raise ThetaNotAdmissible(f"theta(0,..,0,x) != x at "
                                     f"{failure[1].counterexample} ({failure[0]} algebra)")
        space, n, size = self.space, self.n, self.X.size
        gamma = {}
        for name, arity in self.X.signature.ops:
            if name not in self.gamma:
                raise MissingTable(f"no action table for operation {name!r}")
            table = self.gamma[name]
            if not isinstance(table, ActionTable):
                table = LeafRows(table[i:i + space.size] for i in range(0, len(table), space.size))
            # rows in order of first occurrence: the first bad entry found is
            # the first in table order
            keys = list(dict.fromkeys(table.prefixes))
            distinct = list(map(table.rows.__getitem__, keys))
            width = space.size if arity else 1
            if len(table) != space.size ** arity or set(map(len, distinct)) != {width}:
                raise ArityMismatch(
                    f"action table for {name!r} has {len(table)} entries, "
                    f"expected {space.size}^{arity}")
            flat = list(map(tuple, chain.from_iterable(distinct)))
            # bool and float equal ints, so with any other leaf type every
            # entry is checked before equal entries merge
            ints = set(map(type, chain.from_iterable(flat))) <= {int}
            for entry in dict.fromkeys(flat) if ints else flat:
                _check_entry(name, entry, n, size)
            shared = dict(zip(flat, flat))
            gamma[name] = ActionTable(table.prefixes, {
                key: tuple(map(shared.__getitem__, flat[i * width:(i + 1) * width]))
                for i, key in enumerate(keys)})
        extra = set(self.gamma) - set(self.X.signature.op_names())
        if extra:
            raise SignatureMismatch(f"action tables for unknown operations {sorted(extra)}")
        object.__setattr__(self, "gamma", gamma)


def _check_entry(name: str, entry: tuple, n: int, size: int) -> None:
    """Raise unless the entry is n exact ints in 0..size-1."""
    if len(entry) != n:
        raise ArityMismatch(f"action entry {entry} for {name!r} is not an {n}-tuple")
    for x in entry:
        if type(x) is not int or not 0 <= x < size:
            raise EntryOutOfRange(f"action entry {entry} outside the kernel carrier")


def compute_Y(g: GammaData, budget: int = DEFAULT_BUDGET) -> list[int]:
    """The carrier subset, as ascending (= lexicographic) ambient indices.

    Membership of (xs, b) means the witness term, evaluated in the
    candidate operations with all non-distinguished arguments at the zero
    tuple, reproduces xs (``ambient.membership_by_term``).  Raises
    SearchBudgetExceeded when |X^n x B| exceeds ``budget``.
    """
    return membership_by_term(g, budget=budget)


@_once
def _checked(g: GammaData, budget: int) -> tuple[Report, Carrier]:
    """The four conditions and the carrier they were checked on, once per
    data set and budget: conditions 1 and 2 read the carrier
    (``ambient.carrier``, Y from ``compute_Y``), and each term of the others
    is tabulated by one ``tabulate_grid`` call; first failures are in lex
    order."""
    rep = Report()
    space = g.space
    b_size = space.b_size
    car = carrier(g, budget, compute_Y)
    Y, y_pos, kz, kx = car.Y, car.y_pos, car.kz, car.kx
    ops = g.candidate_ops()

    def xs_of(z: int) -> tuple[int, ...]:
        return space.unpack(z)[0]

    # 1: closure (the carrier's operation tables) + defining identities on it
    failure = car.closure_failure
    axioms_ok = car.algebra is not None
    if axioms_ok:
        for i, ax in enumerate(g.axioms):
            charge(len(Y) ** len(ax.vars), budget, f"axiom {i} check exceeds budget")
            res = check_equation(car.algebra, ax)
            if not res:
                axioms_ok = False
                failure = f"axiom {i} fails at {res.counterexample}"
                break
    rep.add("axioms_hold_on_carrier", axioms_ok, failure)

    # 2: unique kernel tuple over each x
    rep.add("kernel_embedding_well_defined", car.k is not None, car.kernel_failure)

    def theta0(column: Sequence[int]) -> list[int]:
        return [car.at_zero[z // b_size] for z in column]

    # 3: the embedding inverse is a homomorphism: theta0 o op = op_X o theta0
    failure = ""
    for name, arity in g.X.signature.ops:
        charge(len(kz) ** arity, budget, f"condition 3 for {name!r} exceeds budget")
        op = operation_term(name, arity)
        lhs = theta0(tabulate_grid(op, ops, [kz] * arity))
        rhs = tabulate_grid(op, g.X, [kx] * arity)
        if lhs != rhs:
            j = next(j for j, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
            ys = tuple(xs_of(kz[i]) for i in table_args(len(kz), arity, j))
            failure = f"op {name!r} at kernel tuples {ys}: {lhs[j]} != {rhs[j]}"
            break
    rep.add("kernel_embedding_homomorphism", not failure, failure)

    # 4: coordinate projections witness the decomposition: wherever the
    # target (theta0(ys_1), .., theta0(ys_n), b) is in Y, theta at
    # ((ys_1, 0_B), .., (ys_n, 0_B), (0, .., 0, b)) has its kernel coordinates
    failure = ""
    charge(len(kz) ** g.n * b_size, budget, "condition 4 exceeds budget")
    zero_row = space.pack((g.X.zero,) * g.n, 0)  # the ambient index of (0, .., 0, 0)
    got = tabulate_grid(g.theta, ops, [kz] * g.n + [range(zero_row, zero_row + b_size)])
    targets = fold(space.radices, [kx] * g.n + [range(b_size)])
    j = next((j for j, (t, z) in enumerate(zip(targets, got))
              if t in y_pos and z // b_size != t // b_size), None)
    if j is not None:
        ys = tuple(xs_of(kz[i]) for i in table_args(len(kz), g.n, j // b_size))
        failure = f"kernel tuples {ys}, base {j % b_size}: {xs_of(got[j])} != {xs_of(targets[j])}"
    rep.add("projection_witness", not failure, failure)
    return rep, car


def check_conditions(g: GammaData, budget: int = DEFAULT_BUDGET) -> Report:
    """The four validity conditions, each with a first counterexample.

    Condition 1 includes closure of the carrier under the candidate
    operations; without closure the identities cannot even be stated on it.
    """
    return _checked(g, budget)[0]


def build_extension_from_gamma(g: GammaData,
                               budget: int = DEFAULT_BUDGET) -> tuple[SplitExtension, Witness]:
    """Assemble the split extension over the carved-out carrier.

    Raises ConditionsFailed unless all four conditions pass, IotaNotInY
    when some zero-tuple (0, .., 0, b) is missing from the carrier, and
    SectionNotHomomorphism, with the first counterexample, when the
    zero-tuple injection b -> (0, .., 0, b) is not a homomorphism into the
    carrier's algebra.  That injection is the section of the reconstructed
    extension, and the four conditions imply neither property.  The
    result is revalidated before being returned.
    """
    rep, car = _checked(g, budget)
    if not rep.ok:
        raise ConditionsFailed(rep)
    Y, y_pos = car.Y, car.y_pos
    b_size = g.B.size

    zero_row = g.space.pack((g.X.zero,) * g.n, 0)  # the ambient index of (0, .., 0, 0)
    missing = [b for b in range(b_size) if zero_row + b not in y_pos]
    if missing:
        raise IotaNotInY(f"zero-tuple section misses the carrier at base {missing}")

    s = FnTable(b_size, len(Y), tuple(y_pos[zero_row + b] for b in range(b_size)))
    res = is_homomorphism(s, g.B, car.algebra)
    if not res:
        raise SectionNotHomomorphism(
            f"zero-tuple section is not a homomorphism: {res.counterexample}")
    ext = SplitExtension(g.X, car.algebra, g.B, car.k, car.p, s)
    coords = zip(*(g.space.unpack(z)[0] for z in Y))
    w = Witness(g.n, tuple(FnTable(len(Y), g.X.size, xs) for xs in coords))

    val = validate_split_extension(ext)
    if not val.ok:
        raise InternalCheckFailed(
            "reconstructed extension failed validation:\n" + val.render())
    res = validate_witness(ext, g.theta, w)
    if not res:
        raise InternalCheckFailed(
            f"projection witness fails at {res.counterexample}")
    return ext, w


def extract_gamma(c, axioms: Sequence[Equation] = ()) -> GammaData:
    """Package a canonical extension's action tables as raw data, ready to
    be checked and rebuilt."""
    return GammaData(c.X, c.B, c.theta, dict(c.gamma), tuple(axioms))
