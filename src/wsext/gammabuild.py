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

When they hold and the zero-tuple section lands in Y, the subset becomes
the middle algebra of a split extension whose witness is the tuple of
coordinate projections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, product
from typing import Optional, Sequence

from .ambient import CandidateOps, TupleSpace
from .algebra import DEFAULT_BUDGET, Equation, FiniteAlgebra, FnTable, check_equation, table_index
from .canonical import membership_by_term
from .errors import (
    ArityMismatch,
    ConditionsFailed,
    EntryOutOfRange,
    InternalCheckFailed,
    IotaNotInY,
    MembershipDiscrepancy,
    MissingTable,
    SearchBudgetExceeded,
    SignatureMismatch,
)
from .extension import SplitExtension, Witness, validate_split_extension, validate_witness
from .report import Report
from .terms import TermSpec, ThetaSpec, require_admissible


@dataclass(frozen=True)
class GammaData:
    """Raw action data: algebras, witness term, per-operation tables, axioms.

    Construction is the one place action tables are checked: one table per
    operation, |X^n x B|^arity entries each, every entry a sequence of n
    exact ints in 0..|X|-1 (bool and float are rejected, not coerced).
    Each table is checked in whole-table passes and stored as a tuple of
    shared n-tuples, one per distinct entry; only a rejected table is
    walked entry by entry, to name its first bad entry.
    """

    X: FiniteAlgebra
    B: FiniteAlgebra
    theta: ThetaSpec
    gamma: dict[str, tuple[tuple[int, ...], ...]]
    axioms: tuple[Equation, ...]
    # budget -> (report, carrier), filled by the condition checks
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.X.signature != self.B.signature:
            raise SignatureMismatch("kernel and base algebras differ in signature")
        require_admissible(self.theta, self.X, "kernel algebra")
        require_admissible(self.theta, self.B, "base algebra")
        space, n, size = self.space, self.n, self.X.size
        # the valid entries, each keyed by itself: a lookup returns the one
        # shared tuple for all equal entries
        shared = {xs: xs for xs in product(range(size), repeat=n)}
        gamma = {}
        for name, arity in self.X.signature.ops:
            if name not in self.gamma:
                raise MissingTable(f"no action table for operation {name!r}")
            table = self.gamma[name]
            if len(table) != space.size ** arity:
                raise ArityMismatch(
                    f"action table for {name!r} has {len(table)} entries, "
                    f"expected {space.size}^{arity}")
            stored = _shared_entries(table, shared)
            if stored is None:
                _raise_first_bad_entry(name, table, n, size)
            gamma[name] = stored
        extra = set(self.gamma) - set(self.X.signature.op_names())
        if extra:
            raise SignatureMismatch(f"action tables for unknown operations {sorted(extra)}")
        object.__setattr__(self, "gamma", gamma)

    @property
    def n(self) -> int:
        return self.theta.n

    @property
    def space(self) -> TupleSpace:
        return TupleSpace(self.X.size, self.theta.n, self.B.size)

    def candidate_ops(self) -> CandidateOps:
        return CandidateOps(self.space, self.gamma, self.B, self.X.zero)


def _shared_entries(table: Sequence, shared: dict) -> Optional[tuple]:
    """The table as a tuple of the tuples in ``shared``, computed in
    whole-table passes; None unless every entry is a key of ``shared`` and
    every value an exact int (bool and float compare equal to ints, so
    they are ruled out by type first)."""
    if not set(map(type, chain.from_iterable(table))) <= {int}:
        return None
    try:
        return tuple(map(shared.__getitem__, map(tuple, table)))
    except KeyError:
        return None


def _raise_first_bad_entry(name: str, table: Sequence, n: int, size: int) -> None:
    """Name the first entry that is not n exact ints in 0..size-1."""
    for entry in map(tuple, table):
        if len(entry) != n:
            raise ArityMismatch(
                f"action entry {entry} for {name!r} is not an {n}-tuple")
        for x in entry:
            if type(x) is not int or not 0 <= x < size:
                raise EntryOutOfRange(
                    f"action entry {entry} outside the kernel carrier")


def compute_Y(g: GammaData, membership_term: Optional[TermSpec] = None,
              budget: int = DEFAULT_BUDGET) -> list[int]:
    """The carrier subset, as ascending (= lexicographic) ambient indices.

    Membership of (xs, b) means the witness term, evaluated in the
    candidate operations with all non-distinguished arguments at the zero
    tuple, reproduces xs (``canonical.membership_by_term``).  An alternative
    term with the same unit property may be supplied (WrongTheta when it
    lacks it); if its subset differs the data is inconsistent and
    MembershipDiscrepancy is raised.  Raises SearchBudgetExceeded when
    |X^n x B| exceeds ``budget``.
    """
    base = membership_by_term(g, budget=budget)
    if membership_term is not None:
        alt = membership_by_term(g, membership_term, budget=budget)
        if alt != base:
            diff = sorted(set(alt) ^ set(base))
            raise MembershipDiscrepancy(
                f"carrier definitions disagree at ambient indices {diff}")
    return base


def _kernel_tuples(g: GammaData, Y: Sequence[int]) -> list[tuple[int, ...]]:
    """Kernel-coordinate tuples ys with (ys, 0_B) in Y, in lex order."""
    yset = set(Y)
    return [xs for xs in product(range(g.X.size), repeat=g.n)
            if g.space.pack(xs, g.B.zero) in yset]


def _theta_at_zero(g: GammaData, xs: tuple[int, ...]) -> int:
    return g.theta.eval(g.X, xs + (g.X.zero,))


@dataclass(frozen=True)
class _Carrier:
    """The carved-out carrier, shared by the condition checks and the rebuild.

    ``algebra`` is Y with the candidate operations, indexed by carrier
    position; it is None when Y is not closed under them.
    """

    Y: list[int]
    y_pos: dict[int, int]
    kernel: list[tuple[int, ...]]
    algebra: Optional[FiniteAlgebra]


def _checked(g: GammaData, budget: int) -> tuple[Report, _Carrier]:
    """The four conditions and the carrier they were checked on.

    Computed once per data set and budget: a later call, such as the rebuild
    after ``check_conditions``, reuses the first result.
    """
    if budget not in g._memo:
        g._memo[budget] = _check(g, budget)
    return g._memo[budget]


def _check(g: GammaData, budget: int) -> tuple[Report, _Carrier]:
    rep = Report()
    ops = g.candidate_ops()
    Y = compute_Y(g, budget=budget)
    y_pos = {z: i for i, z in enumerate(Y)}

    # 1: closure + defining identities on the carrier; the closure pass
    # tabulates the operations on Y
    failure = ""
    tables = {}
    for name, arity in g.X.signature.ops:
        if (len(Y) ** arity) > budget:
            raise SearchBudgetExceeded(f"closure check for {name!r} exceeds budget")
        table = []
        for args in product(Y, repeat=arity):
            z = ops.apply(name, args)
            if z not in y_pos:
                failure = f"carrier not closed under {name!r} at {args}"
                break
            table.append(y_pos[z])
        if failure:
            break
        tables[name] = tuple(table)
    YA = None if failure else FiniteAlgebra(g.X.signature, len(Y), tables)
    axioms_ok = YA is not None
    if axioms_ok:
        for i, ax in enumerate(g.axioms):
            if len(Y) ** len(ax.vars) > budget:
                raise SearchBudgetExceeded(f"axiom {i} check exceeds budget")
            res = check_equation(YA, ax)
            if not res:
                axioms_ok = False
                failure = f"axiom {i} fails at {res.counterexample}"
                break
    rep.add("axioms_hold_on_carrier", axioms_ok, failure)

    # 2: unique kernel tuple over each x
    kernel = _kernel_tuples(g, Y)
    cond2_ok = True
    failure = ""
    for x in range(g.X.size):
        matches = [ys for ys in kernel if _theta_at_zero(g, ys) == x]
        if len(matches) != 1:
            cond2_ok = False
            failure = f"x = {x} has kernel tuples {matches}"
            break
    rep.add("kernel_embedding_well_defined", cond2_ok, failure)

    # 3: the embedding inverse is a homomorphism
    cond3_ok = True
    failure = ""
    for name, arity in g.X.signature.ops:
        if len(kernel) ** arity > budget:
            raise SearchBudgetExceeded(f"condition 3 for {name!r} exceeds budget")
        for tuples in product(kernel, repeat=arity):
            args = tuple(g.space.pack(xs, g.B.zero) for xs in tuples)
            via_action = g.gamma[name][table_index(g.space.size, args)]
            lhs = _theta_at_zero(g, via_action)
            rhs = g.X.op(name, tuple(_theta_at_zero(g, xs) for xs in tuples))
            if lhs != rhs:
                cond3_ok = False
                failure = f"op {name!r} at kernel tuples {tuples}: {lhs} != {rhs}"
                break
        if not cond3_ok:
            break
    rep.add("kernel_embedding_homomorphism", cond3_ok, failure)

    # 4: coordinate projections witness the decomposition
    cond4_ok = True
    failure = ""
    if len(kernel) ** g.n * g.B.size > budget:
        raise SearchBudgetExceeded("condition 4 exceeds budget")
    for tuples in product(kernel, repeat=g.n):
        xs_star = tuple(_theta_at_zero(g, ys) for ys in tuples)
        for b in range(g.B.size):
            if g.space.pack(xs_star, b) not in y_pos:
                continue
            args = tuple(g.space.pack(ys, g.B.zero) for ys in tuples)
            args += (g.space.pack((g.X.zero,) * g.n, b),)
            got = g.space.unpack(ops.eval(g.theta, args))[0]
            if got != xs_star:
                cond4_ok = False
                failure = f"kernel tuples {tuples}, base {b}: {got} != {xs_star}"
                break
        if not cond4_ok:
            break
    rep.add("projection_witness", cond4_ok, failure)
    return rep, _Carrier(Y, y_pos, kernel, YA)


def check_conditions(g: GammaData, budget: int = DEFAULT_BUDGET) -> Report:
    """The four validity conditions, each with a first counterexample.

    Condition 1 includes closure of the carrier under the candidate
    operations; without closure the identities cannot even be stated on it.
    """
    return _checked(g, budget)[0]


def build_extension_from_gamma(g: GammaData,
                               budget: int = DEFAULT_BUDGET) -> tuple[SplitExtension, Witness]:
    """Assemble the split extension over the carved-out carrier.

    Raises ConditionsFailed unless all four conditions pass, and
    IotaNotInY when some zero-tuple (0, .., 0, b) is missing from the
    carrier (the section of the reconstructed extension is the zero-tuple
    injection; its membership is not implied by the four conditions).
    The result is revalidated before being returned.
    """
    rep, carrier = _checked(g, budget)
    if not rep.ok:
        raise ConditionsFailed(rep)
    Y, y_pos = carrier.Y, carrier.y_pos

    missing = [b for b in range(g.B.size)
               if g.space.pack((g.X.zero,) * g.n, b) not in y_pos]
    if missing:
        raise IotaNotInY(f"zero-tuple section misses the carrier at base {missing}")

    k_vals = []
    for x in range(g.X.size):
        ys = next(t for t in carrier.kernel if _theta_at_zero(g, t) == x)
        k_vals.append(y_pos[g.space.pack(ys, g.B.zero)])
    k = FnTable(g.X.size, len(Y), tuple(k_vals))
    p = FnTable(len(Y), g.B.size, tuple(g.space.unpack(z)[1] for z in Y))
    s = FnTable(g.B.size, len(Y),
                tuple(y_pos[g.space.pack((g.X.zero,) * g.n, b)]
                      for b in range(g.B.size)))
    ext = SplitExtension(g.X, carrier.algebra, g.B, k, p, s)

    q = tuple(
        FnTable(len(Y), g.X.size,
                tuple(g.space.unpack(z)[0][i] for z in Y))
        for i in range(g.n)
    )
    w = Witness(g.n, q)

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
