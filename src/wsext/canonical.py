"""Canonical form of a witnessed split extension.

The middle algebra A maps into the ambient tuple space X^n x B by
psi(a) = (q_1(a), .., q_n(a), p(a)) and back by
phi(x_1, .., x_n, b) = theta(k x_1, .., k x_n, s b).  Since phi o psi is
the identity, A is isomorphic to the subset Y = im(psi), which is also
cut out by the fixpoint condition q_i(phi(z)) = z_i.  Operations are
transported along the bijection; their first n output coordinates are the
per-operation action tables (gamma), their last coordinate is computed in
B.  This module builds that form, verifies the isomorphism, and computes
the four-map decomposition of the binary action for the monoid witness
term x + z + y.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

from .ambient import CandidateOps, TupleSpace
from .algebra import DEFAULT_BUDGET, FiniteAlgebra, FnTable, table_index
from .errors import (
    InternalCheckFailed,
    SearchBudgetExceeded,
    WrongSignature,
    WrongTheta,
)
from .extension import (
    SplitExtension,
    Witness,
    phi,
    require_valid,
    require_witness,
)
from .report import Report
from .terms import TermSpec, ThetaSpec, check_theta_admissible


def ambient_space(e: SplitExtension, n: int) -> TupleSpace:
    return TupleSpace(e.X.size, n, e.B.size)


def psi(e: SplitExtension, w: Witness) -> FnTable:
    """Tabulate a -> (q_1(a), .., q_n(a), p(a)) as ambient indices."""
    space = ambient_space(e, w.n)
    return FnTable(e.A.size, space.size,
                   tuple(space.pack(w.values_at(a), e.p(a)) for a in range(e.A.size)))


@dataclass(frozen=True)
class CanonicalExtension:
    """The subset Y with transported operations and structure maps.

    Y is stored as a lex-ordered tuple of (x_1, .., x_n, b) tuples; every
    FnTable whose codomain is Y uses positions in that list.  The gamma
    tables are defined on the full ambient space, not only on Y.
    """

    X: FiniteAlgebra
    B: FiniteAlgebra
    n: int
    theta: ThetaSpec
    Y: tuple[tuple[int, ...], ...]
    ops_Y: dict[str, tuple[int, ...]]
    k_prime: FnTable
    pi_B: FnTable
    iota_B: FnTable
    gamma: dict[str, tuple[tuple[int, ...], ...]]
    gamma_id: tuple[tuple[int, ...], ...]

    @property
    def space(self) -> TupleSpace:
        return TupleSpace(self.X.size, self.n, self.B.size)

    def y_algebra(self) -> FiniteAlgebra:
        """Y with its transported operations, as a finite algebra."""
        return FiniteAlgebra(self.X.signature, len(self.Y), self.ops_Y)

    def candidate_ops(self) -> CandidateOps:
        return CandidateOps(self.space, self.gamma, self.B, self.X.zero)


def build_canonical(e: SplitExtension, theta: ThetaSpec, w: Witness,
                    budget: int = DEFAULT_BUDGET) -> CanonicalExtension:
    """Construct Y, the transported operations, the action tables, and the
    structure maps from a validated, normalized witness.

    The transported operations are computed along the bijection and
    cross-checked against the action-table description; Y is computed from
    the image of psi and cross-checked against both fixpoint definitions.
    Any mismatch is an internal invariant failure, not a user error.
    Raises SearchBudgetExceeded when the action tables would hold more
    than ``budget`` entries.
    """
    require_valid(e)
    require_witness(e, theta, w, normalized=True)
    n = theta.n
    space = ambient_space(e, n)
    entries = sum(space.size ** arity for _, arity in e.A.signature.ops)
    if entries > budget:
        raise SearchBudgetExceeded(
            f"action tables need {entries} entries, budget is {budget}")
    psi_t = psi(e, w)
    phi_t = phi(e, theta)

    for a in range(e.A.size):
        if phi_t(psi_t(a)) != a:
            raise InternalCheckFailed(f"phi(psi({a})) = {phi_t(psi_t(a))}")

    y_indices = sorted(set(psi_t.values))
    if len(y_indices) != e.A.size:
        raise InternalCheckFailed("psi is not injective")
    Y = tuple(space.unpack(z)[0] + (space.unpack(z)[1],) for z in y_indices)
    y_pos = {z: i for i, z in enumerate(y_indices)}

    # action tables on the full ambient space, by flat composition:
    # gamma_op(z_1, .., z_r) = q(op_A(phi z_1, .., phi z_r)), read through
    # the row-major index of (phi z_1, .., phi z_r) in the table of A
    q_of = [w.values_at(a) for a in range(e.A.size)]
    phis = phi_t.values
    gamma: dict[str, tuple[tuple[int, ...], ...]] = {}
    for name, arity in e.A.signature.ops:
        idx = [0]
        for _ in range(arity):
            idx = [i * e.A.size + pz for i in idx for pz in phis]
        table = e.A.tables[name]
        gamma[name] = tuple(q_of[table[i]] for i in idx)
    gamma_id = tuple(q_of[a] for a in phis)

    # transported operations on Y, cross-checked against the gamma form
    ops_Y: dict[str, tuple[int, ...]] = {}
    for name, arity in e.A.signature.ops:
        values = []
        for args in product(range(len(Y)), repeat=arity):
            ambient_args = tuple(y_indices[i] for i in args)
            a_val = e.A.op(name, tuple(phi_t(z) for z in ambient_args))
            z_out = psi_t(a_val)
            xs_expected = gamma[name][table_index(space.size, ambient_args)]
            b_expected = e.B.op(name, tuple(space.unpack(z)[1] for z in ambient_args))
            if space.unpack(z_out) != (xs_expected, b_expected):
                raise InternalCheckFailed(
                    f"transported {name!r} disagrees with its action table at {args}")
            values.append(y_pos[z_out])
        ops_Y[name] = tuple(values)

    k_prime_vals = []
    for x in range(e.X.size):
        z = psi_t(e.k(x))
        # unique (ys, 0_B) in Y with theta_X(ys, 0_X) = x
        matches = [i for i, t in enumerate(Y)
                   if t[-1] == e.B.zero and theta.eval(e.X, t[:-1] + (e.X.zero,)) == x]
        if matches != [y_pos[z]]:
            raise InternalCheckFailed(
                f"kernel embedding at {x}: expected unique {y_pos[z]}, found {matches}")
        k_prime_vals.append(y_pos[z])
    k_prime = FnTable(e.X.size, len(Y), tuple(k_prime_vals))

    pi_B = FnTable(len(Y), e.B.size, tuple(t[-1] for t in Y))
    iota_B = FnTable(e.B.size, len(Y),
                     tuple(y_pos[psi_t(e.s(b))] for b in range(e.B.size)))

    c = CanonicalExtension(e.X, e.B, n, theta, Y, ops_Y, k_prime, pi_B, iota_B,
                           gamma, gamma_id)

    # fixpoint definition of Y must reproduce the image of psi
    if membership_by_gamma_id(c) != y_indices:
        raise InternalCheckFailed("fixpoint carrier differs from the image of psi")

    # third carrier definition: retraction through the candidate operations
    via_theta = membership_by_term(c, budget=budget)
    if via_theta != y_indices:
        raise InternalCheckFailed("candidate-operation carrier differs from im(psi)")
    return c


def membership_by_gamma_id(c: CanonicalExtension) -> list[int]:
    """Ambient indices satisfying the stored fixpoint condition."""
    return [z for z in c.space.indices()
            if c.gamma_id[z] == c.space.unpack(z)[0]]


def membership_by_term(c, omega: Optional[TermSpec] = None,
                       budget: int = DEFAULT_BUDGET) -> list[int]:
    """Ambient indices z whose first n coordinates are reproduced by
    evaluating ``omega`` (default: the witness term) in the candidate
    operations with every other argument at the zero tuple.

    ``c`` is a CanonicalExtension or raw action data (``gammabuild.GammaData``):
    anything with ``X``, ``B``, ``theta``, ``space`` and ``candidate_ops()``.
    Any term acting as the identity when its non-distinguished arguments
    are zero defines the same subset on genuine extension data; the term
    is validated to have that unit property on X and B (WrongTheta).
    Raises SearchBudgetExceeded when |X^n x B| exceeds ``budget``.
    """
    if c.space.size > budget:
        raise SearchBudgetExceeded(
            f"membership test needs {c.space.size} ambient tuples, budget is {budget}")
    omega = omega or c.theta
    for alg, label in ((c.X, "kernel"), (c.B, "base")):
        if not check_theta_admissible(omega, alg):
            raise WrongTheta(
                f"membership term lacks the unit property on the {label} algebra")
    ops = c.candidate_ops()
    return [z for z in c.space.indices()
            if c.space.unpack(ops.retract(omega, z))[0] == c.space.unpack(z)[0]]


def gamma_table(c: CanonicalExtension, omega: TermSpec,
                budget: int = DEFAULT_BUDGET) -> tuple[tuple[int, ...], ...]:
    """Action table of an arbitrary term: evaluate it in the candidate
    operations over every ambient argument tuple and keep the first n
    output coordinates.  For a single basic operation this reproduces the
    stored table.  Raises SearchBudgetExceeded when the table would hold
    more than ``budget`` entries, |X^n x B|^arity."""
    needed = c.space.size ** omega.arity
    if needed > budget:
        raise SearchBudgetExceeded(
            f"action table needs {needed} entries, budget is {budget}")
    ops = c.candidate_ops()
    entries = []
    for args in product(c.space.indices(), repeat=omega.arity):
        entries.append(c.space.unpack(ops.eval(omega, args))[0])
    return tuple(entries)


def verify_isomorphism(e: SplitExtension, c: CanonicalExtension, w: Witness) -> Report:
    """Check that psi and phi are mutually inverse homomorphisms between A
    and (Y, ops_Y) and that all structure maps transport correctly.

    The section_transport entry compares the transported section with the
    zero-tuple injection b -> (0, .., 0, b); witnesses whose q_i do not
    vanish on the section image fail that entry (and only it)."""
    rep = Report()
    space = c.space
    psi_t = psi(e, w)
    phi_t = phi(e, c.theta)
    y_indices = [space.pack(t[:-1], t[-1]) for t in c.Y]
    y_pos = {z: i for i, z in enumerate(y_indices)}
    YA = c.y_algebra()

    bad = next((a for a in range(e.A.size) if phi_t(psi_t(a)) != a), None)
    rep.add("phi_psi_identity", bad is None,
            "" if bad is None else f"fails at a = {bad}")

    bad = next((z for z in y_indices if psi_t(phi_t(z)) != z), None)
    rep.add("psi_phi_identity_on_Y", bad is None,
            "" if bad is None else f"fails at ambient index {bad}")

    def psi_hom_failure():
        for name, arity in e.A.signature.ops:
            for args in e.A.arg_tuples(arity):
                lhs = y_pos[psi_t(e.A.op(name, args))]
                rhs = YA.op(name, tuple(y_pos[psi_t(a)] for a in args))
                if lhs != rhs:
                    return name, args
        return None

    fail = psi_hom_failure()
    rep.add("psi_homomorphism", fail is None,
            "" if fail is None else f"op {fail[0]!r} at {fail[1]}")

    def phi_hom_failure():
        for name, arity in e.A.signature.ops:
            for args in product(range(len(c.Y)), repeat=arity):
                lhs = phi_t(y_indices[YA.op(name, args)])
                rhs = e.A.op(name, tuple(phi_t(y_indices[i]) for i in args))
                if lhs != rhs:
                    return name, args
        return None

    fail = phi_hom_failure()
    rep.add("phi_homomorphism", fail is None,
            "" if fail is None else f"op {fail[0]!r} at {fail[1]}")

    k_ok = c.k_prime.values == tuple(y_pos[psi_t(e.k(x))] for x in range(e.X.size))
    rep.add("kernel_transport", k_ok)

    p_ok = all(c.pi_B(y_pos[psi_t(a)]) == e.p(a) for a in range(e.A.size))
    rep.add("quotient_transport", p_ok)

    bad = next((b for b in range(e.B.size)
                if psi_t(e.s(b)) != space.pack((e.X.zero,) * c.n, b)), None)
    rep.add("section_transport", bad is None,
            "" if bad is None else
            f"psi(s({bad})) = {space.unpack(psi_t(e.s(bad)))}, "
            f"zero-tuple injection differs")

    bad = next(((i, t) for i, t in enumerate(c.Y)
                if w.values_at(phi_t(y_indices[i])) != t[:-1]), None)
    rep.add("witness_projections", bad is None,
            "" if bad is None else f"fails at Y[{bad[0]}] = {bad[1]}")
    return rep


# -- four-map decomposition of the binary action (monoid case) -----------------

@dataclass(frozen=True)
class TriTable:
    """A table for a three-argument map with per-argument domains."""

    dims: tuple[int, int, int]
    cod_size: int
    values: tuple[int, ...]

    def __call__(self, a: int, b: int, c: int) -> int:
        return self.values[(a * self.dims[1] + b) * self.dims[2] + c]


@dataclass(frozen=True)
class SigmaTauDecomposition:
    sigma: tuple[TriTable, TriTable]
    tau: tuple[TriTable, TriTable]
    report: Report


def sigma_tau_decompose(
    e: SplitExtension,
    theta: ThetaSpec,
    w: Witness,
) -> SigmaTauDecomposition:
    """Decompose the binary action table into four simpler maps.

    Requires a monoid-shaped signature (one binary operation plus the
    constant) and the witness term x + z + y (checked semantically on the
    middle algebra).  Associativity lets the action at a pair of ambient
    tuples be rewritten through
    sigma_i(b, x, b') = q_i(s b + k x + s b') and
    tau_i(x, b, x') = q_i(k x + s b + k x'); the report checks the
    rewritten form against the direct action at every argument pair.
    """
    ops = [(nm, ar) for nm, ar in e.A.signature.ops]
    binary = [nm for nm, ar in ops if ar == 2]
    if len(binary) != 1 or len(ops) != 2:
        raise WrongSignature(
            "need exactly one binary operation and the constant, got "
            + str(ops))
    add = binary[0]
    require_valid(e)
    require_witness(e, theta, w)
    if theta.n != 2:
        raise WrongTheta(f"witness term must have arity 3, got {theta.arity}")
    for x, y, z in product(range(e.A.size), repeat=3):
        if theta.eval(e.A, (x, y, z)) != e.A.op(add, (e.A.op(add, (x, z)), y)):
            raise WrongTheta(
                "witness term is not x + z + y on the middle algebra")

    def add_in(alg: FiniteAlgebra, u: int, v: int) -> int:
        return alg.op(add, (u, v))

    def sum_A(*vals: int) -> int:
        acc = vals[0]
        for v in vals[1:]:
            acc = add_in(e.A, acc, v)
        return acc

    def sigma_val(i: int, b: int, x: int, bp: int) -> int:
        return w.q[i](sum_A(e.s(b), e.k(x), e.s(bp)))

    def tau_val(i: int, x: int, b: int, xp: int) -> int:
        return w.q[i](sum_A(e.k(x), e.s(b), e.k(xp)))

    nX, nB = e.X.size, e.B.size
    sigma = tuple(
        TriTable((nB, nX, nB), nX,
                 tuple(sigma_val(i, b, x, bp)
                       for b in range(nB) for x in range(nX) for bp in range(nB)))
        for i in range(2)
    )
    tau = tuple(
        TriTable((nX, nB, nX), nX,
                 tuple(tau_val(i, x, b, xp)
                       for x in range(nX) for b in range(nB) for xp in range(nX)))
        for i in range(2)
    )

    rep = Report()
    bad = None
    for x11, x21, b1 in product(range(nX), range(nX), range(nB)):
        for x12, x22, b2 in product(range(nX), range(nX), range(nB)):
            u1 = theta.eval(e.A, (e.k(x11), e.k(x21), e.s(b1)))
            u2 = theta.eval(e.A, (e.k(x12), e.k(x22), e.s(b2)))
            direct = tuple(w.q[i](add_in(e.A, u1, u2)) for i in range(2))
            mid = add_in(e.X, x21, x12)
            bb = add_in(e.B, b1, b2)
            left = add_in(e.X, x11, sigma[0](b1, mid, b2))
            right = add_in(e.X, sigma[1](b1, mid, b2), x22)
            composed = tuple(tau[i](left, bb, right) for i in range(2))
            if direct != composed:
                bad = ((x11, x21, b1), (x12, x22, b2), direct, composed)
                break
        if bad:
            break
    rep.add("decomposition_identity", bad is None,
            "" if bad is None else
            f"args {bad[0]} , {bad[1]}: direct {bad[2]} != composed {bad[3]}")
    return SigmaTauDecomposition(sigma, tau, rep)
