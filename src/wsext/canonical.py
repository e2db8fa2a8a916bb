"""Canonical form of a witnessed split extension.

The middle algebra A maps into the ambient tuple space X^n x B by
psi(a) = (q_1(a), .., q_n(a), p(a)) and back by
phi(x_1, .., x_n, b) = theta(k x_1, .., k x_n, s b).  Since phi o psi is
the identity, A is isomorphic to the subset Y = im(psi).  Transported
along the bijection, the operations give the per-operation action tables
(gamma).  Y is read off that action data (``ambient.carrier``), and the
form holds X -> Y -> B as one split extension: Y's operations, the kernel
embedding k', the base coordinate pi_B and the section iota_B = psi o s.
``gammabuild`` rebuilds it from the data alone, with the zero-tuple
section in place of iota_B.  ``verify_isomorphism`` checks the form
against psi and phi.  This module builds that form, verifies the
isomorphism, and computes the four-map decomposition of the binary action
for the monoid witness term x + z + y.  The action-data layer is
``ambient``.
"""

from __future__ import annotations

from typing import Sequence

from .ambient import ActionData, ActionTable, carrier
from .algebra import (
    DEFAULT_BUDGET,
    Equation,
    FiniteAlgebra,
    FnTable,
    _gather,
    _square_failure,
    ambient_space,
    check_equation,
    fold,
    grid_blocks,
    tabulate_grid,
)
from .errors import (
    InternalCheckFailed,
    WrongSignature,
    WrongTheta,
    charge,
)
from .extension import (
    SplitExtension,
    Witness,
    _comparison,
    phi,
    require_valid,
    require_witness,
)
from .report import Record, Report, _once
from .terms import App, TermSpec, ThetaSpec, Var


@_once
def psi(e: SplitExtension, w: Witness) -> FnTable:
    """Tabulate a -> (q_1(a), .., q_n(a), p(a)) as ambient indices."""
    space = ambient_space(e, w.n)
    return FnTable(e.A.size, space.size,
                   tuple(space.pack(w.values_at(a), e.p(a)) for a in range(e.A.size)))


class CanonicalExtension(ActionData):
    """The action data of a witnessed extension with the subset Y it cuts
    out and the split extension X -> Y -> B on it.

    Y is stored as a lex-ordered tuple of (x_1, .., x_n, b) tuples; every
    FnTable whose codomain is Y uses positions in that list.  ``extension``
    has Y's transported operations, k', pi_B and iota_B = psi o s.  The
    gamma tables are ActionTables on the full ambient space, not only on Y.
    """

    Y: tuple[tuple[int, ...], ...]
    extension: SplitExtension
    gamma_id: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not (self.X == self.extension.X and self.B == self.extension.B):
            raise InternalCheckFailed("the action data and the extension differ in X or B")


def _action_table(A: FiniteAlgebra, name: str, arity: int, phis: Sequence[int],
                  q_of: Sequence[tuple[int, ...]]) -> ActionTable:
    """gamma_op(z_1, .., z_r) = q(op_A(phi z_1, .., phi z_r)), by its rows.

    The leaf row at the A-values (a_1, .., a_{r-1}) of the leading
    arguments is the map q o op_A(a_1, .., a_{r-1}, -) on A read at phi, so
    each distinct map is read once, as the row keyed by its number; phi is
    onto, so these are the distinct leaf rows."""
    table = A.tables[name]
    if arity == 0:
        return ActionTable((0,), {0: (q_of[table[0]],)})
    prefixes = fold([A.size] * (arity - 1), [phis] * (arity - 1))
    keys: dict[tuple, int] = {}  # each distinct map -> its number
    key_of = {i: keys.setdefault(_gather(table[i * A.size:(i + 1) * A.size])(q_of), len(keys))
              for i in dict.fromkeys(prefixes)}
    at_phi = _gather(phis)
    return ActionTable(list(map(key_of.__getitem__, prefixes)),
                       {k: at_phi(f) for f, k in keys.items()})


def build_canonical(e: SplitExtension, theta: ThetaSpec, w: Witness,
                    budget: int = DEFAULT_BUDGET) -> CanonicalExtension:
    """Construct the canonical form from a validated, normalized witness:
    the action tables by transport along psi and phi, then Y, its
    operations, k' and pi_B read off them (``ambient.carrier``) and iota_B
    as psi o s, the split extension X -> Y -> B.  ``verify_isomorphism``,
    which canonicalize always runs, checks the form against the witness; a
    library caller of this function alone gets no self-check.

    Raises InternalCheckFailed, which only a bug reaches, when Y is not
    closed, some x has no unique kernel tuple or some psi(s(b)) lies
    outside Y; SearchBudgetExceeded when the action tables would hold more
    than ``budget`` entries.
    """
    require_valid(e)
    require_witness(e, theta, w, normalized=True)
    space = ambient_space(e, theta.n)
    entries = sum(space.size ** arity for _, arity in e.A.signature.ops)
    charge(entries, budget, f"action tables need {entries} entries, budget is {budget}")
    phis = phi(e, theta).values
    q_of = [w.values_at(a) for a in range(e.A.size)]
    gamma = {name: _action_table(e.A, name, arity, phis, q_of)
             for name, arity in e.A.signature.ops}

    car = carrier(ActionData(e.X, e.B, theta, gamma), budget)
    if car.closure_failure:
        raise InternalCheckFailed(car.closure_failure)
    if car.k is None:
        raise InternalCheckFailed(f"kernel embedding not unique: {car.kernel_failure}")
    section = list(map(psi(e, w), e.s.values))
    bad = next((b for b, z in enumerate(section) if z not in car.y_pos), None)
    if bad is not None:
        raise InternalCheckFailed(
            f"psi(s({bad})) = {space.unpack(section[bad])} lies outside the carrier")
    Y = tuple((*xs, b) for xs, b in map(space.unpack, car.Y))
    iota = FnTable(e.B.size, len(Y), tuple(map(car.y_pos.__getitem__, section)))
    return CanonicalExtension(e.X, e.B, theta, gamma, Y,
                              SplitExtension(e.X, car.algebra, e.B, car.k, car.p, iota),
                              _gather(phis)(q_of))


def verify_isomorphism(e: SplitExtension, c: CanonicalExtension, w: Witness) -> Report:
    """Check that psi and phi are mutually inverse homomorphisms between A
    and the form's Y with its operations, and that all structure maps
    transport correctly.

    The section_transport entry compares the transported section with the
    zero-tuple injection b -> (0, .., 0, b); witnesses whose q_i do not
    vanish on the section image fail that entry (and only it).  Where
    psi(a) lies outside Y (a witness that does not belong to ``c``), the
    entries that need its position in Y fail."""
    rep = Report()
    space = c.space
    psi_t = psi(e, w)
    phi_t = phi(e, c.theta)
    y_indices = [space.pack(t[:-1], t[-1]) for t in c.Y]
    y_pos = {z: i for i, z in enumerate(y_indices)}
    YA = c.extension.A

    bad = next((a for a in range(e.A.size) if phi_t(psi_t(a)) != a), None)
    rep.add("phi_psi_identity", bad is None,
            "" if bad is None else f"fails at a = {bad}")

    bad = next((z for z in y_indices if psi_t(phi_t(z)) != z), None)
    rep.add("psi_phi_identity_on_Y", bad is None,
            "" if bad is None else f"fails at ambient index {bad}")

    # psi and phi as maps between A and Y (psi_Y is None where psi leaves Y)
    psi_Y = [y_pos.get(z) for z in psi_t.values]
    phi_Y = [phi_t(z) for z in y_indices]
    for label, fail in (("psi_homomorphism", _square_failure(psi_Y, e.A, YA)),
                        ("phi_homomorphism", _square_failure(phi_Y, YA, e.A))):
        rep.add(label, fail is None,
                "" if fail is None else f"op {fail[0]!r} at {fail[1]}")

    k_ok = c.extension.k.values == tuple(psi_Y[a] for a in e.k.values)
    rep.add("kernel_transport", k_ok)

    p_ok = all(y is not None and c.extension.p(y) == e.p(a) for a, y in enumerate(psi_Y))
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

class TriTable(Record):
    """A table for a three-argument map with per-argument domains."""

    dims: tuple[int, int, int]
    cod_size: int
    values: tuple[int, ...]

    def __call__(self, a: int, b: int, c: int) -> int:
        return self.values[(a * self.dims[1] + b) * self.dims[2] + c]


class SigmaTauDecomposition(Record):
    sigma: tuple[TriTable, TriTable]
    tau: tuple[TriTable, TriTable]
    report: Report


def sigma_tau_decompose(
    e: SplitExtension,
    theta: ThetaSpec,
    w: Witness,
    budget: int = DEFAULT_BUDGET,
) -> SigmaTauDecomposition:
    """Decompose the binary action table into four simpler maps.

    Requires a monoid-shaped signature (one binary operation plus the
    constant) and the witness term x + z + y (checked semantically on the
    middle algebra).  Associativity lets the action at a pair of ambient
    tuples be rewritten through
    sigma_i(b, x, b') = q_i(s b + k x + s b') and
    tau_i(x, b, x') = q_i(k x + s b + k x'); the report checks the
    rewritten form against the direct action at every argument pair.
    Raises SearchBudgetExceeded when the |A|^3 term evaluations of the
    x + z + y check plus the (|X|^2 |B|)^2 argument pairs exceed ``budget``.
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
    cost = e.A.size ** 3 + (e.X.size ** 2 * e.B.size) ** 2
    charge(cost, budget, f"decomposition needs {cost} evaluations, budget is {budget}")
    x, y, z = map(Var, theta.vars)
    if not check_equation(e.A, Equation(theta.vars, theta.term,
                                        App(add, (App(add, (x, z)), y)))):
        raise WrongTheta("witness term is not x + z + y on the middle algebra")

    # sigma_i(b, x, b') = q_i(s b + k x + s b'), tau_i(x, b, x') = q_i(k x + s b + k x'):
    # (x + y) + z in A over the axes (s, k, s) and (k, s, k), read by each q_i
    nX, nB = e.X.size, e.B.size
    k, s = e.k.values, e.s.values
    sum3 = TermSpec(theta.vars, App(add, (App(add, (x, y)), z)))

    def tables(maps) -> tuple[TriTable, TriTable]:
        sums = tabulate_grid(sum3, e.A, maps)
        dims = tuple(map(len, maps))
        return tuple(TriTable(dims, nX, _gather(sums)(qi.values)) for qi in w.q)

    sigma = tables((s, k, s))
    tau = tables((k, s, k))

    # the direct action against its rewritten form, block by block over
    # the argument pairs in lex order
    bad, names = None, "x11 x21 b1 x12 x22 b2".split()
    for x11, x21, b1, x12, x22, b2 in grid_blocks(names, list(map(Var, names)), e.A,
                                                 list(map(range, (nX, nX, nB))) * 2):
        points = len(x11)
        at_sum = _gather(e.A.columns(add, [_comparison(e, theta, [x11, x21], b1),
                                           _comparison(e, theta, [x12, x22], b2)], points))
        direct = list(zip(*(at_sum(qi.values) for qi in w.q)))
        mid = e.X.columns(add, [x21, x12], points)
        at_sigma = _gather([(a * nX + b) * nB + c for a, b, c in zip(b1, mid, b2)])
        left = e.X.columns(add, [x11, at_sigma(sigma[0].values)], points)
        right = e.X.columns(add, [at_sigma(sigma[1].values), x22], points)
        bb = e.B.columns(add, [b1, b2], points)
        at_tau = _gather([(a * nB + b) * nX + c for a, b, c in zip(left, bb, right)])
        composed = list(zip(*(at_tau(t.values) for t in tau)))
        if direct != composed:
            j = next(j for j, (d, c) in enumerate(zip(direct, composed)) if d != c)
            bad = ((x11[j], x21[j], b1[j]), (x12[j], x22[j], b2[j]), direct[j], composed[j])
            break
    rep = Report()
    rep.add("decomposition_identity", bad is None,
            "" if bad is None else
            f"args {bad[0]} , {bad[1]}: direct {bad[2]} != composed {bad[3]}")
    return SigmaTauDecomposition(sigma, tau, rep)
