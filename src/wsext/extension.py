"""Split extensions of finite pointed algebras and their tuple witnesses.

A split extension is a diagram  X --k--> A --p--> B  with a section s of
p, where k is injective with image exactly the preimage of B's zero.  A
witness for the term theta (arity n+1) is an n-tuple of plain functions
q_i : A -> X satisfying  theta(k q_1(a), .., k q_n(a), s p(a)) = a.

Everything here derives from one map, the comparison map
phi(x_1, .., x_n, b) = theta(k x_1, .., k x_n, s b) on X^n x B, tabulated
flat over the ambient tuples, one block of them at a time.  A witness
picks a preimage in each fibre of phi, so the feasible kernel tuples T(a)
are the xs with phi(xs, p(a)) = a, read off the table in one pass instead
of a search over function space; the extension is Schreier iff phi is a
bijection onto A.  One fibre walk does that pass for every witness query
(admissibility, budget, the pass and the pin of 0_A, each once):
feasible_tuples lists the fibres, count_witnesses multiplies their sizes
and find_witnesses enumerates the lexicographic product of the fibres,
elements of A in increasing index, decoding only the rows it returns.
"""

from __future__ import annotations

from itertools import compress, cycle, islice, product
from math import prod
from operator import eq
from typing import Optional, Sequence

from .algebra import (
    DEFAULT_BUDGET,
    Equation,
    FiniteAlgebra,
    FnTable,
    _tabulate,
    check_equation,
    is_homomorphism,
    require_admissible,
    tabulate_grid,
)
from .ambient import ambient_space
from .errors import (
    AlphaAxiomFailed,
    ExtensionInvalid,
    InternalCheckFailed,
    KernelPreimageMissing,
    SignatureMismatch,
    SizeMismatch,
    WitnessInvalid,
    charge,
)
from .report import CheckResult, Record, Report, _once
from .terms import App, TermSpec, ThetaSpec, Var, substitute


class SplitExtension(Record):
    """X --k--> A --p/s-- B over a shared signature.

    Only size and signature coherence is enforced at construction; the
    algebraic laws are checked by validate_split_extension.
    """

    X: FiniteAlgebra
    A: FiniteAlgebra
    B: FiniteAlgebra
    k: FnTable
    p: FnTable
    s: FnTable

    def __post_init__(self):
        if not (self.X.signature == self.A.signature == self.B.signature):
            raise SignatureMismatch("X, A, B must share a signature")
        shapes = (
            ("k", self.k, self.X.size, self.A.size),
            ("p", self.p, self.A.size, self.B.size),
            ("s", self.s, self.B.size, self.A.size),
        )
        for name, f, dom, cod in shapes:
            if f.dom_size != dom or f.cod_size != cod:
                raise SizeMismatch(
                    f"{name} is {f.dom_size}->{f.cod_size}, expected {dom}->{cod}")


@_once
def validate_split_extension(e: SplitExtension) -> Report:
    """Check every split-extension law; failures become report entries."""
    rep = Report()
    for name, f, dom, cod in (("k", e.k, e.X, e.A), ("p", e.p, e.A, e.B),
                              ("s", e.s, e.B, e.A)):
        res = is_homomorphism(f, dom, cod)
        rep.add(f"{name}_homomorphism", res.ok,
                "" if res.ok else str(res.counterexample))

    bad_b = next((b for b in range(e.B.size) if e.p(e.s(b)) != b), None)
    rep.add("section_law", bad_b is None,
            "" if bad_b is None else f"p(s({bad_b})) = {e.p(e.s(bad_b))}")

    ok = e.k.is_injective()
    rep.add("k_injective", ok, "" if ok else f"k values {list(e.k.values)}")

    kernel = [a for a in range(e.A.size) if e.p(a) == e.B.zero]
    image = e.k.image()
    rep.add("kernel_image", kernel == image,
            "" if kernel == image else f"p^-1(0) = {kernel}, im k = {image}")

    kz = e.k(e.X.zero)
    rep.add("zero_preserved", kz == e.A.zero,
            "" if kz == e.A.zero else f"k({e.X.zero}) = {kz} != {e.A.zero}")
    return rep


def require_valid(e: SplitExtension) -> None:
    rep = validate_split_extension(e)
    if not rep.ok:
        raise ExtensionInvalid(rep)


class Witness(Record):
    """An n-tuple of functions q_i : A -> X certifying the decomposition."""

    n: int
    q: tuple[FnTable, ...]

    def __post_init__(self):
        object.__setattr__(self, "q", tuple(self.q))
        if self.n < 1:
            raise SizeMismatch(f"witness n must be at least 1, got {self.n}")
        if len(self.q) != self.n:
            raise SizeMismatch(f"expected {self.n} component maps, got {len(self.q)}")

    def values_at(self, a: int) -> tuple[int, ...]:
        return tuple(qi(a) for qi in self.q)

    def arrays(self) -> tuple[tuple[int, ...], ...]:
        return tuple(qi.values for qi in self.q)


def _comparison(e: SplitExtension, theta: ThetaSpec, x_columns: Sequence[Sequence[int]],
                b_column: Sequence[int]) -> list[int]:
    """phi over columns that are not a grid (a witness's own, the argument
    pairs of sigma_tau_decompose): theta evaluated in A, entry by entry,
    at k of each kernel column and s of the base column."""
    k, s = e.k.values, e.s.values
    columns = [[k[x] for x in col] for col in x_columns] + [[s[b] for b in b_column]]
    return _tabulate(theta.term, e.A, dict(zip(theta.vars, columns)), len(b_column))


@_once
def _admissible(e: SplitExtension, theta: ThetaSpec) -> None:
    require_admissible(theta, e.A, "middle algebra")


@_once
def phi(e: SplitExtension, theta: ThetaSpec) -> FnTable:
    """Tabulate the comparison map (x_1, .., x_n, b) -> theta(k x_1, .., k x_n, s b)
    over the ambient tuples of X^n x B in lex order: theta in A over the
    grid of k's values n times, then s's."""
    _admissible(e, theta)
    values = tabulate_grid(theta, e.A, [e.k.values] * theta.n + [e.s.values])
    return FnTable(len(values), e.A.size, tuple(values))


def validate_witness(
    e: SplitExtension,
    theta: ThetaSpec,
    w: Witness,
    normalized: bool = False,
) -> CheckResult:
    """Check the defining equation at every element of A: the column kernel
    of phi over the witness's own columns (q_1, .., q_n, p) must return a.

    With ``normalized`` also require q_i(0_A) = 0_X for every component.
    """
    if w.n != theta.n:
        return CheckResult(False, {"reason": "arity", "witness_n": w.n, "theta_n": theta.n})
    for qi in w.q:
        if qi.dom_size != e.A.size or qi.cod_size != e.X.size:
            return CheckResult(False, {"reason": "shape"})
    got = _comparison(e, theta, w.arrays(), e.p.values)
    bad = next((a for a, v in enumerate(got) if v != a), None)
    if bad is not None:
        return CheckResult(False, {"a": bad, "value": got[bad]})
    if normalized:
        vals = w.values_at(e.A.zero)
        if vals != (e.X.zero,) * w.n:
            return CheckResult(False, {"a": e.A.zero, "tuple": list(vals),
                                       "reason": "not normalized"})
    return CheckResult(True)


def require_witness(e: SplitExtension, theta: ThetaSpec, w: Witness,
                    normalized: bool = False) -> None:
    res = validate_witness(e, theta, w, normalized=normalized)
    if not res:
        raise WitnessInvalid(f"witness fails at {res.counterexample}")


@_once
def _fibres(e: SplitExtension, theta: ThetaSpec, normalize: bool,
            budget: int) -> list[list[int]]:
    """The fibre walk behind every witness query: per element a of A, the
    rows r (indices of kernel tuples xs_r in lex order) with
    phi(xs_r, p(a)) = a, in increasing order.

    One walk, in this order: theta's admissibility on A; the budget, which
    caps |A| * |X|^n, the size of the search the table replaces; one pass
    over phi, laid out as |X|^n rows by |B| columns, keeping the entries z
    with p(phi(z)) = b(z), each in the fibre of phi(z); and, with
    ``normalize``, the pin of 0_A to the all-zero row, which lies in its
    fibre whenever theta is admissible on A: phi(0, .., 0, p(0_A)) = 0_A.
    """
    _admissible(e, theta)
    cost = e.A.size * e.X.size ** theta.n
    charge(cost, budget, f"witness feasibility needs {cost} evaluations, budget is {budget}")
    values = phi(e, theta).values
    nb = e.B.size
    in_fibre = map(eq, map(e.p.values.__getitem__, values), cycle(range(nb)))
    fibres: list[list[int]] = [[] for _ in range(e.A.size)]
    for z in compress(range(len(values)), in_fibre):
        fibres[values[z]].append(z // nb)
    if normalize:
        zero = ambient_space(e, theta.n).pack((e.X.zero,) * theta.n, e.p(e.A.zero))
        if values[zero] != e.A.zero:
            raise InternalCheckFailed(
                "all-zero tuple infeasible at 0_A despite admissible theta")
        fibres[e.A.zero] = [zero // nb]
    return fibres


def feasible_tuples(
    e: SplitExtension,
    theta: ThetaSpec,
    normalize: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> list[list[tuple[int, ...]]]:
    """Per element a, the lexicographic list T(a) of kernel tuples xs with
    theta(k xs, s p(a)) = a: the rows of the fibre walk as kernel tuples.
    With ``normalize``, the zero element of A admits only the all-zero
    tuple.  Raises SearchBudgetExceeded when |A| * |X|^n exceeds
    ``budget``."""
    xs_of = ambient_space(e, theta.n).kernel_tuples
    return [[xs_of[r] for r in rows] for rows in _fibres(e, theta, normalize, budget)]


def count_witnesses(
    e: SplitExtension,
    theta: ThetaSpec,
    normalize: bool = True,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Number of witnesses = product over a of |T(a)| (0 if any is empty),
    the fibre sizes of the fibre walk; no kernel tuple is materialized."""
    return prod(map(len, _fibres(e, theta, normalize, budget)))


def find_witnesses(
    e: SplitExtension,
    theta: ThetaSpec,
    normalize: bool = True,
    limit: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
) -> list[Witness]:
    """Enumerate witnesses as choice functions through the T(a) lists.

    Order: elements a in increasing index are the significant positions;
    tuples within each T(a) are tried in lexicographic order.  Returns []
    exactly when some T(a) is empty.  Raises SearchBudgetExceeded when
    more than ``budget`` witnesses would be materialized.  The choices
    are taken over the rows of the fibre walk, and only the rows of the
    witnesses returned are decoded to kernel tuples: the first ``limit``
    choices, the last element varying fastest, read at most ``limit``
    rows of each fibre.
    """
    fibres = _fibres(e, theta, normalize, budget)
    total = prod(map(len, fibres))
    cost = total if limit is None else min(total, limit)
    charge(cost, budget, f"would materialize {cost} witnesses, budget is {budget}")
    # row r is the kernel tuple with coordinate i = r // |X|^(n-1-i) % |X|
    n, size = theta.n, e.X.size
    strides = [size ** (n - 1 - i) for i in range(n)]
    return [Witness(n, tuple(FnTable(e.A.size, size, tuple(r // stride % size for r in rows))
                             for stride in strides))
            for rows in islice(product(*(rows[:limit] for rows in fibres)), limit)]


def semiabelian_witness(
    e: SplitExtension,
    theta: ThetaSpec,
    alphas: Sequence[TermSpec],
) -> Witness:
    """Witness built from binary difference-style terms.

    The terms must satisfy alpha_i(x, x) = 0 and
    theta(alpha_1(x,y), .., alpha_n(x,y), y) = x on A (checked
    exhaustively); then k q_i(a) = alpha_i(a, s p(a)) lands in the kernel
    and the returned q_i are its k-preimages.
    """
    require_valid(e)
    _admissible(e, theta)
    if len(alphas) != theta.n:
        raise AlphaAxiomFailed(f"expected {theta.n} binary terms, got {len(alphas)}")
    x, y = Var("x"), Var("y")
    zero = App(e.A.signature.constant_name, ())
    differences = []
    for i, alpha in enumerate(alphas):
        if alpha.arity != 2:
            raise AlphaAxiomFailed(f"term {i + 1} has arity {alpha.arity}, expected 2")
        differences.append(substitute(alpha.term, dict(zip(alpha.vars, (x, y)))))
        res = check_equation(e.A, Equation(
            ("x",), substitute(alpha.term, dict.fromkeys(alpha.vars, x)), zero))
        if not res:
            v, got = res.counterexample["assignment"]["x"], res.counterexample["lhs"]
            raise AlphaAxiomFailed(f"alpha_{i + 1}({v},{v}) = {got} != {e.A.zero}")
    res = check_equation(e.A, Equation(("x", "y"), substitute(
        theta.term, dict(zip(theta.vars, differences + [y]))), x))
    if not res:
        u, v = res.counterexample["assignment"].values()
        raise AlphaAxiomFailed(f"theta(alphas({u},{v}), {v}) != {u}")

    # k q_i(a) = alpha_i(a, s p(a)), tabulated over the carrier of A
    k_preimage = {a: i for i, a in enumerate(e.k.values)}
    env = {"x": list(range(e.A.size)), "y": [e.s(b) for b in e.p.values]}
    q = []
    for difference in differences:
        values = _tabulate(difference, e.A, env, e.A.size)
        a = next((a for a, v in enumerate(values) if v not in k_preimage), None)
        if a is not None:
            raise KernelPreimageMissing(
                f"alpha(a, sp(a)) = {values[a]} at a = {a} is outside the kernel image")
        q.append(FnTable(e.A.size, e.X.size, tuple(map(k_preimage.__getitem__, values))))
    w = Witness(theta.n, tuple(q))
    res = validate_witness(e, theta, w)
    if not res:
        raise InternalCheckFailed(f"derived witness fails at {res.counterexample}")
    return w


def is_schreier(e: SplitExtension, theta: ThetaSpec) -> bool:
    """True iff the comparison map phi, (xs, b) -> theta(k xs, s b), is a
    bijection onto A: every element decomposes, and uniquely.

    Injectivity alone would accept extensions with no witness at all
    (phi injective but not surjective); uniqueness is only meaningful on
    top of existence, so both halves are tested.
    """
    values = phi(e, theta).values
    return len(set(values)) == len(values) == e.A.size
