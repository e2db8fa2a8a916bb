"""Transport along maps: homomorphism enumeration, pullbacks, products
and subalgebra closure of finite algebras; pullbacks of split extensions
with their witnesses, the two witness-term conditions on one algebra
(the product-extension condition and the interchange law,
``check_commuting``, which no command runs), and morphisms of extensions.

Only ``pullback``, ``product-check`` and ``morphism-check`` run this
code, so it is a layer of its own beside ``canonical`` and
``gammabuild``, and the other commands never compile it.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Optional, Sequence

from .algebra import (
    DEFAULT_BUDGET,
    Equation,
    FiniteAlgebra,
    FnTable,
    _require_same_signature,
    check_equation,
    is_homomorphism,
    require_admissible,
    table_args,
    tabulate_grid,
    trivial_algebra,
)
from .errors import (
    InternalCheckFailed,
    InvalidMorphism,
    NotHomomorphism,
    SizeMismatch,
    charge,
)
from .extension import (
    SplitExtension,
    Witness,
    require_valid,
    require_witness,
    validate_split_extension,
    validate_witness,
)
from .report import CheckResult, Record, Report, _once
from .terms import Term, TermSpec, ThetaSpec, Var, operation_term, substitute


# -- algebras ------------------------------------------------------------------

def enumerate_homomorphisms(
    A: FiniteAlgebra,
    B: FiniteAlgebra,
    fixed: Optional[Mapping[int, int]] = None,
    budget: int = DEFAULT_BUDGET,
    limit: Optional[int] = None,
) -> list[FnTable]:
    """All homomorphisms A -> B extending ``fixed``, in lexicographic order
    of their value arrays.

    Deterministic backtracking over positions 0..|A|-1.  A constraint
    f(op(args)) = op(f(args)) is checked as soon as its last participating
    element is assigned.  Each attempted assignment costs one node against
    ``budget``.  The constraint lists need no budget of their own: they
    hold one entry per entry of A's tables, sum over the operations of
    |A|^arity, the size of the input itself.
    """
    _require_same_signature(A, B)
    fixed = dict(fixed or {})
    for pos, val in fixed.items():
        if not (0 <= pos < A.size) or not (0 <= val < B.size):
            raise SizeMismatch(f"fixed assignment {pos}->{val} out of range")

    # constraints grouped by the largest element index they mention
    by_position: list[list[tuple[str, tuple[int, ...], int]]] = [[] for _ in range(A.size)]
    for name, arity in A.signature.ops:
        for args in A.arg_tuples(arity):
            result = A.op(name, args)
            trigger = max(args + (result,)) if args else result
            by_position[trigger].append((name, args, result))

    out: list[FnTable] = []
    assignment = [0] * A.size
    nodes = 0
    exceeded = f"homomorphism search exceeded {budget} nodes"

    def consistent(pos: int) -> bool:
        for name, args, result in by_position[pos]:
            if assignment[result] != B.op(name, tuple(assignment[a] for a in args)):
                return False
        return True

    def extend(pos: int) -> bool:
        nonlocal nodes
        if pos == A.size:
            out.append(FnTable(B.size, tuple(assignment)))
            return limit is not None and len(out) >= limit
        candidates = (fixed[pos],) if pos in fixed else range(B.size)
        for val in candidates:
            nodes += 1
            charge(nodes, budget, exceeded)
            assignment[pos] = val
            if consistent(pos) and extend(pos + 1):
                return True
        return False

    extend(0)
    return out


def _pair_tables(A: FiniteAlgebra, B: FiniteAlgebra,
                 pairs: Sequence[tuple[int, int]]) -> dict[str, tuple]:
    """The componentwise operations on a subset of A x B, given as its (a, b)
    pairs in lex order: each operation tabulated over each coordinate column
    (``tabulate_grid``), then a lookup of each result pair; None where a
    result leaves the subset."""
    position = {pair: i for i, pair in enumerate(pairs)}
    a_col, b_col = zip(*pairs)
    return {name: tuple(map(position.get, zip(
                tabulate_grid(operation_term(name, arity), A, [a_col] * arity),
                tabulate_grid(operation_term(name, arity), B, [b_col] * arity))))
            for name, arity in A.signature.ops}


def pullback_algebra(
    A: FiniteAlgebra,
    p: FnTable,
    B_prime: FiniteAlgebra,
    f: FnTable,
    B: FiniteAlgebra,
    budget: int = DEFAULT_BUDGET,
) -> tuple[FiniteAlgebra, FnTable, FnTable]:
    """The subalgebra {(a,b') : p(a) = f(b')} of A x B', with projections.

    Elements are ordered lexicographically in (a, b'); the i-th element of
    the result is ``(proj_A(i), proj_B_prime(i))``.  Raises NotHomomorphism
    unless both maps are homomorphisms into B, then SearchBudgetExceeded
    when the tables of the pullback, sum over the operations of
    |P|^arity entries, would exceed ``budget``.
    """
    _require_same_signature(A, B)
    _require_same_signature(B_prime, B)
    for name, g, dom, cod in (("p", p, A, B), ("f", f, B_prime, B)):
        res = is_homomorphism(g, dom, cod)
        if not res:
            raise NotHomomorphism(f"{name} is not a homomorphism: {res.counterexample}")
    # |P| = sum over b of |p^-1(b)| * |f^-1(b)|
    p_fibres, f_fibres = Counter(p.values), Counter(f.values)
    size = sum(p_fibres[b] * f_fibres[b] for b in p_fibres)
    entries = sum(size ** arity for _, arity in A.signature.ops)
    charge(entries, budget, f"pullback tables need {entries} entries, budget is {budget}")

    elements = [(a, bp) for a in range(A.size) for bp in range(B_prime.size)
                if p(a) == f(bp)]
    tables = _pair_tables(A, B_prime, elements)
    for name, arity in A.signature.ops:
        # closure is automatic since p and f are homomorphisms
        if None in tables[name]:
            args = table_args(size, arity, tables[name].index(None))
            raise NotHomomorphism(f"pullback carrier not closed under {name!r} at "
                                  f"{tuple(elements[i] for i in args)}")
    P = FiniteAlgebra(A.signature, size, tables)
    proj_A = FnTable(A.size, tuple(a for a, _ in elements))
    proj_Bp = FnTable(B_prime.size, tuple(bp for _, bp in elements))
    return P, proj_A, proj_Bp


def product_algebra(A: FiniteAlgebra, B: FiniteAlgebra) -> FiniteAlgebra:
    """Componentwise product, pairing (a,b) -> a*|B| + b: the pullback over
    the one-element algebra, within its budget at DEFAULT_BUDGET."""
    return pullback_algebra(A, FnTable.constant(A.size, 1, 0), B,
                            FnTable.constant(B.size, 1, 0), trivial_algebra(A.signature))[0]


def subalgebra_closure(A: FiniteAlgebra, generators: Sequence[int]) -> list[int]:
    """Smallest subset of the carrier containing the generators and closed
    under every operation (constants included), sorted ascending: each
    round tabulates every operation over the members (``tabulate_grid``)."""
    current = set(generators)
    while True:
        members = sorted(current)
        for name, arity in A.signature.ops:
            current.update(tabulate_grid(operation_term(name, arity), A, [members] * arity))
        if len(current) == len(members):
            return members


# -- split extensions ---------------------------------------------------------

def pullback_extension(
    e: SplitExtension,
    theta: ThetaSpec,
    B_prime: FiniteAlgebra,
    f: FnTable,
    w: Witness,
    budget: int = DEFAULT_BUDGET,
) -> tuple[SplitExtension, Witness]:
    """Pull the extension back along f : B' -> B and transport the witness.

    The middle algebra is the pullback of p and f with elements (a, b') in
    lexicographic order; the transported witness is q'_i(a, b') = q_i(a).
    The result is revalidated (extension laws and witness equation).
    Raises SearchBudgetExceeded when the pullback's tables would hold more
    than ``budget`` entries (see ``pullback_algebra``).
    """
    require_valid(e)
    require_witness(e, theta, w)
    P, proj_A, proj_Bp = pullback_algebra(e.A, e.p, B_prime, f, e.B, budget=budget)
    index = {(proj_A(i), proj_Bp(i)): i for i in range(P.size)}

    k2 = FnTable(P.size, tuple(index[(e.k(x), B_prime.zero)] for x in range(e.X.size)))
    p2 = proj_Bp
    s2 = FnTable(P.size, tuple(index[(e.s(f(b)), b)] for b in range(B_prime.size)))
    ext = SplitExtension(e.X, P, B_prime, k2, p2, s2)

    w2 = Witness(tuple(FnTable(e.X.size, tuple(map(qi, proj_A.values))) for qi in w.q))

    rep = validate_split_extension(ext)
    if not rep.ok:
        raise InternalCheckFailed("pullback extension failed validation:\n" + rep.render())
    res = validate_witness(ext, theta, w2)
    if not res:
        raise InternalCheckFailed(f"transported witness fails at {res.counterexample}")
    return ext, w2


class ProductCheck(Record):
    """Outcome of the product-extension condition on a kernel algebra."""

    ok: bool
    q: Optional[tuple[FnTable, ...]]
    obstruction: Optional[int]

    def __bool__(self) -> bool:
        return self.ok


def product_extension_check(X: FiniteAlgebra, theta: ThetaSpec,
                            budget: int = DEFAULT_BUDGET) -> ProductCheck:
    """Can every x be written theta(y_1, .., y_n, 0) within X itself?

    Equivalent at finite scale to X --id--> X --> 1 having a witness, and
    hence (by pullback stability) to every product projection X x B -> B
    having one.  theta(ys, 0) is tabulated over the |X|^n tuples ys in lex
    order (SearchBudgetExceeded when |X|^n exceeds ``budget``).  Returns
    the lexicographically first choice per element, or the first
    unreachable element.
    """
    require_admissible(theta, X, "kernel algebra")
    n = theta.n
    cost = X.size ** n
    charge(cost, budget, f"product check needs {cost} evaluations, budget is {budget}")
    first: dict[int, int] = {}  # x -> lex index of its first ys
    for j, x in enumerate(tabulate_grid(theta, X, [range(X.size)] * n + [[X.zero]])):
        first.setdefault(x, j)
    missing = next((x for x in range(X.size) if x not in first), None)
    if missing is not None:
        return ProductCheck(False, None, missing)
    choices = [table_args(X.size, n, first[x]) for x in range(X.size)]
    q = tuple(FnTable(X.size, tuple(ys[i] for ys in choices)) for i in range(n))
    return ProductCheck(True, q, None)


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
    charge(domain, budget, f"commutation check needs {domain} cases, budget is {budget}")
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


# -- morphisms of extensions ---------------------------------------------------

class ExtensionMorphism(Record):
    """Three maps (f on kernels, g on middles, h on bases) between extensions."""

    source: SplitExtension
    target: SplitExtension
    f: FnTable
    g: FnTable
    h: FnTable


@_once
def validate_morphism(m: ExtensionMorphism) -> Report:
    """Homomorphism checks plus the three commuting squares, once per
    morphism."""
    rep = Report()
    for name, fn, dom, cod in (("f", m.f, m.source.X, m.target.X),
                               ("g", m.g, m.source.A, m.target.A),
                               ("h", m.h, m.source.B, m.target.B)):
        if fn.dom_size != dom.size or fn.cod_size != cod.size:
            raise SizeMismatch(f"morphism component {name} has wrong endpoints")
        res = is_homomorphism(fn, dom, cod)
        rep.add(f"{name}_homomorphism", res.ok,
                "" if res.ok else str(res.counterexample))

    squares = (
        ("kernel_square", m.source.k.then(m.g), m.f.then(m.target.k)),
        ("quotient_square", m.g.then(m.target.p), m.source.p.then(m.h)),
        ("section_square", m.source.s.then(m.g), m.h.then(m.target.s)),
    )
    for name, left, right in squares:
        ok = left.values == right.values
        rep.add(name, ok, "" if ok else f"{list(left.values)} != {list(right.values)}")
    return rep


def check_morphism_surjectivity(m: ExtensionMorphism) -> Report:
    """Surjectivity of the three components, joint generation of the target
    middle algebra, and the implication 'f and h surjective => g surjective'
    (extremal epimorphisms of finite algebras are the surjections).
    """
    val = validate_morphism(m)
    if not val.ok:
        raise InvalidMorphism("morphism squares failed:\n" + val.render())

    rep = Report()
    f_surj = m.f.is_surjective()
    h_surj = m.h.is_surjective()
    g_surj = m.g.is_surjective()
    rep.add("f_surjective", f_surj)
    rep.add("h_surjective", h_surj)
    rep.add("g_surjective", g_surj)

    generators = sorted(set(m.source.k.then(m.g).values)
                        | set(m.source.s.then(m.g).values))
    closure = subalgebra_closure(m.target.A, generators)
    jointly_generate = closure == list(range(m.target.A.size))
    if f_surj and h_surj:
        rep.add("joint_generation", jointly_generate,
                "" if jointly_generate else
                f"generated subalgebra {closure} is proper")
        rep.add("surjection_lemma", g_surj,
                "" if g_surj else "f, h surjective but g is not")
    else:
        rep.add("joint_generation", True,
                f"not applicable (f/h not both surjective); closure size {len(closure)}")
        rep.add("surjection_lemma", True, "not applicable (hypothesis unmet)")
    return rep
