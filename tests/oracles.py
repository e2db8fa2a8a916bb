"""Independent brute-force oracles.

These deliberately avoid the library's search/enumeration code paths:
everything is computed by iterating whole function spaces and checking
defining equations directly, so they can arbitrate the optimized
implementations on small instances.  Records are compared against the
standard library's frozen dataclasses.  Terms are evaluated here, one
assignment at a time, by the structural recursion of ``eval_term``; the
library's own term kernel (``algebra._factored``, which ``tabulate_grid``
and ``_tabulate`` run) and the identity checks built on it (``check_equation``, admissibility,
interchange, the alpha laws and the sigma/tau decomposition) are only
ever compared against.
"""

import dataclasses
import json
from itertools import product
from pathlib import Path

from wsext.algebra import (
    DEFAULT_BUDGET,
    Equation,
    FiniteAlgebra,
    FnTable,
    table_index,
)
from wsext.ambient import CANONICAL_SCHEMA
from wsext.canonical import SigmaTauDecomposition, TriTable, psi
from wsext.errors import (
    AlphaAxiomFailed,
    ArityMismatch,
    ConditionsFailed,
    EntryOutOfRange,
    FileFormatError,
    InternalCheckFailed,
    IotaNotInY,
    KernelPreimageMissing,
    MissingTable,
    NotHomomorphism,
    SearchBudgetExceeded,
    SectionNotHomomorphism,
    SignatureMismatch,
    ThetaNotAdmissible,
    UnboundVariable,
    WrongSignature,
    WrongTheta,
)
from wsext.extension import (
    SplitExtension,
    Witness,
    phi,
    require_valid,
    require_witness,
    validate_split_extension,
    validate_witness,
)
from wsext.report import CheckResult, Record, Report
from wsext.serialize import (
    _GAMMA_EXTRAS,
    _check_keys,
    _int,
    algebra_from_obj,
    equations_from_obj,
    theta_from_obj,
)
from wsext.terms import Term, TermSpec, ThetaSpec, Var, theta_to_obj
from wsext.writer import _nest_table, algebra_to_obj, equations_to_obj


# -- terms, one assignment at a time -----------------------------------------------

def eval_term(t: Term, A: FiniteAlgebra, env) -> int:
    """Evaluate by structural recursion on the operation tables."""
    if isinstance(t, Var):
        if t.name not in env:
            raise UnboundVariable(f"variable {t.name!r} not bound")
        return env[t.name]
    return A.op(t.op, tuple(eval_term(a, A, env) for a in t.args))


def term_value(spec: TermSpec, A: FiniteAlgebra, args) -> int:
    """The term of ``spec`` at ``args``, bound to its variables in order."""
    if len(args) != len(spec.vars):
        raise ArityMismatch(
            f"term of arity {len(spec.vars)} applied to {len(args)} arguments")
    return eval_term(spec.term, A, dict(zip(spec.vars, args)))


def brute_force_admissible(theta: TermSpec, A: FiniteAlgebra) -> CheckResult:
    """The unit law theta(0,..,0,x) = x, one x at a time in increasing order."""
    zeros = (A.zero,) * (theta.arity - 1)
    for x in range(A.size):
        got = term_value(theta, A, zeros + (x,))
        if got != x:
            return CheckResult(False, {"x": x, "value": got})
    return CheckResult(True)


def require_admissible(theta: ThetaSpec, A: FiniteAlgebra, where: str = "") -> None:
    """ThetaNotAdmissible, with the message of the library's check, unless
    brute_force_admissible holds."""
    res = brute_force_admissible(theta, A)
    if not res:
        suffix = f" ({where})" if where else ""
        raise ThetaNotAdmissible(
            f"theta(0,..,0,x) != x at {res.counterexample}{suffix}")


def brute_force_commuting(omega: TermSpec, theta: ThetaSpec, A: FiniteAlgebra,
                          budget: int = DEFAULT_BUDGET) -> CheckResult:
    """The interchange law one m x (n+1) matrix at a time, in lex order of
    its row-major entries: theta along each row then omega, against omega
    down each column then theta."""
    m = omega.arity
    width = theta.arity
    domain = A.size ** (m * width)
    if domain > budget:
        raise SearchBudgetExceeded(
            f"commutation check needs {domain} cases, budget is {budget}")
    for flat in product(range(A.size), repeat=m * width):
        rows = [flat[j * width:(j + 1) * width] for j in range(m)]
        row_then_omega = term_value(omega, A, [term_value(theta, A, r) for r in rows])
        cols = [tuple(rows[j][i] for j in range(m)) for i in range(width)]
        col_then_theta = term_value(theta, A, [term_value(omega, A, c) for c in cols])
        if row_then_omega != col_then_theta:
            return CheckResult(False, {
                "matrix": [list(r) for r in rows],
                "rows_first": row_then_omega,
                "columns_first": col_then_theta,
            })
    return CheckResult(True)


def all_functions(dom_size: int, cod_size: int):
    """Every value array dom -> cod, in lexicographic order."""
    return product(range(cod_size), repeat=dom_size)


def brute_force_homomorphism(f: FnTable, A: FiniteAlgebra, B: FiniteAlgebra) -> CheckResult:
    """f(op(args)) against op(f(args)), one argument tuple at a time in lex
    order per operation; the first disagreement is the counterexample."""
    for name, arity in A.signature.ops:
        for args in product(range(A.size), repeat=arity):
            lhs = f(A.op(name, args))
            rhs = B.op(name, tuple(f(a) for a in args))
            if lhs != rhs:
                return CheckResult(False, {
                    "op": name, "args": list(args),
                    "f(op(args))": lhs, "op(f(args))": rhs,
                })
    return CheckResult(True)


def brute_force_homs(A, B):
    """Filter of the homomorphism predicate over all |B|^|A| functions."""
    out = []
    for values in all_functions(A.size, B.size):
        f = FnTable(A.size, B.size, values)
        if brute_force_homomorphism(f, A, B):
            out.append(f)
    return out


def brute_force_product(A: FiniteAlgebra, B: FiniteAlgebra) -> FiniteAlgebra:
    """The componentwise product, one entry at a time: each argument tuple
    of pair indices a*|B| + b is split into its A and B coordinates."""
    size = A.size * B.size
    tables = {}
    for name, arity in A.signature.ops:
        values = []
        for args in product(range(size), repeat=arity):
            a_args = tuple(x // B.size for x in args)
            b_args = tuple(x % B.size for x in args)
            values.append(A.op(name, a_args) * B.size + B.op(name, b_args))
        tables[name] = tuple(values)
    return FiniteAlgebra(A.signature, size, tables)


def brute_force_pullback(A: FiniteAlgebra, p: FnTable, B_prime: FiniteAlgebra,
                         f: FnTable, B: FiniteAlgebra, check_maps: bool = True):
    """The pullback {(a, b') : p(a) = f(b')} with its projections, one
    argument tuple of pairs at a time.  Raises NotHomomorphism as
    pullback_algebra does: first for a map that fails
    brute_force_homomorphism (unless ``check_maps`` is off), then at the
    first operation result outside the carrier."""
    if check_maps:
        for name, g, dom, cod in (("p", p, A, B), ("f", f, B_prime, B)):
            res = brute_force_homomorphism(g, dom, cod)
            if not res:
                raise NotHomomorphism(f"{name} is not a homomorphism: {res.counterexample}")
    elements = [(a, bp) for a in range(A.size) for bp in range(B_prime.size)
                if p(a) == f(bp)]
    index = {el: i for i, el in enumerate(elements)}
    tables = {}
    for name, arity in A.signature.ops:
        values = []
        for args in product(elements, repeat=arity):
            a_val = A.op(name, tuple(a for a, _ in args))
            bp_val = B_prime.op(name, tuple(bp for _, bp in args))
            if (a_val, bp_val) not in index:
                raise NotHomomorphism(
                    f"pullback carrier not closed under {name!r} at {args}")
            values.append(index[(a_val, bp_val)])
        tables[name] = tuple(values)
    P = FiniteAlgebra(A.signature, len(elements), tables)
    proj_A = FnTable(len(elements), A.size, tuple(a for a, _ in elements))
    proj_Bp = FnTable(len(elements), B_prime.size, tuple(bp for _, bp in elements))
    return P, proj_A, proj_Bp


def brute_force_closure(A: FiniteAlgebra, generators) -> list[int]:
    """The generated subalgebra, one operation application at a time:
    constants first, then rounds over every argument tuple of the members
    until a round adds nothing."""
    current = set(generators)
    for name, arity in A.signature.ops:
        if arity == 0:
            current.add(A.op(name, ()))
    changed = True
    while changed:
        changed = False
        members = sorted(current)
        for name, arity in A.signature.ops:
            if arity == 0:
                continue
            for args in product(members, repeat=arity):
                v = A.op(name, args)
                if v not in current:
                    current.add(v)
                    changed = True
    return sorted(current)


def theta_at(e: SplitExtension, theta: ThetaSpec, xs, b: int) -> int:
    """theta evaluated in A by structural recursion at k xs and s b."""
    return term_value(theta, e.A, tuple(e.k(x) for x in xs) + (e.s(b),))


def brute_force_phi(e: SplitExtension, theta: ThetaSpec) -> list[int]:
    """The comparison map over X^n x B in lex order, one term evaluation
    per ambient tuple."""
    return [theta_at(e, theta, z[:-1], z[-1])
            for z in product(*[range(e.X.size)] * theta.n, range(e.B.size))]


def brute_force_feasible(e: SplitExtension, theta: ThetaSpec, normalize: bool):
    """T(a) by trying every kernel tuple at every element: |A| * |X|^n
    term evaluations, then the all-zero tuple alone at 0_A."""
    require_admissible(theta, e.A, "middle algebra")
    n = theta.n
    T = [[xs for xs in product(range(e.X.size), repeat=n)
          if theta_at(e, theta, xs, e.p(a)) == a]
         for a in range(e.A.size)]
    if normalize:
        zero_tuple = (e.X.zero,) * n
        if zero_tuple not in T[e.A.zero]:
            raise InternalCheckFailed(
                "all-zero tuple infeasible at 0_A despite admissible theta")
        T[e.A.zero] = [zero_tuple]
    return T


def brute_force_schreier(e: SplitExtension, theta: ThetaSpec) -> bool:
    """Every a has exactly one ambient tuple with phi(xs, b) = a."""
    require_admissible(theta, e.A, "middle algebra")
    values = brute_force_phi(e, theta)
    return all(values.count(a) == 1 for a in range(e.A.size)) and len(values) == e.A.size


def brute_force_witness_check(e: SplitExtension, theta: ThetaSpec, w: Witness,
                              normalized: bool = False) -> CheckResult:
    """The defining equation element by element, then normalization."""
    if w.n != theta.n:
        return CheckResult(False, {"reason": "arity", "witness_n": w.n, "theta_n": theta.n})
    for qi in w.q:
        if qi.dom_size != e.A.size or qi.cod_size != e.X.size:
            return CheckResult(False, {"reason": "shape"})
    for a in range(e.A.size):
        got = theta_at(e, theta, w.values_at(a), e.p(a))
        if got != a:
            return CheckResult(False, {"a": a, "value": got})
    if normalized:
        vals = w.values_at(e.A.zero)
        if vals != (e.X.zero,) * w.n:
            return CheckResult(False, {"a": e.A.zero, "tuple": list(vals),
                                       "reason": "not normalized"})
    return CheckResult(True)


def brute_force_product_check(X: FiniteAlgebra, theta: ThetaSpec):
    """(choices, obstruction): per x the lex-first ys with theta(ys, 0) = x,
    scanning all |X|^n tuples for each x; obstruction is the first x with
    none."""
    require_admissible(theta, X, "kernel algebra")
    choices = []
    for x in range(X.size):
        found = next((ys for ys in product(range(X.size), repeat=theta.n)
                      if term_value(theta, X, ys + (X.zero,)) == x), None)
        if found is None:
            return None, x
        choices.append(found)
    return choices, None


def brute_force_witnesses(e: SplitExtension, theta: ThetaSpec, normalized: bool):
    """Every function tuple (q_1, .., q_n) satisfying the defining equation,
    checked pointwise from the raw tables; |X|^(n*|A|) candidates."""
    n = theta.n
    out = []
    for arrays in product(all_functions(e.A.size, e.X.size), repeat=n):
        if normalized and any(arr[e.A.zero] != e.X.zero for arr in arrays):
            continue
        ok = True
        for a in range(e.A.size):
            args = tuple(e.k(arr[a]) for arr in arrays) + (e.s(e.p(a)),)
            if term_value(theta, e.A, args) != a:
                ok = False
                break
        if ok:
            out.append(Witness(n, tuple(FnTable(e.A.size, e.X.size, arr)
                                        for arr in arrays)))
    return out


def brute_force_equation(A: FiniteAlgebra, eq: Equation) -> CheckResult:
    """Evaluate both sides once per assignment, in lexicographic order of
    the variable list; the first failing assignment is the counterexample."""
    for values in product(range(A.size), repeat=len(eq.vars)):
        env = dict(zip(eq.vars, values))
        lhs = eval_term(eq.lhs, A, env)
        rhs = eval_term(eq.rhs, A, env)
        if lhs != rhs:
            return CheckResult(False, {"assignment": env, "lhs": lhs, "rhs": rhs})
    return CheckResult(True)


def brute_force_gamma(e: SplitExtension, theta: ThetaSpec, w: Witness):
    """(gamma, gamma_id) entry by entry: over every tuple of ambient
    arguments in lexicographic order, gamma_op(z_1, .., z_r) =
    q(op_A(phi z_1, .., phi z_r)) with
    phi(x_1, .., x_n, b) = theta(k x_1, .., k x_n, s b)."""
    phi = brute_force_phi(e, theta)
    gamma = {}
    for name, arity in e.A.signature.ops:
        gamma[name] = tuple(
            w.values_at(e.A.op(name, tuple(phi[z] for z in args)))
            for args in product(range(len(phi)), repeat=arity))
    return gamma, tuple(w.values_at(a) for a in phi)


def brute_force_entry_error(ops, gamma, n: int, size: int):
    """(exception class, message) for the first action entry, walking each
    operation's table entry by entry in signature order, that is not an
    n-tuple of exact ints in 0..size-1; None when there is none."""
    for name, _ in ops:
        for entry in gamma[name]:
            if len(entry) != n:
                return ArityMismatch, f"action entry {entry} for {name!r} is not an {n}-tuple"
            for x in entry:
                if type(x) is not int or not 0 <= x < size:
                    return EntryOutOfRange, f"action entry {entry} outside the kernel carrier"
    return None


def per_entry_read_gamma(path: Path):
    """Action data read from a file the whole-document way: json.loads of
    the text, every nesting level checked element by element and flattened
    down to the entries, then the GammaData checks walked entry by entry.
    (gamma tables as tuples of n-tuples, axioms); raises what the library
    raises, with the same messages.  The algebras, theta and axioms are
    read by the library's own functions."""
    try:
        text = path.read_text()
    except (OSError, ValueError) as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise FileFormatError(f"{path}: JSON nested too deeply") from exc
    _check_keys(obj, ["X", "B", "theta", "gamma"], ["axioms"] + _GAMMA_EXTRAS, "gamma data")
    if "schema" in obj and obj["schema"] != CANONICAL_SCHEMA:
        raise FileFormatError(
            f"schema: expected {CANONICAL_SCHEMA!r}, got {obj['schema']!r}")
    X = algebra_from_obj(obj["X"], path.parent)
    B = algebra_from_obj(obj["B"], path.parent)
    theta = theta_from_obj(obj["theta"], X.signature, path.parent)
    if "n" in obj and _int(obj["n"], "n") != theta.n:
        raise FileFormatError(f"n: {obj['n']} but theta has {theta.n} kernel arguments")
    ambient = X.size ** theta.n * B.size
    if not isinstance(obj["gamma"], dict):
        raise FileFormatError("gamma: expected an object")
    gamma = dict(obj["gamma"])
    for name, arity in X.signature.ops:
        if name not in gamma:
            continue
        level = [gamma[name]]
        for _ in range(arity):
            for item in level:
                if type(item) is not list or len(item) != ambient:
                    raise FileFormatError(f"gamma {name!r}: expected a list of length {ambient}")
            level = [x for item in level for x in item]
        for entry in level:
            if type(entry) is not list:
                raise FileFormatError(
                    f"gamma {name!r}: entries must be lists of {theta.n} integers")
        gamma[name] = level
    axioms = equations_from_obj(obj.get("axioms", []), X.signature)

    if X.signature != B.signature:
        raise SignatureMismatch("kernel and base algebras differ in signature")
    require_admissible(theta, X, "kernel algebra")
    require_admissible(theta, B, "base algebra")
    tables = {}
    for name, arity in X.signature.ops:
        if name not in gamma:
            raise MissingTable(f"no action table for operation {name!r}")
        table = tuple(map(tuple, gamma[name]))
        if len(table) != ambient ** arity:
            raise ArityMismatch(f"action table for {name!r} has {len(table)} entries, "
                                f"expected {ambient}^{arity}")
        error = brute_force_entry_error([(name, arity)], {name: table}, theta.n, X.size)
        if error is not None:
            raise error[0](error[1])
        tables[name] = table
    extra = set(gamma) - set(X.signature.op_names())
    if extra:
        raise SignatureMismatch(f"action tables for unknown operations {sorted(extra)}")
    return tables, axioms


def witness_key(w: Witness):
    return tuple(q.values for q in w.q)


def classical_weakly_schreier(e: SplitExtension, add: str) -> bool:
    """The monoid-specific condition: every a equals k(x) + s(p(a)) for
    some x.  Written from raw table lookups only."""
    table = e.A.tables[add]
    size = e.A.size
    for a in range(size):
        spa = e.s.values[e.p.values[a]]
        if not any(table[e.k.values[x] * size + spa] == a for x in range(e.X.size)):
            return False
    return True


# -- canonical form: cross-checks, isomorphism report, writer -------------------------

def brute_force_transport(e: SplitExtension, theta: ThetaSpec, w: Witness, Y):
    """Y's operations entry by entry along the bijection: the position in Y of
    psi(op_A(phi y_1, .., phi y_r)) for every argument tuple of positions."""
    psi_t, phi_t = psi(e, w), phi(e, theta)
    y_indices = [table_index(e.X.size, t[:-1]) * e.B.size + t[-1] for t in Y]
    y_pos = {z: i for i, z in enumerate(y_indices)}
    return {name: tuple(y_pos[psi_t(e.A.op(name, tuple(phi_t(y_indices[i]) for i in args)))]
                        for args in product(range(len(Y)), repeat=arity))
            for name, arity in e.A.signature.ops}


def brute_force_cross_check(c, budget: int = DEFAULT_BUDGET) -> None:
    """The canonical form's self-checks, one entry at a time: each transported
    operation against (gamma, B) per argument tuple of Y, k' against a term
    evaluation per element of Y for every x, and the two other carrier
    definitions, with the messages build_canonical raises."""
    space = c.space
    y_indices = [space.pack(t[:-1], t[-1]) for t in c.Y]
    for name, arity in c.X.signature.ops:
        for j, args in enumerate(product(range(len(c.Y)), repeat=arity)):
            ambient_args = tuple(y_indices[i] for i in args)
            z_out = y_indices[c.extension.A.tables[name][j]]
            xs_expected = c.gamma[name][table_index(space.size, ambient_args)]
            b_expected = c.B.op(name, tuple(space.unpack(z)[1] for z in ambient_args))
            if space.unpack(z_out) != (xs_expected, b_expected):
                raise InternalCheckFailed(
                    f"transported {name!r} disagrees with its action table at {args}")
    for x in range(c.X.size):
        # unique (ys, 0_B) in Y with theta_X(ys, 0_X) = x
        matches = [i for i, t in enumerate(c.Y)
                   if t[-1] == c.B.zero
                   and term_value(c.theta, c.X, t[:-1] + (c.X.zero,)) == x]
        if matches != [c.extension.k(x)]:
            raise InternalCheckFailed(
                f"kernel embedding at {x}: expected unique {c.extension.k(x)}, found {matches}")
    if brute_force_fixpoint_carrier(c) != y_indices:
        raise InternalCheckFailed("fixpoint carrier differs from the image of psi")
    if brute_force_membership(c, budget=budget) != y_indices:
        raise InternalCheckFailed("candidate-operation carrier differs from im(psi)")


def brute_force_fixpoint_carrier(c) -> list[int]:
    """Ambient indices z with gamma_id(z) = (z_1, .., z_n), one at a time."""
    return [z for z in c.space.indices() if c.gamma_id[z] == c.space.unpack(z)[0]]


def brute_force_verify(e: SplitExtension, c, w: Witness) -> Report:
    """verify_isomorphism with both homomorphism squares walked one argument
    tuple at a time, in signature and lex order.  Where psi(a) lies outside
    Y, a lookup of it fails the entry that makes it (at that argument
    tuple, for the squares)."""
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

    def psi_hom_failure():
        for name, arity in e.A.signature.ops:
            for args in e.A.arg_tuples(arity):
                lhs = y_pos.get(psi_t(e.A.op(name, args)))
                ys = tuple(y_pos.get(psi_t(a)) for a in args)
                if lhs is None or None in ys or lhs != YA.op(name, ys):
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

    k_ok = all(c.extension.k(x) == y_pos.get(psi_t(e.k(x))) for x in range(e.X.size))
    rep.add("kernel_transport", k_ok)

    p_ok = all(psi_t(a) in y_pos and c.extension.p(y_pos[psi_t(a)]) == e.p(a)
               for a in range(e.A.size))
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


def listing_canonical_to_obj(c, axioms=(), verification=None) -> dict:
    """The canonical document with a fresh list for every gamma entry."""
    ambient = c.space.size
    obj = {
        "schema": CANONICAL_SCHEMA,
        "X": algebra_to_obj(c.X),
        "B": algebra_to_obj(c.B),
        "n": c.n,
        "theta": theta_to_obj(c.theta),
        "Y": [list(t) for t in c.Y],
        "ops_Y": {name: _nest_table(c.extension.A.tables[name], len(c.Y), arity)
                  for name, arity in c.X.signature.ops},
        "k_prime": list(c.extension.k.values),
        "pi_B": list(c.extension.p.values),
        "iota_B": list(c.extension.s.values),
        "gamma": {
            name: _nest_table([list(t) for t in c.gamma[name]], ambient, arity)
            for name, arity in c.X.signature.ops
        },
        "gamma_id": [list(t) for t in c.gamma_id],
        "axioms": equations_to_obj(axioms),
    }
    if verification is not None:
        obj["verification"] = verification.to_json()
    return obj


def plain_rows(obj, pad: str) -> str:
    """The one-leaf-row-per-line layout of dump_json, encoding every leaf
    row where it occurs."""
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = [f"{inner}{json.dumps(k)}: {plain_rows(v, inner)}" for k, v in obj.items()]
    elif (isinstance(obj, list) and obj
          and (isinstance(obj[0], dict)
               or (isinstance(obj[0], list) and obj[0]
                   and isinstance(obj[0][0], (list, dict))))):
        inner = pad + "  "
        items = [inner + plain_rows(v, inner) for v in obj]
    else:
        return json.dumps(obj)
    opening, closing = ("{", "}") if isinstance(obj, dict) else ("[", "]")
    return opening + "\n" + ",\n".join(items) + "\n" + pad + closing


# -- action data: candidate operations, carrier and conditions, entry by entry ----------

class PerEntryOps:
    """The candidate operations of a canonical form or of raw action data,
    one ambient index at a time: each application unpacks its arguments,
    reads the action entry and computes the base coordinate in B, and
    packs the result."""

    def __init__(self, c):
        self.space = c.space
        self.gamma = c.gamma
        self.B = c.B
        self.zero_tuple = self.space.pack((c.X.zero,) * self.space.n, c.B.zero)

    def apply(self, op: str, args) -> int:
        xs = self.gamma[op][table_index(self.space.size, args)]
        b = self.B.op(op, tuple(self.space.unpack(a)[1] for a in args))
        return self.space.pack(xs, b)

    def eval(self, spec: TermSpec, args) -> int:
        """The term by structural recursion; a bare variable term is the
        identity on the ambient set."""
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
        """theta at z with every other argument at the zero tuple."""
        return self.eval(theta, (self.zero_tuple,) * (theta.arity - 1) + (z,))


def brute_force_membership(c, omega=None, budget: int = DEFAULT_BUDGET) -> list[int]:
    """membership_by_term with one retraction per ambient index."""
    space = c.space
    if space.size > budget:
        raise SearchBudgetExceeded(
            f"membership test needs {space.size} ambient tuples, budget is {budget}")
    omega = omega or c.theta
    for alg, label in ((c.X, "kernel"), (c.B, "base")):
        if not brute_force_admissible(omega, alg):
            raise WrongTheta(
                f"membership term lacks the unit property on the {label} algebra")
    ops = PerEntryOps(c)
    return [z for z in space.indices()
            if space.unpack(ops.retract(omega, z))[0] == space.unpack(z)[0]]


def brute_force_gamma_table(c, omega: TermSpec, budget: int = DEFAULT_BUDGET):
    """gamma_table with one term evaluation per ambient argument tuple."""
    space = c.space
    needed = space.size ** omega.arity
    if needed > budget:
        raise SearchBudgetExceeded(
            f"action table needs {needed} entries, budget is {budget}")
    ops = PerEntryOps(c)
    return tuple(space.unpack(ops.eval(omega, args))[0]
                 for args in product(space.indices(), repeat=omega.arity))


def brute_force_conditions(g, budget: int = DEFAULT_BUDGET):
    """(report, Y, kernel tuples, Y tables or None) for raw action data:
    the four conditions walked one argument tuple at a time, with the
    messages and the budget checks, in their order, of check_conditions."""
    rep = Report()
    space = g.space
    ops = PerEntryOps(g)
    Y = brute_force_membership(g, budget=budget)
    y_pos = {z: i for i, z in enumerate(Y)}

    def theta_at_zero(xs):
        return term_value(g.theta, g.X, xs + (g.X.zero,))

    # 1: closure, then the identities on Y
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
            res = brute_force_equation(YA, ax)
            if not res:
                axioms_ok = False
                failure = f"axiom {i} fails at {res.counterexample}"
                break
    rep.add("axioms_hold_on_carrier", axioms_ok, failure)

    # 2: one kernel tuple over each x
    yset = set(Y)
    kernel = [xs for xs in product(range(g.X.size), repeat=g.n)
              if space.pack(xs, g.B.zero) in yset]
    cond2_ok = True
    failure = ""
    for x in range(g.X.size):
        matches = [ys for ys in kernel if theta_at_zero(ys) == x]
        if len(matches) != 1:
            cond2_ok = False
            failure = f"x = {x} has kernel tuples {matches}"
            break
    rep.add("kernel_embedding_well_defined", cond2_ok, failure)

    # 3: the inverse of the embedding is a homomorphism
    cond3_ok = True
    failure = ""
    for name, arity in g.X.signature.ops:
        if len(kernel) ** arity > budget:
            raise SearchBudgetExceeded(f"condition 3 for {name!r} exceeds budget")
        for tuples in product(kernel, repeat=arity):
            args = tuple(space.pack(xs, g.B.zero) for xs in tuples)
            lhs = theta_at_zero(g.gamma[name][table_index(space.size, args)])
            rhs = g.X.op(name, tuple(theta_at_zero(xs) for xs in tuples))
            if lhs != rhs:
                cond3_ok = False
                failure = f"op {name!r} at kernel tuples {tuples}: {lhs} != {rhs}"
                break
        if not cond3_ok:
            break
    rep.add("kernel_embedding_homomorphism", cond3_ok, failure)

    # 4: the coordinate projections witness the decomposition
    cond4_ok = True
    failure = ""
    if len(kernel) ** g.n * g.B.size > budget:
        raise SearchBudgetExceeded("condition 4 exceeds budget")
    for tuples in product(kernel, repeat=g.n):
        xs_star = tuple(theta_at_zero(ys) for ys in tuples)
        for b in range(g.B.size):
            if space.pack(xs_star, b) not in y_pos:
                continue
            args = tuple(space.pack(ys, g.B.zero) for ys in tuples)
            args += (space.pack((g.X.zero,) * g.n, b),)
            got = space.unpack(ops.eval(g.theta, args))[0]
            if got != xs_star:
                cond4_ok = False
                failure = f"kernel tuples {tuples}, base {b}: {got} != {xs_star}"
                break
        if not cond4_ok:
            break
    rep.add("projection_witness", cond4_ok, failure)
    return rep, Y, kernel, None if YA is None else YA.tables


def brute_force_rebuild(g, budget: int = DEFAULT_BUDGET):
    """build_extension_from_gamma from brute_force_conditions: k found by a
    scan of the kernel tuples, p, s and the projections by unpacking."""
    rep, Y, kernel, tables = brute_force_conditions(g, budget)
    if not rep.ok:
        raise ConditionsFailed(rep)
    space = g.space
    y_pos = {z: i for i, z in enumerate(Y)}
    zeros = (g.X.zero,) * g.n
    missing = [b for b in range(g.B.size) if space.pack(zeros, b) not in y_pos]
    if missing:
        raise IotaNotInY(f"zero-tuple section misses the carrier at base {missing}")
    k_vals = []
    for x in range(g.X.size):
        ys = next(t for t in kernel if term_value(g.theta, g.X, t + (g.X.zero,)) == x)
        k_vals.append(y_pos[space.pack(ys, g.B.zero)])
    A = FiniteAlgebra(g.X.signature, len(Y), tables)
    s = FnTable(g.B.size, len(Y), tuple(y_pos[space.pack(zeros, b)] for b in range(g.B.size)))
    res = brute_force_homomorphism(s, g.B, A)
    if not res:
        raise SectionNotHomomorphism(
            f"zero-tuple section is not a homomorphism: {res.counterexample}")
    ext = SplitExtension(
        g.X, A, g.B, FnTable(g.X.size, len(Y), tuple(k_vals)),
        FnTable(len(Y), g.B.size, tuple(space.unpack(z)[1] for z in Y)), s)
    w = Witness(g.n, tuple(FnTable(len(Y), g.X.size,
                                   tuple(space.unpack(z)[0][i] for z in Y))
                           for i in range(g.n)))
    val = validate_split_extension(ext)
    if not val.ok:
        raise InternalCheckFailed(
            "reconstructed extension failed validation:\n" + val.render())
    res = validate_witness(ext, g.theta, w)
    if not res:
        raise InternalCheckFailed(f"projection witness fails at {res.counterexample}")
    return ext, w


# -- semi-abelian witnesses and the monoid decomposition, one assignment at a time ----

def brute_force_semiabelian_witness(e: SplitExtension, theta: ThetaSpec, alphas) -> Witness:
    """semiabelian_witness with each alpha law checked one assignment at a
    time (alpha_i(x, x) = 0 for every x, then the theta law over (x, y) in
    lex order) and each q_i read off one element at a time."""
    require_valid(e)
    require_admissible(theta, e.A, "middle algebra")
    if len(alphas) != theta.n:
        raise AlphaAxiomFailed(f"expected {theta.n} binary terms, got {len(alphas)}")
    for i, alpha in enumerate(alphas):
        if alpha.arity != 2:
            raise AlphaAxiomFailed(f"term {i + 1} has arity {alpha.arity}, expected 2")
        for x in range(e.A.size):
            if term_value(alpha, e.A, (x, x)) != e.A.zero:
                raise AlphaAxiomFailed(
                    f"alpha_{i + 1}({x},{x}) = {term_value(alpha, e.A, (x, x))} != {e.A.zero}")
    for x in range(e.A.size):
        for y in range(e.A.size):
            diff = tuple(term_value(alpha, e.A, (x, y)) for alpha in alphas)
            if term_value(theta, e.A, diff + (y,)) != x:
                raise AlphaAxiomFailed(f"theta(alphas({x},{y}), {y}) != {x}")

    k_preimage = {e.k(x): x for x in range(e.X.size)}
    q = []
    for alpha in alphas:
        values = []
        for a in range(e.A.size):
            v = term_value(alpha, e.A, (a, e.s(e.p(a))))
            if v not in k_preimage:
                raise KernelPreimageMissing(
                    f"alpha(a, sp(a)) = {v} at a = {a} is outside the kernel image")
            values.append(k_preimage[v])
        q.append(FnTable(e.A.size, e.X.size, tuple(values)))
    w = Witness(theta.n, tuple(q))
    res = validate_witness(e, theta, w)
    if not res:
        raise InternalCheckFailed(f"derived witness fails at {res.counterexample}")
    return w


def brute_force_sigma_tau(e: SplitExtension, theta: ThetaSpec, w: Witness,
                          budget: int = DEFAULT_BUDGET) -> SigmaTauDecomposition:
    """sigma_tau_decompose with the x + z + y check, every sigma and tau
    entry and the decomposition identity computed one argument tuple at a
    time, the last over argument pairs in lex order."""
    ops = list(e.A.signature.ops)
    binary = [nm for nm, ar in ops if ar == 2]
    if len(binary) != 1 or len(ops) != 2:
        raise WrongSignature(
            "need exactly one binary operation and the constant, got " + str(ops))
    add = binary[0]
    require_valid(e)
    require_witness(e, theta, w)
    if theta.n != 2:
        raise WrongTheta(f"witness term must have arity 3, got {theta.arity}")
    cost = e.A.size ** 3 + (e.X.size ** 2 * e.B.size) ** 2
    if cost > budget:
        raise SearchBudgetExceeded(
            f"decomposition needs {cost} evaluations, budget is {budget}")
    for x, y, z in product(range(e.A.size), repeat=3):
        if term_value(theta, e.A, (x, y, z)) != e.A.op(add, (e.A.op(add, (x, z)), y)):
            raise WrongTheta("witness term is not x + z + y on the middle algebra")

    def add_in(alg: FiniteAlgebra, u: int, v: int) -> int:
        return alg.op(add, (u, v))

    def sum_A(*vals: int) -> int:
        acc = vals[0]
        for v in vals[1:]:
            acc = add_in(e.A, acc, v)
        return acc

    nX, nB = e.X.size, e.B.size
    sigma = tuple(
        TriTable((nB, nX, nB), nX,
                 tuple(w.q[i](sum_A(e.s(b), e.k(x), e.s(bp)))
                       for b in range(nB) for x in range(nX) for bp in range(nB)))
        for i in range(2))
    tau = tuple(
        TriTable((nX, nB, nX), nX,
                 tuple(w.q[i](sum_A(e.k(x), e.s(b), e.k(xp)))
                       for x in range(nX) for b in range(nB) for xp in range(nX)))
        for i in range(2))

    rep = Report()
    bad = None
    for x11, x21, b1 in product(range(nX), range(nX), range(nB)):
        for x12, x22, b2 in product(range(nX), range(nX), range(nB)):
            u1 = term_value(theta, e.A, (e.k(x11), e.k(x21), e.s(b1)))
            u2 = term_value(theta, e.A, (e.k(x12), e.k(x22), e.s(b2)))
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


# -- records ---------------------------------------------------------------------

def dataclass_twin(cls: type) -> type:
    """The frozen dataclass with the fields and defaults of the record class
    cls, read from the class bodies: the annotated names of cls and of its
    record bases, base classes first, with a class attribute of the same
    name as the default.  It has cls's qualified name, so the two reprs can
    be compared as text."""
    bodies = [vars(k) for k in reversed(cls.__mro__)
              if issubclass(k, Record) and k is not Record]
    names = [name for body in bodies for name in body.get("__annotations__", {})]
    namespace = {"__annotations__": dict.fromkeys(names, "object"),
                 "__qualname__": cls.__qualname__}
    namespace.update({name: getattr(cls, name) for name in names if hasattr(cls, name)})
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))
