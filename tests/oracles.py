"""Independent brute-force oracles.

These deliberately avoid the library's search/enumeration code paths:
everything is computed by iterating whole function spaces and checking
defining equations directly, so they can arbitrate the optimized
implementations on small instances.
"""

import json
from itertools import product

from wsext.algebra import DEFAULT_BUDGET, Equation, FiniteAlgebra, FnTable, table_index
from wsext.canonical import membership_by_term, psi
from wsext.errors import ArityMismatch, EntryOutOfRange, InternalCheckFailed
from wsext.extension import SplitExtension, Witness, phi
from wsext.report import CheckResult, Report
from wsext.serialize import (
    CANONICAL_SCHEMA,
    _nest_table,
    algebra_to_obj,
    equations_to_obj,
    theta_to_obj,
)
from wsext.terms import ThetaSpec, eval_term, require_admissible


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


def theta_at(e: SplitExtension, theta: ThetaSpec, xs, b: int) -> int:
    """theta evaluated in A by structural recursion at k xs and s b."""
    return theta.eval(e.A, tuple(e.k(x) for x in xs) + (e.s(b),))


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
                      if theta.eval(X, ys + (X.zero,)) == x), None)
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
            if theta.eval(e.A, args) != a:
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
    """ops_Y entry by entry along the bijection: the position in Y of
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
            z_out = y_indices[c.ops_Y[name][j]]
            xs_expected = c.gamma[name][table_index(space.size, ambient_args)]
            b_expected = c.B.op(name, tuple(space.unpack(z)[1] for z in ambient_args))
            if space.unpack(z_out) != (xs_expected, b_expected):
                raise InternalCheckFailed(
                    f"transported {name!r} disagrees with its action table at {args}")
    for x in range(c.X.size):
        # unique (ys, 0_B) in Y with theta_X(ys, 0_X) = x
        matches = [i for i, t in enumerate(c.Y)
                   if t[-1] == c.B.zero and c.theta.eval(c.X, t[:-1] + (c.X.zero,)) == x]
        if matches != [c.k_prime(x)]:
            raise InternalCheckFailed(
                f"kernel embedding at {x}: expected unique {c.k_prime(x)}, found {matches}")
    if brute_force_fixpoint_carrier(c) != y_indices:
        raise InternalCheckFailed("fixpoint carrier differs from the image of psi")
    if membership_by_term(c, budget=budget) != y_indices:
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

    k_ok = all(c.k_prime(x) == y_pos.get(psi_t(e.k(x))) for x in range(e.X.size))
    rep.add("kernel_transport", k_ok)

    p_ok = all(psi_t(a) in y_pos and c.pi_B(y_pos[psi_t(a)]) == e.p(a)
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
        "ops_Y": {name: _nest_table(c.ops_Y[name], len(c.Y), arity)
                  for name, arity in c.X.signature.ops},
        "k_prime": list(c.k_prime.values),
        "pi_B": list(c.pi_B.values),
        "iota_B": list(c.iota_B.values),
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
