"""Independent brute-force oracles.

These deliberately avoid the library's search/enumeration code paths:
everything is computed by iterating whole function spaces and checking
defining equations directly, so they can arbitrate the optimized
implementations on small instances.
"""

from itertools import product

from wsext.algebra import Equation, FiniteAlgebra, FnTable
from wsext.errors import ArityMismatch, EntryOutOfRange, InternalCheckFailed
from wsext.extension import SplitExtension, Witness
from wsext.report import CheckResult
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
