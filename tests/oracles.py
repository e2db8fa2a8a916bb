"""Independent brute-force oracles.

These deliberately avoid the library's search/enumeration code paths:
everything is computed by iterating whole function spaces and checking
defining equations directly, so they can arbitrate the optimized
implementations on small instances.
"""

from itertools import product

from wsext.algebra import Equation, FiniteAlgebra, FnTable, is_homomorphism
from wsext.errors import ArityMismatch, EntryOutOfRange
from wsext.extension import SplitExtension, Witness
from wsext.report import CheckResult
from wsext.terms import ThetaSpec, eval_term


def all_functions(dom_size: int, cod_size: int):
    """Every value array dom -> cod, in lexicographic order."""
    return product(range(cod_size), repeat=dom_size)


def brute_force_homs(A, B):
    """Filter of the homomorphism predicate over all |B|^|A| functions."""
    out = []
    for values in all_functions(A.size, B.size):
        f = FnTable(A.size, B.size, values)
        if is_homomorphism(f, A, B):
            out.append(f)
    return out


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
    ambient = list(product(*[range(e.X.size)] * theta.n, range(e.B.size)))
    phi = [theta.eval(e.A, tuple(e.k(x) for x in z[:-1]) + (e.s(z[-1]),))
           for z in ambient]
    gamma = {}
    for name, arity in e.A.signature.ops:
        gamma[name] = tuple(
            w.values_at(e.A.op(name, tuple(phi[z] for z in args)))
            for args in product(range(len(ambient)), repeat=arity))
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
