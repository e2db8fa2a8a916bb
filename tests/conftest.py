import inspect
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from itertools import permutations, product
from pathlib import Path

import pytest

from wsext import (
    FiniteAlgebra,
    FnTable,
    GammaData,
    Signature,
    SplitExtension,
    ThetaSpec,
    Witness,
    build_canonical,
    build_extension_from_gamma,
    check_conditions,
    count_witnesses,
    enumerate_homomorphisms,
    extract_gamma,
    is_schreier,
    make_algebra,
    parse_term,
    product_algebra,
    trivial_algebra,
    validate_split_extension,
)
from wsext import serialize as S
from wsext.errors import ToolkitError
from wsext.fixtures import EXTENSIONS, fixture_path

EXTENSION_NAMES = sorted(EXTENSIONS)

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, stdout=subprocess.PIPE, entry=("-m", "wsext"), **variables):
    """Run ``python -m wsext`` (or ``python *entry``) in a child process
    that imports this checkout's sources first, whatever the caller's
    PYTHONPATH.  Other keyword arguments set environment variables; ``None``
    unsets one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for name, value in variables.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run([sys.executable, *entry, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, timeout=120)


def outcome(fn, crashes=False):
    """A call's value, or the class and message of the toolkit error it
    raised.  Any other exception errors the test, unless ``crashes`` is
    set: then it is recorded by its class, to be compared."""
    try:
        return "value", fn()
    except ToolkitError as exc:
        return "raised", type(exc), str(exc)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        if not crashes:
            raise
        return "raised", type(exc)


@contextmanager
def runs_of(fn):
    """A spy on the body of ``fn``, under any memo or other wrapper: the
    arguments of each run of the body in the block, as a dict by name.  A
    call answered from a memo does not run the body.  Spies nest."""
    code = inspect.unwrap(fn).__code__
    runs = []
    previous = sys.getprofile()

    def profile(frame, event, arg):
        if previous is not None:
            previous(frame, event, arg)
        if event == "call" and frame.f_code is code:
            runs.append(dict(frame.f_locals))

    sys.setprofile(profile)
    try:
        yield runs
    finally:
        sys.setprofile(previous)


def load_fixture(name: str):
    """(extension, embedded witness, axioms, theta) for a bundled fixture."""
    e, w, axioms = S.load_extension(fixture_path(name))
    theta_obj = json.loads(fixture_path(EXTENSIONS[name]).read_text())
    theta = S.theta_from_obj(theta_obj, e.X.signature)
    return e, w, axioms, theta


SLSIG = Signature((("0", 0), ("+", 2)), "0")
MSIG = Signature((("+", 2), ("0", 0)), "0")


def cyclic(m: int, sig: Signature) -> FiniteAlgebra:
    """Z_m over ``sig``, each operation filled by its arity: a binary one
    is addition mod m, a unary one negation and a nullary one 0."""
    fill = {0: lambda: 0, 1: lambda u: -u % m, 2: lambda u, v: (u + v) % m}
    return make_algebra(sig, m, {name: [fill[arity](*args)
                                        for args in product(range(m), repeat=arity)]
                                 for name, arity in sig.ops})


def unclosed_constant_data(b_size: int) -> GammaData:
    """Action data on the semilattice N2 = {0, 1} over SLSIG with n = 2 and
    theta = x1 + y: 0 + (0, 1, 0_B) is (0, 0), which puts (0, 1, 0_B) out
    of Y, and the constant's entry is (0, 1).  The constant comes first and
    leaves Y, so the closure charges 1 and no axiom runs, and conditions 3
    and 4 see the 3 kernel tuples left: 3^2 for '+' and 3^2 * |B|, over
    4 * |B| ambient tuples."""
    N2 = make_algebra(SLSIG, 2, {"0": [0], "+": [0, 1, 1, 1]})
    B = N2 if b_size == 2 else trivial_algebra(SLSIG)
    theta = ThetaSpec(("x1", "x2", "y"), parse_term("(+ x1 y)", SLSIG, ["x1", "x2", "y"]))
    xs = [(z // b_size // 2, z // b_size % 2) for z in range(4 * b_size)]
    plus = [tuple(map(max, u, v)) for u, v in product(xs, repeat=2)]
    plus[b_size] = (0, 0)
    return GammaData(N2, B, theta, {"0": ((0, 1),), "+": tuple(plus)}, ())


def subalgebra(A: FiniteAlgebra, elements: list[int]) -> FiniteAlgebra:
    """A's operations on ``elements``, a subset closed under them,
    relabelled 0, 1, .. in the order given."""
    pos = {a: i for i, a in enumerate(elements)}
    return FiniteAlgebra(A.signature, len(elements), {
        name: tuple(pos[A.op(name, args)] for args in product(elements, repeat=arity))
        for name, arity in A.signature.ops})


def product_extension(X: FiniteAlgebra, B: FiniteAlgebra) -> SplitExtension:
    """X -> X x B -> B with k x = (x, 0), p (x, b) = b, s b = (0, b)."""
    A = product_algebra(X, B)
    return SplitExtension(X, A, B,
                          FnTable(X.size, A.size, tuple(x * B.size for x in range(X.size))),
                          FnTable(A.size, B.size, tuple(a % B.size for a in range(A.size))),
                          FnTable(B.size, A.size, tuple(range(B.size))))


GSIG = Signature((("*", 2), ("inv", 1), ("e", 0)), "e")


def group(size: int, mul) -> FiniteAlgebra:
    """The group over GSIG on 0..size-1 with product ``mul`` and identity
    0, its inverses read off the product table."""
    table = [mul(a, b) for a, b in product(range(size), repeat=2)]
    inv = [table[a * size:(a + 1) * size].index(0) for a in range(size)]
    return make_algebra(GSIG, size, {"*": table, "inv": inv, "e": [0]})


def semidirect(X: FiniteAlgebra, B: FiniteAlgebra, alpha) -> SplitExtension:
    """X -> X ⋊_α B -> B for groups over GSIG, where alpha[b] is the
    automorphism of X, as a value tuple, by which b acts.  The element
    (x, b) of the middle is b * |X| + x, with (x1, b1)(x2, b2) =
    (x1 · α(b1)(x2), b1 b2); k and s are the inclusions and p the
    projection."""
    nx, size = X.size, X.size * B.size

    def mul(u, v):
        (b1, x1), (b2, x2) = divmod(u, nx), divmod(v, nx)
        return B.op("*", (b1, b2)) * nx + X.op("*", (x1, alpha[b1][x2]))

    return SplitExtension(
        X, group(size, mul), B, FnTable(nx, size, tuple(range(nx))),
        FnTable(size, B.size, tuple(a // nx for a in range(size))),
        FnTable(B.size, size, tuple(b * nx for b in range(B.size))))


def unital_tables(size: int, domain, fits) -> list[tuple[int, ...]]:
    """The flat tables of the binary operations on 0..size-1 with unit 0,
    one per class under the relabellings that fix 0, in lex order.  The
    other cells are filled in table order by backtracking: cell (a, b)
    takes the values ``domain(table, a, b)`` in increasing order, and the
    fill goes on when ``fits(table, a, b)`` (unset cells hold None).  A
    full table is kept when no relabelling of it is lex-smaller."""
    table = [a + b if 0 in (a, b) else None for a, b in product(range(size), repeat=2)]
    cells = [a * size + b for a in range(1, size) for b in range(1, size)]
    # each relabelling p but the identity, with the cells sorted by where p moves them
    relabellings = [(p, sorted(cells, key=lambda c: p[c // size] * size + p[c % size]))
                    for p in map((0,).__add__, permutations(range(1, size)))][1:]
    found = []

    def least() -> bool:
        # the table renamed by each p, read entry by entry up to the first difference
        return all(next((p[table[s]] > table[c] for s, c in zip(sources, cells)
                         if p[table[s]] != table[c]), True) for p, sources in relabellings)

    def fill(i: int) -> None:
        if i == len(cells):
            if least():
                found.append(tuple(table))
            return
        a, b = divmod(cells[i], size)
        for value in domain(table, a, b):
            table[cells[i]] = value
            if fits(table, a, b):
                fill(i + 1)
        table[cells[i]] = None

    fill(0)
    return found


def reversed_labels(e: SplitExtension) -> SplitExtension:
    """e with the labels of X, A and B each reversed, a -> size - 1 - a,
    over any signature: the zero of each algebra of two or more elements
    moves."""
    def algebra(C: FiniteAlgebra) -> FiniteAlgebra:
        top = C.size - 1
        return FiniteAlgebra(C.signature, C.size, {
            name: tuple(top - C.op(name, [top - c for c in args])
                        for args in C.arg_tuples(arity))
            for name, arity in C.signature.ops})

    def function(f: FnTable) -> FnTable:
        return FnTable(f.dom_size, f.cod_size,
                       tuple(f.cod_size - 1 - v for v in reversed(f.values)))

    return SplitExtension(algebra(e.X), algebra(e.A), algebra(e.B),
                          function(e.k), function(e.p), function(e.s))


def assert_labels_do_not_matter(extensions, thetas) -> None:
    """For each extension e, validation passes on ``reversed_labels(e)``,
    and its witness count and ``is_schreier`` under each theta are e's."""
    for e in extensions:
        r = reversed_labels(e)
        assert validate_split_extension(r).ok
        for theta in thetas:
            assert count_witnesses(r, theta) == count_witnesses(e, theta)
            assert is_schreier(r, theta) == is_schreier(e, theta)


def projections(c) -> Witness:
    """The coordinate projections of a canonical form's Y, as a witness
    of its extension."""
    return Witness(c.n, tuple(FnTable(len(c.Y), c.X.size, tuple(t[i] for t in c.Y))
                              for i in range(c.n)))


def assert_rebuilds(e: SplitExtension, theta: ThetaSpec, w, axioms):
    """The round trip of e with witness w: its canonical form, the action
    data read off it with ``axioms``, the conditions, and the extension
    rebuilt from the data, which is the form's extension, with the
    coordinate projections of Y as its witness.  Returns the canonical
    form."""
    c = build_canonical(e, theta, w)
    g = extract_gamma(c, axioms)
    assert check_conditions(g).ok
    e2, w2 = build_extension_from_gamma(g)
    assert e2 == c.extension
    assert w2 == projections(c)
    assert (e2.X, e2.B) == (e.X, e.B)
    return c


def split_extensions(A: FiniteAlgebra) -> list[SplitExtension]:
    """The split extension of each idempotent endomorphism e of A, in lex
    order of e's values, over any signature: B = e(A), X = e^-1(0), p = e,
    and s and k the inclusions."""
    out = []
    for e in enumerate_homomorphisms(A, A):
        if e.then(e) != e:
            continue
        image = e.image()
        kernel = [a for a in range(A.size) if e(a) == A.zero]
        out.append(SplitExtension(
            subalgebra(A, kernel), A, subalgebra(A, image),
            FnTable(len(kernel), A.size, tuple(kernel)),
            FnTable(A.size, len(image), tuple(map(image.index, e.values))),
            FnTable(len(image), A.size, tuple(image))))
    return out


@pytest.fixture(params=EXTENSION_NAMES)
def fixture_case(request):
    return (request.param,) + load_fixture(request.param)


@pytest.fixture
def example():
    return load_fixture("example_monoid")


@pytest.fixture
def heyting():
    return load_fixture("heyting_chain")
