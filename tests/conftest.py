import inspect
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from itertools import product
from pathlib import Path

import pytest

from wsext import FiniteAlgebra, FnTable, SplitExtension, enumerate_homomorphisms
from wsext import serialize as S
from wsext.fixtures import EXTENSIONS, fixture_path

EXTENSION_NAMES = sorted(EXTENSIONS)

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args):
    """Run ``python -m wsext`` in a child process that imports this
    checkout's sources first, whatever the caller's PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "wsext", *args], env=env,
                          capture_output=True, text=True, timeout=120)


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


def subalgebra(A: FiniteAlgebra, elements: list[int]) -> FiniteAlgebra:
    """A's operations on ``elements``, a subset closed under them,
    relabelled 0, 1, .. in the order given."""
    pos = {a: i for i, a in enumerate(elements)}
    return FiniteAlgebra(A.signature, len(elements), {
        name: tuple(pos[A.op(name, args)] for args in product(elements, repeat=arity))
        for name, arity in A.signature.ops})


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
