import inspect
import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

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


@pytest.fixture(params=EXTENSION_NAMES)
def fixture_case(request):
    return (request.param,) + load_fixture(request.param)


@pytest.fixture
def example():
    return load_fixture("example_monoid")


@pytest.fixture
def heyting():
    return load_fixture("heyting_chain")
