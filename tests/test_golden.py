"""Golden outputs: the plain stdout and every written file of ``check``,
``canonicalize -o``, ``gamma-check --rebuild``, ``pullback -o`` (along
the identity homomorphism on B) and ``product-check`` (on the kernel
algebra X) for each bundled extension, and the one stderr line of
``check`` with the inadmissible witness term x over (x, y), compared byte
for byte, with the exit code of every run.

Each fixture runs in its own directory holding copies of its extension and
theta files, with relative paths, so no absolute path reaches the output.
After a deliberate change of output, rewrite the goldens with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from wsext.cli import main
from wsext.fixtures import EXTENSIONS, fixture_path

GOLDEN = Path(__file__).resolve().parent / "golden"

# (name of the stdout file, argv); names ending in .json are written by the run
RUNS = [
    ("check.txt", ["check", "{ext}", "--theta", "{theta}"]),
    ("canonicalize.txt", ["canonicalize", "{ext}", "--theta", "{theta}", "-o", "canon.json"]),
    ("gamma-check.txt", ["gamma-check", "canon.json", "--rebuild", "rebuilt.json"]),
    ("pullback.txt", ["pullback", "{ext}", "hom.json", "--theta", "{theta}",
                      "-o", "pullback.json"]),
    ("product-check.txt", ["product-check", "kernel.json", "--theta", "{theta}"]),
    ("check-inadmissible.txt", ["check", "{ext}", "--theta-vars", "x,y", "--theta-term", "x"]),
]


@contextlib.contextmanager
def _chdir(path: Path):
    before = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(before)


def outputs(name: str, work: Path) -> dict[str, bytes]:
    """File name -> bytes: the stdout of each run, its stderr when it wrote
    any (as <run>.err), the exit codes of all runs (exit-codes.txt) and
    every file the runs wrote, with the fixture's runs made in the empty
    directory ``work``."""
    ext, theta = f"{name}.json", f"{EXTENSIONS[name]}.json"
    shutil.copyfile(fixture_path(name), work / ext)
    shutil.copyfile(fixture_path(theta), work / theta)
    doc = json.loads((work / ext).read_text())
    B = doc["B"]
    (work / "hom.json").write_text(json.dumps({"B_prime": B, "f": list(range(B["size"]))}))
    (work / "kernel.json").write_text(json.dumps(doc["X"]))
    got, codes = {}, []
    with _chdir(work):
        for stdout_name, argv in RUNS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([a.format(ext=ext, theta=theta) for a in argv])
            got[stdout_name] = out.getvalue().encode()
            if err.getvalue():
                got[stdout_name.replace(".txt", ".err")] = err.getvalue().encode()
            codes.append(f"{stdout_name} {code}\n")
    got["exit-codes.txt"] = "".join(codes).encode()
    for written in ("canon.json", "rebuilt.json", "pullback.json"):
        got[written] = (work / written).read_bytes()
    return got


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_outputs_match_the_goldens(name, tmp_path):
    got = outputs(name, tmp_path)
    want = {p.name: p.read_bytes() for p in sorted((GOLDEN / name).iterdir())}
    assert sorted(got) == sorted(want)
    for file_name in sorted(want):
        assert got[file_name] == want[file_name], f"{name}/{file_name} differs"


if __name__ == "__main__":
    for fixture in sorted(EXTENSIONS):
        with tempfile.TemporaryDirectory() as tmp:
            files = outputs(fixture, Path(tmp))
        target = GOLDEN / fixture
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for file_name, data in files.items():
            (target / file_name).write_bytes(data)
        print(f"wrote {len(files)} files to {target}", file=sys.stderr)
