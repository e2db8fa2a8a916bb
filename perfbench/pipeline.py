"""Workloads, CLI invocations and the correctness gate.

Every invocation of the real ``wsext`` CLI runs as its own process with
``--json``; its exit code and report are checked against the closed forms
of the generated family.  Both the untraced passes (run.py) and the traced
passes (traced.py) go through the same checks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from families import FAMILIES, Family

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

# argv after ``python -m wsext`` for each command; paths are relative to the
# workload directory, which is the working directory of every invocation
COMMANDS = {
    "check": ["check", "ext.json", "--theta", "theta.json", "--json"],
    "canonicalize": ["canonicalize", "ext.json", "--theta", "theta.json",
                     "-o", "canon.json", "--json"],
    "gamma-check": ["gamma-check", "canon.json", "--rebuild", "rebuilt.json", "--json"],
}
OUT_FILES = {"canonicalize": "canon.json", "gamma-check": "rebuilt.json"}
FULL = ("check", "canonicalize", "gamma-check")

# an invocation that runs this long is killed and counted as failed
KILL_AFTER_S = 120.0


@dataclass(frozen=True)
class Workload:
    """A family at one size and the command sequence of one pass."""

    kind: str
    m: int
    commands: tuple[str, ...]

    def family(self, seed: int) -> Family:
        return FAMILIES[self.kind](self.m, seed)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# Sizes keep one pass at 1.5-3 s on a 2-core machine, so that a 30 s run
# holds enough passes for a steady median.
WORKLOADS = {
    "canon-product": Workload("product", 7, FULL),
    "roundtrip-dihedral": Workload("dihedral", 20, FULL),
    "search-product": Workload("product", 20, ("check",)),
}


def child_env() -> dict:
    """Environment for child processes: the checkout's sources come first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@dataclass
class Invocation:
    """One measured child process."""

    command: str
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: bytes
    out_bytes: int = 0
    problems: list[str] = field(default_factory=list)


def spawn(argv: list[str], cwd: Path, stdout_path: Path) -> tuple[int, float, float, float]:
    """Run argv to completion; (exit code, wall s, user+sys cpu s, maxrss MB).

    os.wait4 reaps the child and returns its own resource usage, so memory
    and CPU are per process, not accumulated over the benchmark's children.
    """
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out)
        watchdog = threading.Timer(KILL_AFTER_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024)


def run_cli(command: str, workdir: Path) -> Invocation:
    stdout_path = workdir / f"{command}.out"
    code, wall, cpu, rss = spawn([sys.executable, "-m", "wsext", *COMMANDS[command]],
                                 workdir, stdout_path)
    inv = Invocation(command, code, wall, cpu, rss, stdout_path.read_bytes())
    finish(inv, workdir)
    return inv


def finish(inv: Invocation, workdir: Path) -> None:
    """Count output bytes; a missing output file is recorded as a problem."""
    inv.out_bytes = len(inv.stdout)
    name = OUT_FILES.get(inv.command)
    if name is not None:
        path = workdir / name
        if path.exists():
            inv.out_bytes += path.stat().st_size
        else:
            inv.problems.append(f"{name} not written")


def _all_ok(entries) -> bool:
    return bool(entries) and all(e.get("ok") is True for e in entries)


def check_report(inv: Invocation, fam: Family) -> None:
    """Append to inv.problems every way the report misses the closed form."""
    problems = inv.problems
    if inv.exit_code != 0:
        problems.append(f"exit code {inv.exit_code}")
    try:
        rep = json.loads(inv.stdout)
    except ValueError:
        problems.append("stdout is not a JSON report")
        return
    if rep.get("schema") != "wsext.report/1" or rep.get("command") != inv.command:
        problems.append("wrong schema or command")
    _, a_size, _ = fam.sizes
    if inv.command == "check":
        expect = {"valid": True, "witness_count": fam.witness_count,
                  "schreier": fam.schreier, "n": fam.n}
        for key, want in expect.items():
            if rep.get(key) != want:
                problems.append(f"{key} = {rep.get(key)!r}, expected {want!r}")
        if rep.get("sizes", {}).get("A") != a_size:
            problems.append("sizes.A differs from |A|")
        if not _all_ok(rep.get("validation")):
            problems.append("a validation entry failed")
    else:
        if rep.get("carrier_size") != a_size:
            problems.append(f"carrier_size = {rep.get('carrier_size')}, expected {a_size}")
        key = "verification" if inv.command == "canonicalize" else "conditions"
        entries = rep.get(key)
        if not _all_ok(entries) or (key == "conditions" and len(entries) != 4):
            problems.append(f"{key}: not every entry ok")
        if inv.command == "gamma-check" and rep.get("rebuild", {}).get("ok") is not True:
            problems.append("rebuild failed")


def check_rebuilt(workdir: Path, fam: Family) -> list[str]:
    """Reload the --rebuild output and revalidate it (outside every timer)."""
    from wsext.errors import ToolkitError
    from wsext.extension import validate_split_extension
    from wsext.serialize import load_extension

    try:
        e, _, _ = load_extension(workdir / "rebuilt.json")
    except ToolkitError as exc:
        return [f"rebuilt.json does not reload: {exc}"]
    problems = []
    if not validate_split_extension(e).ok:
        problems.append("rebuilt extension fails validation")
    if e.A.size != fam.sizes[1]:
        problems.append(f"rebuilt middle has {e.A.size} elements, expected {fam.sizes[1]}")
    return problems


def gate(invocations: list[Invocation], fam: Family, workdir: Path) -> None:
    """Run every check of one pass; the rebuild check is charged to gamma-check."""
    for inv in invocations:
        check_report(inv, fam)
        if inv.command == "gamma-check" and not inv.problems:
            inv.problems.extend(check_rebuilt(workdir, fam))


def clear_outputs(workdir: Path) -> None:
    """Remove the previous pass's output files, so a missing one shows."""
    for name in OUT_FILES.values():
        (workdir / name).unlink(missing_ok=True)


def run_pass(wl: Workload, fam: Family, workdir: Path) -> list[Invocation]:
    """One untraced pass: the workload's commands, one process at a time."""
    clear_outputs(workdir)
    invs = [run_cli(cmd, workdir) for cmd in wl.commands]
    gate(invs, fam, workdir)
    return invs


def run_traced_pass(wl: Workload, fam: Family, workdir: Path,
                    pass_id: int) -> tuple[list[Invocation], dict]:
    """One traced pass in a fresh interpreter (see traced.py)."""
    spans_path = workdir / f"spans-{pass_id}.json"
    clear_outputs(workdir)
    code, wall, _, _ = spawn(
        [sys.executable, str(HERE / "traced.py"), "--pass-id", str(pass_id),
         "--out", str(spans_path), *wl.commands],
        workdir, workdir / "traced.out")
    if code != 0 or not spans_path.exists():
        invs = [Invocation(c, code, 0.0, 0.0, 0.0, b"", problems=["traced pass crashed"])
                for c in wl.commands]
        return invs, {"spans": [], "process_wall_s": wall}
    trace = json.loads(spans_path.read_text())
    spans_path.unlink()
    trace["process_wall_s"] = wall
    invs = []
    for cmd in wl.commands:
        inv = Invocation(cmd, trace["exit_codes"][cmd], 0.0, 0.0, 0.0,
                         (workdir / f"traced-{cmd}.out").read_bytes())
        finish(inv, workdir)
        invs.append(inv)
    gate(invs, fam, workdir)
    return invs, trace


def probe_startup(workdir: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    code, wall, _, _ = spawn([sys.executable, "-c", "import wsext.cli"],
                             workdir, workdir / "startup.out")
    if code != 0:
        raise RuntimeError("cannot import wsext.cli from the checkout's sources")
    return wall
