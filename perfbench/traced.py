"""One traced pass, in a fresh interpreter.

Runs the given CLI commands in-process through ``wsext.cli.main`` and
records one span per call of the library's public functions at each layer
boundary (serialize, extension, canonical, gammabuild).  The functions are
wrapped from outside: every module attribute bound to a traced function is
replaced by a wrapper for the life of this process, so calls between
layers (``build_extension_from_gamma`` re-running ``check_conditions``,
``load_extension`` parsing JSON) become child spans.  Spans stay in memory
and are written once, when the pass ends.

Usage (from a workload directory holding ext.json and theta.json):

    python traced.py --pass-id 0 --out spans.json check canonicalize gamma-check
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
from pathlib import Path

from pipeline import COMMANDS, SRC

# span name -> (module, function); the span name is the metric prefix
TRACED = {
    "serialize.ext_decode": ("serialize", "load_extension"),
    "serialize.json_parse": ("serialize", "_load_json"),
    "serialize.gamma_decode": ("serialize", "gamma_from_obj"),
    "serialize.canonical_to_obj": ("serialize", "canonical_to_obj"),
    "serialize.extension_to_obj": ("serialize", "extension_to_obj"),
    "serialize.dump": ("serialize", "dump_json"),
    "serialize.report_text": ("serialize", "to_text"),
    "extension.validate": ("extension", "validate_split_extension"),
    "extension.count_witnesses": ("extension", "count_witnesses"),
    "extension.find_witnesses": ("extension", "find_witnesses"),
    "extension.is_schreier": ("extension", "is_schreier"),
    "canonical.build": ("canonical", "build_canonical"),
    "canonical.verify": ("canonical", "verify_isomorphism"),
    "gammabuild.check_conditions": ("gammabuild", "check_conditions"),
    "gammabuild.compute_Y": ("gammabuild", "compute_Y"),
    "gammabuild.rebuild": ("gammabuild", "build_extension_from_gamma"),
}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span recorder: [id, name, start, end, parent, pass, rss growth]."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "pass": self.pass_id}
        self.spans.append(span)
        self._stack.append(span["id"])
        rss0 = _maxrss_kb()
        span["start"] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            span["rss_growth_kb"] = _maxrss_kb() - rss0
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def finished(self) -> list[dict]:
        """Spans with duration and self time (duration minus child spans)."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            s["duration_s"] = s["end"] - s["start"]
            if s["parent"] is not None:
                child_time[s["parent"]] += s["duration_s"]
        for s in self.spans:
            s["self_s"] = s["duration_s"] - child_time[s["id"]]
        return self.spans


def install(tracer: Tracer) -> None:
    """Rebind every wsext module attribute that holds a traced function."""
    import wsext.cli  # noqa: F401  (loads every layer module)

    modules = [m for n, m in sys.modules.items() if n == "wsext" or n.startswith("wsext.")]
    for span_name, (mod, attr) in TRACED.items():
        original = getattr(sys.modules[f"wsext.{mod}"], attr)
        wrapper = tracer.wrap(span_name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pass-id", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("commands", nargs="+", choices=sorted(COMMANDS))
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))

    tracer = Tracer(args.pass_id)
    tracer.call("cli.import", install, tracer)
    from wsext import cli

    exit_codes = {}
    real_stdout = sys.stdout
    for cmd in args.commands:
        with open(f"traced-{cmd}.out", "w") as out:
            sys.stdout = out
            try:
                exit_codes[cmd] = tracer.call(f"cli.{cmd}", cli.main, COMMANDS[cmd])
            finally:
                sys.stdout = real_stdout
    Path(args.out).write_text(json.dumps(
        {"exit_codes": exit_codes, "spans": tracer.finished()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
