"""wsext benchmark: CLI pipelines timed end to end, layers timed from outside.

    python3 perfbench/run.py --workload canon-product --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke

A run generates the workload's inputs from the seed (set-up), then drives
the real ``wsext`` CLI in a closed loop with one client: each pass runs the
workload's commands one process at a time.  One untimed warm-up pass comes
first, then passes repeat until --seconds have been measured; after every
pass the set-up is repeated, and its median is reported.  Every
invocation, the warm-up's too, is checked against closed-form answers;
failures are counted, never retried.

--trace 0 reports the end-to-end metrics (medians over passes), with times
at reference speed (see REF_NOMINAL_S).  --trace 1 alternates untraced
passes with traced passes, each traced pass in a fresh interpreter
(traced.py), and reports the per-layer metrics: span times per layer,
computed work counts, and the tracing overhead.  Summary lines go
to stdout; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

from pipeline import ROOT, SRC, WORKLOADS, Workload, probe_startup, run_pass, run_traced_pass

WORK = ROOT / ".perfbench-work"
# after every timed pass the set-up is repeated for at least this long
SETUP_BATCH_S = 0.05

# The host's speed drifts by up to 1.5x over minutes, and a fixed pure-Python
# loop slows down with the CLI.  Every end-to-end time is therefore reported
# at reference speed: multiplied by REF_NOMINAL_S over the mean time of the
# loop run just before and just after the timed work.  REF_NOMINAL_S is
# about the loop's median time on the baseline machine, so the figures stay
# close to seconds there.
REF_ITERATIONS, REF_NOMINAL_S = 800_000, 0.25

# a span-time metric <name>_s sums the durations of every span of that name
# in a traced pass; <name>_self_s sums their self times
SPAN_METRICS = [
    "serialize.ext_decode", "serialize.json_parse", "serialize.gamma_decode",
    "serialize.canonical_to_obj", "serialize.dump",
    "extension.validate", "extension.count_witnesses", "extension.find_witnesses",
    "extension.is_schreier",
    "canonical.build", "canonical.verify",
    "gammabuild.check_conditions", "gammabuild.compute_Y", "gammabuild.rebuild",
]
SELF_METRICS = ["gammabuild.check_conditions", "gammabuild.rebuild"]
# the layer spans that should account for most of each command
SHARES = {
    "check": ("extension.",),
    "canonicalize": ("canonical.build", "serialize.canonical_to_obj", "serialize.dump"),
    "gamma-check": ("gammabuild.",),
}
# computed from the family's closed forms, identical for every seed
COMPUTED = {
    "extension.feasible_evals": ("feasible_evals", "count"),
    "extension.feasible_hit_ratio": ("feasible_hit_ratio", "ratio"),
    "canonical.gamma_entries": ("gamma_entries", "count"),
    "canonical.gamma_on_Y_ratio": ("gamma_on_Y_ratio", "ratio"),
    "gammabuild.axiom_cases": ("axiom_cases", "count"),
    "gammabuild.carrier_size": ("carrier_size", "count"),
}


def reference_s() -> float:
    """Wall time of the fixed reference loop: tuple, dict and integer work."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(REF_ITERATIONS):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


def ref_scale(before: float, after: float) -> float:
    return 2 * REF_NOMINAL_S / (before + after)


def setup(wl: Workload, seed: int, workdir: Path) -> tuple:
    """Generate and write the inputs into an empty directory; (family,
    input bytes)."""
    if workdir.exists():
        shutil.rmtree(workdir)
    fam = wl.family(seed)
    return fam, fam.write(workdir)


def setup_batch(wl: Workload, seed: int, workdir: Path) -> list[float]:
    """Generate and rewrite the same inputs for at least SETUP_BATCH_S; the
    raw time of each repetition."""
    times: list[float] = []
    while sum(times) < SETUP_BATCH_S:
        start = time.perf_counter()
        wl.family(seed).write(workdir)
        times.append(time.perf_counter() - start)
    return times


def pass_metrics(invs) -> dict:
    out = {
        "wall_s": sum(inv.wall_s for inv in invs),
        "cpu_s": sum(inv.cpu_s for inv in invs),
        "peak_rss_mb": max(inv.maxrss_mb for inv in invs),
        "out_bytes": sum(inv.out_bytes for inv in invs),
    }
    for inv in invs:
        out[f"cli.{inv.command.replace('-', '_')}_s"] = inv.wall_s
    return out


def scaled(row: dict, scale: float) -> dict:
    """The pass's times at reference speed: wall_ref_s, cpu_ref_s and one
    <command>_ref_s per command the workload runs."""
    return {f"{k.removeprefix('cli.').removesuffix('_s')}_ref_s": v * scale
            for k, v in row.items() if k in ("wall_s", "cpu_s") or k.startswith("cli.")}


def span_metrics(trace: dict, startup_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, plus internal figures (the
    estimated traced-pass cost and the layer time within each command)."""
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    out = {f"{name}_s": 0.0 for name in SPAN_METRICS}
    out.update({f"{name}_self_s": 0.0 for name in SELF_METRICS})
    out["canonical.build_rss_mb"] = 0.0
    for s in spans:
        if s["name"] in SPAN_METRICS:
            out[f"{s['name']}_s"] += s["duration_s"]
        if s["name"] in SELF_METRICS:
            out[f"{s['name']}_self_s"] += s["self_s"]
        if s["name"] == "canonical.build":
            out["canonical.build_rss_mb"] += s["rss_growth_kb"] / 1024
    roots = [s for s in spans if s["parent"] is None and s["name"] != "cli.import"]
    covered = sum(s["duration_s"] - s["self_s"] for s in roots)
    total = sum(s["duration_s"] for s in roots)
    out["trace.span_coverage"] = covered / total if total else 0.0

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    layer = {cmd: 0.0 for cmd in SHARES}
    for s in spans:
        chain = list(ancestors(s))
        if not chain:
            continue
        cmd = chain[-1]["name"].removeprefix("cli.")
        names = SHARES.get(cmd, ())
        if s["name"].startswith(names) and not any(a["name"].startswith(names)
                                                   for a in chain):
            layer[cmd] += s["duration_s"]
    # the traced process pays one interpreter start-up where the untraced
    # pass pays one per command
    internal = {"traced_pass_s": trace["process_wall_s"] + (len(roots) - 1) * startup_s,
                **{f"layer.{cmd}": t for cmd, t in layer.items()}}
    return out, internal


def summary(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with at least ten samples
    beyond it (none below twenty samples)."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def medians(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def failures(pass_list) -> tuple[int, int, list[str]]:
    invs = [inv for p in pass_list for inv in p]
    bad = [f"{inv.command}: {'; '.join(inv.problems)}" for inv in invs if inv.problems]
    return len(invs), len(bad), bad


def timed_run(wl: Workload, seed: int, fam, workdir: Path, seconds: float):
    """Passes for `seconds` after one warm-up.  Every pass is followed by a
    batch of set-up repetitions and the reference loop; the pass and the
    batch are scaled by the loop's times on both sides of them."""
    passes = [run_pass(wl, fam, workdir)]  # warm-up: gated, not timed
    rows, setup_times = [], []
    before = reference_s()
    start = time.perf_counter()
    while not rows or time.perf_counter() - start < seconds:
        invs = run_pass(wl, fam, workdir)
        reps = setup_batch(wl, seed, workdir)
        after = reference_s()
        scale = ref_scale(before, after)
        row = pass_metrics(invs)
        row.update(scaled(row, scale), ref_loop_s=after)
        passes.append(invs)
        rows.append(row)
        setup_times.extend(t * scale for t in reps)
        before = after
    return passes, rows, setup_times


def traced_run(wl: Workload, fam, workdir: Path, seconds: float):
    passes, rows, traces, startups = [], [], [], []
    start = time.perf_counter()
    while not traces or time.perf_counter() - start < seconds:
        invs = run_pass(wl, fam, workdir)
        passes.append(invs)
        rows.append(pass_metrics(invs))
        invs, trace = run_traced_pass(wl, fam, workdir, len(traces))
        passes.append(invs)
        traces.append(trace)
        startups.extend(probe_startup(workdir) for _ in range(3))
    return passes, rows, traces, startups


def layer_metrics(fam, rows, traces, startups, in_bytes, workdir) -> tuple[dict, dict]:
    """(metric -> (value, unit), internal medians) of a traced run."""
    startup = statistics.median(startups)
    pairs = [span_metrics(t, startup) for t in traces]
    e2e = medians(rows)
    spans = medians([p[0] for p in pairs])
    internal = medians([p[1] for p in pairs])
    out = {"cli.startup_s": (startup, "s")}
    for cmd in ("check", "canonicalize", "gamma_check"):
        out[f"cli.{cmd}_s"] = (e2e.get(f"cli.{cmd}_s", 0.0), "s")
    out["serialize.in_bytes"] = (in_bytes, "B")
    out["serialize.out_bytes"] = (sum((workdir / f).stat().st_size
                                      for f in ("canon.json", "rebuilt.json")
                                      if (workdir / f).exists()), "B")
    for name, value in spans.items():
        unit = "MB" if name.endswith("_mb") else "ratio" if name.endswith("coverage") else "s"
        out[name] = (value, unit)
    counts = fam.counts()
    for name, (key, unit) in COMPUTED.items():
        out[name] = (counts[key], unit)
    out["trace.overhead_s"] = (internal["traced_pass_s"] - e2e["wall_s"], "s")
    return out, {**internal, **e2e}


def print_summary(title: str, table: dict, extra: list[str]) -> None:
    print(f"# {title}")
    for name, (stats, unit) in table.items():
        parts = [f"median={stats['median']:.6g} {unit}"]
        if "q1" in stats:
            parts.append(f"q1={stats['q1']:.6g} q3={stats['q3']:.6g}")
        tail = [k for k in stats if k.startswith("p")]
        parts.append(f"{tail[0]}={stats[tail[0]]:.6g}" if tail else "tail: n<20, none")
        print(f"{name:28s} " + "  ".join(parts) + f"  n={stats['n']}")
    for line in extra:
        print(line)


def share_lines(internal: dict, wl: Workload) -> list[str]:
    """How much of each command's end-to-end time its layer spans account for."""
    lines = []
    for cmd, names in SHARES.items():
        if cmd in wl.commands:
            e2e = internal[f"cli.{cmd.replace('-', '_')}_s"]
            lines.append(f"share of cli.{cmd.replace('-', '_')}_s in "
                         f"{' + '.join(names)} spans: {internal[f'layer.{cmd}'] / e2e:.3f}")
    return lines


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    workdir = WORK / args.workload
    fam, in_bytes = setup(wl, args.seed, workdir)
    probe_startup(workdir)  # untimed: compiles bytecode on a fresh checkout
    title = (f"{args.workload} seed={args.seed} m={wl.m} closed loop, 1 client, "
             f"commands={'+'.join(wl.commands)}")
    if not args.trace:
        passes, rows, setup_times = timed_run(wl, args.seed, fam, workdir, args.seconds)
        attempted, failed, bad = failures(passes)
        units = {**{k: "s" for k in rows[0] if k.endswith("_ref_s")},
                 "peak_rss_mb": "MB", "out_bytes": "B"}
        table = {k: (summary([r[k] for r in rows]), unit) for k, unit in units.items()}
        table["setup_s"] = (summary(setup_times), "s")
        # as measured, not scaled: printed, not reported in the result
        extra = {k: (summary([r[k] for r in rows]), "s")
                 for k in rows[0] if k not in table and k.endswith("_s")}
        print_summary(title, {**table, **extra},
                      [f"fail_frac = {failed}/{attempted}", *bad[:10]])
        metrics = {k: {"value": stats["median"], "unit": unit}
                   for k, (stats, unit) in table.items()}
    else:
        passes, rows, traces, startups = traced_run(wl, fam, workdir, args.seconds)
        attempted, failed, bad = failures(passes)
        values, internal = layer_metrics(fam, rows, traces, startups, in_bytes, workdir)
        (workdir / f"trace-seed{args.seed}.json").write_text(json.dumps(
            [s for t in traces for s in t["spans"]]))
        print(f"# {title}, traced passes={len(traces)}")
        for name, (value, unit) in values.items():
            print(f"{name:32s} {value:.6g} {unit}")
        for line in [*share_lines(internal, wl), f"fail_frac = {failed}/{attempted}", *bad[:10]]:
            print(line)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def smoke() -> int:
    """Every workload at m = 2 and 3, one untraced and one traced pass each."""
    bad = 0
    for name, wl in WORKLOADS.items():
        for m in (2, 3):
            tiny = dataclasses.replace(wl, m=m)
            workdir = WORK / f"smoke-{name}-{m}"
            fam, _ = setup(tiny, 1, workdir)
            passes = [run_pass(tiny, fam, workdir),
                      run_traced_pass(tiny, fam, workdir, 0)[0]]
            attempted, failed, problems = failures(passes)
            bad += failed
            print(f"{name} m={m}: {attempted - failed}/{attempted} ok", *problems)
            shutil.rmtree(workdir)
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at m = 2 and 3 and exit")
    args = ap.parse_args(argv)
    if not (SRC / "wsext" / "cli.py").is_file():
        print(f"error: no wsext sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
