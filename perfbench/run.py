#!/usr/bin/env python3
"""exseq benchmark: one command, three seeded workloads, every metric printed.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-matrix --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1 makes
a separate traced run: untraced passes, then passes that replay the same
public calls with a span around each call into a module, then the layer
probes; it prints the per-layer metrics.  --smoke runs every workload at toy
size in both modes and checks metric names, units and the output schema
against BENCHMARK.json, with no timing gate.

End-to-end times are scaled to a reference machine speed measured during
the run (see workloads.py and README.md); per-layer times are raw.

stdout ends with two lines: a run record (Python, platform, nproc, git
revision, seed, load average, the generated inputs, sample counts, raw
times) and the result {"correct", "attempted", "failed", "metrics"}.  A traced run also
writes its spans to .bench_out/.  The library is imported from src/ of the
checkout; without it the benchmark exits with status 2 and no result.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-up is repeated at least SETUP_REPEATS times and until SETUP_BUDGET_S
# seconds have been spent on it (at most SETUP_MAX_REPEATS times).
SETUP_REPEATS, SETUP_MAX_REPEATS, SETUP_BUDGET_S = 3, 25, 1.0
# Every request is timed at least this many times; its median time counts.
MIN_PASSES = 3

END_TO_END = (
    ("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"),
    ("biject_ms_p50", "ms"), ("biject_ms_p99", "ms"),
    ("torsion_ms_p50", "ms"), ("torsion_ms_p95", "ms"),
    ("riedtmann_ms_p50", "ms"), ("riedtmann_ms_p90", "ms"),
)

MODULES = ("roots", "derived", "silting", "sequences", "weyl", "riedtmann", "cli")

# Per-layer self times per traced pass: metric -> the (module, span) pairs.
SPAN_TIMES = {
    "roots.build_s": [("roots", "build")],
    "silting.enumerate_s": [("silting", "enumerate")],
    "silting.s2c_s": [("silting", "s2c")],
    "silting.c2s_s": [("silting", "c2s")],
    "silting.order_s": [("silting", "order")],
    "sequences.mu_rev_s": [("sequences", "mu_rev"), ("sequences", "mu_rev_inverse")],
    "sequences.complete_s": [("sequences", "complete")],
    "sequences.mutate_s": [("sequences", "mutate")],
    "weyl.generate_s": [("weyl", "generate")],
    "weyl.nc_s": [("weyl", "nc")],
    "weyl.phi_s": [("weyl", "phi")],
    "weyl.phi_inverse_s": [("weyl", "phi_inverse")],
    "riedtmann.to_periodic_s": [("riedtmann", "to_periodic")],
    "riedtmann.from_periodic_s": [("riedtmann", "from_periodic")],
    "riedtmann.torsion_s": [("riedtmann", "torsion")],
    "cli.emit_s": [("cli", "emit")],
}
# Calls per traced pass, counted as spans.
SPAN_CALLS = {
    "roots.build_calls": [("roots", "build")],
    "silting.enumerate_calls": [("silting", "enumerate")],
    "sequences.mu_rev_calls": [("sequences", "mu_rev"),
                               ("sequences", "mu_rev_inverse")],
    "weyl.phi_calls": [("weyl", "phi")],
}
# Counts per traced pass, taken from the returned values.
STAT_COUNTS = (
    "silting.collections_out", "sequences.sign.negative",
    "sequences.sign.nonnegative", "sequences.sign.orthogonal",
    "sequences.complete_count", "weyl.group_order", "weyl.nc_count",
    "riedtmann.torsion_members", "cli.payload_bytes",
)
PROBES = (("derived.hom_cold_us", "us"), ("derived.hom_warm_us", "us"),
          ("derived.window_objects", "count"), ("silting.predicate_us", "us"))
SETUP_MODULES = ("roots", "silting", "derived")


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in SPAN_TIMES}
    units.update((name, "count") for name in SPAN_CALLS)
    units.update((name, "bytes" if name.endswith("_bytes") else "count")
                 for name in STAT_COUNTS)
    units.update(PROBES)
    units.update((f"{m}.self_s", "s") for m in MODULES)
    units.update((f"{m}.failed", "count") for m in MODULES)
    units.update((f"setup.{m}_s", "s") for m in SETUP_MODULES)
    units.update({"cli.overhead_s": "s", "trace.untraced_pass_s": "s",
                  "trace.traced_pass_s": "s", "trace.overhead_s": "s",
                  "trace.unaccounted_s": "s", "trace.passes": "count"})
    return units


def import_library():
    """Import exseq from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import exseq
    except ImportError as exc:
        print(f"error: cannot import exseq from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(exseq.__file__).resolve().parent != SRC / "exseq":
        print(f"error: exseq was imported from {exseq.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    import spans
    import workloads
    return spans, workloads


# ---------------------------------------------------------------------------
# The run record.
# ---------------------------------------------------------------------------

def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, scale) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": scale,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(), "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "git_revision": git_revision(), "loadavg_before": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics.
# ---------------------------------------------------------------------------

def fitting_passes(start: float, seconds: float, minimum: int = MIN_PASSES):
    """Yield once per pass: at least `minimum` times, then while another
    pass as long as the last one still ends within `seconds` of `start`."""
    count = 0
    while True:
        begin = time.perf_counter()
        yield count
        count += 1
        end = time.perf_counter()
        if count >= minimum and end + (end - begin) - start > seconds:
            return


def timed_run(wl, w, seed, seconds, scale, record) -> dict:
    tally = wl.Tally()
    raw_setups, passes = [], []
    with tally.sampling():
        while len(raw_setups) < SETUP_REPEATS or (
                sum(raw_setups) < SETUP_BUDGET_S
                and len(raw_setups) < SETUP_MAX_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            state = w.setup(random.Random(seed), scale)
            t1 = time.perf_counter()
            tally.time(("setup", len(raw_setups), 0), t0, t1)
            raw_setups.append(t1 - t0)
        start = time.perf_counter()
        for _ in fitting_passes(start, seconds):
            gc.collect()
            passes.append(w.run_pass(state, tally))
        measured = time.perf_counter() - start
    tally.settle()
    setups = tally.latencies("setup")
    latencies = {kind: [x * 1e3 for x in tally.latencies(kind)] for kind in wl.TAILS}
    for kind, ms in latencies.items():
        if scale == "full" and wl.beyond(len(ms), wl.TAILS[kind]) < wl.MIN_BEYOND:
            tally.fail(f"{kind}: {len(ms)} samples leave fewer than "
                       f"{wl.MIN_BEYOND} beyond the tail")
    refs = [ref for _, _, ref in tally.points]
    record.update(
        inputs=w.inputs(state), measured_s=measured,
        reference_kernel_ms={"nominal": wl.REF_NOMINAL_S * 1e3,
                             "min": min(refs) * 1e3,
                             "median": statistics.median(refs) * 1e3,
                             "max": max(refs) * 1e3, "points": len(refs)},
        setup_s_scaled=setups, setup_s_raw=raw_setups, pass_totals_s_raw=passes,
        samples={kind: {"distinct": len(ms), "repeats": len(passes),
                        "beyond_tail": wl.beyond(len(ms), wl.TAILS[kind])}
                 for kind, ms in latencies.items()},
        errors=tally.errors)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": sum(tally.latencies(*w.pass_kinds)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - tally.failed / tally.attempted,
    }
    for kind, q in wl.TAILS.items():
        # No samples means every call of the kind failed; the run is then
        # not correct and the latency reads 0.
        ms = latencies[kind] or [0.0]
        metrics[f"{kind}_ms_p50"] = statistics.median(ms)
        metrics[f"{kind}_ms_p{round(q * 100)}"] = wl.percentile(ms, q)
    return result(tally, metrics, dict(END_TO_END))


# ---------------------------------------------------------------------------
# Traced run: the per-layer metrics.
# ---------------------------------------------------------------------------

def traced_run(wl, sp, w, seed, seconds, scale, record) -> dict:
    rng = random.Random(seed)
    tracer = sp.Tracer()
    tracer.request = "setup"
    state = w.setup(rng, scale, tracer)
    setup_self = tracer.self_times()
    tally = wl.Tally()
    first = len(tracer.spans)
    stats: Counter = Counter()
    untraced, traced = [], []
    start = time.perf_counter()
    # Untraced and traced passes alternate, so both see the same mix of
    # fast and slow stretches of the machine.
    for _ in fitting_passes(start, seconds, minimum=2):
        gc.collect()
        untraced.append(w.run_pass(state, tally))
        gc.collect()
        traced.append(w.replay_pass(state, tracer, stats, tally))
    tracer.request = None
    probes = w.probes(state, rng, tally)

    passes = len(traced)
    self_s = {k: v / passes for k, v in tracer.self_times(first).items()}
    calls = tracer.counts(first)
    metrics = {name: sum(self_s.get(key, 0.0) for key in keys)
               for name, keys in SPAN_TIMES.items()}
    metrics.update((name, sum(calls[key] for key in keys) / passes)
                   for name, keys in SPAN_CALLS.items())
    metrics.update((name, stats[name] / passes) for name in STAT_COUNTS)
    metrics.update(probes)
    layer = {m: sum(v for (mod, _), v in self_s.items() if mod == m) for m in MODULES}
    metrics.update((f"{m}.self_s", layer[m]) for m in MODULES)
    metrics.update((f"{m}.failed", tracer.failed[m]) for m in MODULES)
    metrics.update(
        (f"setup.{m}_s", sum(v for (mod, _), v in setup_self.items() if mod == m))
        for m in SETUP_MODULES)

    # untraced pass = (self times of the layers other than cli) +
    # cli.overhead_s.  Of cli.overhead_s, cli.self_s is covered by cli spans;
    # the rest is CLI work the replay does not repeat (argument parsing),
    # net of the cost of the spans themselves.
    untraced_s = statistics.mean(untraced)
    traced_s = statistics.mean(traced)
    non_cli = sum(v for m, v in layer.items() if m != "cli")
    metrics.update({
        "cli.overhead_s": untraced_s - non_cli,
        "trace.untraced_pass_s": untraced_s,
        "trace.traced_pass_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.unaccounted_s": untraced_s - non_cli - layer["cli"],
        "trace.passes": passes,
    })
    record.update(
        inputs=w.inputs(state),
        accounting={"untraced_pass_s": untraced_s,
                    "layer_self_s": {m: layer[m] for m in MODULES if m != "cli"},
                    "cli.overhead_s": metrics["cli.overhead_s"],
                    "sum_s": non_cli + metrics["cli.overhead_s"],
                    "cli.self_s": layer["cli"],
                    "remainder_s": metrics["trace.unaccounted_s"]},
        errors=tally.errors)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{w.name}-seed{seed}.json"
    with open(path, "w") as handle:
        json.dump({"run": record, "fields": ["name", "module", "start", "end",
                                              "parent", "request"],
                   "spans": tracer.spans}, handle)
    record["spans_file"] = str(path.relative_to(ROOT))
    return result(tally, metrics, per_layer_units())


def result(tally, metrics: dict, units: dict) -> dict:
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def run_workload(sp, wl, args, scale: str) -> tuple[dict, dict]:
    w = wl.WORKLOADS[args.workload]
    record = run_record(args, scale)
    if args.trace:
        out = traced_run(wl, sp, w, args.seed, args.seconds, scale, record)
    else:
        out = timed_run(wl, w, args.seed, args.seconds, scale, record)
    record["loadavg_after"] = os.getloadavg()
    return record, out


# ---------------------------------------------------------------------------
# Smoke mode.
# ---------------------------------------------------------------------------

def smoke(sp, wl) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for entry in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=entry["name"], seed=1, seconds=0.2,
                                      trace=trace)
            _, out = run_workload(sp, wl, args, "toy")
            where = f"{entry['name']} --trace {trace}"
            if set(out) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(out)}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: v["unit"] for name, v in out["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got) ^ set(want))}")
            bad = [name for name, v in out["metrics"].items()
                   if isinstance(v["value"], bool)
                   or not isinstance(v["value"], (int, float))
                   or not math.isfinite(v["value"])]
            if bad:
                problems.append(f"{where}: non-numeric values {bad}")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(
                    f"{where}: {out['failed']} of {out['attempted']} failed")
            if trace == 0 and out["metrics"]["ok_ratio"]["value"] != 1:
                problems.append(f"{where}: ok_ratio is not 1")
    print(json.dumps({"smoke": "ok" if not problems else "failed",
                      "problems": problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("verify-matrix", "enumerate-e",
                                               "record-stream"))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size and check the schema")
    args = parser.parse_args(argv)
    if not args.smoke and (args.workload is None or args.seed is None
                           or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    sp, wl = import_library()
    if args.smoke:
        return smoke(sp, wl)
    record, out = run_workload(sp, wl, args, "full")
    print(json.dumps({"run": record}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
