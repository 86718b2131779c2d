"""The benchmark's workloads: seeded inputs, timed passes, output checks and
traced replays.

Every workload is a closed loop run by one thread: a pass sends the requests
of a fixed, seed-generated list one after another, each only once the
previous one has returned.  The seed chooses the inputs only (quiver
orientations, record samples); the library receives the generated inputs.

- verify-matrix: `exseq verify` over a matrix of (type, m) rows.
- enumerate-e:   `exseq enumerate` for E8 cluster-tilting and E7 configurations.
- record-stream: per-record bijection, torsion and Riedtmann calls on one
                 shared E7 root system with a warm Hom memo.

verify-matrix and enumerate-e also run a fixed record probe on a D4 quiver
in every pass, so that every workload reports the per-record latencies.

Timed calls are scaled to a fixed machine speed, and each request's time
is the median of its repeats (one per pass).  On a shared virtual machine
the speed of identical work can switch between a fast state and one up to
about 1.9x slower, for seconds to minutes at a time, and a fixed
pure-Python reference kernel slows by about the same factor.  A timer signal times the kernel every SAMPLE_EVERY_S seconds,
between the bytecodes of whatever runs, long library calls included; a
call's time, less the sampler's own time inside it, is multiplied by
REF_NOMINAL_S over the median kernel time of the points around and inside
it.  Raw wall times go into the run record.

Output checks run outside the timed region.  Expected counts come from the
closed forms below, computed from the exponents of each type and not from
the library.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import re
import signal
import statistics
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from math import factorial, prod

from exseq import (
    QuiverDescriptor, WindowSpec, build_root_system, collection,
    config_to_riedtmann, config_to_silting, enumerate_complete_sequences,
    enumerate_kind, enumerate_m_nc, fuss_catalan, generate_weyl, hom_dim,
    is_hom_leq0_config, is_silting, mu_rev, mu_rev_inverse, mutate, nu_inv,
    order_config, order_silting, phi, phi_inverse, riedtmann_to_config,
    silting_to_config, torsion_window, window_objects,
)
from exseq import cli
from exseq.cli import CheckResult, RunReport
from exseq.sequences import MutationSign, mu_rev_steps
from exseq.silting import (
    cluster_tilting_window, collection_to_list, config_window, explain_not_config,
    explain_not_silting,
)

pc = time.perf_counter

# Tail quantile reported for each per-record request kind.  The request
# mixes below give at least MIN_BEYOND distinct samples beyond it.
TAILS = {"biject": 0.99, "torsion": 0.95, "riedtmann": 0.90}
MIN_BEYOND = 10
# Fastest time of reference_kernel() on the fast state of the machine the
# benchmark was defined on (2-vCPU x86-64 VM, CPython 3.11.7).  Scaled times
# read as seconds on that machine in that state.
REF_NOMINAL_S = 0.0014
SAMPLE_EVERY_S = 0.5
# Neighbouring points on each side that also enter a call's kernel time,
# smoothing single noisy points; the machine's speed changes more slowly.
CONTEXT = 2
TORSION_WINDOW = WindowSpec(-1, 3)

# (family, rank, m) rows of verify-matrix.
VERIFY_ROWS = {
    "full": (("A", 4, 1), ("D", 4, 1), ("D", 4, 2), ("A", 5, 1), ("D", 5, 1)),
    "toy": (("A", 3, 1), ("D", 4, 1)),
}
# (family, rank, m, kind) rows of enumerate-e.
ENUMERATE_ROWS = {
    "full": (("E", 8, 1, "m-cluster-tilting"), ("E", 7, 1, "m-config")),
    "toy": (("D", 4, 1, "m-cluster-tilting"), ("A", 3, 1, "m-config")),
}
# Type and per-pass request mix of record-stream, and of the record probe
# that the two CLI workloads run in every pass.  A biject or riedtmann
# request is a round trip giving two samples, one per direction.  The
# record-stream mix keeps each kind at or below about half of a pass.
RECORD_STREAM = {
    "full": (("E", 7), {"biject": 1800, "torsion": 1200, "riedtmann": 60}),
    "toy": (("D", 4), {"biject": 6, "torsion": 6, "riedtmann": 2}),
}
RECORD_PROBE = {
    "full": (("D", 4), {"biject": 550, "torsion": 220, "riedtmann": 55}),
    "toy": (("A", 3), {"biject": 3, "torsion": 3, "riedtmann": 2}),
}


# ---------------------------------------------------------------------------
# Closed forms used as the oracle for every count.
# ---------------------------------------------------------------------------

_E_EXPONENTS = {6: (1, 4, 5, 7, 8, 11), 7: (1, 5, 7, 9, 11, 13, 17),
                8: (1, 7, 11, 13, 17, 19, 23, 29)}


def exponents(family: str, n: int) -> tuple[int, ...]:
    if family == "A":
        return tuple(range(1, n + 1))
    if family == "D":
        return tuple(range(1, 2 * n - 2, 2)) + (n - 1,)
    return _E_EXPONENTS[n]


def expected_counts(family: str, n: int, m: int) -> dict[str, int]:
    """Fuss-Catalan, positive Fuss-Catalan and the number of complete
    exceptional sequences n! h^n / |W|."""
    e = exponents(family, n)
    h = max(e) + 1
    order = prod(x + 1 for x in e)
    return {
        "fuss-catalan": prod(m * h + x + 1 for x in e) // order,
        "positive-fuss-catalan": prod(m * h + x - 1 for x in e) // order,
        "complete-exceptional-sequences": factorial(n) * h ** n // order,
    }


def verify_expectations(family: str, n: int, m: int) -> dict[str, int]:
    """Every count `exseq verify` reports, keyed as in its JSON."""
    c = expected_counts(family, n, m)
    fc, pos = c["fuss-catalan"], c["positive-fuss-catalan"]
    return {"fuss-catalan": fc, "m-cluster-tilting": fc, "m-config": fc,
            "m-noncrossing-partitions": fc, "positive-fuss-catalan": pos,
            "silting-deg1-window": pos, "m-config-minus": pos,
            "complete-exceptional-sequences": c["complete-exceptional-sequences"]}


# ---------------------------------------------------------------------------
# Seeded inputs.
# ---------------------------------------------------------------------------

def dynkin_edges(family: str, n: int) -> list[tuple[int, int]]:
    """Edges of the Dynkin diagram: a path, plus the branch of D and E."""
    if family == "A":
        return [(i, i + 1) for i in range(1, n)]
    if family == "D":
        return [(i, i + 1) for i in range(1, n - 1)] + [(n - 2, n)]
    return [(i, i + 1) for i in range(1, n - 1)] + [(3, n)]


def random_orientation(family: str, n: int, rng) -> tuple[tuple[int, int], ...]:
    """Flip each edge at random, then renumber the vertices along a random
    topological order so that every arrow (i, j) has i < j."""
    arrows = [e if rng.random() < 0.5 else e[::-1] for e in dynkin_edges(family, n)]
    succ: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    indeg = dict.fromkeys(succ, 0)
    for a, b in arrows:
        succ[a].append(b)
        indeg[b] += 1
    ready = [v for v in succ if indeg[v] == 0]
    label: dict[int, int] = {}
    while ready:
        v = ready.pop(rng.randrange(len(ready)))
        label[v] = len(label) + 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    out = tuple(sorted((label[a], label[b]) for a, b in arrows))
    QuiverDescriptor(family, n, out)  # raises QuiverError if inadmissible
    return out


# ---------------------------------------------------------------------------
# Bookkeeping shared by all workloads.
# ---------------------------------------------------------------------------

def reference_kernel() -> int:
    """Fixed pure-Python work (tuple hashing, dict updates), no library code."""
    table: dict[tuple[int, int], int] = {}
    for i in range(6000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    return len(table)


@dataclass
class Tally:
    """Requests attempted and failed, sampling points (begin, end, fastest
    of three reference-kernel runs), and the scaled times in seconds of each
    timed call, keyed by (kind, position in the request list, part)."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    points: list[tuple[float, float, float]] = field(default_factory=list)
    pending: list[tuple[tuple[str, int, int], float, float]] = field(
        default_factory=list)
    repeats: dict[tuple[str, int, int], list[float]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)

    def sample(self) -> None:
        """Time the reference kernel; the handler of the sampling timer."""
        begin = pc()
        ref = math.inf
        for _ in range(3):
            t0 = pc()
            reference_kernel()
            ref = min(ref, pc() - t0)
        self.points.append((begin, pc(), ref))

    @contextlib.contextmanager
    def sampling(self):
        """Sample every SAMPLE_EVERY_S seconds, and once at each end."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """end - start, less the sampler's time inside it, at REF_NOMINAL_S
        speed: the kernel time is the median of the points inside the
        interval and CONTEXT + 1 on each side of it."""
        begins = [b for b, _, _ in self.points]
        i = bisect_left(begins, start)
        j = bisect_left(begins, end)
        inside = sum(e - b for b, e, _ in self.points[i:j])
        near = self.points[max(0, i - 1 - CONTEXT):j + 1 + CONTEXT]
        ref = statistics.median(r for _, _, r in near)
        return (end - start - inside) * REF_NOMINAL_S / ref

    def time(self, key: tuple[str, int, int], start: float, end: float) -> None:
        """Record a timed call; settle() scales it."""
        self.pending.append((key, start, end))

    def settle(self) -> None:
        for key, start, end in self.pending:
            self.repeats.setdefault(key, []).append(self.scaled(start, end))
        self.pending.clear()

    def latencies(self, *kinds: str) -> list[float]:
        """Median scaled time of every timed call of the given kinds."""
        return [statistics.median(v) for k, v in self.repeats.items() if k[0] in kinds]


class _NoTracer:
    """Stands in for spans.Tracer when a phase is not traced."""

    def span(self, name, module):
        return contextlib.nullcontext()


NO_TRACER = _NoTracer()


class Sink:
    """stdout replacement for in-process CLI calls: keeps references to the
    written strings without copying them."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


def call_cli(argv: list[str]) -> tuple[int, Sink, float, float]:
    """Run the CLI in-process; returns exit code, output, start and end."""
    sink = Sink()
    start = pc()
    with contextlib.redirect_stdout(sink):
        code = cli.main(argv)
    return code, sink, start, pc()


def cli_args(command: str, family: str, n: int, m: int, arrows) -> list[str]:
    return [command, "--type", f"{family}{n}", "--m", str(m),
            "--orientation", json.dumps([list(a) for a in arrows])]


def payload_digest(text: str) -> str:
    """sha256 of a CLI payload without its elapsed_seconds line and final
    newline, hashed in slices so that no second copy of a large payload is
    made."""
    i = text.find('"elapsed_seconds"')
    j = text.find("\n", i)
    end = len(text) - text.endswith("\n")
    h = hashlib.sha256()
    step = 1 << 22
    for lo, hi in ((0, i), (j, end)):
        for a in range(lo, hi, step):
            h.update(text[a:min(a + step, hi)].encode())
    return h.hexdigest()


def _rank(count: int, q: float) -> int:
    return max(1, math.ceil(q * count - 1e-9))


def beyond(count: int, q: float) -> int:
    """Number of samples above the nearest-rank q-quantile of `count` samples."""
    return count - _rank(count, q) if count else 0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with at least q * len
    values at or below it."""
    return sorted(values)[_rank(len(values), q) - 1]


# ---------------------------------------------------------------------------
# Traced building blocks.  Each public call that mostly wraps another
# module's is replayed with the same calls, so every span belongs to one
# module: silting_to_config is explain/order (silting) + mu_rev (sequences).
# ---------------------------------------------------------------------------

def traced_s2c(t, col, stats):
    with t.span("s2c", "silting"):
        reason = explain_not_silting(col)
        if reason is not None:
            raise ValueError(f"not a silting object: {reason}")
        with t.span("order", "silting"):
            seq = order_silting(col)
        with t.span("mu_rev", "sequences"):
            out, signs = mu_rev(seq)
        stats.update(f"sequences.sign.{s.value}" for s in signs)
        result = collection(out)
        reason = explain_not_config(result)
        if reason is not None:
            raise ValueError(f"mu_rev of a silting object gave {reason}")
    return result


def traced_c2s(t, col, stats):
    with t.span("c2s", "silting"):
        reason = explain_not_config(col)
        if reason is not None:
            raise ValueError(f"not a configuration: {reason}")
        with t.span("order", "silting"):
            seq = order_config(col)
        with t.span("mu_rev_inverse", "sequences"):
            out, signs = mu_rev_inverse(seq)
        stats.update(f"sequences.sign.{s.value}" for s in signs)
        result = collection(out)
        reason = explain_not_silting(result)
        if reason is not None:
            raise ValueError(f"inverse mu_rev of a configuration gave {reason}")
    return result


# ---------------------------------------------------------------------------
# Per-record requests: the whole of record-stream, and the record probe.
# ---------------------------------------------------------------------------

@dataclass
class Records:
    family: str
    n: int
    arrows: tuple
    tilting: list
    minus: list
    requests: list[tuple[str, int]]


def build_records(family, n, mix, rng, tracer=NO_TRACER) -> Records:
    """Build the root system, enumerate its 1-cluster-tilting objects and
    minus-window 1-configurations, warm the Hom memo, and draw a shuffled
    request list with the given number of requests of each kind."""
    arrows = random_orientation(family, n, rng)
    with tracer.span("build", "roots"):
        rs = build_root_system(QuiverDescriptor(family, n, arrows))
    with tracer.span("enumerate", "silting"):
        tilting = enumerate_kind(rs, "m-cluster-tilting", 1)
    with tracer.span("enumerate", "silting"):
        minus = enumerate_kind(rs, "m-config-minus", 1)
    with tracer.span("warm", "derived"):
        objs = window_objects(rs, WindowSpec(0, 1))
        for x in objs:
            for y in objs:
                hom_dim(x, y)
    requests = []
    for kind, pool in (("biject", tilting), ("torsion", tilting), ("riedtmann", minus)):
        # Cycle through a seeded permutation: a random subset of a large
        # pool, every object equally often (give or take one) in a small one.
        order = rng.sample(range(len(pool)), len(pool))
        requests += [(kind, order[i % len(pool)]) for i in range(mix[kind])]
    rng.shuffle(requests)
    return Records(family, n, arrows, tilting, minus, requests)


def records_inputs(recs: Records) -> dict:
    return {"type": f"{recs.family}{recs.n}", "arrows": recs.arrows,
            "requests": [f"{kind[0]}{idx}" for kind, idx in recs.requests]}


def run_records(recs: Records, tally: Tally) -> float:
    """One pass over the request list, output checks outside the timed
    calls; returns the summed request time in seconds and records each
    call's time in the tally."""
    total = 0.0
    for pos, (kind, idx) in enumerate(recs.requests):
        tally.attempted += 1
        try:
            if kind == "biject":
                x = recs.tilting[idx]
                t0 = pc()
                c = silting_to_config(x)
                t1 = pc()
                back = config_to_silting(c)
                t2 = pc()
                calls = ((t0, t1), (t1, t2))
                ok = back == x
            elif kind == "torsion":
                x = recs.tilting[idx]
                t0 = pc()
                members = torsion_window(x, TORSION_WINDOW)
                t2 = pc()
                calls = ((t0, t2),)
                ok = x.summands <= members
            else:
                y = recs.minus[idx]
                t0 = pc()
                p = config_to_riedtmann(y)
                t1 = pc()
                back = riedtmann_to_config(p)
                t2 = pc()
                calls = ((t0, t1), (t1, t2))
                ok = back == y
        except Exception as exc:  # a raised error is a failed request
            tally.fail(f"{kind}[{idx}]: {exc!r}")
            continue
        for part, (start, end) in enumerate(calls):
            tally.time((kind, pos, part), start, end)
        total += t2 - t0
        if not ok:
            tally.fail(f"{kind}[{idx}]: output check failed")
    return total


def replay_records(recs: Records, t, stats: Counter, tally: Tally) -> float:
    """run_records with a span around every library call."""
    total = 0.0
    for rid, (kind, idx) in enumerate(recs.requests):
        t.request = f"{kind}-{rid}"
        tally.attempted += 1
        t0 = pc()
        try:
            if kind == "biject":
                x = recs.tilting[idx]
                back = traced_c2s(t, traced_s2c(t, x, stats), stats)
                total += pc() - t0
                ok = back == x
            elif kind == "torsion":
                x = recs.tilting[idx]
                with t.span("torsion", "riedtmann"):
                    members = torsion_window(x, TORSION_WINDOW)
                total += pc() - t0
                stats["riedtmann.torsion_members"] += len(members)
                ok = x.summands <= members
            else:
                y = recs.minus[idx]
                with t.span("to_periodic", "riedtmann"):
                    p = config_to_riedtmann(y)
                with t.span("from_periodic", "riedtmann"):
                    back = riedtmann_to_config(p)
                total += pc() - t0
                ok = back == y
        except Exception as exc:
            tally.fail(f"{kind}[{idx}]: {exc!r}")
            continue
        if not ok:
            tally.fail(f"{kind}[{idx}]: output check failed")
    return total


# ---------------------------------------------------------------------------
# Layer probes of the traced run, outside the pass accounting.
# ---------------------------------------------------------------------------

def hom_probe(windows, repeats=3) -> dict:
    """µs per public hom_dim call over all ordered pairs of window objects,
    first on a freshly built root system (cold memo), then again (warm);
    the fastest of `repeats` fresh builds counts."""
    calls = objects = 0
    cold = warm = 0.0
    for q, w in windows:
        best = [math.inf, math.inf]
        for _ in range(repeats):
            objs = window_objects(build_root_system(q), w)
            for phase in (0, 1):
                t0 = pc()
                for x in objs:
                    for y in objs:
                        hom_dim(x, y)
                best[phase] = min(best[phase], pc() - t0)
        objects += len(objs)
        calls += len(objs) ** 2
        cold += best[0]
        warm += best[1]
    return {"derived.hom_cold_us": cold / calls * 1e6,
            "derived.hom_warm_us": warm / calls * 1e6,
            "derived.window_objects": objects}


def predicate_probe(groups, rng, tally, limit=2000) -> dict:
    """µs per collection for the public predicate on enumerated outputs (a
    seeded sample of at most `limit` per group)."""
    total = 0.0
    count = 0
    for predicate, cols in groups:
        sample = cols if len(cols) <= limit else rng.sample(cols, limit)
        t0 = pc()
        rejected = sum(not predicate(c) for c in sample)
        total += pc() - t0
        count += len(sample)
        tally.attempted += 1
        if rejected:
            tally.fail(f"{predicate.__name__} rejected {rejected} enumerated outputs")
    return {"silting.predicate_us": total / max(count, 1) * 1e6}


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------

class VerifyMatrix:
    """`exseq verify` over the rows, each in a seed-chosen orientation."""

    name = "verify-matrix"
    pass_kinds = ("request",)

    def setup(self, rng, scale, tracer=NO_TRACER):
        rows = [(f, n, m, random_orientation(f, n, rng))
                for f, n, m in VERIFY_ROWS[scale]]
        (pf, pn), mix = RECORD_PROBE[scale]
        return {"rows": rows, "probe": build_records(pf, pn, mix, rng, tracer),
                "outputs": []}

    def inputs(self, state):
        return {"rows": [{"type": f"{f}{n}", "m": m, "arrows": a}
                         for f, n, m, a in state["rows"]],
                "probe": records_inputs(state["probe"])}

    def run_pass(self, state, tally) -> float:
        total = 0.0
        for pos, (f, n, m, arrows) in enumerate(state["rows"]):
            tally.attempted += 1
            try:
                code, sink, t0, t1 = call_cli(cli_args("verify", f, n, m, arrows))
                tally.time(("request", pos, 0), t0, t1)
                total += t1 - t0
                reason = check_verify_report(f, n, m, code, sink.text())
            except (Exception, SystemExit) as exc:
                reason = repr(exc)
            if reason:
                tally.fail(f"verify {f}{n}/{m}: {reason}")
        run_records(state["probe"], tally)
        return total

    def replay_pass(self, state, t, stats, tally) -> float:
        state["outputs"] = []
        total = 0.0
        for f, n, m, arrows in state["rows"]:
            t.request = f"verify-{f}{n}-{m}"
            tally.attempted += 1
            try:
                t0 = pc()
                text = replay_verify(t, f, n, m, arrows, stats, state["outputs"])
                total += pc() - t0
                reason = check_verify_report(f, n, m, 0, text)
            except Exception as exc:
                reason = repr(exc)
            if reason:
                tally.fail(f"verify {f}{n}/{m}: {reason}")
        return total

    def probes(self, state, rng, tally):
        windows = [(QuiverDescriptor(f, n, a), config_window(m))
                   for f, n, m, a in state["rows"]]
        return {**hom_probe(windows), **predicate_probe(state["outputs"], rng, tally)}


def check_verify_report(family, n, m, code, text) -> str | None:
    if code != 0:
        return f"exit code {code}"
    report = json.loads(text)
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    if failed or not report["passed"]:
        return f"checks failed: {failed}"
    wrong = {k: (report["counts"].get(k), v)
             for k, v in verify_expectations(family, n, m).items()
             if report["counts"].get(k) != v}
    return f"counts (got, expected): {wrong}" if wrong else None


def replay_verify(t, family, n, m, arrows, stats, outputs) -> str:
    """The public calls of `exseq verify`, in its order, each in a span;
    returns the report JSON."""
    with t.span("build", "roots"):
        rs = build_root_system(QuiverDescriptor(family, n, arrows))
    with t.span("generate", "weyl"):
        group = generate_weyl(rs)
    stats["weyl.group_order"] += len(group.elements)
    with t.span("fuss_catalan", "roots"):
        expected = fuss_catalan(rs, m)
    with t.span("enumerate", "silting"):
        tilting = enumerate_kind(rs, "m-cluster-tilting", m)
    with t.span("enumerate", "silting"):
        configs = enumerate_kind(rs, "m-config", m)
    with t.span("nc", "weyl"):
        ncs = enumerate_m_nc(group, m)
    with t.span("fuss_catalan", "roots"):
        positive = abs(fuss_catalan(rs, -m - 1))
    with t.span("enumerate", "silting"):
        shifted = enumerate_kind(rs, "silting-deg1-window", m)
    with t.span("enumerate", "silting"):
        minus = enumerate_kind(rs, "m-config-minus", m)
    found = (tilting, configs, shifted, minus)
    stats["silting.collections_out"] += sum(len(x) for x in found)
    stats["weyl.nc_count"] += len(ncs)
    outputs += [(is_silting, tilting), (is_hom_leq0_config, configs)]

    checks: list[CheckResult] = []

    def check(name, want, got):
        checks.append(CheckResult(name, want, got, want == got))

    round_trip = all(traced_c2s(t, traced_s2c(t, c, stats), stats) == c
                     for c in tilting)
    check("silting/config round trip", True, round_trip)
    image = {traced_s2c(t, c, stats) for c in tilting}
    check("silting image is the m-config set", True, image == set(configs))
    phi_ok = True
    for x in ncs:
        with t.span("phi", "weyl"):
            col = phi(group, x)
        with t.span("phi_inverse", "weyl"):
            phi_ok = phi_ok and phi_inverse(group, col, m) == x
    check("phi round trip", True, phi_ok)
    phi_image = set()
    for x in ncs:
        with t.span("phi", "weyl"):
            phi_image.add(phi(group, x))
    check("phi image is the m-config set", True, phi_image == set(configs))
    nonnegative = False
    for col in tilting:
        with t.span("order", "silting"):
            seq = order_silting(col)
        with t.span("mu_rev", "sequences"):
            steps = [sign for _, sign, _ in mu_rev_steps(seq)]
        stats.update(f"sequences.sign.{s.value}" for s in steps)
        nonnegative = nonnegative or MutationSign.NONNEGATIVE in steps
    check("silting-to-config signs negative or orthogonal", False, nonnegative)
    with t.span("complete", "sequences"):
        sequences = enumerate_complete_sequences(rs)
    laws = True
    for seq in sequences:
        with t.span("mu_rev", "sequences"):
            once, s1 = mu_rev(seq)
        with t.span("mu_rev", "sequences"):
            twice, s2 = mu_rev(once)
        stats.update(f"sequences.sign.{s.value}" for s in s1 + s2)
        with t.span("nu_inv", "derived"):
            target = tuple(nu_inv(x) for x in seq)
        with t.span("mutate", "sequences"):
            inverse_law = all(mutate(mutate(seq, i, "right")[0], i, "left")[0] == seq
                              for i in range(1, rs.n))
        laws = laws and twice == target and inverse_law
    check("mu_rev^2 = nu^{-1} and inverse law", True, laws)
    stats["sequences.complete_count"] += len(sequences)

    counts = {"fuss-catalan": expected, "m-cluster-tilting": len(tilting),
              "m-config": len(configs), "m-noncrossing-partitions": len(ncs),
              "positive-fuss-catalan": positive, "silting-deg1-window": len(shifted),
              "m-config-minus": len(minus),
              "complete-exceptional-sequences": len(sequences)}
    with t.span("emit", "cli"):
        report = RunReport("verify", f"{family}{n}", m, counts, checks)
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    stats["cli.payload_bytes"] += len(text) + 1
    return text


class EnumerateE:
    """`exseq enumerate` for the E rows; stdout is counted and digested."""

    name = "enumerate-e"
    pass_kinds = ("request",)

    def setup(self, rng, scale, tracer=NO_TRACER):
        rows = [(f, n, m, kind, random_orientation(f, n, rng))
                for f, n, m, kind in ENUMERATE_ROWS[scale]]
        (pf, pn), mix = RECORD_PROBE[scale]
        return {"rows": rows, "probe": build_records(pf, pn, mix, rng, tracer),
                "digests": {}, "outputs": []}

    def inputs(self, state):
        return {"rows": [{"type": f"{f}{n}", "m": m, "kind": kind, "arrows": a}
                         for f, n, m, kind, a in state["rows"]],
                "probe": records_inputs(state["probe"])}

    def run_pass(self, state, tally) -> float:
        total = 0.0
        for pos, (f, n, m, kind, arrows) in enumerate(state["rows"]):
            tally.attempted += 1
            try:
                code, sink, t0, t1 = call_cli(cli_args("enumerate", f, n, m, arrows)
                                              + ["--kind", kind])
                tally.time(("request", pos, 0), t0, t1)
                total += t1 - t0
                reason = (f"exit code {code}" if code else
                          self.check(state, (f, n, m, kind), sink.text()))
            except (Exception, SystemExit) as exc:
                reason = repr(exc)
            if reason:
                tally.fail(f"enumerate {f}{n}/{m} {kind}: {reason}")
        run_records(state["probe"], tally)
        return total

    @staticmethod
    def check(state, row, text) -> str | None:
        """Count against Fuss-Catalan, object and summand lines against the
        count, and the payload digest against the first pass's."""
        f, n, m, kind = row
        want = expected_counts(f, n, m)["fuss-catalan"]
        head = text[:text.find('"objects"')]
        match = re.search(r'"counts": \{\s*"%s": (\d+)' % re.escape(kind), head)
        got = int(match.group(1)) if match else None
        objects = text.count("\n    [")
        summands = text.count("\n      {")
        if (got, objects, summands) != (want, want, n * want):
            return (f"count {got}, objects {objects}, summands {summands}; "
                    f"expected {want}")
        digest = payload_digest(text)
        first = state["digests"].setdefault(row, digest)
        return None if digest == first else "payload differs from the first pass"

    def replay_pass(self, state, t, stats, tally) -> float:
        state["outputs"] = []
        total = 0.0
        for f, n, m, kind, arrows in state["rows"]:
            t.request = f"enumerate-{f}{n}-{kind}"
            tally.attempted += 1
            try:
                t0 = pc()
                with t.span("build", "roots"):
                    rs = build_root_system(QuiverDescriptor(f, n, arrows))
                with t.span("enumerate", "silting"):
                    found = enumerate_kind(rs, kind, m)
                with t.span("emit", "cli"):
                    report = RunReport("enumerate", f"{rs.family}{rs.n}", m)
                    report.counts[kind] = len(found)
                    payload = report.to_dict()
                    payload["objects"] = [collection_to_list(c) for c in found]
                    text = json.dumps(payload, indent=2, sort_keys=True)
                    del payload
                total += pc() - t0
                stats["silting.collections_out"] += len(found)
                stats["cli.payload_bytes"] += len(text) + 1
                tilting = kind == "m-cluster-tilting"
                state["outputs"].append(
                    (is_silting if tilting else is_hom_leq0_config, found))
                reason = self.check(state, (f, n, m, kind), text)
            except Exception as exc:
                reason = repr(exc)
            if reason:
                tally.fail(f"enumerate {f}{n}/{m} {kind}: {reason}")
        return total

    def probes(self, state, rng, tally):
        windows = [(QuiverDescriptor(f, n, a),
                    cluster_tilting_window(m) if kind == "m-cluster-tilting"
                    else config_window(m))
                   for f, n, m, kind, a in state["rows"]]
        return {**hom_probe(windows), **predicate_probe(state["outputs"], rng, tally)}


class RecordStream:
    """Per-record library calls on one shared, warm E7 root system."""

    name = "record-stream"
    pass_kinds = tuple(TAILS)

    def setup(self, rng, scale, tracer=NO_TRACER):
        (f, n), mix = RECORD_STREAM[scale]
        return {"records": build_records(f, n, mix, rng, tracer)}

    def inputs(self, state):
        return {"records": records_inputs(state["records"])}

    def run_pass(self, state, tally) -> float:
        return run_records(state["records"], tally)

    def replay_pass(self, state, t, stats, tally) -> float:
        return replay_records(state["records"], t, stats, tally)

    def probes(self, state, rng, tally):
        recs = state["records"]
        windows = [(QuiverDescriptor(recs.family, recs.n, recs.arrows), TORSION_WINDOW)]
        groups = [(is_silting, recs.tilting), (is_hom_leq0_config, recs.minus)]
        return {**hom_probe(windows), **predicate_probe(groups, rng, tally)}


WORKLOADS = {w.name: w for w in (VerifyMatrix(), EnumerateE(), RecordStream())}
