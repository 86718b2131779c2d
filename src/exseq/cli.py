"""Command-line front end: enumeration, bijection, verification, export.

JSON is the single interchange format; exit status 0 means every check
passed, 2 a usage error, 1 a failed verification or bad input record.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import reprlib
import sys
import time
from dataclasses import dataclass, field
from itertools import chain, cycle
from math import factorial
from typing import Iterable, Iterator

from .derived import DObj, WindowSpec, _require_categorical, nu_inv, obj_to_dict
from .riedtmann import _riedtmann_to_config, config_to_riedtmann, torsion_window
from .roots import QuiverDescriptor, QuiverError, build_root_system, fuss_catalan
from .sequences import (
    MutationError, _all_roots, _complete_sequences,
    _sample_complete_sequences, _sequence_counts, mu_rev, mu_rev_inverse_steps,
    mu_rev_steps, mutate,
)
from .silting import (
    M_WINDOW_KINDS, _config_to_silting, collection_from_list, collection_to_list,
    config_to_silting, enumerate_kind, enumerate_kind_indexed, order_config,
    order_silting, silting_to_config,
)
from .weyl import (
    _count_m_nc, _phi_inverse, enumerate_m_nc, generate_weyl, nc_from_words, nc_to_dict,
    nc_words, phi, phi_inverse,
)

_TYPE_RE = re.compile(r"^([A-G])(\d+)$")


@dataclass
class CheckResult:
    name: str
    expected: object
    actual: object
    passed: bool
    counterexample: object = None
    sample: dict | None = None      # {"seed", "size"} of a check run on a sample

    def to_dict(self) -> dict:
        data = {"name": self.name, "expected": self.expected,
                "actual": self.actual, "passed": self.passed}
        if self.counterexample is not None:
            data["counterexample"] = self.counterexample
        if self.sample is not None:
            data["sample"] = self.sample
        return data


@dataclass
class RunReport:
    command: str
    quiver_type: str
    m: int | None = None
    counts: dict = field(default_factory=dict)
    checks: list[CheckResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name, expected, actual, counterexample=None, sample=None) -> None:
        """Record a check that passes when actual equals expected."""
        self.checks.append(CheckResult(name, expected, actual, expected == actual,
                                       counterexample, sample))

    def check_none(self, name, bad, encode, sample=None) -> None:
        """Record a check that passes when no input is bad, else shows it encoded."""
        shown = None if bad is None else encode(bad)
        self.check(name, None, shown, shown, sample)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "type": self.quiver_type,
            "m": self.m,
            "counts": self.counts,
            "checks": [c.to_dict() for c in self.checks],
            "passed": self.passed,
            "elapsed_seconds": round(self.elapsed, 3),
        }


def _parse_type(text: str) -> tuple[str, int]:
    match = _TYPE_RE.match(text.strip().upper())
    if not match:
        raise argparse.ArgumentTypeError(
            f"bad type {text!r}; expected e.g. A3, D4, E6, B2"
        )
    return match.group(1), int(match.group(2))


def _parse_window(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad window {text!r}; expected lo:hi")


def _build(args) -> "RootSystemData":
    family, rank = args.type
    if args.orientation:
        try:
            arrows = tuple((a, b) for a, b in json.loads(args.orientation))
            if not all(type(v) is int for arrow in arrows for v in arrow):
                raise TypeError
        except (TypeError, ValueError, RecursionError):
            raise QuiverError(f"bad orientation {reprlib.repr(args.orientation)}; "
                              "expected a JSON list of [i, j] arrows") from None
        quiver = QuiverDescriptor(family, rank, arrows)
    else:
        quiver = QuiverDescriptor.standard(family, rank)
    return build_root_system(quiver)


def _read_records(path: str) -> list:
    """The JSON array of records in an input file."""
    try:
        with open(path) as handle:
            records = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:   # not JSON, or too deep
        raise ValueError(f"cannot read records from {path}: {exc}") from None
    if not isinstance(records, list):
        raise ValueError(f"{path} must hold a JSON array of records")
    return records


class OutputError(Exception):
    """An output file could not be written."""


def _through_file(path: str, chunks: Iterable[str],
                  newline: str | None = None) -> Iterator[str]:
    """Yield each text chunk after writing it to path.  The file is opened
    at the first request, before the caller sees any chunk."""
    try:
        with open(path, "w", newline=newline) as handle:
            for chunk in chunks:
                handle.write(chunk)
                yield chunk
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write(path: str, text: str, newline: str | None = None) -> None:
    for _ in _through_file(path, (text,), newline):
        pass


def _stream(args, chunks: Iterable[str]) -> None:
    """Write text chunks, each as it comes, to --out, if given, and to
    stdout.  An --out path that cannot be opened leaves stdout empty; one
    that fails later leaves a partial document there.  A closed stdout is
    an OutputError too."""
    if args.out:
        chunks = _through_file(args.out, chunks)
    try:
        for chunk in chunks:
            sys.stdout.write(chunk)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # The reader has gone.  Send what stdout still buffers to the null
        # device, so that the interpreter's final flush fails no more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise OutputError(f"cannot write stdout: {exc.strerror}") from None


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _emit(args, text: str) -> None:
    """Write a JSON text to --out, if given, and to stdout."""
    _stream(args, (text, "\n"))


_BATCH = 32    # collections per chunk of _objects_chunks


def _objects_chunks(objs: list[DObj], flat: memoryview) -> Iterator[str]:
    """The indent-2 JSON of the collections as the value of a top-level key,
    one chunk per _BATCH collections.  flat is enumerate_kind_indexed's
    buffer of 2-byte indices into objs, n per collection, n the rank.
    Each object is encoded once: an indent-2 encoding at depth L is the
    depth-0 encoding with every newline followed by 2L more spaces, as JSON
    strings hold no raw newline.  What surrounds an object depends only on
    its position in its collection, so each position reads one table of
    texts: the first opens the collection, the last closes it, and every
    collection starts with a comma, which the first chunk drops."""
    if not flat:
        yield "[]"
        return
    texts = ["\n      " + _dumps(obj_to_dict(x)).replace("\n", "\n      ")
             for x in objs]
    n = objs[0].rs.n
    if n == 1:
        tables = [[",\n    [" + t + "\n    ]" for t in texts]]
    else:
        tables = ([[",\n    [" + t for t in texts]]
                  + [["," + t for t in texts]] * (n - 2)
                  + [["," + t + "\n    ]" for t in texts]])
    step = _BATCH * n
    chunks = ("".join(map(list.__getitem__, cycle(tables), flat[lo:lo + step]))
              for lo in range(0, len(flat), step))
    yield "[" + next(chunks)[1:]
    yield from chunks
    yield "\n  ]"


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    start = time.perf_counter()
    rs = _build(args)
    objs, flat = enumerate_kind_indexed(rs, args.kind, args.m)
    report = RunReport("enumerate", f"{rs.family}{rs.n}", args.m)
    report.counts[args.kind] = len(flat) // rs.n
    report.elapsed = time.perf_counter() - start
    # The collections go out between the encodings of the keys before and
    # after "objects" in sort_keys order; no other key holds "objects".
    head, _, tail = _dumps({**report.to_dict(), "objects": None}).partition(
        '"objects": null')
    _stream(args, chain((head + '"objects": ',),
                        _objects_chunks(objs, flat), (tail, "\n")))
    return 0


def cmd_nc(args) -> int:
    start = time.perf_counter()
    rs = _build(args)
    group = generate_weyl(rs)
    tuples = [] if args.count else enumerate_m_nc(group, args.m)
    report = RunReport("nc", f"{rs.family}{rs.n}", args.m)
    report.counts["m-noncrossing-partitions"] = (
        _count_m_nc(group, args.m) if args.count else len(tuples))
    report.elapsed = time.perf_counter() - start
    payload = report.to_dict()
    if not args.count:
        payload["objects"] = [nc_to_dict(group, t, with_matrices=args.matrices)
                              for t in tuples]
    _emit(args, _dumps(payload))
    return 0


def _trace_of(seq, inverse: bool) -> list[dict]:
    steps = mu_rev_inverse_steps(seq) if inverse else mu_rev_steps(seq)
    return [{"position": i, "sign": sign.value,
             "sequence": [obj_to_dict(x) for x in after]}
            for i, sign, after in steps]


def _per_record(args, convert, head: dict) -> int:
    """Emit head with one entry per record of --in: its input and what convert
    returns for it, or the error of a ValueError.  Exit 1 if any record failed.
    Reading and writing at one stack depth keeps the margin json.load leaves."""
    results = []
    failures = 0
    for record in _read_records(args.infile):
        entry: dict = {"input": record}
        try:
            entry.update(convert(record))
        except ValueError as exc:     # QuiverError included
            entry["error"] = str(exc)
            failures += 1
        results.append(entry)
    try:
        text = _dumps({**head, "records": results, "failures": failures})
    except RecursionError:      # an input nested nearly as deep as json.load allows
        raise ValueError("records nest too deeply to write back") from None
    _emit(args, text)
    return 1 if failures else 0


def cmd_biject(args) -> int:
    rs = _build(args)
    if args.m < 0:
        raise ValueError("m must be non-negative")
    group = None
    if args.direction in ("nc-to-config", "config-to-nc"):
        group = generate_weyl(rs)

    def convert(record) -> dict:
        if args.direction == "nc-to-config":
            # Judged in order: the form, the part count, the family, the products.
            words = nc_words(rs, record)
            if len(words) != args.m + 1:
                raise ValueError(f"an m-noncrossing partition for m = {args.m} "
                                 f"has {args.m + 1} parts, found {len(words)}")
            _require_categorical(rs)
            return {"output": collection_to_list(phi(group, nc_from_words(group, words)))}
        col = collection_from_list(rs, record)
        if args.direction == "config-to-nc":
            return {"output": nc_to_dict(group, phi_inverse(group, col, args.m))}
        # silting-to-config or back; argparse admits no other direction.  The
        # bijection checks the record; the trace is built only after it passes.
        forward = args.direction == "silting-to-config"
        bijection = silting_to_config if forward else config_to_silting
        entry = {"output": collection_to_list(bijection(col))}
        if args.trace:
            order = order_silting if forward else order_config
            entry["trace"] = _trace_of(order(col), inverse=not forward)
        return entry

    return _per_record(args, convert, {"direction": args.direction})


# verify checks the mutation laws on every complete exceptional sequence
# while there are at most _EXHAUSTIVE_LIMIT (every type of rank at most 5,
# so those reports keep their bytes); above, on a fixed seeded sample,
# which the check reports.
_EXHAUSTIVE_LIMIT = 10_000
_SAMPLE_SIZE = 2_000
_SAMPLE_SEED = 0

# Raised while checking one input that verify or riedtmann --verify generated
# itself, these are internal failures: the check fails with that input as
# counterexample.
_CHECK_ERRORS = (MutationError, ValueError)


def _holds(law, *args) -> bool:
    """Whether law(*args) is true; a _CHECK_ERRORS exception counts as false."""
    try:
        return law(*args)
    except _CHECK_ERRORS:
        return False


def _round_trip(inputs, forward, back, canon=None) -> tuple[set, object]:
    """Apply forward once to each input.  Returns the set of images and the
    first input, in order, that back does not recover, or None.  An input
    on which forward raises is a failure and has no image.

    back is the unchecked private core of the inverse bijection: each
    collection is checked once.  forward checks its input and its image,
    which is back's input, and back(y) == x with x checked leaves nothing
    for the inverse's check of its result to find.  The sign lemmas are
    postconditions of silting_to_config and _config_to_silting: a
    violation in either direction fails the round trip at its input.

    Each image is compared with the targets as it is made, then dropped:
    canon maps each target to itself, and the set holds canon's object for
    an image equal to one, so an image is kept only when it is off the
    targets.  Without canon the set is empty."""
    image, bad = set(), None
    for x in inputs:
        try:
            y = forward(x)
        except _CHECK_ERRORS:
            y = None
        else:
            if canon is not None:
                image.add(canon.get(y, y))
        if bad is None and (y is None or not _holds(lambda: back(y) == x)):
            bad = x
    return image, bad


def _sequence_laws(seq) -> bool:
    """mu_rev^2 = nu^{-1} and mutating right then left at each position is
    the identity."""
    twice, _ = mu_rev(mu_rev(seq)[0])
    return (twice == tuple(nu_inv(x) for x in seq)
            and all(mutate(mutate(seq, i, "right")[0], i, "left")[0] == seq
                    for i in range(1, len(seq))))


def _verify_checks(report: RunReport, rs, group, m: int) -> None:
    """Add verify's counts and checks to report."""
    counts, check, check_none = report.counts, report.check, report.check_none
    expected = fuss_catalan(rs, m)
    tilting = enumerate_kind(rs, "m-cluster-tilting", m)
    configs = enumerate_kind(rs, "m-config", m)
    ncs = enumerate_m_nc(group, m)
    counts["fuss-catalan"] = expected
    counts["m-cluster-tilting"] = len(tilting)
    counts["m-config"] = len(configs)
    counts["m-noncrossing-partitions"] = len(ncs)
    check("count m-cluster-tilting", expected, len(tilting))
    check("count m-config", expected, len(configs))
    check("count m-noncrossing-partitions", expected, len(ncs))

    # Only counted: the cliques are never wrapped as collections.
    positive = abs(fuss_catalan(rs, -m - 1))
    shifted = len(enumerate_kind_indexed(rs, "silting-deg1-window", m)[1]) // rs.n
    minus = len(enumerate_kind_indexed(rs, "m-config-minus", m)[1]) // rs.n
    counts["positive-fuss-catalan"] = positive
    counts["silting-deg1-window"] = shifted
    counts["m-config-minus"] = minus
    check("count silting in degree window 1..m", positive, shifted)
    check("count m-config in minus window", positive, minus)

    canon = {c: c for c in configs}
    image, bad = _round_trip(tilting, silting_to_config, _config_to_silting, canon)
    check_none("silting/config round trip", bad, collection_to_list)
    check("silting image is the m-config set", True, image == canon.keys())

    image, bad = _round_trip(ncs, lambda t: phi(group, t),
                             lambda y: _phi_inverse(group, y, m), canon)
    check_none("phi round trip", bad, lambda t: nc_to_dict(group, t))
    check("phi image is the m-config set", True, image == canon.keys())

    # Exhaustively, the sequences are checked as the search finds them,
    # never all held, and after the first failure only counted.  Sampled,
    # the count is the perpendicular-category count.
    by_mask = _sequence_counts(rs)
    total, sample = by_mask[_all_roots(rs)], None
    if total <= _EXHAUSTIVE_LIMIT:
        total, bad = 0, None
        for seq in _complete_sequences(rs):
            total += 1
            if bad is None and not _holds(_sequence_laws, seq):
                bad = seq
    else:
        sample = {"seed": _SAMPLE_SEED, "size": _SAMPLE_SIZE}
        bad = next((seq for seq in _sample_complete_sequences(
            rs, by_mask, _SAMPLE_SIZE, _SAMPLE_SEED)
            if not _holds(_sequence_laws, seq)), None)
    counts["complete-exceptional-sequences"] = total
    # Obaid-Nauman-Al-Shammakh-Fakieh-Ringel: n! h^n / |W| complete sequences.
    check("count complete exceptional sequences",
          factorial(rs.n) * rs.coxeter_number ** rs.n // rs.weyl_order(), total)
    check_none("mu_rev^2 = nu^{-1} and inverse law", bad,
               lambda seq: [obj_to_dict(x) for x in seq], sample)


def cmd_verify(args) -> int:
    start = time.perf_counter()
    rs = _build(args)
    group = generate_weyl(rs)
    report = RunReport("verify", f"{rs.family}{rs.n}", args.m)
    _verify_checks(report, rs, group, args.m)
    report.elapsed = time.perf_counter() - start
    if args.csv:
        table = io.StringIO()
        writer = csv.writer(table)
        writer.writerow(["count", "value"])
        for key, value in sorted(report.counts.items()):
            writer.writerow([key, value])
        _write(args.csv, table.getvalue(), newline="")
    # The quiver checked, so that payloads of two numberings differ.
    payload = {**report.to_dict(), "arrows": [list(a) for a in rs.quiver.arrows]}
    _emit(args, _dumps(payload))
    return 0 if report.passed else 1


def cmd_riedtmann(args) -> int:
    start = time.perf_counter()
    rs = _build(args)
    minus = enumerate_kind(rs, "m-config-minus", 1)
    positive = abs(fuss_catalan(rs, -2))
    report = RunReport("riedtmann", f"{rs.family}{rs.n}", 1)
    report.counts["minus-window-1-configs"] = len(minus)
    report.counts["expected-tilting-modules"] = positive
    if args.verify:
        _, bad = _round_trip(minus, config_to_riedtmann, _riedtmann_to_config)
        report.check_none("riedtmann round trip", bad, collection_to_list)
        report.check("count equals positive Fuss-Catalan", positive, len(minus))
    report.elapsed = time.perf_counter() - start
    _emit(args, _dumps(report.to_dict()))
    return 0 if report.passed else 1


def cmd_torsion(args) -> int:
    rs = _build(args)
    window = WindowSpec(*args.window)

    def convert(record) -> dict:
        members = sorted(torsion_window(collection_from_list(rs, record), window),
                         key=lambda x: (x.degree, x.root))
        return {"torsion_window": [obj_to_dict(x) for x in members]}

    return _per_record(args, convert, {"window": window.to_dict()})


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, need_m: bool = True) -> None:
    parser.add_argument("--type", type=_parse_type, required=True,
                        help="Dynkin type, e.g. A3, D4, E6, B2")
    parser.add_argument("--orientation", default=None,
                        help="JSON arrow list overriding the standard orientation")
    if need_m:
        parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--out", default=None, help="write the JSON payload here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exseq",
        description="Exact enumeration and bijections for exceptional sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="enumerate collections of one kind")
    _add_common(p)
    p.add_argument("--kind", choices=M_WINDOW_KINDS, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("nc", help="enumerate m-noncrossing partitions")
    _add_common(p)
    p.add_argument("--count", action="store_true", help="report the count only")
    p.add_argument("--matrices", action="store_true",
                   help="include matrix forms in the output")
    p.set_defaults(func=cmd_nc)

    p = sub.add_parser("verify", help="run the count and bijection checks")
    _add_common(p)
    p.add_argument("--csv", default=None, help="write a CSV count summary here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("biject", help="apply a bijection to a file of objects")
    _add_common(p, need_m=False)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--direction", required=True,
                   choices=["silting-to-config", "config-to-silting",
                            "nc-to-config", "config-to-nc"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--trace", action="store_true",
                   help="include one line per mutation with its sign")
    p.set_defaults(func=cmd_biject)

    p = sub.add_parser("riedtmann", help="periodic-configuration checks")
    _add_common(p, need_m=False)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_riedtmann)

    p = sub.add_parser("torsion", help="window torsion classes of collections")
    _add_common(p, need_m=False)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--window", type=_parse_window, required=True,
                   help="degree window lo:hi")
    p.set_defaults(func=cmd_torsion)
    return parser


def _normalize_argv(argv: list[str]) -> list[str]:
    # Fold "--window -1:3" into "--window=-1:3" so a negative lower bound is
    # not mistaken for an option.
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--window" and i + 1 < len(argv):
            out.append(f"--window={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_normalize_argv(argv))
    # The one exit 2 after parsing: a usage error (ValueError, QuiverError
    # included) or an output error.  Commands check input before they write;
    # an internal failure (MutationError) keeps its traceback.
    try:
        return args.func(args)
    except (ValueError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
