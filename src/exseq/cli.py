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
import sys
import time
from dataclasses import dataclass, field
from itertools import chain
from math import factorial
from operator import itemgetter
from typing import Iterable, Iterator

from .derived import DObj, WindowSpec, nu_inv, obj_to_dict
from .riedtmann import config_to_riedtmann, riedtmann_to_config, torsion_window
from .roots import QuiverDescriptor, QuiverError, build_root_system, fuss_catalan
from .sequences import (
    MutationSign, enumerate_complete_sequences, mu_rev, mu_rev_inverse_steps,
    mu_rev_steps, mutate,
)
from .silting import (
    M_WINDOW_KINDS, collection_from_list, collection_to_list, config_to_silting,
    enumerate_kind, enumerate_kind_indexed, explain_not_config,
    explain_not_silting, order_config, order_silting, silting_to_config,
)
from .weyl import enumerate_m_nc, generate_weyl, nc_from_dict, nc_to_dict, phi, phi_inverse

_TYPE_RE = re.compile(r"^([A-G])(\d+)$")


@dataclass
class CheckResult:
    name: str
    expected: object
    actual: object
    passed: bool
    counterexample: object = None

    def to_dict(self) -> dict:
        data = {"name": self.name, "expected": self.expected,
                "actual": self.actual, "passed": self.passed}
        if self.counterexample is not None:
            data["counterexample"] = self.counterexample
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
            arrows = tuple((int(a), int(b)) for a, b in json.loads(args.orientation))
        except (TypeError, ValueError):
            raise QuiverError(f"bad orientation {args.orientation!r}; "
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
    except (OSError, ValueError) as exc:   # ValueError: not valid JSON
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


def _objects_chunks(objs: list[DObj], cliques: list[tuple[int, ...]]) -> Iterator[str]:
    """The indent-2 JSON of the collections as the value of a top-level key,
    one chunk per _BATCH collections; each clique lists indices into objs.
    Each object is encoded once: an indent-2 encoding at depth L is the
    depth-0 encoding with every newline followed by 2L more spaces, as JSON
    strings hold no raw newline."""
    if not cliques:
        yield "[]"
        return
    texts = ["\n      " + _dumps(obj_to_dict(x)).replace("\n", "\n      ")
             for x in objs]
    # itemgetter of one index returns that item, not a 1-tuple.
    join = ",".join if len(cliques[0]) > 1 else str
    sep = "["
    for lo in range(0, len(cliques), _BATCH):
        yield sep + ",".join([
            "\n    [" + join(itemgetter(*idxs)(texts)) + "\n    ]"
            for idxs in cliques[lo:lo + _BATCH]])
        sep = ","
    yield "\n  ]"


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    start = time.perf_counter()
    try:
        rs = _build(args)
        objs, cliques = enumerate_kind_indexed(rs, args.kind, args.m)
    except (QuiverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = RunReport("enumerate", f"{rs.family}{rs.n}", args.m)
    report.counts[args.kind] = len(cliques)
    report.elapsed = time.perf_counter() - start
    # The collections go out between the encodings of the keys before and
    # after "objects" in sort_keys order; no other key holds "objects".
    head, _, tail = _dumps({**report.to_dict(), "objects": None}).partition(
        '"objects": null')
    _stream(args, chain((head + '"objects": ',),
                        _objects_chunks(objs, cliques), (tail, "\n")))
    return 0


def cmd_nc(args) -> int:
    start = time.perf_counter()
    try:
        rs = _build(args)
        group = generate_weyl(rs)
        tuples = enumerate_m_nc(group, args.m)
    except (QuiverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = RunReport("nc", f"{rs.family}{rs.n}", args.m)
    report.counts["m-noncrossing-partitions"] = len(tuples)
    report.elapsed = time.perf_counter() - start
    payload = report.to_dict()
    if not args.count:
        payload["objects"] = [
            nc_to_dict(group, t, with_matrices=args.matrices) for t in tuples
        ]
    _emit(args, _dumps(payload))
    return 0


def _trace_of(seq, inverse: bool) -> list[dict]:
    steps = mu_rev_inverse_steps(seq) if inverse else mu_rev_steps(seq)
    return [{"position": i, "sign": sign.value,
             "sequence": [obj_to_dict(x) for x in after]}
            for i, sign, after in steps]


def cmd_biject(args) -> int:
    try:
        rs = _build(args)
        records = _read_records(args.infile)
        group = None
        if args.direction in ("nc-to-config", "config-to-nc"):
            group = generate_weyl(rs)
    except (QuiverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = []
    failures = 0
    for record in records:
        entry: dict = {"input": record}
        try:
            if args.direction == "silting-to-config":
                col = collection_from_list(rs, record)
                reason = explain_not_silting(col)
                if reason:
                    raise ValueError(reason)
                if args.trace:
                    entry["trace"] = _trace_of(order_silting(col), inverse=False)
                entry["output"] = collection_to_list(silting_to_config(col))
            elif args.direction == "config-to-silting":
                col = collection_from_list(rs, record)
                reason = explain_not_config(col)
                if reason:
                    raise ValueError(reason)
                if args.trace:
                    entry["trace"] = _trace_of(order_config(col), inverse=True)
                entry["output"] = collection_to_list(config_to_silting(col))
            elif args.direction == "nc-to-config":
                parts = nc_from_dict(group, record)
                if len(parts) != args.m + 1:
                    raise ValueError(f"an m-noncrossing partition for m = {args.m} "
                                     f"has {args.m + 1} parts, found {len(parts)}")
                entry["output"] = collection_to_list(phi(group, parts))
            else:  # config-to-nc; argparse admits no other direction
                col = collection_from_list(rs, record)
                entry["output"] = nc_to_dict(group, phi_inverse(group, col, args.m))
        except (ValueError, QuiverError) as exc:
            entry["error"] = str(exc)
            failures += 1
        results.append(entry)
    _emit(args, _dumps({"direction": args.direction, "records": results,
                        "failures": failures}))
    return 1 if failures else 0


def _verify_checks(rs, group, m: int) -> tuple[dict, list[CheckResult]]:
    checks: list[CheckResult] = []
    counts: dict = {}

    def check(name, expected, actual, counterexample=None):
        checks.append(CheckResult(name, expected, actual, expected == actual,
                                  counterexample))

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

    positive = abs(fuss_catalan(rs, -m - 1))
    shifted = enumerate_kind(rs, "silting-deg1-window", m)
    minus = enumerate_kind(rs, "m-config-minus", m)
    counts["positive-fuss-catalan"] = positive
    counts["silting-deg1-window"] = len(shifted)
    counts["m-config-minus"] = len(minus)
    check("count silting in degree window 1..m", positive, len(shifted))
    check("count m-config in minus window", positive, len(minus))

    bad = next((c for c in tilting
                if config_to_silting(silting_to_config(c)) != c), None)
    check("silting/config round trip", None,
          None if bad is None else collection_to_list(bad),
          None if bad is None else collection_to_list(bad))
    image = {silting_to_config(c) for c in tilting}
    check("silting image is the m-config set", True, image == set(configs))

    bad_nc = next((t for t in ncs
                   if phi_inverse(group, phi(group, t), m) != t), None)
    check("phi round trip", None,
          None if bad_nc is None else nc_to_dict(group, bad_nc),
          None if bad_nc is None else nc_to_dict(group, bad_nc))
    phi_image = {phi(group, t) for t in ncs}
    check("phi image is the m-config set", True, phi_image == set(configs))

    sign_violation = None
    for col in tilting:
        for _, sign, _ in mu_rev_steps(order_silting(col)):
            if sign is MutationSign.NONNEGATIVE:
                sign_violation = collection_to_list(col)
                break
        if sign_violation:
            break
    check("silting-to-config signs negative or orthogonal", None,
          sign_violation, sign_violation)

    sequences = enumerate_complete_sequences(rs)
    counts["complete-exceptional-sequences"] = len(sequences)
    # Obaid-Nauman-Al-Shammakh-Fakieh-Ringel: n! h^n / |W| complete sequences.
    check("count complete exceptional sequences",
          factorial(rs.n) * rs.coxeter_number ** rs.n // rs.weyl_order(),
          len(sequences))
    bad_seq = None
    for seq in sequences:
        twice, _ = mu_rev(mu_rev(seq)[0])
        if twice != tuple(nu_inv(x) for x in seq):
            bad_seq = [obj_to_dict(x) for x in seq]
            break
        for i in range(1, rs.n):
            back, _ = mutate(mutate(seq, i, "right")[0], i, "left")
            if back != seq:
                bad_seq = [obj_to_dict(x) for x in seq]
                break
        if bad_seq:
            break
    check("mu_rev^2 = nu^{-1} and inverse law", None, bad_seq, bad_seq)
    return counts, checks


def cmd_verify(args) -> int:
    start = time.perf_counter()
    try:
        rs = _build(args)
        group = generate_weyl(rs)
        counts, checks = _verify_checks(rs, group, args.m)
    except (QuiverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = RunReport("verify", f"{rs.family}{rs.n}", args.m, counts, checks)
    report.elapsed = time.perf_counter() - start
    if args.csv:
        table = io.StringIO()
        writer = csv.writer(table)
        writer.writerow(["count", "value"])
        for key, value in sorted(counts.items()):
            writer.writerow([key, value])
        _write(args.csv, table.getvalue(), newline="")
    _emit(args, _dumps(report.to_dict()))
    return 0 if report.passed else 1


def cmd_riedtmann(args) -> int:
    start = time.perf_counter()
    try:
        rs = _build(args)
        minus = enumerate_kind(rs, "m-config-minus", 1)
    except (QuiverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = RunReport("riedtmann", f"{rs.family}{rs.n}", 1)
    report.counts["minus-window-1-configs"] = len(minus)
    report.counts["expected-tilting-modules"] = abs(fuss_catalan(rs, -2))
    if args.verify:
        bad = next(
            (c for c in minus if riedtmann_to_config(config_to_riedtmann(c)) != c),
            None,
        )
        report.checks.append(CheckResult(
            "riedtmann round trip", None,
            None if bad is None else collection_to_list(bad),
            bad is None,
            None if bad is None else collection_to_list(bad)))
        report.checks.append(CheckResult(
            "count equals positive Fuss-Catalan",
            abs(fuss_catalan(rs, -2)), len(minus),
            abs(fuss_catalan(rs, -2)) == len(minus)))
    report.elapsed = time.perf_counter() - start
    _emit(args, _dumps(report.to_dict()))
    return 0 if report.passed else 1


def cmd_torsion(args) -> int:
    try:
        rs = _build(args)
        window = WindowSpec(*args.window)
        records = _read_records(args.infile)
    except (QuiverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results = []
    failures = 0
    for record in records:
        entry: dict = {"input": record}
        try:
            col = collection_from_list(rs, record)
            members = sorted(torsion_window(col, window),
                             key=lambda x: (x.degree, x.root))
            entry["torsion_window"] = [obj_to_dict(x) for x in members]
        except (ValueError, QuiverError) as exc:
            entry["error"] = str(exc)
            failures += 1
        results.append(entry)
    _emit(args, _dumps({"window": window.to_dict(), "records": results,
                        "failures": failures}))
    return 1 if failures else 0


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
    try:
        return args.func(args)
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
