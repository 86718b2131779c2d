"""Command-line interface: reports, artifacts, exit codes."""
import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import exseq
from exseq import (
    MutationError, MutationSign, QuiverDescriptor, build_root_system,
    config_to_silting, enumerate_complete_sequences, enumerate_kind, enumerate_m_nc,
    fuss_catalan, generate_weyl, silting_to_config,
)
from exseq import cli, riedtmann, silting
from exseq.cli import _objects_chunks, main
from exseq.derived import obj_to_dict
from exseq.sequences import _sample_complete_sequences, _sequence_counts
from exseq.silting import collection_to_list
from exseq.weyl import nc_to_dict

from oracle import admissible_quivers


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_enumerate_counts(capsys):
    code, payload = run(capsys, "enumerate", "--type", "A2", "--m", "1",
                        "--kind", "m-config")
    assert code == 0
    assert payload["counts"]["m-config"] == 5
    assert len(payload["objects"]) == 5
    assert all(len(col) == 2 for col in payload["objects"])


def test_enumerate_a1_cluster_tilting(capsys):
    code, payload = run(capsys, "enumerate", "--type", "A1", "--m", "5",
                        "--kind", "m-cluster-tilting")
    assert code == 0
    assert payload["counts"]["m-cluster-tilting"] == 6


def test_enumerate_rejects_weyl_only_family(capsys):
    code = main(["enumerate", "--type", "B2", "--m", "1", "--kind", "m-config"])
    assert code == 2
    assert "simply-laced" in capsys.readouterr().err


def test_enumerate_rejects_bad_m(capsys):
    code = main(["enumerate", "--type", "A2", "--m", "0", "--kind", "m-config"])
    assert code == 2
    assert capsys.readouterr().err == "error: m must be at least 1\n"


def test_verify_rejects_m_zero(capsys):
    code = main(["verify", "--type", "A3", "--m", "0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: m must be at least 1\n"
    assert captured.out == ""


def test_bad_type_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--type", "Q9", "--m", "1", "--kind", "m-config"])
    assert err.value.code == 2


def test_nc_count(capsys):
    code, payload = run(capsys, "nc", "--type", "A3", "--m", "2", "--count")
    assert code == 0
    assert payload["counts"]["m-noncrossing-partitions"] == 55
    assert "objects" not in payload


def test_nc_objects(capsys):
    code, payload = run(capsys, "nc", "--type", "A2", "--m", "1")
    assert code == 0
    assert len(payload["objects"]) == 5
    assert all("reflection_words" in t for t in payload["objects"])


@pytest.mark.parametrize("qtype,m,count", [("A2", 2, 12), ("A3", 1, 14)])
def test_verify_passes(capsys, qtype, m, count):
    code, payload = run(capsys, "verify", "--type", qtype, "--m", str(m))
    assert code == 0
    assert payload["passed"] is True
    assert payload["counts"]["m-cluster-tilting"] == count
    assert payload["counts"]["m-config"] == count
    assert payload["counts"]["m-noncrossing-partitions"] == count


def test_verify_csv_and_out(capsys, tmp_path):
    out = tmp_path / "report.json"
    csv_path = tmp_path / "counts.csv"
    code, _ = run(capsys, "verify", "--type", "A2", "--m", "1",
                  "--out", str(out), "--csv", str(csv_path))
    assert code == 0
    saved = json.loads(out.read_text())
    assert saved["passed"] is True
    assert "m-config,5" in csv_path.read_text()


def test_biject_silting_to_config(capsys, tmp_path):
    infile = tmp_path / "silting.json"
    infile.write_text(json.dumps([
        [{"dim": [1, 1], "deg": 1}, {"dim": [0, 1], "deg": 1}],   # H[1]
        [{"dim": [1, 0], "deg": 0}, {"dim": [1, 1], "deg": 0}],   # DH
    ]))
    code, payload = run(capsys, "biject", "--type", "A2", "--m", "1",
                        "--direction", "silting-to-config",
                        "--in", str(infile), "--trace")
    assert code == 0
    first = payload["records"][0]
    assert first["output"] == [{"dim": [1, 0], "deg": 0}, {"dim": [1, 1], "deg": 1}]
    assert first["trace"][0]["sign"] in ("negative", "orthogonal")


def test_biject_reports_bad_records(capsys, tmp_path):
    infile = tmp_path / "bad.json"
    infile.write_text(json.dumps([
        [{"dim": [1, 0], "deg": 0}, {"dim": [0, 1], "deg": 0}],   # config, not silting
    ]))
    code, payload = run(capsys, "biject", "--type", "A2", "--m", "1",
                        "--direction", "silting-to-config", "--in", str(infile))
    assert code == 1
    assert payload["failures"] == 1
    # The bijection's own check, with its prefix.
    assert payload["records"][0]["error"] == (
        "not a silting object: Ext^1(DObj([1, 0][0]), DObj([0, 1][0])) is nonzero")


def test_biject_empty_input(capsys, tmp_path):
    infile = tmp_path / "empty.json"
    infile.write_text("[]")
    code, payload = run(capsys, "biject", "--type", "A2", "--m", "1",
                        "--direction", "silting-to-config", "--in", str(infile))
    assert code == 0
    assert payload["records"] == []


def test_biject_config_to_nc(capsys, tmp_path):
    infile = tmp_path / "configs.json"
    infile.write_text(json.dumps([
        [{"dim": [1, 0], "deg": 0}, {"dim": [0, 1], "deg": 0}],
    ]))
    code, payload = run(capsys, "biject", "--type", "A2", "--m", "1",
                        "--direction", "config-to-nc", "--in", str(infile))
    assert code == 0
    words = payload["records"][0]["output"]["reflection_words"]
    assert words == [[], [[1, 0], [0, 1]]]    # (e, c) with c = s1 s2


def test_biject_nc_to_config_round_trip(capsys, tmp_path):
    infile = tmp_path / "nc.json"
    infile.write_text(json.dumps([
        {"reflection_words": [[], [[1, 0], [0, 1]]]},
    ]))
    code, payload = run(capsys, "biject", "--type", "A2", "--m", "1",
                        "--direction", "nc-to-config", "--in", str(infile))
    assert code == 0
    assert payload["records"][0]["output"] == [
        {"dim": [1, 0], "deg": 0}, {"dim": [0, 1], "deg": 0}]


def test_biject_nc_to_config_rejects_wrong_m(capsys, tmp_path):
    infile = tmp_path / "nc.json"
    infile.write_text(json.dumps([
        {"reflection_words": [[[1, 0, 0]], [[0, 1, 0]], [[0, 0, 1]]]},
        {"reflection_words": [[], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]},
    ]))
    code, payload = run(capsys, "biject", "--type", "A3", "--m", "1",
                        "--direction", "nc-to-config", "--in", str(infile))
    assert code == 1
    assert payload["failures"] == 1
    assert "has 2 parts, found 3" in payload["records"][0]["error"]
    assert "error" not in payload["records"][1]


def test_biject_nc_to_config_rejects_parts_off_the_interval(capsys, tmp_path):
    # Each part is s2 s1 = c^-1, not below c; as c^3 = 1 the two multiply
    # to c, so only the length check can reject the record.
    infile = tmp_path / "nc.json"
    infile.write_text(json.dumps([
        {"reflection_words": [[[0, 1], [1, 0]], [[0, 1], [1, 0]]]},
    ]))
    code, payload = run(capsys, "biject", "--type", "A2", "--m", "1",
                        "--direction", "nc-to-config", "--in", str(infile))
    assert code == 1
    assert payload["failures"] == 1
    assert payload["records"][0]["error"] == (
        "tuple is not T-reduced: lengths do not add to the rank")


def test_biject_nc_to_config_keeps_record_verdicts(capsys, tmp_path):
    # A record is judged by the products of its words: s1 s1 s1 is s1, so a
    # word longer than its part passes, while (s1, s2) does not give c.
    s1, s2, s3 = [1, 0, 0], [0, 1, 0], [0, 0, 1]
    infile = tmp_path / "nc.json"
    infile.write_text(json.dumps([
        {"reflection_words": [[s1, s1, s1], [s2, s3]]},
        {"reflection_words": [[s1], [s2, s3]]},
        {"reflection_words": [[s1], [s2]]},
    ]))
    code, payload = run(capsys, "biject", "--type", "A3", "--m", "1",
                        "--direction", "nc-to-config", "--in", str(infile))
    assert code == 1
    assert payload["failures"] == 1
    long, short, wrong = payload["records"]
    assert "error" not in long
    assert long["output"] == short["output"] == [
        {"dim": [0, 1, 0], "deg": 0}, {"dim": [0, 0, 1], "deg": 0},
        {"dim": [1, 0, 0], "deg": 1}]
    assert wrong["error"] == "tuple does not multiply to the Coxeter element"


# A record that fails two checks gets the verdict of the earlier check: its
# form (an unknown root included), its part count, the family, whether the
# products give c, whether they are T-reduced.
S1, S2, C_INV = [[1, 0, 0]], [[0, 1, 0]], [[0, 1], [1, 0]]
VERDICT_ORDER = [
    ("A3", [S1, S2, S1], "an m-noncrossing partition for m = 1 has 2 parts, found 3"),
    ("B2", [[[1, 0]], [[1, 0]], [[1, 0]]],
     "an m-noncrossing partition for m = 1 has 2 parts, found 3"),
    ("B2", [[[1, 0]], [[1, 0]]], "family B is Weyl-only; derived-category "
     "operations require a simply-laced (A, D, E) quiver"),
    ("A3", [[[2, 0, 0]], S2, S1], "(2, 0, 0) is not a positive root"),
    ("B2", [[[2, 0]], [[1, 0]]], "(2, 0) is not a positive root"),
    ("A2", [C_INV, [[1, 0]]], "tuple does not multiply to the Coxeter element"),
    ("A2", [C_INV, C_INV], "tuple is not T-reduced: lengths do not add to the rank"),
]


@pytest.mark.parametrize("family,words,error", VERDICT_ORDER)
def test_biject_nc_to_config_verdict_order(capsys, tmp_path, family, words, error):
    infile = tmp_path / "nc.json"
    infile.write_text(json.dumps([{"reflection_words": words}]))
    code, payload = run(capsys, "biject", "--type", family, "--m", "1",
                        "--direction", "nc-to-config", "--in", str(infile))
    assert code == 1
    assert payload["records"][0]["error"] == error


def test_biject_nc_to_config_rejects_weyl_only_family(capsys, tmp_path):
    # B2 has noncrossing partitions but no Hom table to read simples from.
    infile = tmp_path / "nc.json"
    infile.write_text(json.dumps([{"reflection_words": [[], [[1, 0], [0, 1]]]}]))
    code = main(["biject", "--type", "B2", "--m", "1",
                 "--direction", "nc-to-config", "--in", str(infile)])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    payload = json.loads(captured.out)
    assert payload["failures"] == 1
    assert payload["records"][0]["error"].startswith("family B is Weyl-only; ")


def test_riedtmann_verify(capsys):
    code, payload = run(capsys, "riedtmann", "--type", "A3", "--verify")
    assert code == 0
    assert payload["counts"]["minus-window-1-configs"] == 5
    assert payload["passed"] is True


def test_riedtmann_verify_e6(capsys):
    code, payload = run(capsys, "riedtmann", "--type", "E6", "--verify")
    assert code == 0
    assert payload["counts"]["minus-window-1-configs"] == 418
    assert [c["name"] for c in payload["checks"] if c["passed"]] == [
        "riedtmann round trip", "count equals positive Fuss-Catalan"]
    assert payload["passed"] is True


RECORD_COMMANDS = {
    "biject": ["biject", "--type", "A2", "--direction", "silting-to-config"],
    "torsion": ["torsion", "--type", "A2", "--window", "-1:2"],
}

OUTPUT_COMMANDS = {
    "enumerate": ["enumerate", "--type", "A2", "--m", "1", "--kind", "m-config"],
    "nc": ["nc", "--type", "A2", "--m", "1"],
    "verify": ["verify", "--type", "A2", "--m", "1"],
    "riedtmann": ["riedtmann", "--type", "A2"],
    "biject": ["biject", "--type", "A2", "--direction", "silting-to-config"],
    "torsion": ["torsion", "--type", "A2", "--window", "-1:2"],
}


@pytest.mark.parametrize("command", sorted(RECORD_COMMANDS))
@pytest.mark.parametrize("text", [None, "[1,"], ids=["missing-file", "invalid-json"])
def test_unreadable_input_is_usage_error(capsys, tmp_path, command, text):
    infile = tmp_path / "in.json"
    if text is not None:
        infile.write_text(text)
    code = main(RECORD_COMMANDS[command] + ["--in", str(infile)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", sorted(RECORD_COMMANDS))
def test_deeply_nested_records_are_usage_error(capsys, tmp_path, command):
    # Nesting past the recursion limit stops the JSON decoder, not main.
    infile = tmp_path / "in.json"
    infile.write_text("[" * 200_000)
    code = main(RECORD_COMMANDS[command] + ["--in", str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read records from {infile}: ")
    assert captured.err.count("\n") == 1


def test_records_nested_near_the_recursion_limit(tmp_path):
    # Just below the depth at which json.load gives up, writing a record
    # back can fail, as its echo in the output nests deeper.  From the limit
    # down, every depth is a usage error until one is written.
    infile = tmp_path / "in.json"
    errors = set()
    for depth in range(sys.getrecursionlimit(), 0, -1):
        infile.write_text("[" * depth + "]" * depth)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(RECORD_COMMANDS["biject"] + ["--in", str(infile)])
        if code == 1:
            break
        assert code == 2
        assert out.getvalue() == ""
        errors.add(err.getvalue().split(": ")[1].rstrip())
    assert json.loads(out.getvalue())["failures"] == 1
    assert errors <= {f"cannot read records from {infile}",
                      "records nest too deeply to write back"}


@pytest.mark.parametrize("command", sorted(RECORD_COMMANDS))
@pytest.mark.parametrize("record", [
    [{"dim": [1, 0]}, {"dim": [1, 1], "deg": 0}],     # no "deg"
    {"dim": [1, 0], "deg": 0},                         # an object, not a list
    [[1, 0], [1, 1]],                                  # objects without keys
    5,
], ids=["no-deg", "object", "bare-lists", "number"])
def test_malformed_record_is_reported(capsys, tmp_path, command, record):
    infile = tmp_path / "in.json"
    good = [{"dim": [1, 1], "deg": 0}, {"dim": [1, 0], "deg": 0}]
    infile.write_text(json.dumps([record, good]))
    code, payload = run(capsys, *RECORD_COMMANDS[command], "--in", str(infile))
    assert code == 1
    assert payload["failures"] == 1
    assert "error" in payload["records"][0]
    assert "error" not in payload["records"][1]


@pytest.mark.parametrize("command", sorted(RECORD_COMMANDS))
@pytest.mark.parametrize("obj", [
    {"dim": [True, False], "deg": False},
    {"dim": [1, 0], "deg": 0.5},
    {"dim": [1.0, 0], "deg": 0},
    {"dim": [1, 0], "deg": "x"},
], ids=["bools", "float-deg", "float-dim", "string-deg"])
def test_non_integer_record_is_reported(capsys, tmp_path, command, obj):
    infile = tmp_path / "in.json"
    good = [{"dim": [1, 1], "deg": 0}, {"dim": [1, 0], "deg": 0}]
    infile.write_text(json.dumps([[obj, {"dim": [1, 1], "deg": 0}], good]))
    code, payload = run(capsys, *RECORD_COMMANDS[command], "--in", str(infile))
    assert code == 1
    assert payload["failures"] == 1
    assert "is not of the form" in payload["records"][0]["error"]
    assert "error" not in payload["records"][1]


def test_non_integer_reflection_word_is_reported(capsys, tmp_path):
    infile = tmp_path / "nc.json"
    infile.write_text(json.dumps([
        {"reflection_words": [[], [[1.0, 0], [0, 1]]]},
        {"reflection_words": [[], [[1, 0], [0, 1]]]},
    ]))
    code, payload = run(capsys, "biject", "--type", "A2", "--m", "1",
                        "--direction", "nc-to-config", "--in", str(infile))
    assert code == 1
    assert payload["failures"] == 1
    assert "is not of the form" in payload["records"][0]["error"]
    assert "error" not in payload["records"][1]


@pytest.mark.parametrize("orientation", ["[[1.5,2]]", "[[true,2]]"])
def test_non_integer_orientation_is_usage_error(capsys, orientation):
    code = main(["enumerate", "--type", "A2", "--m", "1", "--kind", "m-config",
                 "--orientation", orientation])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: bad orientation")


@pytest.mark.parametrize("direction", ["config-to-nc", "nc-to-config"])
def test_biject_negative_m_is_usage_error(capsys, tmp_path, direction):
    infile = tmp_path / "in.json"
    infile.write_text(json.dumps([[{"dim": [1, 0], "deg": 0},
                                   {"dim": [0, 1], "deg": 0}]]))
    code = main(["biject", "--type", "A2", "--m", "-1", "--direction", direction,
                 "--in", str(infile)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: m must be non-negative"]


def test_malformed_orientation_is_usage_error(capsys):
    code = main(["enumerate", "--type", "A2", "--m", "1", "--kind", "m-config",
                 "--orientation", "[1,2]"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", sorted(OUTPUT_COMMANDS))
def test_deeply_nested_orientation_is_usage_error(capsys, tmp_path, command):
    argv = list(OUTPUT_COMMANDS[command])
    if command in RECORD_COMMANDS:
        infile = tmp_path / "in.json"
        infile.write_text("[]")
        argv += ["--in", str(infile)]
    code = main(argv + ["--orientation", "[" * 100_000])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: bad orientation '[[[")
    assert captured.err.count("\n") == 1


def test_bad_orientation_echo_is_bounded(capsys):
    code = main(["nc", "--type", "A2", "--m", "1", "--orientation", "[" * 100_000])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: bad orientation '[[[")
    assert len(err) < 200


def test_nc_count_e6(capsys):
    code, payload = run(capsys, "nc", "--type", "E6", "--m", "1", "--count")
    assert code == 0
    assert payload["counts"]["m-noncrossing-partitions"] == 833


def test_nc_count_far_past_the_recursion_limit(capsys):
    # The walk fixes parts without recursing over them, so m may exceed
    # Python's recursion limit; A1 has m + 1 partitions.
    code = main(["nc", "--type", "A1", "--m", "1500", "--count"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    rs = build_root_system(QuiverDescriptor.standard("A", 1))
    assert json.loads(captured.out)["counts"]["m-noncrossing-partitions"] == \
        fuss_catalan(rs, 1500) == 1501


def test_torsion_command(capsys, tmp_path):
    infile = tmp_path / "silting.json"
    infile.write_text(json.dumps([
        [{"dim": [1, 1], "deg": 0}, {"dim": [1, 0], "deg": 0}],
    ]))
    code, payload = run(capsys, "torsion", "--type", "A2", "--in", str(infile),
                        "--window", "-1:2")
    assert code == 0
    assert payload["failures"] == 0
    members = payload["records"][0]["torsion_window"]
    assert {"dim": [1, 0], "deg": 0} in members
    assert {"dim": [0, 1], "deg": 0} not in members


def test_custom_orientation(capsys):
    code, payload = run(capsys, "enumerate", "--type", "A3", "--m", "1",
                        "--kind", "m-config",
                        "--orientation", "[[1,3],[2,3]]")
    assert code == 0
    assert payload["counts"]["m-config"] == 14


@pytest.mark.parametrize("qtype", ["A2", "A3", "A4", "D4"])
@pytest.mark.parametrize("m", [1, 2])
def test_verify_every_orientation(capsys, qtype, m):
    """verify passes on every admissible numbering of the diagram."""
    quivers = list(admissible_quivers(qtype[0], int(qtype[1:])))
    assert quivers
    for q in quivers:
        code = main(["verify", "--type", qtype, "--m", str(m),
                     "--orientation", json.dumps(q.arrows)])
        out = capsys.readouterr().out
        assert code == 0, (q.arrows, out)


GOLDEN_OUTPUTS = [
    (("enumerate", "--type", "A3", "--m", "2", "--kind", "m-cluster-tilting"),
     "ac99d6d1c0a8ad7f552b2671175750db8c68a82ef876fbaa7b6700f8f8103344"),
    (("enumerate", "--type", "D4", "--m", "1", "--kind", "m-config"),
     "e91d03dfda8c5340883bf17b56fcb1e1e43874918073e792de149028a5a20ab3"),
    (("enumerate", "--type", "D4", "--m", "2", "--kind", "m-config-minus"),
     "9ca6a5f315072b3fa602334bb988547072b93dbe6769b0027a102048072720d7"),
    (("nc", "--type", "A3", "--m", "2"),
     "ddae1c66d23076956e40357812333a3cd3a2cfbaca00968b41a6102293da5fc8"),
    (("nc", "--type", "D4", "--m", "1", "--matrices"),
     "d500effef3fc0d9b19b2a92f8f488a4a5ff3d6d4daf7dc773954a38b37e827b2"),
    (("nc", "--type", "B2", "--m", "2"),
     "c0433686ef7c9af26569374918bb27194655167a0abc5cc3ea3ece1769209e63"),
    (("verify", "--type", "A4", "--m", "1"),
     "a64e48e5fc8efd1e751afd006826f33a4f445ac3e71fd8b86e0575c7aa51d03a"),
    (("verify", "--type", "D4", "--m", "2"),
     "1ce7bb8ec32b6ef82bc58840da3875b3c8ca6ce0d98e60d02a89a80aa0d98156"),
    (("verify", "--type", "D5", "--m", "1",
      "--orientation", "[[1,5],[2,3],[3,4],[3,5]]"),
     "575e87cb9f80aca967cbf47862b611010b31a23288686184e746da2849d6e080"),
    (("riedtmann", "--type", "D4", "--verify"),
     "db205e5b2d1920adf4349ecd33d6471c24f233ec9f5c4c8cdaebaaa2884e19e9"),
]


def test_output_byte_stable(capsys, tmp_path):
    for argv, digest in GOLDEN_OUTPUTS:
        texts = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            code, _ = run(capsys, *argv, "--out", str(out))
            assert code == 0
            payload = json.loads(out.read_text())
            del payload["elapsed_seconds"]
            texts.append(json.dumps(payload, sort_keys=True))
        assert texts[0] == texts[1]
        assert hashlib.sha256(texts[0].encode()).hexdigest() == digest, argv


# The outputs at the target scale, E6 to E8, each pinned by the sha256 of
# its --out file without the one "elapsed_seconds" line, hashed line by line
# so that the 31 MB of E8 are never parsed.  The two E6 payloads differ in
# their "arrows", the numbering verify checked.  The CI workflow pins
# verify E7/1 and enumerate E7/2 m-config the same way.
SCALE_OUTPUTS = [
    (("verify", "--type", "E6", "--m", "1"),
     "2b282c89fdc9eb96080187c18f9a38d49d06d8204fcf17712dc15db1da42df3d"),
    (("verify", "--type", "E6", "--m", "1",
      "--orientation", "[[1,2],[2,3],[3,4],[3,5],[4,6]]"),
     "2ce0b7e4586f45191618dad3f60c13344bb71f5573dcfb9b895c55f93bde4568"),
    (("riedtmann", "--type", "E7", "--verify"),
     "3c031d0adca242456e55bfb7259e198955cd49d59c16659cf6c1dff20151405c"),
    (("enumerate", "--type", "E8", "--m", "1", "--kind", "m-cluster-tilting"),
     "3ca8b11a0a331c6be48eb93220f6d68b8c96859a2b29785005111fa4b1e6c83e"),
]


@pytest.mark.parametrize("argv,digest", SCALE_OUTPUTS,
                         ids=[" ".join(argv) for argv, _ in SCALE_OUTPUTS])
def test_scale_output_digests(capsys, tmp_path, argv, digest):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    sha = hashlib.sha256()
    with out.open("rb") as lines:
        for line in lines:
            if not line.startswith(b'  "elapsed_seconds": '):
                sha.update(line)
    assert sha.hexdigest() == digest, argv


# The orders the bijections use, pinned through the CLI: every object of one
# enumerated kind goes through biject --trace, whose traces list each
# mu_rev step of the ordered sequence.  A biject payload has no
# elapsed_seconds, so the whole --out file is hashed.
TRACE_OUTPUTS = [
    ("D4", 2, "m-cluster-tilting", "silting-to-config",
     "efb043d197272fcce47d37b5929e5831e49c99ee9f456bed1d3006f40efa9c75"),
    ("D4", 2, "m-config", "config-to-silting",
     "0769c099e5ce0657872e71395c87e74c3cafdc7ed0f84afbae346e3e180f1946"),
    ("E6", 1, "m-cluster-tilting", "silting-to-config",
     "b23aa12d279d5026bbb8d26f86f3031d86941d50cedd2bcd50849e603ccabf94"),
]


@pytest.mark.parametrize("qtype,m,kind,direction,digest", TRACE_OUTPUTS,
                         ids=[f"{t}/{m} {d}" for t, m, _, d, _ in TRACE_OUTPUTS])
def test_biject_trace_digests(capsys, tmp_path, qtype, m, kind, direction, digest):
    listing, records, out = (tmp_path / name for name in
                             ("listing.json", "records.json", "out.json"))
    assert main(["enumerate", "--type", qtype, "--m", str(m), "--kind", kind,
                 "--out", str(listing)]) == 0
    records.write_text(json.dumps(json.loads(listing.read_text())["objects"]))
    assert main(["biject", "--type", qtype, "--m", str(m), "--direction", direction,
                 "--in", str(records), "--trace", "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_verify_names_its_arrows(capsys):
    # Two numberings of E6 pass the same checks; only "arrows" tells the
    # payloads apart.
    other = [[1, 2], [2, 3], [3, 4], [3, 5], [4, 6]]
    payloads = []
    for extra in ([], ["--orientation", json.dumps(other)]):
        code, payload = run(capsys, "verify", "--type", "E6", "--m", "1", *extra)
        assert code == 0
        del payload["elapsed_seconds"]
        payloads.append(payload)
    standard = [list(a) for a in QuiverDescriptor.standard("E", 6).arrows]
    assert standard != other
    assert [p.pop("arrows") for p in payloads] == [standard, other]
    assert payloads[0] == payloads[1]


@pytest.mark.parametrize("qtype,count", [("A3", 16), ("D4", 162)])
def test_verify_checks_complete_sequence_count(capsys, qtype, count):
    code, payload = run(capsys, "verify", "--type", qtype, "--m", "1")
    assert code == 0
    check = next(c for c in payload["checks"]
                 if c["name"] == "count complete exceptional sequences")
    assert check == {"name": "count complete exceptional sequences",
                     "expected": count, "actual": count, "passed": True}
    # Every sequence is checked: no check names a sample.
    assert not any("sample" in c for c in payload["checks"])


def test_nc_m_zero_is_the_coxeter_element(capsys):
    # C_0 = 1: the one 0-noncrossing partition is (c), c = s_1 s_2 s_3.
    code, payload = run(capsys, "nc", "--type", "A3", "--m", "0")
    assert code == 0
    assert payload["counts"]["m-noncrossing-partitions"] == 1
    assert payload["objects"] == [
        {"reflection_words": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}]


class CallLog:
    """Wraps module.<name>, cli by default, counting calls; `fault(k, *args)`
    may replace the result of the k-th call (0-based) or raise."""

    def __init__(self, monkeypatch, name, fault=None, module=cli):
        self.inner = getattr(module, name)
        self.calls = 0
        self.fault = fault
        monkeypatch.setattr(module, name, self)

    def __call__(self, *args):
        k, self.calls = self.calls, self.calls + 1
        out = self.inner(*args)
        return self.fault(k, out) if self.fault else out


def raise_at(k, exc=MutationError):
    def fault(call, out):
        if call == k:
            raise exc("injected")
        return out
    return fault


def wrong_at(k):
    return lambda call, out: () if call == k else out


A3 = build_root_system(QuiverDescriptor.standard("A", 3))
A3_GROUP = generate_weyl(A3)
A3_NCS = enumerate_m_nc(A3_GROUP, 1)
A3_TILTING = enumerate_kind(A3, "m-cluster-tilting", 1)
A3_SEQUENCES = enumerate_complete_sequences(A3)


def verify_a3(capsys):
    """Run verify on standard A3/1; the exit code and the checks by name.
    The run must not raise and must write nothing to stderr."""
    code, payload = run(capsys, "verify", "--type", "A3", "--m", "1")
    assert capsys.readouterr().err == ""
    return code, {c["name"]: c for c in payload["checks"]}


def failed_only(checks, *names):
    assert sorted(n for n, c in checks.items() if not c["passed"]) == sorted(names)


@pytest.mark.parametrize("k", [0, 5, 13])
def test_verify_phi_round_trip_reports_kth_partition(capsys, monkeypatch, k):
    forward = CallLog(monkeypatch, "phi")
    CallLog(monkeypatch, "_phi_inverse", wrong_at(k))
    code, checks = verify_a3(capsys)
    assert code == 1
    failed_only(checks, "phi round trip")
    assert checks["phi round trip"]["counterexample"] == nc_to_dict(A3_GROUP, A3_NCS[k])
    assert forward.calls == len(A3_NCS)       # phi once per partition


@pytest.mark.parametrize("k", [0, 5, 13])
def test_verify_silting_round_trip_reports_kth_object(capsys, monkeypatch, k):
    forward = CallLog(monkeypatch, "silting_to_config")
    CallLog(monkeypatch, "_config_to_silting", wrong_at(k))
    code, checks = verify_a3(capsys)
    assert code == 1
    failed_only(checks, "silting/config round trip")
    assert (checks["silting/config round trip"]["counterexample"]
            == collection_to_list(A3_TILTING[k]))
    assert forward.calls == len(A3_TILTING)


def flip_at(k, wrong):
    """A fault for mu_rev or mu_rev_inverse: the k-th call reports its first
    sign as `wrong`, the sign its lemma forbids."""
    def fault(call, out):
        seq, signs = out
        return (seq, (wrong,) + signs[1:]) if call == k else out
    return fault


# The sign lemmas, as the bijections check them: the composite each runs in
# silting, the sign it may not use, and whether it is the forward map.
SIGN_LEMMAS = [("mu_rev", MutationSign.NONNEGATIVE, True),
               ("mu_rev_inverse", MutationSign.NEGATIVE, False)]


@pytest.mark.parametrize("name,wrong,forward", SIGN_LEMMAS,
                         ids=["forward", "inverse"])
def test_bijections_check_their_sign_lemma(monkeypatch, name, wrong, forward):
    tilting = A3_TILTING[0]
    config = silting_to_config(tilting)
    bijection, x, y = ((silting_to_config, tilting, config) if forward
                       else (config_to_silting, config, tilting))
    CallLog(monkeypatch, name, flip_at(0, wrong), module=silting)
    with pytest.raises(MutationError, match="mutation"):
        bijection(x)
    assert bijection(x) == y        # the next call reports its true signs


@pytest.mark.parametrize("k", [0, 5, 13])
@pytest.mark.parametrize("name,wrong,forward", SIGN_LEMMAS,
                         ids=["forward", "inverse"])
def test_verify_reports_a_sign_lemma_violation(capsys, monkeypatch, name, wrong,
                                               forward, k):
    # verify calls each composite once per m-cluster-tilting object, and a
    # violation fails the round trip at that object; a forward one also
    # leaves that object without an image.
    CallLog(monkeypatch, name, flip_at(k, wrong), module=silting)
    code, checks = verify_a3(capsys)
    assert code == 1
    also = ["silting image is the m-config set"] if forward else []
    failed_only(checks, "silting/config round trip", *also)
    assert (checks["silting/config round trip"]["counterexample"]
            == collection_to_list(A3_TILTING[k]))


# A fault injected into the third call of each function, the check it must
# fail, any other check that fails with it, and the input of that call.
# verify calls the unchecked private inverses; a case is named after the
# bijection.  Each function is wrapped in cli, except those of
# INJECTED_MODULE: order_silting runs inside silting_to_config.
INJECTED = [
    ("phi", "phi round trip", ["phi image is the m-config set"],
     nc_to_dict(A3_GROUP, A3_NCS[2])),
    ("_phi_inverse", "phi round trip", [], nc_to_dict(A3_GROUP, A3_NCS[2])),
    ("silting_to_config", "silting/config round trip",
     ["silting image is the m-config set"], collection_to_list(A3_TILTING[2])),
    ("_config_to_silting", "silting/config round trip", [],
     collection_to_list(A3_TILTING[2])),
    ("order_silting", "silting/config round trip",
     ["silting image is the m-config set"], collection_to_list(A3_TILTING[2])),
    # mu_rev runs twice per sequence: the third call is the second sequence's.
    ("mu_rev", "mu_rev^2 = nu^{-1} and inverse law", [],
     [obj_to_dict(x) for x in A3_SEQUENCES[1]]),
]


INJECTED_MODULE = {"order_silting": silting}


@pytest.mark.parametrize("exc", [MutationError, ValueError])
@pytest.mark.parametrize("name,check,also,counterexample", INJECTED,
                         ids=[row[0].lstrip("_") for row in INJECTED])
def test_verify_internal_error_is_a_failed_check(capsys, monkeypatch, exc,
                                                 name, check, also, counterexample):
    CallLog(monkeypatch, name, raise_at(2, exc), module=INJECTED_MODULE.get(name, cli))
    code, checks = verify_a3(capsys)
    assert code == 1
    failed_only(checks, check, *also)
    assert checks[check]["counterexample"] == counterexample


def test_verify_image_check_fails_on_a_repeated_image(capsys, monkeypatch):
    # The third call returns the first input's image: that image is then
    # made twice and the third input's never, so the image check fails with
    # the round trip, and nothing else does.
    images = []

    def repeat_first(call, out):
        images.append(out)
        return images[0] if call == 2 else out

    CallLog(monkeypatch, "silting_to_config", repeat_first)
    code, checks = verify_a3(capsys)
    assert code == 1
    failed_only(checks, "silting/config round trip", "silting image is the m-config set")
    assert (checks["silting/config round trip"]["counterexample"]
            == collection_to_list(A3_TILTING[2]))


def test_verify_keeps_no_image(capsys, monkeypatch):
    # Each phi image is compared with the m-configurations as it is made,
    # then dropped: none is alive once both round trips are done, which is
    # before the sequence count.
    images, checked = [], []

    def record(call, out):
        images.append(weakref.ref(out))
        return out

    def sequence_counts(rs):
        gc.collect()
        checked.append(sum(ref() is not None for ref in images))
        return cli_sequence_counts(rs)

    CallLog(monkeypatch, "phi", record)
    cli_sequence_counts = cli._sequence_counts
    monkeypatch.setattr(cli, "_sequence_counts", sequence_counts)
    code, _ = verify_a3(capsys)
    assert code == 0
    assert len(images) == len(A3_NCS)
    assert checked == [0]       # images alive when the sequences are counted


A3_MINUS = enumerate_kind(A3, "m-config-minus", 1)


@pytest.mark.parametrize("exc", [MutationError, ValueError])
@pytest.mark.parametrize("name", ["config_to_riedtmann", "_riedtmann_to_config"],
                         ids=lambda name: name.lstrip("_"))
def test_riedtmann_internal_error_is_a_failed_check(capsys, monkeypatch, name, exc):
    CallLog(monkeypatch, name, raise_at(2, exc))
    code, payload = run(capsys, "riedtmann", "--type", "A3", "--verify")
    assert capsys.readouterr().err == ""
    assert code == 1
    checks = {c["name"]: c for c in payload["checks"]}
    failed_only(checks, "riedtmann round trip")
    assert (checks["riedtmann round trip"]["counterexample"]
            == collection_to_list(A3_MINUS[2]))


# Calls of (explain_not_config, is_combinatorial_configuration).  Each round
# trip checks its collections in the forward bijection only: verify checks
# one configuration per m-cluster-tilting object (silting_to_config's
# image) and one per partition (phi's), and riedtmann --verify checks each
# minus-window configuration once as a configuration and once, as an
# F-orbit family, as a periodic one.
CHECKED_ONCE = [
    (("verify", "--type", "A3", "--m", "1"), (len(A3_TILTING) + len(A3_NCS), 0)),
    (("riedtmann", "--type", "A3", "--verify"), (len(A3_MINUS), len(A3_MINUS))),
]


@pytest.mark.parametrize("argv,calls", CHECKED_ONCE, ids=["verify", "riedtmann"])
def test_round_trips_check_each_collection_once(capsys, monkeypatch, argv, calls):
    configs = CallLog(monkeypatch, "explain_not_config", module=silting)
    periodic = CallLog(monkeypatch, "is_combinatorial_configuration", module=riedtmann)
    code, payload = run(capsys, *argv)
    assert code == 0 and payload["passed"]
    assert (configs.calls, periodic.calls) == calls


def test_verify_counts_every_sequence_after_a_law_fails(capsys, monkeypatch):
    laws = CallLog(monkeypatch, "mu_rev", raise_at(0))
    code, checks = verify_a3(capsys)
    assert code == 1
    failed_only(checks, "mu_rev^2 = nu^{-1} and inverse law")
    # 3! 4^3 / 4! = 16, checked although no law was checked after the first.
    assert checks["count complete exceptional sequences"]["actual"] == 16
    assert laws.calls == 1


def test_verify_checks_each_sequence_as_it_is_found(capsys, monkeypatch):
    found = []

    def search(rs):
        for seq in cli_complete_sequences(rs):
            found.append(seq)
            yield seq

    def laws(seq):
        assert seq == found[-1]     # checked before the next one is found
        return cli_laws(seq)

    cli_complete_sequences, cli_laws = cli._complete_sequences, cli._sequence_laws
    monkeypatch.setattr(cli, "_complete_sequences", search)
    monkeypatch.setattr(cli, "_sequence_laws", laws)
    code, _ = verify_a3(capsys)
    assert code == 0
    # Equal roots: verify builds its own root system, so the objects differ.
    assert ([[x.root for x in seq] for seq in found]
            == [[x.root for x in seq] for seq in A3_SEQUENCES])


def verify_sampled(capsys, monkeypatch, qtype, size=None):
    """Run verify on standard qtype/1 with every complete sequence count
    above the exhaustive limit; the exit code and the checks by name."""
    monkeypatch.setattr(cli, "_EXHAUSTIVE_LIMIT", 0)
    if size is not None:
        monkeypatch.setattr(cli, "_SAMPLE_SIZE", size)
    code, payload = run(capsys, "verify", "--type", qtype, "--m", "1")
    assert capsys.readouterr().err == ""
    return code, {c["name"]: c for c in payload["checks"]}


def a3_sample():
    return list(_sample_complete_sequences(
        A3, _sequence_counts(A3), cli._SAMPLE_SIZE, cli._SAMPLE_SEED))


@pytest.mark.parametrize("qtype,size,count", [("A3", None, 16), ("D4", 200, 162)])
def test_verify_sampled_run_reports_its_sample(capsys, monkeypatch, qtype, size, count):
    laws = CallLog(monkeypatch, "_sequence_laws")
    code, checks = verify_sampled(capsys, monkeypatch, qtype, size)
    assert code == 0
    assert checks["count complete exceptional sequences"]["actual"] == count
    law = checks["mu_rev^2 = nu^{-1} and inverse law"]
    assert law["sample"] == {"seed": cli._SAMPLE_SEED, "size": cli._SAMPLE_SIZE}
    assert laws.calls == cli._SAMPLE_SIZE
    # Only the sampled check carries the seed and the size.
    assert [name for name, c in checks.items() if "sample" in c] == [law["name"]]


def test_verify_sample_is_deterministic(capsys, monkeypatch):
    drawn = []

    def laws(seq):
        drawn.append([x.root for x in seq])
        return True

    monkeypatch.setattr(cli, "_sequence_laws", laws)
    verify_sampled(capsys, monkeypatch, "A3")
    first, drawn[:] = drawn[:], []
    verify_sampled(capsys, monkeypatch, "A3")
    assert drawn == first == [[x.root for x in seq] for seq in a3_sample()]
    assert {tuple(seq) for seq in first} <= {tuple(x.root for x in seq)
                                             for seq in A3_SEQUENCES}


@pytest.mark.parametrize("k", [0, 7, 1999])
def test_verify_sampled_laws_report_kth_draw(capsys, monkeypatch, k):
    # mu_rev runs twice per sequence: call 2k is the k-th draw's first.
    CallLog(monkeypatch, "mu_rev", raise_at(2 * k))
    code, checks = verify_sampled(capsys, monkeypatch, "A3")
    assert code == 1
    failed_only(checks, "mu_rev^2 = nu^{-1} and inverse law")
    assert (checks["mu_rev^2 = nu^{-1} and inverse law"]["counterexample"]
            == [obj_to_dict(x) for x in a3_sample()[k]])


RAW_LAYOUT_CASES = [
    ("A3", 2, "m-cluster-tilting", None),
    ("D4", 2, "m-config-minus", None),
    ("E6", 1, "m-config", [[1, 2], [1, 3], [1, 4], [2, 5], [3, 6]]),
    ("A4", 2, "silting-deg1-window", [[1, 3], [2, 3], [2, 4]]),
    ("A1", 3, "m-cluster-tilting", None),    # one summand per collection
    ("A2", 3, "m-config", None),             # two: no middle position
]
STREAM_CASE = RAW_LAYOUT_CASES[2]     # about 0.7 MB of JSON


def enumerate_case(qtype, m, kind, arrows):
    """The argv of an enumerate case and the reference encoding of its
    report, given the printed elapsed_seconds: the plain indent-2 encoder
    over per-summand dicts."""
    argv = ["enumerate", "--type", qtype, "--m", str(m), "--kind", kind]
    family, rank = qtype[0], int(qtype[1:])
    if arrows is None:
        quiver = QuiverDescriptor.standard(family, rank)
    else:
        argv += ["--orientation", json.dumps(arrows)]
        quiver = QuiverDescriptor(family, rank, tuple(map(tuple, arrows)))

    def reference(elapsed):
        found = enumerate_kind(build_root_system(quiver), kind, m)
        report = {
            "checks": [], "command": "enumerate", "counts": {kind: len(found)},
            "elapsed_seconds": elapsed, "m": m, "passed": True, "type": qtype,
            "objects": [collection_to_list(c) for c in found],
        }
        return json.dumps(report, indent=2, sort_keys=True) + "\n"

    return argv, reference


def assert_same_text(name, text, expected):
    # Report the first differing line: pytest's own diff of two texts this
    # large takes minutes, and it computes one for any failing `assert a == b`
    # even when a message is given, so the comparison is made first.
    same = text == expected
    assert same, next(
        (f"{name} line {i}: {a!r} != {b!r}" for i, (a, b) in enumerate(
            zip(text.splitlines(), expected.splitlines()), 1) if a != b),
        f"{name} differs in length")


@pytest.mark.parametrize("qtype,m,kind,arrows", RAW_LAYOUT_CASES)
def test_enumerate_raw_layout(capsys, tmp_path, qtype, m, kind, arrows):
    argv, reference = enumerate_case(qtype, m, kind, arrows)
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    expected = reference(json.loads(stdout)["elapsed_seconds"])
    assert_same_text("stdout", stdout, expected)
    assert_same_text("--out", out.read_text(), expected)


class ChunkRecorder(io.StringIO):
    """A text stream that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.chunks = []

    def write(self, text):
        self.chunks.append(len(text))
        return super().write(text)


def test_enumerate_streams_its_output(monkeypatch):
    argv, reference = enumerate_case(*STREAM_CASE)
    recorder = ChunkRecorder()
    monkeypatch.setattr(sys, "stdout", recorder)
    assert main(argv) == 0
    stdout = recorder.getvalue()
    assert_same_text("stdout", stdout,
                     reference(json.loads(stdout)["elapsed_seconds"]))
    assert len(stdout) > 10 * 2 ** 16
    assert max(recorder.chunks) <= 2 ** 16


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_enumerate_write_failure_mid_stream(capsys):
    argv, _ = enumerate_case(*STREAM_CASE)
    code = main(argv + ["--out", "/dev/full"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: cannot write /dev/full: ")
    assert captured.out.startswith('{\n  "checks": []')


@pytest.mark.parametrize("argv,read", [
    (["enumerate", "--type", "E6", "--m", "1", "--kind", "m-config"], 100),
    (["nc", "--type", "A3", "--m", "1"], 0),
])
def test_closed_stdout_is_output_error(argv, read):
    # The reader closes the pipe after `read` bytes of a longer document.
    env = {**os.environ, "PYTHONPATH": str(Path(exseq.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from exseq.cli import main; sys.exit(main())", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 2
    assert err.startswith("error: cannot write stdout: ")
    assert err.count("\n") == 1, err


def test_enumerate_offers_only_runnable_kinds(capsys):
    with pytest.raises(SystemExit) as err:
        main(["enumerate", "--type", "A2", "--m", "1",
              "--kind", "silting-in-window"])
    assert err.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_empty_collection_list_encodes_as_empty_array():
    assert "".join(_objects_chunks([], [])) == json.dumps([], indent=2)


@pytest.mark.parametrize("command,option", [
    *((command, "--out") for command in sorted(OUTPUT_COMMANDS)),
    ("verify", "--csv"),
])
def test_unwritable_output_is_usage_error(capsys, tmp_path, command, option):
    argv = list(OUTPUT_COMMANDS[command])
    if command in RECORD_COMMANDS:
        infile = tmp_path / "in.json"
        infile.write_text("[]")
        argv += ["--in", str(infile)]
    target = tmp_path / "missing-dir" / "x.json"
    code = main(argv + [option, str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: cannot write {target}")
    assert captured.out == ""


def test_internal_error_keeps_its_traceback(monkeypatch):
    # main maps usage and output errors to exit 2, never an internal failure.
    def fail(*args):
        raise MutationError("injected")

    monkeypatch.setattr(cli, "enumerate_kind_indexed", fail)
    with pytest.raises(MutationError, match="injected"):
        main(["enumerate", "--type", "A2", "--m", "1", "--kind", "m-config"])


# The exit-code contract over generated malformed input.  Every option of
# every subcommand comes from build_parser(); an option with no strategy
# below fails the test, so a new option must say how to draw its values.
SUBCOMMANDS = {
    name: [action for action in sub._actions
           if not isinstance(action, argparse._HelpAction)]
    for action in cli.build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
    for name, sub in action.choices.items()
}
# Rank at most 4: simply-laced types half the time, else Weyl-only and
# unknown ones.
TYPES = st.one_of(st.sampled_from(["A1", "A2", "A3", "A4", "D4"]), st.sampled_from(
    ["B2", "B3", "C3", "F4", "G2", "A0", "D3", "E9", "Q2", "a2"]))
SCALARS = st.one_of(st.integers(-2, 3), st.floats(allow_nan=False), st.booleans(),
                    st.text(max_size=3), st.none())
KEYS = st.sampled_from(["dim", "deg", "reflection_words", "lo"])
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(KEYS, inner, max_size=3), max_leaves=12)
OBJECT = st.fixed_dictionaries({"dim": st.lists(SCALARS, max_size=4), "deg": SCALARS})
RECORD = st.one_of(
    st.lists(OBJECT, max_size=4),
    st.fixed_dictionaries({"reflection_words": st.lists(
        st.lists(st.lists(SCALARS, max_size=4), max_size=3), max_size=4)}),
    st.just([{"dim": [1, 1], "deg": 0}, {"dim": [1, 0], "deg": 0}]),
    st.just({"reflection_words": [[], [[1, 0], [0, 1]]]}),
    JSON,
)
DEEP = "[" * 200_000
RECORD_FILES = st.one_of(
    st.lists(RECORD, max_size=4).map(json.dumps).map(str.encode),
    JSON.map(json.dumps).map(str.encode),
    st.sampled_from([b"", b"\xff\xfe[\x80]", b"[1,", DEEP.encode(),
                     ("[" * 300 + "]" * 300).encode()]),
)
ORIENTATIONS = st.one_of(
    st.lists(st.lists(st.integers(0, 5), min_size=2, max_size=2), max_size=4).map(
        json.dumps),
    JSON.map(json.dumps),
    st.sampled_from(["", "not json", "[[1,2]", DEEP]),
)
OPTION_VALUES = {
    "type": TYPES,
    "m": st.one_of(st.integers(-2, 2).map(str), st.integers(1, 2).map(str),
                   st.sampled_from(["1.5", "true", "x", ""])),
    "orientation": ORIENTATIONS,
    "window": st.one_of(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda w: f"{w[0]}:{w[1]}"), st.sampled_from(["", "1", "a:b", "1.5:2", "::"])),
    "infile": RECORD_FILES,       # the file's bytes; the option gets its path
    "out": st.sampled_from(["file", "missing", "directory"]),
    "csv": st.sampled_from(["file", "missing", "directory"]),
}


@st.composite
def command_lines(draw):
    """A subcommand and its options, each drawn or left out; a required
    option is left out once in twenty.  Values are [flag] or [flag, value]."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    options = []
    for action in SUBCOMMANDS[command]:
        if not draw(st.integers(0, 19).map(bool) if action.required else st.booleans()):
            continue
        flag = action.option_strings[0]
        if action.nargs == 0:
            options.append([flag])
        elif action.choices is not None:
            options.append([flag, draw(st.sampled_from([*action.choices, "bogus"]))])
        else:
            options.append([flag, draw(OPTION_VALUES[action.dest])])
    return command, options


@settings(max_examples=200, deadline=None)
@given(command_lines())
def test_exit_code_contract(tmp_path_factory, drawn):
    command, options = drawn
    root = tmp_path_factory.getbasetemp() / "contract"
    (root / "directory").mkdir(parents=True, exist_ok=True)
    paths = {"file": root / "out", "missing": root / "missing" / "out",
             "directory": root / "directory"}
    argv = [command]
    for option in options:
        if option[0] == "--in":
            (root / "in.json").write_bytes(option[1])
            option = ["--in", str(root / "in.json")]
        elif option[0] in ("--out", "--csv"):
            option = [option[0], str(paths[option[1]])]
        argv += option
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:     # argparse's own usage error
            code = exc.code
            assert code == 2
            assert out.getvalue() == ""
            return
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    else:
        json.loads(out.getvalue())
