"""Command-line interface: reports, artifacts, exit codes."""
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import exseq
from exseq import QuiverDescriptor, build_root_system, enumerate_kind
from exseq.cli import _objects_chunks, main
from exseq.silting import collection_to_list


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
    assert "error" in payload["records"][0]


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


def test_malformed_orientation_is_usage_error(capsys):
    code = main(["enumerate", "--type", "A2", "--m", "1", "--kind", "m-config",
                 "--orientation", "[1,2]"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_nc_count_e6(capsys):
    code, payload = run(capsys, "nc", "--type", "E6", "--m", "1", "--count")
    assert code == 0
    assert payload["counts"]["m-noncrossing-partitions"] == 833


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


@pytest.mark.parametrize("qtype,count", [("A3", 16), ("D4", 162)])
def test_verify_checks_complete_sequence_count(capsys, qtype, count):
    code, payload = run(capsys, "verify", "--type", qtype, "--m", "1")
    assert code == 0
    check = next(c for c in payload["checks"]
                 if c["name"] == "count complete exceptional sequences")
    assert check == {"name": "count complete exceptional sequences",
                     "expected": count, "actual": count, "passed": True}


RAW_LAYOUT_CASES = [
    ("A3", 2, "m-cluster-tilting", None),
    ("D4", 2, "m-config-minus", None),
    ("E6", 1, "m-config", [[1, 2], [1, 3], [1, 4], [2, 5], [3, 6]]),
    ("A4", 2, "silting-deg1-window", [[1, 3], [2, 3], [2, 4]]),
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
    # large takes minutes.
    assert text == expected, next(
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


OUTPUT_COMMANDS = {
    "enumerate": ["enumerate", "--type", "A2", "--m", "1", "--kind", "m-config"],
    "nc": ["nc", "--type", "A2", "--m", "1"],
    "verify": ["verify", "--type", "A2", "--m", "1"],
    "riedtmann": ["riedtmann", "--type", "A2"],
    "biject": ["biject", "--type", "A2", "--direction", "silting-to-config"],
    "torsion": ["torsion", "--type", "A2", "--window", "-1:2"],
}


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
