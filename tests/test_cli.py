"""Command-line interface: reports, artifacts, exit codes."""
import hashlib
import json

import pytest

from exseq.cli import main


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


def test_riedtmann_verify(capsys):
    code, payload = run(capsys, "riedtmann", "--type", "A3", "--verify")
    assert code == 0
    assert payload["counts"]["minus-window-1-configs"] == 5
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


def test_biject_past_weyl_guard_is_usage_error(capsys, tmp_path):
    infile = tmp_path / "empty.json"
    infile.write_text("[]")
    code = main(["biject", "--type", "E7", "--direction", "nc-to-config",
                 "--in", str(infile)])
    assert code == 2
    assert "enumeration guard" in capsys.readouterr().err


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


GOLDEN_ENUMERATIONS = [
    ("A3", 2, "m-cluster-tilting",
     "ac99d6d1c0a8ad7f552b2671175750db8c68a82ef876fbaa7b6700f8f8103344"),
    ("D4", 1, "m-config",
     "e91d03dfda8c5340883bf17b56fcb1e1e43874918073e792de149028a5a20ab3"),
    ("D4", 2, "m-config-minus",
     "9ca6a5f315072b3fa602334bb988547072b93dbe6769b0027a102048072720d7"),
]


def test_output_byte_stable(capsys, tmp_path):
    for qtype, m, kind, digest in GOLDEN_ENUMERATIONS:
        texts = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            code, _ = run(capsys, "enumerate", "--type", qtype, "--m", str(m),
                          "--kind", kind, "--out", str(out))
            assert code == 0
            payload = json.loads(out.read_text())
            del payload["elapsed_seconds"]
            texts.append(json.dumps(payload, sort_keys=True))
        assert texts[0] == texts[1]
        assert hashlib.sha256(texts[0].encode()).hexdigest() == digest, (qtype, m, kind)


@pytest.mark.parametrize("qtype,count", [("A3", 16), ("D4", 162)])
def test_verify_checks_complete_sequence_count(capsys, qtype, count):
    code, payload = run(capsys, "verify", "--type", qtype, "--m", "1")
    assert code == 0
    check = next(c for c in payload["checks"]
                 if c["name"] == "count complete exceptional sequences")
    assert check == {"name": "count complete exceptional sequences",
                     "expected": count, "actual": count, "passed": True}
