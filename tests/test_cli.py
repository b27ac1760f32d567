import contextlib
import copy
import errno
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import DATA_DIR, NOT_FINITE_NUMBERS
from voinet import cli
from voinet.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def parse_kv_line(line):
    return {key: float(value) for key, value in (part.split("=") for part in line.split())}


def write_jsonl(path, objs):
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n")


def weights_from(out):
    line = next(l for l in out.splitlines() if l.startswith("weights:"))
    return parse_kv_line(line.removeprefix("weights: "))


def stat_from(out, key):
    line = next(l for l in out.splitlines() if l.startswith(f"{key}:"))
    return line.split(":", 1)[1].strip()


def test_weights_builtin_safety(capsys):
    code, out, _ = run_cli(capsys, "weights", "--profile", "safety")
    assert code == 0
    weights = weights_from(out)
    assert weights["timeliness"] == pytest.approx(0.1194, abs=1e-4)
    assert weights["proximity"] == pytest.approx(0.7471, abs=1e-4)
    assert weights["quality"] == pytest.approx(0.1336, abs=1e-4)
    assert float(stat_from(out, "lambda_max")) == pytest.approx(3.0126, abs=1e-3)
    assert stat_from(out, "acceptable") == "yes"


def test_weights_from_matrix_file(capsys, tmp_path):
    path = tmp_path / "traffic.json"
    path.write_text(json.dumps([[1, 9, 3], [1 / 9, 1, 1 / 7], [1 / 3, 7, 1]]))
    code, out, _ = run_cli(capsys, "weights", "--matrix", str(path))
    assert code == 0
    assert weights_from(out)["timeliness"] == pytest.approx(0.6554, abs=1e-4)
    assert float(stat_from(out, "consistency_ratio")) == pytest.approx(0.069, abs=2e-3)


def test_weights_all_ones_matrix(capsys, tmp_path):
    path = tmp_path / "ones.json"
    path.write_text(json.dumps([[1, 1, 1], [1, 1, 1], [1, 1, 1]]))
    code, out, _ = run_cli(capsys, "weights", "--matrix", str(path))
    assert code == 0
    for value in weights_from(out).values():
        assert value == pytest.approx(1 / 3, abs=1e-6)
    assert float(stat_from(out, "consistency_ratio")) == 0.0


def test_weights_inconsistent_matrix_exits_2(capsys, tmp_path):
    path = tmp_path / "cyclic.json"
    rows = [[1, 9, 1 / 9], [1 / 9, 1, 9], [9, 1 / 9, 1]]
    path.write_text(json.dumps({"labels": ["a", "b", "c"], "matrix": rows}))
    code, out, _ = run_cli(capsys, "weights", "--matrix", str(path))
    assert code == 2
    assert stat_from(out, "acceptable") == "no"


def test_weights_saaty_range_diagnostic(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[1, 15, 1], [1 / 15, 1, 1], [1, 1, 1]]))
    code, _, err = run_cli(capsys, "weights", "--matrix", str(path))
    assert code == 1
    assert "Saaty range" in err
    assert "(timeliness, proximity)" in err


@pytest.mark.parametrize("bad", NOT_FINITE_NUMBERS)
def test_weights_matrix_entries_must_be_finite_numbers(capsys, tmp_path, bad):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": [[1, bad, 1], [1, 1, 1], [1, 1, 1]]}))
    code, out, err = run_cli(capsys, "weights", "--matrix", str(path))
    assert code == 1 and out == ""
    assert f"{path}: the matrix must be a list of rows of finite numbers" in err


def test_weights_matrix_must_be_square(capsys, tmp_path):
    matrix = tmp_path / "m.json"
    config = tmp_path / "cfg.json"
    for doc, message in (
        ([[1, 1, 1], [1, 1], [1, 1, 1]], "row 2 has 2 entries, expected 3"),
        ([[1, 1], [1, 1], [1, 1]], "row 1 has 2 entries, expected 3"),
        ({"labels": "ab", "matrix": [[1, 1], [1, 1]]}, "labels must be a list of strings"),
        (5, "expected a JSON matrix or an object with a 'matrix' key"),
    ):
        matrix.write_text(json.dumps(doc))
        cases = [(("weights", "--matrix", str(matrix)), f"{matrix}: ")]
        if doc != 5:  # a profile holds rows under "matrix", or the object form itself
            profile = {"matrix": doc} if isinstance(doc, list) else doc
            config.write_text(json.dumps({"profiles": {"p": profile}}))
            cases.append((("assess", "--config", str(config), "--profile", "p", "--distance", "1"),
                          f"{config}: profile 'p': "))
        for args, where in cases:
            code, out, err = run_cli(capsys, *args)
            assert code == 1 and out == ""
            assert err == f"error: {where}{message}\n"


def test_weights_unknown_profile(capsys):
    code, out, err = run_cli(capsys, "weights", "--profile", "nope")
    assert code == 1 and out == ""
    assert err == "error: unknown comparison matrix 'nope'; known: ['safety', 'traffic']\n"


def test_weights_of_a_2x2_matrix_and_of_a_size_without_a_random_index(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1, 2], [0.5, 1]]))
    code, out, err = run_cli(capsys, "weights", "--matrix", str(path))
    assert (code, err) == (0, "")
    assert weights_from(out) == pytest.approx({"c1": 2 / 3, "c2": 1 / 3}, abs=1e-6)
    assert [stat_from(out, key) for key in ("random_index", "consistency_ratio", "acceptable")] == [
        "0", "0.000000", "yes"
    ]
    path.write_text(json.dumps([[1] * 11] * 11))
    code, out, err = run_cli(capsys, "weights", "--matrix", str(path))
    assert (code, out) == (1, "")
    assert err == (
        f"error: {path}: no random consistency index for n=11; "
        "supported sizes are [2, 3, 4, 5, 6, 7, 8, 9, 10]\n"
    )


@pytest.mark.parametrize("label", ["a b", "a\nb", "a\tb", "\u2028", "a=b", "=", "a\ud800"])
def test_weights_matrix_labels_that_would_split_the_output_are_located(capsys, tmp_path, label):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"labels": ["x", "y", label], "matrix": [[1, 1, 1]] * 3}))
    code, out, err = run_cli(capsys, "weights", "--matrix", str(path))
    assert (code, out) == (1, "")
    assert err == (
        f"error: {path}: labels[2]: a label must not hold whitespace, '=' or a lone surrogate, "
        f"got {json.dumps(label)}\n"
    )


def test_argparse_errors_exit_1(capsys):
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "weights")[0] == 1
    assert run_cli(capsys, "weights", "--profile", "safety", "--matrix", "x")[0] == 1
    assert run_cli(capsys, "sweep", "--bogus")[0] == 1


def test_assess_reference_point(capsys):
    code, out, _ = run_cli(
        capsys, "assess", "--profile", "safety", "--scenario", "urban",
        "--distance", "100", "--aoi", "0.1", "--ptd", "1",
    )
    assert code == 0
    values = parse_kv_line(out.strip())
    assert values["overall"] == pytest.approx(0.523475, abs=1e-6)
    assert values["quality"] == pytest.approx(0.954414, abs=1e-6)


def test_assess_dynamic_point_and_sampled_variant(capsys):
    code, out, _ = run_cli(
        capsys, "assess", "--profile", "traffic", "--distance", "10",
        "--aoi", "0.1", "--ptd", "10",
    )
    assert code == 0
    assert parse_kv_line(out.strip())["overall"] == pytest.approx(0.583877, abs=1e-6)
    # the frozen curve samples d_o on a 10 m grid, so its d=10 point uses d_o=0
    code, out, _ = run_cli(
        capsys, "assess", "--profile", "traffic", "--distance", "10",
        "--aoi", "0.1", "--ptd", "10", "--obs-distance", "0",
    )
    assert code == 0
    assert parse_kv_line(out.strip())["overall"] == pytest.approx(0.585198, abs=1e-6)
    # Every mode spelling that records and sweep specs accept.
    outs = [
        run_cli(capsys, "assess", "--profile", "traffic", "--distance", "10", "--mode", mode)
        for mode in ("nonprocessed", "non_processed")
    ]
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_assess_all_maxima(capsys):
    code, out, _ = run_cli(
        capsys, "assess", "--profile", "safety", "--distance", "0",
        "--aoi", "0", "--ptd", "0", "--obs-distance", "0",
    )
    assert code == 0
    values = parse_kv_line(out.strip())
    assert values["timeliness"] == 1.0
    assert values["quality"] == 1.0
    assert values["proximity"] == pytest.approx(0.996239, abs=1e-6)


def test_assess_input_errors(capsys):
    code, _, err = run_cli(capsys, "assess", "--profile", "safety", "--scenario", "sea", "--distance", "1")
    assert code == 1 and "unknown scenario" in err
    for flag in ("--distance", "--aoi", "--obs-distance", "--ptd"):
        args = ["assess", "--profile", "safety", "--distance", "1", flag, "-5"]
        code, out, err = run_cli(capsys, *args)
        assert code == 1 and out == ""
        assert f"argument {flag}: must be non-negative, got '-5'" in err
    code, out, err = run_cli(capsys, "assess", "--profile", "safety", "--distance=-0", "--aoi=-0.0")
    assert code == 0 and err == ""


def test_float_flags_must_be_finite(capsys, tmp_path):
    rec, rcv = schedule_files(
        tmp_path, [base_record("r", 10.0)], [{"id": "a", "distance": 100.0, "scenario": "urban"}],
    )
    assess = ["assess", "--profile", "safety", "--distance", "1"]
    schedule = ["schedule", "--records", rec, "--receivers", rcv, "--profile", "safety",
                "--threshold", "0.5"]
    flags = [(assess, flag) for flag in ("--distance", "--aoi", "--ptd", "--obs-distance")]
    flags += [(schedule, flag) for flag in ("--now", "--threshold")]
    for base, flag in flags:
        for bad in ("nan", "inf", "-inf", "1e999", "ten"):
            code, out, err = run_cli(capsys, *base, f"{flag}={bad}")
            assert code == 1 and out == ""
            assert f"argument {flag}: must be a finite number, got '{bad}'" in err
            assert "Traceback" not in err


def test_threshold_flag_must_be_in_the_unit_range(capsys, tmp_path):
    rec, rcv = schedule_files(
        tmp_path, [base_record("r", 10.0)], [{"id": "a", "distance": 100.0, "scenario": "urban"}],
    )
    schedule = ["schedule", "--records", rec, "--receivers", rcv, "--profile", "safety"]
    for bad in ("1.5", "-0.1"):
        code, out, err = run_cli(capsys, *schedule, f"--threshold={bad}")
        assert code == 1 and out == ""
        assert f"argument --threshold: must be in [0, 1], got '{bad}'" in err
    for edge in ("0", "1"):
        assert run_cli(capsys, *schedule, f"--threshold={edge}")[0] == 0


def test_sweep_preset_is_byte_deterministic(capsys, tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    code, out, _ = run_cli(capsys, "sweep", "--figure", "fig3a", "--out", str(first))
    assert code == 0
    assert "wrote 51 rows x 4 series" in out
    assert run_cli(capsys, "sweep", "--figure", "fig3a", "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    rows = [l.split(",") for l in first.read_text().splitlines() if not l.startswith("#")]
    header, data = rows[0], rows[1:]
    column = header.index("fig3a:urban:safety:processed")
    assert float(data[0][column]) == pytest.approx(0.985829, abs=1e-3)


def test_sweep_unknown_figure(capsys):
    code, _, err = run_cli(capsys, "sweep", "--figure", "fig9z")
    assert code == 1
    assert "valid presets" in err


def test_sweep_unwritable_path(capsys):
    code, _, err = run_cli(capsys, "sweep", "--figure", "fig2a", "--out", "/nonexistent/x.csv")
    assert code == 1
    assert "error:" in err


def test_sweep_custom_spec_with_config(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"scenarios": {"campus": {"kind": "urban", "v_max": 7.0}}}))
    spec = {
        "name": "campus-proximity",
        "variable": "distance",
        "start": 0,
        "stop": 100,
        "step": 50,
        "series": [{"label": "campus:prox", "attribute": "proximity", "scenario": "campus"}],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "campus.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--spec", str(spec_path), "--config", str(config), "--out", str(out_path),
    )
    assert code == 0
    assert "wrote 3 rows x 1 series" in out
    body = [l for l in out_path.read_text().splitlines() if not l.startswith("#")]
    assert body[0] == "x,campus:prox"
    assert len(body) == 4


def test_sweep_spec_missing_key(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"variable": "distance"}))
    code, _, err = run_cli(capsys, "sweep", "--spec", str(path))
    assert code == 1
    assert "needs 'start'" in err

    good = {
        "variable": "distance", "start": 0, "stop": 10, "step": 5,
        "series": [{"label": "s", "attribute": "overall", "profile": "safety", "scenario": "urban",
                    "temporal": "variable", "sensor": "medium", "aoi": 0.1}],
    }
    out_path = str(tmp_path / "never.csv")
    for bad in NOT_FINITE_NUMBERS:
        for field in ("start", "stop", "step", "aoi"):
            spec = copy.deepcopy(good)
            (spec["series"][0] if field == "aoi" else spec)[field] = bad
            path.write_text(json.dumps(spec))
            code, out, err = run_cli(capsys, "sweep", "--spec", str(path), "--out", out_path)
            assert code == 1 and out == ""
            assert err.startswith(f"error: {path}: ")
            assert f"field '{field}' must be a finite number, got {json.dumps(bad)}" in err
            assert "Traceback" not in err
    for spec, message in (
        ([], "sweep spec must be a JSON object"),
        (dict(good, start=-10), "start must be non-negative, got -10.0"),
        (dict(good, series=[5]), "series[0]: a series must be a JSON object"),
        (dict(good, series=5), "fields 'series' and 'notes' must be JSON lists"),
        (dict(good, stop=1e9, step=1e-3), "the sweep grid would have 1000000000001 points"),
        (dict(good, series=[dict(good["series"][0], mode="raw")]),
         "series[0]: field 'mode': unknown mode 'raw'"),
        (dict(good, series=[dict(good["series"][0], mode=7)]),
         "series[0]: field 'mode': mode must be a JSON string, got 7"),
        *(
            (dict(good, series=[dict(good["series"][0], **{key: -0.1})]),
             f"series[0]: {key} must be non-negative, got -0.1")
            for key in ("aoi", "distance", "obs_distance")
        ),
        # A label is printed unquoted in the CSV header and its "# series" line.
        (dict(good, series=[dict(good["series"][0], label="a,b\nc")]),
         "series[0]: field 'label' must not hold a comma, quote or line break, got \"a,b\\nc\""),
        # Text fields must be JSON strings, not coerced with str().
        (dict(good, variable=7), "field 'variable' must be a JSON string, got 7"),
        (dict(good, name=None), "field 'name' must be a JSON string, got null"),
        (dict(good, notes=["ok", 5]), "field 'notes' must hold JSON strings, got [\"ok\", 5]"),
        *(
            (dict(good, series=[dict(good["series"][0], **{key: value})]),
             f"series[0]: field '{key}' must be a JSON string, got {json.dumps(value)}")
            for key, value in (("label", None), ("attribute", 7), ("profile", None),
                               ("scenario", 1), ("sensor", None))
        ),
    ):
        path.write_text(json.dumps(spec))
        code, _, err = run_cli(capsys, "sweep", "--spec", str(path), "--out", out_path)
        assert code == 1 and f"{path}: {message}" in err
    assert not (tmp_path / "never.csv").exists()


def test_json_nested_too_deep_is_located(capsys, tmp_path):
    # json gives up on deep nesting with a RecursionError; it must read as
    # invalid JSON in the file (and line) it came from, like any other.
    deep = "[" * 100_000
    good_record = json.dumps(base_record("r1", 1.0))
    good_receiver = json.dumps({"id": "a", "distance": 1.0, "scenario": "urban"})
    records, receivers = tmp_path / "records.jsonl", tmp_path / "receivers.jsonl"
    other = tmp_path / "deep.json"
    other.write_text(deep)
    schedule = ("schedule", "--records", str(records), "--receivers", str(receivers),
                "--profile", "safety", "--threshold", "0.5")
    for record_lines, receiver_lines, args, where in (
        ([good_record, deep], [good_receiver], schedule, f"{records}:2"),
        ([good_record], [good_receiver, deep], schedule, f"{receivers}:2"),
        ([], [], ("assess", "--config", str(other), "--profile", "safety", "--distance", "1"), other),
        ([], [], ("weights", "--matrix", str(other)), other),
        ([], [], ("sweep", "--spec", str(other), "--out", str(tmp_path / "never.csv")), other),
    ):
        records.write_text("".join(line + "\n" for line in record_lines))
        receivers.write_text("".join(line + "\n" for line in receiver_lines))
        code, out, err = run_cli(capsys, *args)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {where}: invalid JSON: ") and err.count("\n") == 1
    assert not (tmp_path / "never.csv").exists()


def schedule_files(tmp_path, records, receivers):
    rec_path = tmp_path / "records.jsonl"
    rcv_path = tmp_path / "receivers.jsonl"
    write_jsonl(rec_path, records)
    write_jsonl(rcv_path, receivers)
    return str(rec_path), str(rcv_path)


def base_record(rid, d_o, t0=0.0):
    return {"id": rid, "source": "v1", "t0": t0, "d_o": d_o, "temporal": "variable", "sensor": "medium"}


def test_schedule_reference_split(capsys, tmp_path):
    # one receiver distance per run, d_o = d/2: values land on the
    # frozen fig3a curve and split 2 transmit / 1 cancel at 0.5
    outcomes = []
    for d in (0.0, 100.0, 500.0):
        rec, rcv = schedule_files(
            tmp_path,
            [base_record("r", d / 2.0)],
            [{"id": "a", "distance": d, "scenario": "urban"}],
        )
        code, out, _ = run_cli(
            capsys, "schedule", "--records", rec, "--receivers", rcv,
            "--profile", "safety", "--threshold", "0.5", "--now", "0.1",
        )
        assert code == 0
        outcomes.append(out.splitlines())
    values = [float(lines[1].split(",")[3]) for lines in outcomes]
    assert values[0] == pytest.approx(0.985829, abs=1e-3)
    assert values[1] == pytest.approx(0.523475, abs=1e-3)
    assert values[2] == pytest.approx(0.211146, abs=1e-3)
    summaries = [lines[-1] for lines in outcomes]
    assert summaries == ["transmit=1 cancelled=0", "transmit=1 cancelled=0", "transmit=0 cancelled=1"]


def test_schedule_stdout_csv_and_ordering(capsys, tmp_path):
    rec, rcv = schedule_files(
        tmp_path,
        [base_record("far", 400.0), base_record("near", 10.0)],
        [{"id": "a", "distance": 80.0, "scenario": "urban"}],
    )
    code, out, _ = run_cli(
        capsys, "schedule", "--records", rec, "--receivers", rcv,
        "--profile", "safety", "--threshold", "0.0", "--now", "1.0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rank,record_id,best_receiver,best_value,decision"
    assert lines[1].startswith("1,near,a,") and lines[1].endswith(",transmit")
    assert lines[2].startswith("2,far,a,")
    assert lines[-1] == "transmit=2 cancelled=0"


def test_schedule_out_file_and_config_threshold(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"defaults": {"threshold": 0.9}}))
    rec, rcv = schedule_files(
        tmp_path,
        [base_record("r1", 300.0)],
        [{"id": "a", "distance": 150.0, "scenario": "urban"}],
    )
    out_path = tmp_path / "decisions.csv"
    code, out, _ = run_cli(
        capsys, "schedule", "--config", str(config), "--records", rec,
        "--receivers", rcv, "--profile", "safety", "--now", "0.1", "--out", str(out_path),
    )
    assert code == 0
    assert out.strip() == "transmit=0 cancelled=1"
    content = out_path.read_text().splitlines()
    assert content[0] == "rank,record_id,best_receiver,best_value,decision"
    assert content[1].endswith(",cancel")


def test_schedule_default_now_is_the_latest_t0(capsys, tmp_path):
    rec, rcv = schedule_files(
        tmp_path,
        [base_record("old", 50.0, t0=0.0), base_record("new", 50.0, t0=4.0)],
        [{"id": "a", "distance": 100.0, "scenario": "urban"}],
    )
    code, out, _ = run_cli(
        capsys, "schedule", "--records", rec, "--receivers", rcv,
        "--profile", "safety", "--threshold", "0",
    )
    assert code == 0
    explicit = run_cli(
        capsys, "schedule", "--records", rec, "--receivers", rcv,
        "--profile", "safety", "--threshold", "0", "--now", "4.0",
    )
    assert explicit[0] == 0 and explicit[1] == out


def test_schedule_input_errors(capsys, tmp_path):
    rec, rcv = schedule_files(
        tmp_path,
        [base_record("dup", 10.0), base_record("dup", 20.0)],
        [{"id": "a", "distance": 100.0, "scenario": "urban"}],
    )
    code, _, err = run_cli(
        capsys, "schedule", "--records", rec, "--receivers", rcv,
        "--profile", "safety", "--threshold", "0.5",
    )
    assert code == 1 and "records.jsonl:2: duplicate record id 'dup' (first on line 1)" in err

    rec, rcv = schedule_files(tmp_path, [base_record("r", 10.0)], [])
    code, _, err = run_cli(
        capsys, "schedule", "--records", rec, "--receivers", rcv,
        "--profile", "safety", "--threshold", "0.5",
    )
    assert code == 1 and err == f"error: {rcv}: at least one receiver is required\n"

    code, _, err = run_cli(
        capsys, "schedule", "--records", rec, "--receivers", rcv, "--profile", "safety",
    )
    assert code == 1 and "no threshold" in err

    rec, rcv = schedule_files(
        tmp_path,
        [base_record("r", 10.0)],
        [{"id": "x", "distance": 100.0, "scenario": "urban"},
         {"id": "x", "distance": 50.0, "scenario": "highway"}],
    )
    code, out, err = run_cli(
        capsys, "schedule", "--records", rec, "--receivers", rcv,
        "--profile", "safety", "--threshold", "0.5",
    )
    assert code == 1 and out == ""
    assert "receivers.jsonl:2: duplicate receiver id 'x' (first on line 1)" in err

    for bad in NOT_FINITE_NUMBERS:
        for field, where in (("t0", "records.jsonl:2"), ("d_o", "records.jsonl:2"),
                             ("distance", "receivers.jsonl:1")):
            records = [base_record("ok", 10.0), base_record("r", 10.0)]
            receivers = [{"id": "a", "distance": 100.0, "scenario": "urban"}]
            (receivers[0] if field == "distance" else records[1])[field] = bad
            rec, rcv = schedule_files(tmp_path, records, receivers)
            code, out, err = run_cli(
                capsys, "schedule", "--records", rec, "--receivers", rcv,
                "--profile", "safety", "--threshold", "0.5",
            )
            assert code == 1 and out == ""
            assert f"{where}: field '{field}' must be a finite number, got {json.dumps(bad)}" in err
            assert "Traceback" not in err

    for field, value, message in (
        ("d_o", -1, "records.jsonl:2: field 'd_o': object distance must be non-negative, got -1.0"),
        ("temporal", -1, "records.jsonl:2: field 'temporal': temporal decay must be non-negative"),
        ("mode", "raw", "records.jsonl:2: field 'mode': unknown mode 'raw'"),
        ("mode", 7, "records.jsonl:2: field 'mode': mode must be a JSON string, got 7"),
        ("distance", -1,
         "receivers.jsonl:1: field 'distance': receiver distance must be non-negative, got -1.0"),
        ("id", None, "records.jsonl:2: field 'id' must be a JSON string, got null"),
        ("source", 5, "records.jsonl:2: field 'source' must be a JSON string, got 5"),
        ("sensor", None, "records.jsonl:2: field 'sensor' must be a JSON string, got null"),
        ("id", 5, "receivers.jsonl:1: field 'id' must be a JSON string, got 5"),
        ("scenario", None, "receivers.jsonl:1: field 'scenario' must be a JSON string, got null"),
    ):
        records = [base_record("ok", 10.0), base_record("r", 10.0)]
        receivers = [{"id": "a", "distance": 100.0, "scenario": "urban"}]
        (receivers[0] if message.startswith("receivers") else records[1])[field] = value
        rec, rcv = schedule_files(tmp_path, records, receivers)
        code, out, err = run_cli(
            capsys, "schedule", "--records", rec, "--receivers", rcv,
            "--profile", "safety", "--threshold", "0.5",
        )
        assert code == 1 and out == ""
        assert message in err and "Traceback" not in err

    rec, rcv = schedule_files(
        tmp_path,
        [base_record("early", 10.0, t0=0.5), base_record("late", 10.0, t0=5.0)],
        [{"id": "a", "distance": 100.0, "scenario": "urban"}],
    )
    code, out, err = run_cli(
        capsys, "schedule", "--records", rec, "--receivers", rcv,
        "--profile", "safety", "--threshold", "0.5", "--now", "1",
    )
    assert code == 1 and out == ""
    assert err == f"error: {rec}: record 'late' has t0 5.0, after --now 1.0\n"


def golden_batch(seed=9, records=300, receivers=12):
    """A seeded batch that reaches every loader branch: 10% clones, class
    names and numeric (int and float) temporal values, all sensors, every
    mode spelling and the default, both scenarios, and two receivers at the
    same distance and scenario, so a record's winner is picked by id."""
    rng = random.Random(seed)
    ids = [f"obj-{n:04d}" for n in range(records)]
    rng.shuffle(ids)
    batch = []
    for rid in ids:
        if batch and rng.random() < 0.1:
            batch.append(dict(rng.choice(batch), id=rid))
            continue
        record = {
            "id": rid,
            "source": f"car-{rng.randrange(16)}",
            "t0": round(rng.uniform(0.0, 5.0), 3),
            "d_o": rng.choice([round(rng.uniform(0.0, 300.0), 2), rng.randrange(300)]),
            "temporal": rng.choice(["static", "variable", "dynamic", 0.5, 2, 3.75]),
            "sensor": rng.choice(["low", "medium", "high"]),
        }
        mode = rng.choice(["processed", "nonprocessed", "non_processed", None])
        if mode is not None:
            record["mode"] = mode
        batch.append(record)
    views = [
        {"id": f"rx-{i:02d}", "distance": round(rng.uniform(40.0, 300.0), 1),
         "scenario": rng.choice(["urban", "highway"])}
        for i in range(receivers - 2)
    ]
    views += [{"id": rid, "distance": 100, "scenario": "highway"} for rid in ("rx-tie-b", "rx-tie-a")]
    rng.shuffle(views)
    return batch, views


def test_schedule_matches_the_golden_csv(capsys, tmp_path):
    rec, rcv = schedule_files(tmp_path, *golden_batch())
    code, out, err = run_cli(
        capsys, "schedule", "--records", rec, "--receivers", rcv,
        "--profile", "traffic", "--threshold", "0.3", "--now", "6",
    )
    assert code == 0 and err == ""
    assert out == (DATA_DIR / "schedule_golden.csv").read_text()


def test_schedule_rejects_a_nan_weight(capsys, tmp_path):
    # json.load accepts the NaN literal.
    config = tmp_path / "cfg.json"
    config.write_text('{"profiles": {"p": {"weights": '
                      '{"timeliness": NaN, "proximity": 0.5, "quality": 0.5}}}}')
    rec, rcv = schedule_files(
        tmp_path,
        [base_record("r1", 10.0), base_record("r2", 20.0)],
        [{"id": "a", "distance": 100.0, "scenario": "urban"}],
    )
    code, out, err = run_cli(
        capsys, "schedule", "--config", str(config), "--records", rec,
        "--receivers", rcv, "--profile", "p", "--threshold", "0.5",
    )
    assert code == 1 and out == ""
    assert "profile 'p': weights must be finite" in err


def test_logistic_overflow_gives_the_limit_not_a_traceback(capsys, tmp_path):
    rec, rcv = schedule_files(
        tmp_path, [base_record("r", 10.0)], [{"id": "a", "distance": 0.0, "scenario": "urban"}]
    )
    for logistic in ({"decay": 1000}, {"shape": 0.001}):  # math.exp and ** overflow a float
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"defaults": {"logistic": logistic}}))
        code, out, err = run_cli(
            capsys, "assess", "--config", str(config), "--profile", "safety", "--distance", "0",
        )
        assert (code, err) == (0, "") and "proximity=1.000000" in out
        code, _, err = run_cli(
            capsys, "sweep", "--figure", "fig2a", "--config", str(config), "--out", str(tmp_path / "f.csv"),
        )
        assert (code, err) == (0, "")
        code, out, err = run_cli(
            capsys, "schedule", "--config", str(config), "--records", rec, "--receivers", rcv,
            "--profile", "safety", "--threshold", "0.5",
        )
        assert (code, err) == (0, "") and out.endswith("transmit=1 cancelled=0\n")


def test_logistic_params_outside_the_unit_range_are_located(capsys, tmp_path):
    config = tmp_path / "c.json"
    out_path = tmp_path / "never.csv"
    for logistic, why in (
        ({"lower": -1}, "logistic far-distance limit must lie in [0, 1], got -1.0"),
        ({"upper": 2}, "logistic upper must lie in [0, 1], got 2.0"),
        ({"offset": 0.1, "shape": 0.001}, "logistic far-distance limit must lie in [0, 1], got -inf"),
    ):
        config.write_text(json.dumps({"defaults": {"logistic": logistic}}))
        code, out, err = run_cli(
            capsys, "sweep", "--figure", "fig2a", "--config", str(config), "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err == f"error: {config}: defaults.logistic: {why}\n"
        assert not out_path.exists()


def test_files_are_read_and_written_as_utf8_under_the_c_locale(tmp_path):
    rec, rcv = schedule_files(tmp_path, [], [{"id": "ü", "distance": 50.0, "scenario": "urban"}])
    record = json.dumps(base_record("café", 10.0), ensure_ascii=False)  # raw UTF-8, not \u00e9
    Path(rec).write_text(record + "\n", encoding="utf-8")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(
        os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    out_path = tmp_path / "decisions.csv"
    for out in (["--out", str(out_path)], []):  # the CSV to a file, then to stdout
        run = subprocess.run(
            [sys.executable, "-m", "voinet.cli", "schedule", "--records", rec, "--receivers", rcv,
             "--profile", "safety", "--threshold", "0.5", "--now", "0", *out],
            env=env, capture_output=True,
        )
        assert (run.returncode, run.stderr) == (0, b"")
        rows = (out_path.read_bytes() if out else run.stdout).splitlines()
        assert rows[1].startswith("1,café,ü,".encode("utf-8")) and rows[1].endswith(b",transmit")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_output_that_cannot_be_written_exits_1_and_names_its_sink(tmp_path, unbuffered):
    # A real process: with buffered stdout the last write happens in the flush at exit.
    rec, rcv = schedule_files(
        tmp_path, [base_record("r", 10.0)], [{"id": "a", "distance": 50.0, "scenario": "urban"}],
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    schedule = ["schedule", "--records", rec, "--receivers", rcv, "--profile", "safety",
                "--threshold", "0.5"]
    commands = [
        ["presets"], ["weights", "--profile", "safety"],
        ["assess", "--profile", "safety", "--distance", "5"],
        ["sweep", "--figure", "fig3a", "--out", str(tmp_path / "fig3a.csv")], schedule,
    ]
    full = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    broken = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"
    read_end, pipe = os.pipe()
    os.close(read_end)  # before any child starts, so every write to the pipe fails
    with open("/dev/full", "wb") as dev_full:
        cases = [(argv, dev_full, f"<stdout>: {full}") for argv in commands]
        cases += [(argv, pipe, f"<stdout>: {broken}") for argv in commands]
        cases += [([*argv, "--out", "/dev/full"], subprocess.PIPE, f"{full}: '/dev/full'")
                  for argv in (["sweep", "--figure", "fig3a"], schedule)]
        try:
            for argv, stdout, message in cases:
                run = subprocess.run([sys.executable, "-m", "voinet.cli", *argv], env=env,
                                     stdout=stdout, stderr=subprocess.PIPE, text=True)
                assert (run.returncode, run.stderr) == (1, f"error: {message}\n"), argv
        finally:
            os.close(pipe)


@pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="needs /proc/self/mem")
def test_a_file_that_cannot_be_read_is_named(capsys, tmp_path):
    # Reading /proc/self/mem at offset 0, which no process maps, fails once open has succeeded.
    _, rcv = schedule_files(tmp_path, [], [{"id": "a", "distance": 50.0, "scenario": "urban"}])
    unreadable = f"[Errno {errno.EIO}] {os.strerror(errno.EIO)}: '/proc/self/mem'"
    for argv in (["assess", "--profile", "safety", "--distance", "1", "--config"],
                 ["schedule", "--receivers", rcv, "--profile", "safety", "--records"]):
        code, out, err = run_cli(capsys, *argv, "/proc/self/mem")
        assert (code, out, err) == (1, "", f"error: {unreadable}\n")


def test_undecodable_bytes_are_located(capsys, tmp_path):
    good_record = json.dumps(base_record("r1", 1.0)).encode()
    good_receiver = json.dumps({"id": "a", "distance": 1.0, "scenario": "urban"}).encode()
    records, receivers = tmp_path / "records.jsonl", tmp_path / "receivers.jsonl"
    other = tmp_path / "other.json"
    bad_record = good_record.replace(b'"v1"', b'"v\xff"')
    schedule = ("schedule", "--records", str(records), "--receivers", str(receivers),
                "--profile", "safety", "--threshold", "0.5")
    out_path = tmp_path / "never.csv"
    for record_lines, receiver_lines, other_text, args, where in (
        ([good_record, bad_record], [good_receiver], b"", schedule, f"{records}:2"),
        ([good_record, b"", bad_record], [good_receiver], b"", schedule, f"{records}:3"),
        ([good_record], [b"\xff" + good_receiver], b"", schedule, f"{receivers}:1"),
        ([], [], b'{"profiles":\r\n\xff}', ("assess", "--config", str(other), "--profile", "safety",
                                            "--distance", "1"), f"{other}:2"),
        ([], [], b"[[1, 1],\n [1, 1\xff]]", ("weights", "--matrix", str(other)), f"{other}:2"),
        ([], [], b'{"name": "\xc3"}', ("sweep", "--spec", str(other), "--out", str(out_path)),
         f"{other}:1"),
    ):
        records.write_bytes(b"".join(line + b"\n" for line in record_lines))
        receivers.write_bytes(b"".join(line + b"\n" for line in receiver_lines))
        other.write_bytes(other_text)
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {where}: not UTF-8 text: ") and err.count("\n") == 1
    assert err == f"error: {other}:1: not UTF-8 text: invalid continuation byte at column 11\n"
    assert not out_path.exists()


def test_a_records_file_reports_its_first_bad_line_first(capsys, tmp_path):
    records, receivers = tmp_path / "records.jsonl", tmp_path / "receivers.jsonl"
    receivers.write_text(json.dumps({"id": "a", "distance": 1.0, "scenario": "urban"}) + "\n")
    schedule = ("schedule", "--records", str(records), "--receivers", str(receivers),
                "--profile", "safety", "--threshold", "0.5")
    for data, where in (
        (b'{bad json\n{"id": "q\xff"}\n', f"{records}:1: invalid JSON: "),
        (b'{"id": "q\xff"}\n{bad json\n', f"{records}:1: not UTF-8 text: "),
        (b'\n\xc3\xa9\n{"id": "caf\xc3\xa9", "source": "v\xc3"}\n', f"{records}:2: invalid JSON: "),
    ):
        records.write_bytes(data)
        code, out, err = run_cli(capsys, *schedule)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {where}") and err.count("\n") == 1


def test_sensor_whose_quality_scale_underflows_is_located(capsys, tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"sensors": {"x": {"height": 1e-200, "resolution": 1e-200}}}))
    code, out, err = run_cli(
        capsys, "assess", "--config", str(config), "--profile", "safety", "--distance", "1",
        "--sensor", "x",
    )
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {config}: sensor 'x': sensor height * focal distance must be positive")


def test_sweep_obs_grid_too_fine_to_count_leaves_the_half_distance(capsys, tmp_path):
    spec = {
        "variable": "distance", "start": 0, "stop": 100, "step": 50,
        "series": [{"label": "s", "profile": "safety", "scenario": "urban", "temporal": "variable",
                    "sensor": "medium", "aoi": 0.1}],
    }
    csvs = []
    for obs_grid in (None, 1e-320):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(spec, obs_grid=obs_grid)))
        out_path = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "sweep", "--spec", str(path), "--out", str(out_path))
        assert (code, err) == (0, "")
        csvs.append([l for l in out_path.read_text().splitlines() if not l.startswith("# obs-grid")])
    assert csvs[0] == csvs[1]


def test_an_infinite_age_keeps_static_timeliness_at_one(capsys, tmp_path):
    records = [dict(base_record(rid, 10.0, t0), temporal="static")
               for rid, t0 in (("old", -1e308), ("new", 1e308))]
    rec, rcv = schedule_files(tmp_path, records, [{"id": "a", "distance": 10.0, "scenario": "urban"}])
    outs = []
    for now in ((), ("--now", "1e308")):
        code, out, err = run_cli(
            capsys, "schedule", "--records", rec, "--receivers", rcv, "--profile", "safety",
            "--threshold", "0.5", *now,
        )
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    # Static records keep timeliness 1 at any age, so both score as if just sent.
    assert outs[0].splitlines()[1:] == [
        "1,new,a,0.99146,transmit", "2,old,a,0.99146,transmit", "transmit=2 cancelled=0",
    ]


def test_text_the_csvs_print_is_checked(capsys, tmp_path):
    # Ids and labels are printed unquoted; the name, notes and a series' profile
    # name in "#" lines. None may hold a lone surrogate, which UTF-8 cannot encode.
    rec, rcv = schedule_files(tmp_path, [base_record("\ud800", 1.0)], [])
    code, out, err = run_cli(
        capsys, "schedule", "--records", rec, "--receivers", rcv, "--profile", "safety",
        "--threshold", "0.5",
    )
    assert (code, out) == (1, "")
    assert err == f'error: {rec}:1: field \'id\' must not hold a lone surrogate, got "\\ud800"\n'
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"profiles": {"a\nb": {"weights": {
        "timeliness": 1, "proximity": 0, "quality": 0}}}}))
    series = {"label": "s", "profile": "safety", "scenario": "urban", "temporal": "variable",
              "sensor": "medium", "aoi": 0.1}
    spec = {"variable": "distance", "start": 0, "stop": 100, "step": 50, "series": [series]}
    path, out_path = tmp_path / "spec.json", tmp_path / "never.csv"
    for change, message in (
        ({"name": "x\ny"}, 'field \'name\' must not hold a line break, got "x\\ny"'),
        ({"notes": ["ok", "\ud800"]}, 'field \'notes\' must not hold a lone surrogate, got "\\ud800"'),
        ({"series": [dict(series, profile="a\nb")]},
         'series[0]: field \'profile\' must not hold a line break, got "a\\nb"'),
    ):
        path.write_text(json.dumps(dict(spec, **change)))
        code, out, err = run_cli(
            capsys, "sweep", "--spec", str(path), "--config", str(config), "--out", str(out_path),
        )
        assert (code, out, err) == (1, "", f"error: {path}: {message}\n")
    assert not out_path.exists()


def test_presets_listing(capsys):
    code, out, _ = run_cli(capsys, "presets")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0].startswith("fig2a:")
    assert lines[-1].startswith("fig6:")



# Help and usage-error runs, with their exit codes, as data/cli_help.txt pins them.
HELP_CASES = (
    ("--help",),
    *((command, "--help") for command in ("weights", "assess", "sweep", "schedule", "presets")),
    (),
    ("bogus",),
    ("-h", "sweep"),
    ("sweep",),
    ("sweep", "--figure", "fig3a", "extra"),
    ("schedule", "--records", "x"),
)
# Not pinned: each must parse on a command's own parser as on the full tree.
PARSE_CASES = (
    ("sweep", "--fig", "fig3a", "--out", "X"),  # an abbreviation
    ("weights", "--matrix", "m.json"),
    ("assess", "--profile", "traffic", "--distance", "5", "--mode", "nonprocessed", "--obs-distance", "2"),
    ("schedule", "--records", "r", "--receivers", "v", "--profile", "safety", "--now", "1", "--out", "o"),
    ("presets",),
    ("sweep", "--h"),
    ("sweep", "--", "--figure", "fig3a"),
    ("sweep", "--bogus", "--figure", "fig3a"),
    ("presets", "extra"),
    ("schedule", "--records", "r", "--receivers", "v", "--profile", "safety", "--threshold", "nan"),
    ("weights", "--profile", "safety", "--matrix", "m.json"),
    ("assess", "--profile", "safety", "--distance", "-1"),
)
# argparse wraps and quotes differently from one Python to the next.
HELP_PYTHON = (3, 11)  # the Python that wrote data/cli_help.txt


def help_transcript(cases=HELP_CASES):
    """Every run of cases, as data/cli_help.txt holds HELP_CASES; set COLUMNS=80 first.

    Regenerate with: COLUMNS=80 PYTHONPATH=src:tests python -c
    "import test_cli; print(test_cli.help_transcript(), end='')" > tests/data/cli_help.txt
    """
    parts = []
    for argv in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        parts.append(f"==> {' '.join(('voinet',) + argv)} (exit {code})\n")
        parts.append(f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    return "".join(parts)


def test_help_and_usage_text_is_pinned(monkeypatch):
    if sys.version_info[:2] != HELP_PYTHON:
        pytest.skip(f"data/cli_help.txt holds the argparse text of Python {HELP_PYTHON}")
    monkeypatch.setenv("COLUMNS", "80")
    assert help_transcript() == (DATA_DIR / "cli_help.txt").read_text(encoding="utf-8")


def test_each_command_prints_the_help_and_usage_of_the_full_parser(monkeypatch, tmp_path):
    # On any Python: a command's own parser prints, exits with and parses what the full tree does.
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(tmp_path)

    def transcript(parse):
        parsed = []

        def recording(argv):
            args = parse(argv)
            parsed.append({key: value for key, value in vars(args).items() if key != "command"})
            return args

        monkeypatch.setattr(cli, "parse_args", recording)
        return help_transcript(HELP_CASES + PARSE_CASES), parsed

    mine = transcript(cli.parse_args)
    assert mine == transcript(lambda argv: cli.build_parser().parse_args(argv))
    assert [args["func"] for args in mine[1]] == [
        cli.cmd_sweep, cli.cmd_weights, cli.cmd_assess, cli.cmd_schedule, cli.cmd_presets
    ]
