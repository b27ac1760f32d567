import contextlib
import copy
import errno
import io
import json
import os
import random
import sys

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import (
    DATA_DIR, NOT_FINITE_NUMBERS, base_record, refusal, run_main, schedule_files, write_jsonl,
)
from voinet import ahp, cli
from voinet.cli import main


def parse_kv_line(line):
    return {key: float(value) for key, value in (part.split("=") for part in line.split())}


def weights_from(out):
    line = next(l for l in out.splitlines() if l.startswith("weights:"))
    return parse_kv_line(line.removeprefix("weights: "))


def stat_from(out, key):
    line = next(l for l in out.splitlines() if l.startswith(f"{key}:"))
    return line.split(":", 1)[1].strip()


def test_weights_builtin_safety():
    code, out, _ = run_main("weights", "--profile", "safety")
    assert code == 0
    weights = weights_from(out)
    assert weights["timeliness"] == pytest.approx(0.1194, abs=1e-4)
    assert weights["proximity"] == pytest.approx(0.7471, abs=1e-4)
    assert weights["quality"] == pytest.approx(0.1336, abs=1e-4)
    assert float(stat_from(out, "lambda_max")) == pytest.approx(3.0126, abs=1e-3)
    assert stat_from(out, "acceptable") == "yes"


def test_weights_of_a_builtin_profile_print_the_solution_solved_at_import(monkeypatch):
    def unsolved(matrix):
        raise AssertionError("solved again")
    monkeypatch.setattr(ahp, "principal_eigenvector", unsolved)
    assert run_main("weights", "--profile", "safety") == (0, (
        "matrix: safety (3x3)\n"
        "weights: timeliness=0.119389 proximity=0.747053 quality=0.133559\n"
        "lambda_max: 3.012592\n"
        "consistency_index: 0.006296\n"
        "random_index: 0.58\n"
        "consistency_ratio: 0.010856\n"
        "acceptable: yes\n"
    ), "")
    assert run_main("weights", "--profile", "traffic") == (0, (
        "matrix: traffic (3x3)\n"
        "weights: timeliness=0.655355 proximity=0.054900 quality=0.289744\n"
        "lambda_max: 3.080300\n"
        "consistency_index: 0.040150\n"
        "random_index: 0.58\n"
        "consistency_ratio: 0.069224\n"
        "acceptable: yes\n"
    ), "")


def test_weights_from_matrix_file(tmp_path):
    path = tmp_path / "traffic.json"
    path.write_text(json.dumps([[1, 9, 3], [1 / 9, 1, 1 / 7], [1 / 3, 7, 1]]), encoding="utf-8")
    code, out, _ = run_main("weights", "--matrix", str(path))
    assert code == 0
    assert weights_from(out)["timeliness"] == pytest.approx(0.6554, abs=1e-4)
    assert float(stat_from(out, "consistency_ratio")) == pytest.approx(0.069, abs=2e-3)


def test_weights_all_ones_matrix(tmp_path):
    path = tmp_path / "ones.json"
    path.write_text(json.dumps([[1, 1, 1], [1, 1, 1], [1, 1, 1]]), encoding="utf-8")
    code, out, _ = run_main("weights", "--matrix", str(path))
    assert code == 0
    for value in weights_from(out).values():
        assert value == pytest.approx(1 / 3, abs=1e-6)
    assert float(stat_from(out, "consistency_ratio")) == 0.0


def test_weights_of_a_consistent_matrix_print_no_negative_zero(tmp_path):
    # The Rayleigh quotient lands just below n here; lambda_max >= n, so the index is 0.
    path = tmp_path / "consistent.json"
    path.write_text(json.dumps([[1, 1, 0.2], [1, 1, 0.2], [5, 5, 1]]), encoding="utf-8")
    assert run_main("weights", "--matrix", str(path)) == (0, (
        f"matrix: {path} (3x3)\n"
        "weights: timeliness=0.142857 proximity=0.142857 quality=0.714286\n"
        "lambda_max: 3.000000\n"
        "consistency_index: 0.000000\n"
        "random_index: 0.58\n"
        "consistency_ratio: 0.000000\n"
        "acceptable: yes\n"
    ), "")


def test_weights_inconsistent_matrix_exits_2(tmp_path):
    path = tmp_path / "cyclic.json"
    rows = [[1, 9, 1 / 9], [1 / 9, 1, 9], [9, 1 / 9, 1]]
    path.write_text(json.dumps({"labels": ["a", "b", "c"], "matrix": rows}), encoding="utf-8")
    code, out, _ = run_main("weights", "--matrix", str(path))
    assert code == 2
    assert stat_from(out, "acceptable") == "no"


def test_weights_saaty_range_diagnostic(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([[1, 15, 1], [1 / 15, 1, 1], [1, 1, 1]]), encoding="utf-8")
    message = refusal(*run_main("weights", "--matrix", str(path)))
    assert "Saaty range" in message and "(timeliness, proximity)" in message


@pytest.mark.parametrize("bad", NOT_FINITE_NUMBERS)
def test_weights_matrix_entries_must_be_finite_numbers(tmp_path, bad):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"matrix": [[1, bad, 1], [1, 1, 1], [1, 1, 1]]}), encoding="utf-8")
    message = refusal(*run_main("weights", "--matrix", str(path)))
    assert f"{path}: the matrix must be a list of rows of finite numbers" in message


def test_weights_matrix_must_be_square(tmp_path):
    matrix = tmp_path / "m.json"
    config = tmp_path / "cfg.json"
    for doc, message in (
        ([[1, 1, 1], [1, 1], [1, 1, 1]], "expected a 3x3 matrix, got row lengths [3, 2, 3]"),
        ([[1, 1], [1, 1], [1, 1]], "expected a 3x3 matrix, got row lengths [2, 2, 2]"),
        ({"labels": "ab", "matrix": [[1, 1], [1, 1]]}, "labels must be a list of strings"),
        (5, "expected a JSON matrix or an object with a 'matrix' key"),
    ):
        matrix.write_text(json.dumps(doc), encoding="utf-8")
        cases = [(("weights", "--matrix", str(matrix)), f"{matrix}: ")]
        if doc != 5:  # a profile holds rows under "matrix", or the object form itself
            profile = {"matrix": doc} if isinstance(doc, list) else doc
            config.write_text(json.dumps({"profiles": {"p": profile}}), encoding="utf-8")
            cases.append((("assess", "--config", str(config), "--profile", "p", "--distance", "1"),
                          f"{config}: profile 'p': "))
        for args, where in cases:
            assert refusal(*run_main(*args)) == f"{where}{message}"


def test_weights_unknown_profile():
    assert refusal(*run_main("weights", "--profile", "nope")) == (
        "unknown comparison matrix 'nope'; known: ['safety', 'traffic']"
    )


def test_weights_of_a_2x2_matrix_and_of_a_size_without_a_random_index(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps([[1, 2], [0.5, 1]]), encoding="utf-8")
    code, out, err = run_main("weights", "--matrix", str(path))
    assert (code, err) == (0, "")
    assert weights_from(out) == pytest.approx({"c1": 2 / 3, "c2": 1 / 3}, abs=1e-6)
    assert [stat_from(out, key) for key in ("random_index", "consistency_ratio", "acceptable")] == [
        "0", "0.000000", "yes"
    ]
    path.write_text(json.dumps([[1] * 11] * 11), encoding="utf-8")
    assert refusal(*run_main("weights", "--matrix", str(path))) == (
        f"{path}: no random consistency index for n=11; supported sizes are [2, 3, 4, 5, 6, 7, 8, 9, 10]"
    )


@pytest.mark.parametrize("label", ["a b", "a\nb", "a\tb", "\u2028", "a=b", "=", "a\ud800"])
def test_weights_matrix_labels_that_would_split_the_output_are_located(tmp_path, label):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"labels": ["x", "y", label], "matrix": [[1, 1, 1]] * 3}), encoding="utf-8")
    assert refusal(*run_main("weights", "--matrix", str(path))) == (
        f"{path}: labels[2]: a label must not hold whitespace, '=' or a lone surrogate, "
        f"got {json.dumps(label)}"
    )


def test_argparse_errors_exit_1():
    assert run_main()[0] == 1
    assert run_main("weights")[0] == 1
    assert run_main("weights", "--profile", "safety", "--matrix", "x")[0] == 1
    assert run_main("sweep", "--bogus")[0] == 1


def test_assess_reference_point():
    code, out, _ = run_main(
        "assess", "--profile", "safety", "--scenario", "urban", "--distance", "100", "--aoi", "0.1",
        "--ptd", "1",
    )
    assert code == 0
    values = parse_kv_line(out.strip())
    assert values["overall"] == pytest.approx(0.523475, abs=1e-6)
    assert values["quality"] == pytest.approx(0.954414, abs=1e-6)


def test_assess_dynamic_point_and_sampled_variant():
    dynamic = ("assess", "--profile", "traffic", "--distance", "10", "--aoi", "0.1", "--ptd", "10")
    code, out, _ = run_main(*dynamic)
    assert code == 0
    assert parse_kv_line(out.strip())["overall"] == pytest.approx(0.583877, abs=1e-6)
    # the frozen curve samples d_o on a 10 m grid, so its d=10 point uses d_o=0
    code, out, _ = run_main(*dynamic, "--obs-distance", "0")
    assert code == 0
    assert parse_kv_line(out.strip())["overall"] == pytest.approx(0.585198, abs=1e-6)
    # Every mode spelling that records and sweep specs accept.
    outs = [
        run_main("assess", "--profile", "traffic", "--distance", "10", "--mode", mode)
        for mode in ("nonprocessed", "non_processed")
    ]
    assert outs[0] == outs[1] and outs[0][0] == 0


def test_assess_all_maxima():
    code, out, _ = run_main(
        "assess", "--profile", "safety", "--distance", "0", "--aoi", "0", "--ptd", "0", "--obs-distance", "0",
    )
    assert code == 0
    values = parse_kv_line(out.strip())
    assert values["timeliness"] == 1.0
    assert values["quality"] == 1.0
    assert values["proximity"] == pytest.approx(0.996239, abs=1e-6)


def test_assess_input_errors():
    assert "unknown scenario" in refusal(*run_main(
        "assess", "--profile", "safety", "--scenario", "sea", "--distance", "1"
    ))
    # The value type that receives each flag checks its range, with the one wording of _checked.
    for flag, what in (("--distance", "distance"), ("--aoi", "age of information"),
                       ("--obs-distance", "observation distance"), ("--ptd", "temporal decay")):
        args = ["assess", "--profile", "safety", "--distance", "1", flag, "-5"]
        assert refusal(*run_main(*args)) == f"{what} must be non-negative, got -5.0"
    code, out, err = run_main("assess", "--profile", "safety", "--distance=-0", "--aoi=-0.0")
    assert code == 0 and err == ""


def test_float_flags_must_be_finite(tmp_path):
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
            # argparse's usage error: the usage line, then the error line.
            code, out, err = run_main(*base, f"{flag}={bad}")
            assert code == 1 and out == ""
            assert f"argument {flag}: must be a finite number, got '{bad}'" in err
            assert "Traceback" not in err


def test_threshold_flag_must_be_in_the_unit_range(tmp_path):
    rec, rcv = schedule_files(
        tmp_path, [base_record("r", 10.0)], [{"id": "a", "distance": 100.0, "scenario": "urban"}],
    )
    schedule = ["schedule", "--records", rec, "--receivers", rcv, "--profile", "safety"]
    for bad in ("1.5", "-0.1"):
        message = refusal(*run_main(*schedule, f"--threshold={bad}"))
        assert message == f"threshold must be in [0, 1], got {bad}"
    for edge in ("0", "1"):
        assert run_main(*schedule, f"--threshold={edge}")[0] == 0


def test_sweep_prints_an_output_path_with_a_line_break_on_one_line(tmp_path):
    path = tmp_path / "o\nx.csv"
    code, out, err = run_main("sweep", "--figure", "fig3a", "--out", str(path))
    assert (code, err) == (0, "") and path.exists()
    assert out == f"wrote 51 rows x 4 series to {str(path)!r}\n" and out.endswith("o\\nx.csv'\n")


def test_sweep_unknown_figure():
    assert "valid presets" in refusal(*run_main("sweep", "--figure", "fig9z"))


def test_sweep_unwritable_path():
    message = refusal(*run_main("sweep", "--figure", "fig2a", "--out", "/nonexistent/x.csv"))
    assert message.endswith(": '/nonexistent/x.csv'")


@pytest.mark.parametrize("command", ["sweep", "schedule"])
def test_an_empty_out_path_is_refused_not_ignored(tmp_path, monkeypatch, command):
    # '' names no file, as for every other path flag; it does not mean "no --out".
    monkeypatch.chdir(tmp_path)
    if command == "sweep":
        argv = ["sweep", "--figure", "fig2a"]
    else:
        rec, rcv = schedule_files(
            tmp_path, [base_record("r1", 50.0)], [{"id": "a", "distance": 100.0, "scenario": "urban"}]
        )
        argv = ["schedule", "--records", rec, "--receivers", rcv, "--profile", "safety", "--threshold", "0.5"]
    before = sorted(tmp_path.iterdir())
    assert refusal(*run_main(*argv, "--out", "")) == "[Errno 2] No such file or directory: ''"
    assert sorted(tmp_path.iterdir()) == before


def test_sweep_custom_spec_with_config(tmp_path):
    config = tmp_path / "cfg.json"
    scenarios = {"campus": {"kind": "urban", "v_max": 7.0}}
    config.write_text(json.dumps({"scenarios": scenarios}), encoding="utf-8")
    spec = {
        "name": "campus-proximity",
        "variable": "distance",
        "start": 0,
        "stop": 100,
        "step": 50,
        "series": [{"label": "campus:prox", "attribute": "proximity", "scenario": "campus"}],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out_path = tmp_path / "campus.csv"
    code, out, _ = run_main(
        "sweep", "--spec", str(spec_path), "--config", str(config), "--out", str(out_path),
    )
    assert code == 0
    assert "wrote 3 rows x 1 series" in out
    body = [l for l in out_path.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    assert body[0] == "x,campus:prox"
    assert len(body) == 4


def test_sweep_spec_missing_key(tmp_path):
    path = tmp_path / "spec.json"
    good = {
        "variable": "distance", "start": 0, "stop": 10, "step": 5,
        "series": [{"label": "s", "attribute": "overall", "profile": "safety", "scenario": "urban",
                    "temporal": "variable", "sensor": "medium", "aoi": 0.1}],
    }
    # Each spec lacks a required key and the one after it; the first of the two is named.
    required = ("variable", "start", "stop", "step", "series")
    for i, key in enumerate(required):
        path.write_text(json.dumps({k: good[k] for k in required[:i] + required[i + 2:]}), encoding="utf-8")
        assert refusal(*run_main("sweep", "--spec", str(path))) == f"{path}: missing field {key!r}"
    out_path = str(tmp_path / "never.csv")
    for bad in NOT_FINITE_NUMBERS:
        for field in ("start", "stop", "step", "aoi"):
            spec = copy.deepcopy(good)
            (spec["series"][0] if field == "aoi" else spec)[field] = bad
            path.write_text(json.dumps(spec), encoding="utf-8")
            message = refusal(*run_main("sweep", "--spec", str(path), "--out", out_path))
            assert message.startswith(f"{path}: ")
            assert f"field '{field}' must be a finite number, got {json.dumps(bad)}" in message
    for spec, message in (
        ([], "sweep spec must be a JSON object"),
        (dict(good, start=-10), "start must be non-negative, got -10.0"),
        (dict(good, series=[5]), "series[0]: a series must be a JSON object"),
        (dict(good, series=5), "fields 'series' and 'notes' must be JSON lists"),
        (dict(good, stop=1e9, step=1e-3), "the sweep grid would have 1000000000001 points"),
        (dict(good, series=[dict(good["series"][0], mode="raw")]),
         "series[0]: field 'mode': unknown mode 'raw'; known: ['non_processed', 'nonprocessed', 'processed']"),
        (dict(good, series=[dict(good["series"][0], mode=7)]),
         "series[0]: field 'mode' must be a JSON string, got 7"),
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
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert f"{path}: {message}" in refusal(*run_main("sweep", "--spec", str(path), "--out", out_path))
    assert not (tmp_path / "never.csv").exists()


def test_json_nested_too_deep_is_located(tmp_path):
    # json gives up on deep nesting with a RecursionError; it must read as
    # invalid JSON in the file (and line) it came from, like any other.
    deep = "[" * 100_000
    good_record = json.dumps(base_record("r1", 1.0))
    good_receiver = json.dumps({"id": "a", "distance": 1.0, "scenario": "urban"})
    records, receivers = tmp_path / "records.jsonl", tmp_path / "receivers.jsonl"
    other = tmp_path / "deep.json"
    other.write_text(deep, encoding="utf-8")
    split = tmp_path / "a\nb.json"  # named through repr, so that the error stays one line
    split.write_text(deep, encoding="utf-8")
    schedule = ("schedule", "--records", str(records), "--receivers", str(receivers),
                "--profile", "safety", "--threshold", "0.5")
    for record_lines, receiver_lines, args, where in (
        ([good_record, deep], [good_receiver], schedule, f"{records}:2"),
        ([good_record], [good_receiver, deep], schedule, f"{receivers}:2"),
        ([], [], ("assess", "--config", str(other), "--profile", "safety", "--distance", "1"), other),
        ([], [], ("weights", "--matrix", str(other)), other),
        ([], [], ("sweep", "--spec", str(other), "--out", str(tmp_path / "never.csv")), other),
        ([], [good_receiver], schedule[:2] + (str(split),) + schedule[3:], f"{str(split)!r}:1"),
        ([], [], ("weights", "--matrix", str(split)), repr(str(split))),
    ):
        records.write_text("".join(line + "\n" for line in record_lines), encoding="utf-8")
        receivers.write_text("".join(line + "\n" for line in receiver_lines), encoding="utf-8")
        assert refusal(*run_main(*args)).startswith(f"{where}: invalid JSON: ")
    assert not (tmp_path / "never.csv").exists()


def test_schedule_reference_split(tmp_path):
    # one receiver distance per run, d_o = d/2: values land on the
    # frozen fig3a curve and split 2 transmit / 1 cancel at 0.5
    outcomes = []
    for d in (0.0, 100.0, 500.0):
        rec, rcv = schedule_files(
            tmp_path,
            [base_record("r", d / 2.0)],
            [{"id": "a", "distance": d, "scenario": "urban"}],
        )
        code, out, _ = run_main(
            "schedule", "--records", rec, "--receivers", rcv, "--profile", "safety", "--threshold", "0.5",
            "--now", "0.1",
        )
        assert code == 0
        outcomes.append(out.splitlines())
    values = [float(lines[1].split(",")[3]) for lines in outcomes]
    assert values[0] == pytest.approx(0.985829, abs=1e-3)
    assert values[1] == pytest.approx(0.523475, abs=1e-3)
    assert values[2] == pytest.approx(0.211146, abs=1e-3)
    summaries = [lines[-1] for lines in outcomes]
    assert summaries == ["transmit=1 cancelled=0", "transmit=1 cancelled=0", "transmit=0 cancelled=1"]


def test_schedule_stdout_csv_and_ordering(tmp_path):
    rec, rcv = schedule_files(
        tmp_path,
        [base_record("far", 400.0), base_record("near", 10.0)],
        [{"id": "a", "distance": 80.0, "scenario": "urban"}],
    )
    code, out, _ = run_main(
        "schedule", "--records", rec, "--receivers", rcv, "--profile", "safety", "--threshold", "0.0",
        "--now", "1.0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rank,record_id,best_receiver,best_value,decision"
    assert lines[1].startswith("1,near,a,") and lines[1].endswith(",transmit")
    assert lines[2].startswith("2,far,a,")
    assert lines[-1] == "transmit=2 cancelled=0"


def test_schedule_out_file_and_config_threshold(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"defaults": {"threshold": 0.9}}), encoding="utf-8")
    rec, rcv = schedule_files(
        tmp_path,
        [base_record("r1", 300.0), base_record("café", 400.0)],
        [{"id": "a", "distance": 150.0, "scenario": "urban"}],
    )
    out_path = tmp_path / "decisions.csv"
    schedule = ("schedule", "--config", str(config), "--records", rec, "--receivers", rcv,
                "--profile", "safety", "--now", "0.1")
    code, out, _ = run_main(*schedule, "--out", str(out_path))
    assert code == 0
    assert out.strip() == "transmit=0 cancelled=2"
    content = out_path.read_text(encoding="utf-8").splitlines()
    assert content[0] == "rank,record_id,best_receiver,best_value,decision"
    assert content[1].endswith(",cancel")
    # the file holds, byte for byte, the CSV body that the same run prints without --out
    code, printed, _ = run_main(*schedule)
    assert code == 0 and printed.endswith("\n" + out)
    assert out_path.read_bytes() == printed.removesuffix(out).encode("utf-8")
    assert ",café,a," in printed


def test_schedule_default_now_is_the_latest_t0(tmp_path):
    rec, rcv = schedule_files(
        tmp_path,
        [base_record("old", 50.0, t0=0.0), base_record("new", 50.0, t0=4.0)],
        [{"id": "a", "distance": 100.0, "scenario": "urban"}],
    )
    schedule = ("schedule", "--records", rec, "--receivers", rcv, "--profile", "safety", "--threshold", "0")
    code, out, _ = run_main(*schedule)
    assert code == 0
    explicit = run_main(*schedule, "--now", "4.0")
    assert explicit[0] == 0 and explicit[1] == out


def test_schedule_input_errors(tmp_path):
    rec, rcv = schedule_files(
        tmp_path,
        [base_record("dup", 10.0), base_record("dup", 20.0)],
        [{"id": "a", "distance": 100.0, "scenario": "urban"}],
    )
    # schedule_files rewrites these same two files for each case below.
    schedule = ("schedule", "--records", rec, "--receivers", rcv)
    safety = (*schedule, "--profile", "safety", "--threshold", "0.5")
    assert "records.jsonl:2: duplicate record id 'dup' (first on line 1)" in refusal(*run_main(*safety))

    schedule_files(tmp_path, [base_record("r", 10.0)], [])
    assert refusal(*run_main(*safety)) == f"{rcv}: at least one receiver is required"
    # The receivers file's reader rejects it before a missing threshold is noticed.
    assert refusal(*run_main(*schedule, "--profile", "safety")) == f"{rcv}: at least one receiver is required"

    schedule_files(tmp_path, [base_record("r", 10.0)], [{"id": "a", "distance": 100.0, "scenario": "urban"}])
    assert "no threshold" in refusal(*run_main(*schedule, "--profile", "safety"))

    schedule_files(
        tmp_path,
        [base_record("r", 10.0)],
        [{"id": "x", "distance": 100.0, "scenario": "urban"},
         {"id": "x", "distance": 50.0, "scenario": "highway"}],
    )
    assert "receivers.jsonl:2: duplicate receiver id 'x' (first on line 1)" in refusal(*run_main(*safety))

    for bad in NOT_FINITE_NUMBERS:
        for field, where in (("t0", "records.jsonl:2"), ("d_o", "records.jsonl:2"),
                             ("distance", "receivers.jsonl:1")):
            records = [base_record("ok", 10.0), base_record("r", 10.0)]
            receivers = [{"id": "a", "distance": 100.0, "scenario": "urban"}]
            (receivers[0] if field == "distance" else records[1])[field] = bad
            schedule_files(tmp_path, records, receivers)
            message = refusal(*run_main(*safety))
            assert f"{where}: field '{field}' must be a finite number, got {json.dumps(bad)}" in message

    for field, value, message in (
        ("d_o", -1, "records.jsonl:2: field 'd_o': object distance must be non-negative, got -1.0"),
        ("temporal", -1, "records.jsonl:2: field 'temporal': temporal decay must be non-negative"),
        ("mode", "raw", "records.jsonl:2: field 'mode': unknown mode 'raw'; "
                        "known: ['non_processed', 'nonprocessed', 'processed']"),
        ("mode", 7, "records.jsonl:2: field 'mode' must be a JSON string, got 7"),
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
        schedule_files(tmp_path, records, receivers)
        assert message in refusal(*run_main(*safety))

    schedule_files(
        tmp_path,
        [base_record("early", 10.0, t0=0.5), base_record("late", 10.0, t0=5.0)],
        [{"id": "a", "distance": 100.0, "scenario": "urban"}],
    )
    assert refusal(*run_main(*safety, "--now", "1")) == (
        f"{rec}: record 'late' was generated at 5.0, after the scheduler clock 1.0"
    )
    # The profile is resolved before rank meets the late record.
    message = refusal(*run_main(*schedule, "--profile", "nope", "--threshold", "0.5", "--now", "1"))
    assert message.startswith("unknown profile 'nope'")


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


def test_schedule_matches_the_golden_csv(tmp_path):
    rec, rcv = schedule_files(tmp_path, *golden_batch())
    code, out, err = run_main(
        "schedule", "--records", rec, "--receivers", rcv, "--profile", "traffic", "--threshold", "0.3",
        "--now", "6",
    )
    assert code == 0 and err == ""
    assert out == (DATA_DIR / "schedule_golden.csv").read_text(encoding="utf-8")


def test_schedule_rejects_a_nan_weight(tmp_path):
    # json.load accepts the NaN literal.
    config = tmp_path / "cfg.json"
    config.write_text('{"profiles": {"p": {"weights": '
                      '{"timeliness": NaN, "proximity": 0.5, "quality": 0.5}}}}', encoding="utf-8")
    rec, rcv = schedule_files(
        tmp_path,
        [base_record("r1", 10.0), base_record("r2", 20.0)],
        [{"id": "a", "distance": 100.0, "scenario": "urban"}],
    )
    assert refusal(*run_main(
        "schedule", "--config", str(config), "--records", rec, "--receivers", rcv, "--profile", "p",
        "--threshold", "0.5",
    )) == f"{config}: profile 'p': field 'timeliness' must be a finite number, got NaN"


def test_logistic_overflow_gives_the_limit_not_a_traceback(tmp_path):
    rec, rcv = schedule_files(
        tmp_path, [base_record("r", 10.0)], [{"id": "a", "distance": 0.0, "scenario": "urban"}]
    )
    config = tmp_path / "c.json"
    for logistic in ({"decay": 1000}, {"shape": 0.001}):  # math.exp and ** overflow a float
        config.write_text(json.dumps({"defaults": {"logistic": logistic}}), encoding="utf-8")
        code, out, err = run_main("assess", "--config", str(config), "--profile", "safety", "--distance", "0")
        assert (code, err) == (0, "") and "proximity=1.000000" in out
        code, _, err = run_main(
            "sweep", "--figure", "fig2a", "--config", str(config), "--out", str(tmp_path / "f.csv"),
        )
        assert (code, err) == (0, "")
        code, out, err = run_main(
            "schedule", "--config", str(config), "--records", rec, "--receivers", rcv, "--profile", "safety",
            "--threshold", "0.5",
        )
        assert (code, err) == (0, "") and out.endswith("transmit=1 cancelled=0\n")


def test_logistic_params_outside_the_unit_range_are_located(tmp_path):
    config = tmp_path / "c.json"
    out_path = tmp_path / "never.csv"
    for logistic, why in (
        ({"lower": -1}, "logistic far-distance limit must be in [0, 1], got -1.0"),
        ({"upper": 2}, "logistic upper must be in [0, 1], got 2.0"),
        ({"offset": 0.1, "shape": 0.001}, "logistic far-distance limit must be in [0, 1], got -inf"),
    ):
        config.write_text(json.dumps({"defaults": {"logistic": logistic}}), encoding="utf-8")
        assert refusal(*run_main(
            "sweep", "--figure", "fig2a", "--config", str(config), "--out", str(out_path),
        )) == f"{config}: defaults.logistic: {why}"
        assert not out_path.exists()


def test_an_output_path_that_open_rejects_is_named(tmp_path, monkeypatch):
    # open() rejects a null byte with a ValueError that names no file.
    monkeypatch.chdir(tmp_path)
    spec = {"name": "a\u0000b", "variable": "distance", "start": 0, "stop": 100, "step": 50,
            "series": [{"label": "p", "attribute": "proximity", "scenario": "urban"}]}
    (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    assert refusal(*run_main("sweep", "--spec", "spec.json")) == "'a\\x00b.csv': embedded null byte"
    assert [path.name for path in tmp_path.iterdir()] == ["spec.json"]


@pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="needs /proc/self/mem")
def test_a_file_that_cannot_be_read_is_named(tmp_path):
    # Reading /proc/self/mem at offset 0, which no process maps, fails once open has succeeded.
    _, rcv = schedule_files(tmp_path, [], [{"id": "a", "distance": 50.0, "scenario": "urban"}])
    unreadable = f"[Errno {errno.EIO}] {os.strerror(errno.EIO)}: '/proc/self/mem'"
    for argv in (["assess", "--profile", "safety", "--distance", "1", "--config"],
                 ["schedule", "--receivers", rcv, "--profile", "safety", "--records"]):
        assert refusal(*run_main(*argv, "/proc/self/mem")) == unreadable


def test_undecodable_bytes_are_located(tmp_path):
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
        message = refusal(*run_main(*args))
        assert message.startswith(f"{where}: not UTF-8 text: ")
    assert message == f"{other}:1: not UTF-8 text: invalid continuation byte at column 11"
    assert not out_path.exists()


def test_a_bad_byte_has_one_line_and_column_whatever_the_line_ends(tmp_path):
    # Line 3 of a config file, of a --matrix file and of a records file holds a byte that
    # is not UTF-8; LF, CRLF and CR all count it at the same line and column.
    other, records = tmp_path / "other.json", tmp_path / "records.jsonl"
    receivers = tmp_path / "receivers.jsonl"
    write_jsonl(receivers, [{"id": "a", "distance": 1.0, "scenario": "urban"}])
    for path, lines, args, column in (
        (other, [b'{"profiles":', b' {"p":', b'  {"w\xff": 1}}}'],
         ("assess", "--config", str(other), "--profile", "safety", "--distance", "1"), 6),
        (other, [b"[[1, 1, 1],", b" [1, 1, 1],", b" [1, 1, \xff]]"], ("weights", "--matrix", str(other)), 9),
        (records, [b"", b" ", b'{"id": "r\xff"}'],
         ("schedule", "--records", str(records), "--receivers", str(receivers), "--profile", "safety",
          "--threshold", "0.5"), 10),
    ):
        for end in (b"\n", b"\r\n", b"\r"):
            path.write_bytes(end.join(lines) + end)
            assert refusal(*run_main(*args)) == (
                f"{path}:3: not UTF-8 text: invalid start byte at column {column}"
            ), end


def test_a_records_file_reports_its_first_bad_line_first(tmp_path):
    records, receivers = tmp_path / "records.jsonl", tmp_path / "receivers.jsonl"
    write_jsonl(receivers, [{"id": "a", "distance": 1.0, "scenario": "urban"}])
    schedule = ("schedule", "--records", str(records), "--receivers", str(receivers),
                "--profile", "safety", "--threshold", "0.5")
    for data, where in (
        (b'{bad json\n{"id": "q\xff"}\n', f"{records}:1: invalid JSON: "),
        (b'{"id": "q\xff"}\n{bad json\n', f"{records}:1: not UTF-8 text: "),
        (b'\n\xc3\xa9\n{"id": "caf\xc3\xa9", "source": "v\xc3"}\n', f"{records}:2: invalid JSON: "),
    ):
        records.write_bytes(data)
        assert refusal(*run_main(*schedule)).startswith(where)


def test_sensor_whose_quality_scale_underflows_is_located(tmp_path):
    config = tmp_path / "c.json"
    sensors = {"x": {"height": 1e-200, "resolution": 1e-200}}
    config.write_text(json.dumps({"sensors": sensors}), encoding="utf-8")
    message = refusal(*run_main(
        "assess", "--config", str(config), "--profile", "safety", "--distance", "1", "--sensor", "x",
    ))
    assert message.startswith(f"{config}: sensor 'x': sensor height * focal distance must be positive")


def test_sweep_obs_grid_too_fine_to_count_leaves_the_half_distance(tmp_path):
    spec = {
        "variable": "distance", "start": 0, "stop": 100, "step": 50,
        "series": [{"label": "s", "profile": "safety", "scenario": "urban", "temporal": "variable",
                    "sensor": "medium", "aoi": 0.1}],
    }
    csvs = []
    for obs_grid in (None, 1e-320):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(spec, obs_grid=obs_grid)), encoding="utf-8")
        out_path = tmp_path / "out.csv"
        code, _, err = run_main("sweep", "--spec", str(path), "--out", str(out_path))
        assert (code, err) == (0, "")
        lines = out_path.read_text(encoding="utf-8").splitlines()
        csvs.append([l for l in lines if not l.startswith("# obs-grid")])
    assert csvs[0] == csvs[1]


def test_an_infinite_age_keeps_static_timeliness_at_one(tmp_path):
    records = [dict(base_record(rid, 10.0, t0), temporal="static")
               for rid, t0 in (("old", -1e308), ("new", 1e308))]
    rec, rcv = schedule_files(tmp_path, records, [{"id": "a", "distance": 10.0, "scenario": "urban"}])
    outs = []
    for now in ((), ("--now", "1e308")):
        code, out, err = run_main(
            "schedule", "--records", rec, "--receivers", rcv, "--profile", "safety", "--threshold", "0.5",
            *now,
        )
        assert (code, err) == (0, "")
        outs.append(out)
    assert outs[0] == outs[1]
    # Static records keep timeliness 1 at any age, so both score as if just sent.
    assert outs[0].splitlines()[1:] == [
        "1,new,a,0.99146,transmit", "2,old,a,0.99146,transmit", "transmit=2 cancelled=0",
    ]


def test_text_the_csvs_print_is_checked(tmp_path):
    # Ids and labels are printed unquoted; the name, notes and a series' profile
    # name in "#" lines. None may hold a lone surrogate, which UTF-8 cannot encode.
    rec, rcv = schedule_files(tmp_path, [base_record("\ud800", 1.0)], [])
    assert refusal(*run_main(
        "schedule", "--records", rec, "--receivers", rcv, "--profile", "safety", "--threshold", "0.5",
    )) == f'{rec}:1: field \'id\' must not hold a lone surrogate, got "\\ud800"'
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"profiles": {"a\nb": {"weights": {
        "timeliness": 1, "proximity": 0, "quality": 0}}}}), encoding="utf-8")
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
        path.write_text(json.dumps(dict(spec, **change)), encoding="utf-8")
        assert refusal(*run_main(
            "sweep", "--spec", str(path), "--config", str(config), "--out", str(out_path),
        )) == f"{path}: {message}"
    assert not out_path.exists()


def test_presets_listing():
    code, out, _ = run_main("presets")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0].startswith("fig2a:")
    assert lines[-1].startswith("fig6:")


def test_a_key_error_in_a_command_is_a_fault_of_voinet_not_of_its_input(monkeypatch):
    # The readers word every missing name as a ValueError, so main lets a KeyError through.
    def faulty(args):
        raise KeyError("no such key")

    monkeypatch.setitem(cli.COMMANDS, "presets", ("list figure presets", faulty))
    with pytest.raises(KeyError):
        run_main("presets")


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
# Not pinned: parse_args must parse each as the full tree does.
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
    ("assess", "--profile", "safety", "--distance", "ten"),
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
        code, out, err = run_main(*argv)
        parts.append(f"==> {' '.join(('voinet',) + argv)} (exit {code})\n--- stdout\n{out}--- stderr\n{err}")
    return "".join(parts)


def test_help_and_usage_text_is_pinned(monkeypatch):
    if sys.version_info[:2] != HELP_PYTHON:
        pytest.skip(f"data/cli_help.txt holds the argparse text of Python {HELP_PYTHON}")
    monkeypatch.setenv("COLUMNS", "80")
    assert help_transcript() == (DATA_DIR / "cli_help.txt").read_text(encoding="utf-8")


def test_each_command_prints_the_help_and_usage_of_the_full_parser(monkeypatch, tmp_path):
    # On any Python: parse_args prints, exits with and parses what the full tree does.
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


def test_a_plain_command_line_builds_no_argparse_parser(monkeypatch):
    # Each command's usual line, as the benchmark workloads write them, is parsed without argparse.
    argvs = (
        ["sweep", "--figure", "fig3a", "--out", "fig3a.csv"],
        ["weights", "--profile", "safety"],
        ["weights", "--matrix", "m.json"],
        ["assess", "--profile", "traffic", "--distance", "5", "--mode", "nonprocessed", "--obs-distance", "2"],
        ["schedule", "--records", "r", "--receivers", "v", "--profile", "safety",
         "--threshold", "0.8", "--now", "10.0"],
        ["presets"],
    )
    expected = [vars(cli.build_parser().parse_args(argv)) for argv in argvs]

    def unbuilt(**kwargs):
        raise AssertionError("an argparse parser was built")

    monkeypatch.setattr(cli, "_Parser", unbuilt)
    for argv, full in zip(argvs, expected):
        full.pop("command")
        assert vars(cli.parse_args(argv)) == full, argv


# Tokens that only argparse reads, or refuses, in a flag's place or in a value's.
ODD_FLAGS = ("--", "-h", "--help", "--fig", "--out=x", "--prof", "x", "")
ODD_VALUES = ("-5", "-", "nan", "1e400", "ten", "bogus", "--figure", "")


@st.composite
def command_lines(draw):
    """A command, each required option and some others with a value, and now and then an odd token."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    either, options = cli._OPTIONS[name]
    flags = [flag for flag in options if options[flag].get("required") or draw(st.integers(0, 2)) == 0]
    if either and draw(st.integers(0, 3)):  # mostly one flag of the either-or group
        flags = [flag for flag in flags if flag not in list(options)[:either]]
        flags.append(draw(st.sampled_from(list(options)[:either])))
    argv = [name]
    for flag in draw(st.permutations(flags)):
        keywords = options[flag]
        numbers, names = ("5", "0.5", "0"), ("x", "fig3a", "safety", "")
        good = keywords.get("choices") or (numbers if "type" in keywords else names)
        argv += [flag, draw(st.one_of(*[st.sampled_from(good)] * 5, st.sampled_from(ODD_VALUES)))]
    odd = draw(st.integers(0, 7))
    if odd == 1:
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(ODD_FLAGS + ODD_VALUES)))
    elif odd == 2 and len(argv) > 2:
        argv += argv[1:3]  # a flag given twice
    elif odd == 3 and len(argv) > 1:
        argv.pop()  # a flag without its value
    return argv


@settings(max_examples=400, deadline=None, derandomize=True)
@given(command_lines())
@example(["assess", "--profile", "safety", "--distance", "1", "--mode", "raw"])  # not among choices
@example(["assess", "--profile", "safety", "--distance", "nan"])  # refused by its type
@example(["weights", "--profile", "safety", "--matrix", "m.json"])  # both of an either-or group
@example(["sweep", "--out", "x.csv"])  # neither
@example(["schedule", "--records", "r", "--receivers", "v"])  # a required flag missing
@example(["sweep", "--figure", "fig3a", "--out", "-"])  # a value that starts with "-"
def test_a_plain_command_line_parses_as_the_full_tree_parses_it(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            full = vars(cli.build_parser().parse_args(argv))
        except SystemExit:  # help, or a usage error
            full = None
    plain = cli._parse_plain(argv[0], argv[1:])
    event(f"argparse parsed it: {full is not None}; _parse_plain parsed it: {plain is not None}")
    if plain is not None:
        assert full is not None and full.pop("command") == argv[0]
        assert vars(plain) == full


def test_a_text_only_stdout_gets_the_text_of_a_byte_stdout(monkeypatch):
    # The benchmark's warm pass runs main with an io.StringIO stdout, which has no byte buffer:
    # main writes its text there as it is. The README's commands, then help and usage errors.
    monkeypatch.setenv("COLUMNS", "80")
    readme = (("weights", "--profile", "safety"),
              ("assess", "--profile", "safety", "--distance", "100", "--aoi", "0.1"), ("presets",))
    for argv in readme + HELP_CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        assert (code, out.getvalue(), err.getvalue()) == run_main(*argv), argv
