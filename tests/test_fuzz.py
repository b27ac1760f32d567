"""Fuzz the CLI boundary: every input file either runs or fails, located.

Hypothesis writes records, receivers, config and sweep-spec files whose
fields are drawn from valid values and from values that are not: NaN,
+-Infinity, 1e400, bools, nulls, strings, lists, deep nesting, tiny and huge
finite floats, duplicate and CSV-special ids, bytes that are not UTF-8, and
blank or empty files. A third of the inputs are valid throughout, a third
are odd in a field or two, and a third are odd in many, so that runs reach
both exits. Every run of ``voinet.cli.main`` must do one of two things:

- exit 0, with transmit + cancelled = records, every printed score in
  [0, 1], and (for ``schedule``) the same stdout when the input lines are
  shuffled; or
- exit 1, with empty stdout, no traceback, and a one-line message on
  stderr that names an input file.

Each run goes through ``conftest.run_main``, whose stdout takes bytes, as
the console's does. Each ``@example`` pins a case that once escaped as a
traceback or as an error that named no file.
"""

from __future__ import annotations

import json
import random
import re
import tempfile
from pathlib import Path

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import refusal, run_main

# The same inputs on every run, so that a pass means the same thing each time;
# to search wider, raise max_examples and drop derandomize.
FUZZ = settings(max_examples=200, deadline=None, derandomize=True)

# json.dumps cannot write some JSON texts (1e400, deep nesting, a \ud800
# escape): such a value is a placeholder string, swapped for its text after
# dumping.
_RAW = "\x00raw\x00"
_RAW_SUB = re.compile(re.escape(json.dumps(_RAW)[:-1]) + r"(.*?)\\u0000\"")


def raw(text: str) -> str:
    return f"{_RAW}{text}\x00"


def dump(value) -> str:
    """JSON text; non-ASCII text is written raw, so a lone surrogate is not UTF-8."""
    # json.dumps escaped the placeholder's text as a JSON string's; the loads undoes that.
    return _RAW_SUB.sub(lambda m: json.loads(f'"{m.group(1)}"'), json.dumps(value, ensure_ascii=False))


def mostly(valid: st.SearchStrategy, odd: st.SearchStrategy, one_in: int = 5) -> st.SearchStrategy:
    """odd one draw in one_in, else valid."""
    return st.one_of(*[valid] * (one_in - 1), odd)


DEEP = raw("[" * 5000 + "]" * 5000)
NOT_NUMBERS = [
    float("nan"), float("inf"), float("-inf"), raw("1e400"), raw("-1e400"), 10**400,
    True, False, None, "1", "", [1], [], {"a": [1]}, DEEP,
]
TINY_AND_HUGE = [5e-324, 1e-320, 1e-200, 1e200, 1e308, 1.7976931348623157e308]
POSITIVE = st.sampled_from([0.1, 0.5, 1, 2, 10, 24.5, 100, 480, *TINY_AND_HUGE])
NON_NEGATIVE = st.one_of(st.sampled_from([0, 0.0, -0.0]), POSITIVE)
FINITE = st.one_of(NON_NEGATIVE, POSITIVE.map(lambda x: -x))
# Odd text: CSV-special, line-breaking and lone-surrogate ids and names, raw
# and as a JSON escape; \udc80 is one that a surrogateescape encoder would write as a byte.
ODD_TEXTS = st.sampled_from(["a,b", 'q"t', "x\ny", "cr\r", "\ud800", raw('"\\ud800"'), raw('"\\udc80"')])
ODD_VALUE = st.one_of(st.sampled_from(NOT_NUMBERS), FINITE, ODD_TEXTS)
# Comparison-matrix labels that a "weights:" line cannot print.
ODD_LABELS = st.one_of(ODD_TEXTS, st.sampled_from(["a b", "\t", "a=1", "=", "", "l0", 5, None]))
SAATY = [1, 2, 3, 5, 7, 9, 1 / 3, 1 / 7]
# A line of a JSON-lines file that holds no object.
ODD_LINES = st.sampled_from(["", "   ", "null", "[]", "5", '"id"', "{", '{"id": "a"} {}', DEEP])
# Bytes spliced into a file: an invalid start byte, a cut sequence, an encoded surrogate.
SPLICE = st.tuples(st.floats(0, 1), st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
DELETE = object()
AUTO = "\x00auto\x00"  # replaced by an id or label new to its file


def edited(valid: st.SearchStrategy[dict], keys: list[str], odds: int) -> st.SearchStrategy[dict]:
    """valid, or (when odds) one draw in odds with a field set to an odd value or deleted."""
    if not odds:
        return valid
    edit = st.tuples(st.sampled_from(keys + ["extra"]), st.one_of(ODD_VALUE, st.just(DELETE)))

    def apply(pair):
        obj, changes = pair
        obj = dict(obj)
        for key, value in changes:
            if value is DELETE:
                obj.pop(key, None)
            else:
                obj[key] = value
        return obj

    return st.tuples(valid, mostly(st.just([]), st.lists(edit, min_size=1, max_size=2), odds)).map(apply)


def with_auto(prefix: str):
    """Give each object of a list whose id or label is AUTO one new to the list."""
    def fill(objects):
        return [obj if not isinstance(obj, dict)
                else {k: (f"{prefix}{i}" if v == AUTO else v) for k, v in obj.items()}
                for i, obj in enumerate(objects)]
    return fill


def inputs(odds: int) -> dict[str, st.SearchStrategy]:
    """Strategies for each input file; with odds, they draw odd values one time in odds.

    The valid draws name only built-in profiles, scenarios and sensors; the odd
    ones also name "p", "x\\ny", "s" and "x", which a config may or may not define.
    """
    def either(valid: st.SearchStrategy, other: st.SearchStrategy):
        return mostly(valid, other, odds) if odds else valid

    def pick(valid: list, extra: list):
        return either(st.sampled_from(valid), st.sampled_from(extra))

    profile_name, scenario_name, sensor_name = (
        pick(["safety", "traffic"], ["p", "x\ny"]), pick(["urban", "highway"], ["s"]),
        pick(["low", "medium", "high"], ["x"]),
    )
    temporal = st.one_of(st.sampled_from(["static", "variable", "dynamic"]), NON_NEGATIVE)
    record = edited(st.fixed_dictionaries({
        "id": either(st.just(AUTO), st.sampled_from(["a", "", " ", "café"])),  # repeats among them
        "source": st.sampled_from(["v1", "car-3"]),
        "t0": either(st.sampled_from([0.0, 0.5, 1.0, 10.0]), FINITE),
        "d_o": either(st.sampled_from([0.0, 10.0, 40.0, 300.0]), NON_NEGATIVE),
        "temporal": temporal,
        "sensor": sensor_name,
        "mode": st.sampled_from(["processed", "nonprocessed", "non_processed"]),
    }), ["id", "source", "t0", "d_o", "temporal", "sensor", "mode"], odds)
    receiver = edited(st.fixed_dictionaries({
        "id": either(st.just(AUTO), st.sampled_from(["a", "", "ü"])),
        "distance": either(st.sampled_from([0.0, 10.0, 50.0, 80.0, 200.0]), NON_NEGATIVE),
        "scenario": scenario_name,
    }), ["id", "distance", "scenario"], odds)

    def jsonl(objects, prefix, min_size=0):
        lines = st.lists(either(objects, ODD_LINES), min_size=0 if odds else min_size, max_size=6)
        lines = lines.map(with_auto(prefix))
        return lines.map(lambda objs: [obj if isinstance(obj, str) else dump(obj) for obj in objs])

    profile = edited(st.one_of(
        st.fixed_dictionaries({"weights": st.sampled_from([
            {"timeliness": 0.2, "proximity": 0.3, "quality": 0.5},
            {"timeliness": 1, "proximity": 0, "quality": 0},
            {"timeliness": 1 / 3, "proximity": 1 / 3, "quality": 1 / 3},
            {"timeliness": 0.1000001, "proximity": 0.3, "quality": 0.6},  # off by 1e-7: normalised
        ])}),
        st.fixed_dictionaries({"matrix": st.sampled_from([
            [[1, 1 / 7, 1], [7, 1, 5], [1, 1 / 5, 1]],
            [[1, 9, 3], [1 / 9, 1, 1 / 7], [1 / 3, 7, 1]],
            [[1, 9, 9], [1 / 9, 1, 9], [1 / 9, 1 / 9, 1]],  # CR > 0.1; a config uses its weights all the same
        ])}),
    ), ["weights", "matrix"], odds)
    scenario = edited(st.fixed_dictionaries(
        {"kind": st.sampled_from(["urban", "highway"])},
        optional={"v_max": POSITIVE, "safety_distance": POSITIVE},
    ).filter(lambda obj: len(obj) > 1), ["kind", "v_max", "safety_distance"], odds)
    sensor = edited(st.fixed_dictionaries({"resolution": POSITIVE}, optional={
        "height": POSITIVE, "fov": st.sampled_from([1e-300, 1.0, 70.0, 179.9]),
    }), ["resolution", "height", "fov"], odds)
    logistic = edited(st.sampled_from([
        {}, {"decay": 1000}, {"shape": 0.001}, {"upper": 0.9, "lower": 0.1}, {"offset": 2.0},
        {"scale": 1e300}, {"decay": 1e-300},
    ]), ["upper", "lower", "offset", "scale", "decay", "shape"], odds)

    def table(names, values):
        return st.dictionaries(either(st.sampled_from(names), ODD_TEXTS), values, max_size=2)

    config = edited(st.fixed_dictionaries({}, optional={
        "profiles": table(["safety", "p", "x\ny"], profile),
        "scenarios": table(["urban", "s"], scenario),
        "sensors": table(["medium", "x"], sensor),
        "defaults": edited(st.fixed_dictionaries({}, optional={
            "logistic": logistic, "threshold": st.sampled_from([0.0, 0.5, 1.0]),
        }), ["logistic", "threshold"], odds),
    }), ["profiles", "scenarios", "sensors", "defaults"], odds)

    series = edited(st.one_of(
        st.fixed_dictionaries({
            "label": st.just(AUTO), "profile": profile_name, "scenario": scenario_name,
            "temporal": temporal, "sensor": sensor_name, "aoi": NON_NEGATIVE, "distance": NON_NEGATIVE,
        }, optional={"mode": st.sampled_from(["processed", "nonprocessed"]), "obs_distance": NON_NEGATIVE}),
        st.fixed_dictionaries({"label": st.just(AUTO), "attribute": st.just("proximity"),
                               "scenario": scenario_name, "distance": NON_NEGATIVE}),
        st.fixed_dictionaries({"label": st.just(AUTO), "attribute": st.just("timeliness"),
                               "temporal": temporal}),
        st.fixed_dictionaries({"label": st.just(AUTO), "attribute": st.just("quality"),
                               "sensor": sensor_name, "distance": NON_NEGATIVE},
                              optional={"mode": st.just("nonprocessed"), "scenario": scenario_name}),
    ), ["label", "attribute", "profile", "scenario", "temporal", "sensor", "aoi", "distance",
        "obs_distance"], odds)
    spec = edited(st.fixed_dictionaries({
        "variable": st.sampled_from(["distance", "aoi"]),
        "start": st.sampled_from([0, 1, 10]),
        "stop": st.sampled_from([10, 100, 500, 1e308]),
        "step": st.sampled_from([10, 25, 50, 1e307]),
        "series": st.lists(series, min_size=1, max_size=3).map(with_auto("s")),
    }, optional={
        "obs_grid": either(st.sampled_from([1.0, 10.0]), POSITIVE),
        "name": pick(["custom", "café"], ["x\ny", "\ud800"]),
        "notes": st.lists(pick(["a note", "b, with a comma"], ["cr\r", raw('"\\ud800"')]), max_size=2),
    }), ["variable", "start", "stop", "step", "series", "obs_grid", "name", "notes"], odds)

    @st.composite
    def matrix(draw):
        """A reciprocal Saaty matrix, as rows or as an object that may carry labels.

        Half are consistent, ratios of priorities; half have random entries, which
        mostly fail the consistency rule.
        """
        n = draw(either(st.integers(2, 6), st.sampled_from([0, 1, 10, 11, 12])))
        priorities = draw(st.one_of(st.none(), st.lists(st.integers(1, 4), min_size=n, max_size=n)))
        rows = [[1] * n for _ in range(n)]
        for j in range(n):
            for k in range(j + 1, n):
                if priorities is None:
                    rows[j][k] = draw(st.sampled_from(SAATY))
                else:
                    rows[j][k] = priorities[j] / priorities[k]
                rows[k][j] = 1 / rows[j][k]
        if n and draw(either(st.just(False), st.just(True))):
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(ODD_VALUE)
        labels = [f"l{i}" if label == AUTO else label
                  for i, label in enumerate(draw(st.lists(either(st.just(AUTO), ODD_LABELS),
                                                          min_size=n, max_size=n)))]
        return draw(st.sampled_from([rows, {"matrix": rows}, {"matrix": rows, "labels": labels}]))

    return {
        "records": jsonl(record, "r"), "receivers": jsonl(receiver, "v", 1), "config": config,
        "spec": spec, "matrix": matrix(), "splice": either(st.none(), SPLICE),
    }


# Valid inputs; inputs with odd values here and there; inputs with odd values everywhere.
INPUTS = inputs(0), inputs(20), inputs(4)


def draw(*keys: str) -> st.SearchStrategy[tuple]:
    """The named inputs, from each of INPUTS in equal shares."""
    return st.one_of(*(st.tuples(*(strategies[key] for key in keys)) for strategies in INPUTS))


def run(argv: list[str]) -> tuple[int, str, str]:
    result = run_main(*argv)
    event(f"{argv[0]} exit {result[0]}")
    return result


def check_failure(code: int, out: str, err: str, paths: list[str]) -> None:
    """A refusal whose message names one of paths."""
    message = refusal(code, out, err)
    assert any(path in message for path in paths), message


def in_unit_range(text: str) -> bool:
    return 0.0 <= float(text) <= 1.0


def write(path: Path, text: str, splice=None) -> str:
    data = text.encode("utf-8", "surrogatepass")
    if splice is not None:
        where, bad = splice
        cut = int(where * len(data))
        data = data[:cut] + bad + data[cut:]
    path.write_bytes(data)
    return str(path)


def write_lines(path: Path, lines: list[str], splice=None) -> str:
    return write(path, "".join(line + "\n" for line in lines), splice)


def names(config, section: str, builtins: list[str]) -> list[str]:
    """The names a flag may give: the built-ins, then those the config adds, as its reader reads them."""
    if isinstance(config, dict) and isinstance(config.get(section), dict):
        added = [json.loads(dump(name)) for name in config[section]]
        return builtins + [name for name in added if name not in builtins]
    return builtins


RECORD_AT = {"source": "v", "d_o": 1.0, "temporal": "static", "sensor": "medium"}
RECEIVER_A = dump({"id": "a", "distance": 1.0, "scenario": "urban"})
TINY_SENSOR = {"sensors": {"x": {"height": 1e-200, "resolution": 1e-200}}}


@FUZZ
@given(files=draw("records", "receivers", "config", "splice"), with_config=st.booleans(),
       target=st.integers(0, 2), now=mostly(st.none(), st.sampled_from(["0", "10", "1e308"])),
       threshold=st.sampled_from(["0", "0.5", "0.9"]), shuffle_seed=st.integers(0, 2**16))
@example(  # a static record at an infinite age: 0 * inf gave a NaN timeliness
    files=([dump(dict(RECORD_AT, id="old", t0=-1e308)), dump(dict(RECORD_AT, id="new", t0=1e308))],
           [RECEIVER_A], {}, None),
    with_config=False, target=0, now=None, threshold="0.5", shuffle_seed=0,
)
@example(  # a sensor whose height * focal underflows to 0: ZeroDivisionError
    files=([dump(dict(RECORD_AT, id="r", t0=0, sensor="x"))], [RECEIVER_A], TINY_SENSOR, None),
    with_config=True, target=0, now=None, threshold="0.5", shuffle_seed=0,
)
@example(  # an empty receivers file, not named
    files=([dump(dict(RECORD_AT, id="r", t0=0))], [], {}, None),
    with_config=False, target=0, now=None, threshold="0.5", shuffle_seed=0,
)
@example(  # a lone surrogate in an id: an encoding error on output, not located
    files=([dump(dict(RECORD_AT, id=raw('"\\ud800"'), t0=0))], [RECEIVER_A], {}, None),
    with_config=False, target=0, now=None, threshold="0.5", shuffle_seed=0,
)
@example(  # a byte that is not UTF-8 on line 2, not located
    files=([dump(dict(RECORD_AT, id="r", t0=0)), dump(dict(RECORD_AT, id="q", t0=0))], [RECEIVER_A],
           {}, (0.9, b"\xff")),
    with_config=False, target=0, now=None, threshold="0.5", shuffle_seed=0,
)
@example(  # a byte that is not UTF-8 on line 2 was reported before line 1's invalid JSON
    files=(["{bad json", dump(dict(RECORD_AT, id="q", t0=0))], [RECEIVER_A], {}, (0.9, b"\xff")),
    with_config=False, target=0, now=None, threshold="0.5", shuffle_seed=0,
)
def test_schedule_runs_or_fails_located(files, with_config, target, now, threshold, shuffle_seed):
    records, receivers, config, splice = files
    splices = [splice if i == target else None for i in range(3)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rec = write_lines(tmp / "records.jsonl", records, splices[0])
        rcv = write_lines(tmp / "receivers.jsonl", receivers, splices[1])
        argv = ["schedule", "--records", rec, "--receivers", rcv, "--threshold", threshold]
        paths = [rec, rcv]
        if with_config:
            paths.append(write(tmp / "c.json", dump(config), splices[2]))
            argv += ["--config", paths[-1]]
        else:
            config = None
        if now is not None:
            argv += ["--now", now]
        for profile in names(config, "profiles", ["safety", "traffic"])[:3]:
            code, out, err = run(argv + ["--profile", profile])
            if code != 0:
                check_failure(code, out, err, paths)
                continue
            assert err == ""
            *rows, summary = out.splitlines()
            assert rows[0] == "rank,record_id,best_receiver,best_value,decision"
            counts = dict(part.split("=") for part in summary.split())
            batch = [line for line in records if line and not line.isspace()]
            assert int(counts["transmit"]) + int(counts["cancelled"]) == len(batch) == len(rows) - 1
            assert all(in_unit_range(row.split(",")[3]) for row in rows[1:])
            shuffled = random.Random(shuffle_seed)
            write_lines(tmp / "records.jsonl", shuffled.sample(records, len(records)))
            write_lines(tmp / "receivers.jsonl", shuffled.sample(receivers, len(receivers)))
            assert run(argv + ["--profile", profile]) == (0, out, "")
            write_lines(tmp / "records.jsonl", records)
            write_lines(tmp / "receivers.jsonl", receivers)


@FUZZ
@given(files=draw("config", "splice"),
       distance=st.sampled_from(["0", "10", "100", "1e308"]),
       aoi=st.sampled_from(["0", "0.1", "1e308"]), ptd=st.sampled_from(["0", "1", "10", "1e-300"]),
       mode=st.sampled_from(["processed", "nonprocessed"]),
       obs=st.one_of(st.none(), st.sampled_from(["0", "50", "1e308"])), pick=st.integers(0, 3))
@example(  # a sensor whose height * focal underflows to 0: ZeroDivisionError
    files=(TINY_SENSOR, None), distance="10", aoi="0", ptd="1", mode="processed", obs=None, pick=3,
)
@example(  # a byte that is not UTF-8, not located
    files=({"defaults": {"threshold": 0.5}}, (0.5, b"\xff")),
    distance="10", aoi="0", ptd="1", mode="processed", obs=None, pick=0,
)
def test_assess_with_a_config_runs_or_fails_located(files, distance, aoi, ptd, mode, obs, pick):
    config, splice = files
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "c.json", dump(config), splice)
        scenarios = names(config, "scenarios", ["urban", "highway"])
        sensors = names(config, "sensors", ["low", "medium", "high"])
        for profile in names(config, "profiles", ["safety", "traffic"])[:3]:
            argv = ["assess", "--config", path, "--profile", profile, "--distance", distance,
                    "--aoi", aoi, "--ptd", ptd, "--mode", mode,
                    "--scenario", scenarios[pick % len(scenarios)],
                    "--sensor", sensors[pick % len(sensors)]]
            if obs is not None:
                argv += ["--obs-distance", obs]
            code, out, err = run(argv)
            if code != 0:
                check_failure(code, out, err, [path])
                continue
            assert err == ""
            scores = dict(part.split("=") for part in out.split())
            assert sorted(scores) == ["overall", "proximity", "quality", "timeliness"]
            assert all(in_unit_range(v) for v in scores.values())


OVERALL = {"label": "s", "profile": "safety", "scenario": "urban", "temporal": "variable",
           "sensor": "medium", "aoi": 0.1}
SPEC_AT = {"variable": "distance", "start": 0, "stop": 100, "step": 50}


@FUZZ
@given(files=draw("spec", "config", "splice"), with_config=st.booleans(), target=st.integers(0, 1))
@example(  # an obs_grid too fine to count cells in: OverflowError in math.floor
    files=(dict(SPEC_AT, obs_grid=1e-320, series=[OVERALL]), {}, None), with_config=False, target=0,
)
@example(  # a sensor whose height * focal underflows to 0: ZeroDivisionError
    files=(dict(SPEC_AT, series=[dict(OVERALL, sensor="x")]), TINY_SENSOR, None),
    with_config=True, target=0,
)
@example(  # a byte that is not UTF-8, not located
    files=(dict(SPEC_AT, series=[OVERALL]), {}, (0.5, b"\xc3")), with_config=False, target=0,
)
@example(  # a line break in the name split a "#" line, and the CSV, in two
    files=(dict(SPEC_AT, name="x\ny", series=[OVERALL]), {}, None), with_config=False, target=0,
)
@example(  # a lone surrogate in a note: an encoding error, not located, and an empty CSV left
    files=(dict(SPEC_AT, notes=[raw('"\\ud800"')], series=[OVERALL]), {}, None),
    with_config=False, target=0,
)
@example(  # a line break in a config profile's name, printed in a "# series" line
    files=(dict(SPEC_AT, series=[dict(OVERALL, profile="a\nb")]),
           {"profiles": {"a\nb": {"weights": {"timeliness": 1, "proximity": 0, "quality": 0}}}}, None),
    with_config=True, target=0,
)
@example(  # a negative fixed distance failed when evaluated, not located
    files=(dict(SPEC_AT, series=[{"label": "q", "attribute": "quality", "sensor": "low",
                                  "obs_distance": -0.1}]), {}, None),
    with_config=False, target=0,
)
def test_sweep_spec_runs_or_fails_located(files, with_config, target):
    spec, config, splice = files
    splices = [splice if i == target else None for i in range(2)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = [write(tmp / "spec.json", dump(spec), splices[0])]
        out_path = tmp / "out.csv"
        argv = ["sweep", "--spec", paths[0], "--out", str(out_path)]
        if with_config:
            paths.append(write(tmp / "c.json", dump(config), splices[1]))
            argv += ["--config", paths[-1]]
        code, out, err = run(argv)
        if code != 0:
            check_failure(code, out, err, paths)
            assert not out_path.exists()
            return
        assert err == ""
        rows_written, series_written = map(int, re.fullmatch(
            r"wrote (\d+) rows x (\d+) series to .*\n", out).groups())
        text = out_path.read_text(encoding="utf-8")
        body = [line for line in text.splitlines() if not line.startswith("# ")]
        assert len(body) == rows_written + 1
        header, *rows = [line.split(",") for line in body]
        assert header[0] == "x" and len(header) == series_written + 1
        assert all(len(row) == len(header) and all(map(in_unit_range, row[1:])) for row in rows)
        assert run(argv) == (0, out, "") and out_path.read_text(encoding="utf-8") == text


WEIGHTS_LINES = ["matrix", "weights", "lambda_max", "consistency_index", "random_index",
                 "consistency_ratio", "acceptable"]


@FUZZ
@given(files=draw("matrix", "splice"))
@example(files=([[1, 2], [0.5, 1]], None))  # a 2x2 matrix had no random index, and exit 1 named no file
@example(files=({"matrix": [[1] * 11] * 11}, None))  # nor did an 11x11 one
@example(  # a lone surrogate in a label: stdout printed, then an encoding error, not located
    files=({"labels": ["a", raw('"\\ud800"'), "c"], "matrix": [[1, 1, 1]] * 3}, None),
)
@example(files=({"labels": ["a b", "c", "d"], "matrix": [[1, 1, 1]] * 3}, None))  # split the weights line
def test_weights_matrix_runs_or_fails_located(files):
    matrix, splice = files
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp) / "m.json", dump(matrix), splice)
        argv = ["weights", "--matrix", path]
        code, out, err = run(argv)
        if code == 1:
            check_failure(code, out, err, [path])
            return
        assert code in (0, 2) and err == ""  # 2: the matrix fails the consistency rule
        lines = out.splitlines()
        assert [line.split(": ")[0] for line in lines] == WEIGHTS_LINES
        n = int(re.fullmatch(rf"matrix: {re.escape(path)} \((\d+)x\1\)", lines[0]).group(1))
        pairs = [pair.split("=") for pair in lines[1].removeprefix("weights: ").split(" ")]
        assert len(pairs) == n and all(len(pair) == 2 for pair in pairs)
        weights = [float(weight) for _, weight in pairs]
        assert all(map(in_unit_range, weights)) and abs(sum(weights) - 1) < 1e-5
        assert lines[-1] == f"acceptable: {'yes' if code == 0 else 'no'}"
        assert run(argv) == (code, out, err)


def test_a_raw_json_escape_reaches_the_reader_as_the_character_it_escapes():
    assert json.loads(dump({"id": raw('"\\ud800"')}))["id"] == "\ud800"
