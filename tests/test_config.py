import json
import math
import sys

import pytest

from conftest import NOT_FINITE_NUMBERS, write_jsonl
from voinet import config as cfgmod
from voinet import voi


def test_default_config_exposes_the_builtin_names():
    cfg = cfgmod.default_config()
    assert set(cfg.profiles) == {"safety", "traffic"}
    assert set(cfg.scenarios) == {"urban", "highway"}
    assert set(cfg.sensors) == {"low", "medium", "high"}
    assert cfg.scenarios["urban"].safety_distance == 24.0
    assert cfg.logistic == voi.DEFAULT_LOGISTIC
    assert cfg.threshold is None


def test_parse_profile_from_labeled_weights():
    cfg = cfgmod.parse_config(
        {"profiles": {"custom": {"weights": {"timeliness": 0.2, "proximity": 0.5, "quality": 0.3}}}}
    )
    assert cfg.profiles["custom"].weights == (0.2, 0.5, 0.3)
    assert "safety" in cfg.profiles


def test_weights_are_renormalized_within_tolerance():
    cfg = cfgmod.parse_config(
        {"profiles": {"p": {"weights": {"timeliness": 0.2000004, "proximity": 0.5, "quality": 0.3}}}}
    )
    assert sum(cfg.profiles["p"].weights) == pytest.approx(1.0, abs=1e-12)


def test_weight_sum_outside_tolerance_is_rejected():
    with pytest.raises(ValueError, match="sum"):
        cfgmod.parse_config(
            {"profiles": {"p": {"weights": {"timeliness": 0.3, "proximity": 0.5, "quality": 0.3}}}}
        )


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_weights_are_rejected(bad):
    with pytest.raises(ValueError) as info:
        cfgmod.parse_config(
            {"profiles": {"p": {"weights": {"timeliness": bad, "proximity": 0.5, "quality": 0.3}}}}
        )
    why = f"field 'timeliness' must be a finite number, got {json.dumps(bad)}"
    assert str(info.value) == f"profile 'p': {why}"


def test_weights_must_be_labeled():
    with pytest.raises(ValueError, match="keys"):
        cfgmod.parse_config({"profiles": {"p": {"weights": [0.2, 0.5, 0.3]}}})


def test_parse_profile_from_matrix():
    rows = [[1, 1 / 7, 1], [7, 1, 5], [1, 1 / 5, 1]]
    cfg = cfgmod.parse_config({"profiles": {"mine": {"matrix": rows}}})
    assert cfg.profiles["mine"].weights == pytest.approx(voi.SAFETY.weights, abs=1e-8)


def test_profile_needs_weights_or_matrix():
    with pytest.raises(ValueError, match="weights or matrix"):
        cfgmod.parse_config({"profiles": {"p": {}}})


def test_parse_scenarios():
    cfg = cfgmod.parse_config(
        {
            "scenarios": {
                "campus": {"kind": "urban", "v_max": 5.0},
                "tuned": {"kind": "highway", "v_max": 36.0, "safety_distance": 100.0},
                "fixed": {"kind": "urban", "safety_distance": 30.0},
                "tiny": {"kind": "urban", "safety_distance": 5e-324},  # no speed limit is derived
            }
        }
    )
    assert cfg.scenarios["campus"].safety_distance == 10.0
    assert cfg.scenarios["tuned"].safety_distance == 100.0
    assert cfg.scenarios["fixed"] == voi.Scenario("urban", 30.0)
    assert cfg.scenarios["tiny"].safety_distance == 5e-324
    with pytest.raises(ValueError, match=r"^scenario 's': needs v_max and/or safety_distance$"):
        cfgmod.parse_config({"scenarios": {"s": {"kind": "urban"}}})


def test_parse_sensors_with_defaults():
    cfg = cfgmod.parse_config({"sensors": {"wide": {"resolution": 1920}}})
    assert cfg.sensors["wide"].height == 1.2
    assert cfg.sensors["wide"].fov == 70.0
    with pytest.raises(ValueError, match="resolution"):
        cfgmod.parse_config({"sensors": {"s": {"height": 1.0}}})


def test_the_largest_floats_are_finite_numbers():
    big = sys.float_info.max
    assert cfgmod.parse_config({"sensors": {"x": {"resolution": big}}}).sensors["x"].resolution == big
    with pytest.raises(ValueError, match=r"^sensor 'x': resolution must be positive, got -1\.79"):
        cfgmod.parse_config({"sensors": {"x": {"resolution": -big}}})
    for value in (big, -big):  # a number, so the matrix check it fails is the Saaty range
        with pytest.raises(ValueError, match="outside the Saaty range"):
            cfgmod.parse_matrix([[1, value], [1, 1]])


def test_parse_logistic_overlay():
    cfg = cfgmod.parse_config({"defaults": {"logistic": {"decay": 0.05}}})
    assert cfg.logistic.decay == 0.05
    assert cfg.logistic.shape == voi.DEFAULT_LOGISTIC.shape
    with pytest.raises(ValueError, match="unknown logistic"):
        cfgmod.parse_config({"defaults": {"logistic": {"slope": 1.0}}})


SENSOR_KEYS = "known: ['height', 'fov', 'resolution']"
SERIES = {"label": "p", "attribute": "proximity", "scenario": "urban"}
SPEC = {"variable": "distance", "start": 0, "stop": 10, "step": 5, "series": [SERIES]}
WEIGHTS = {"timeliness": 0.2, "proximity": 0.5, "quality": 0.3}


@pytest.mark.parametrize("load, doc, message", [
    (cfgmod.load_config, {"sensors": {"wide": {"resolution": 1920, "fovv": 90}}},
     f"sensor 'wide': unknown fields ['fovv']; {SENSOR_KEYS}"),
    (cfgmod.load_config, {"sensors": {"wide": {"resolution": 1920, "focal": 1}}},  # derived, not read
     f"sensor 'wide': unknown fields ['focal']; {SENSOR_KEYS}"),
    (cfgmod.load_config, {"profile": {}, "default": {}},
     "unknown fields ['default', 'profile']; known: ['profiles', 'scenarios', 'sensors', 'defaults']"),
    (cfgmod.load_config, {"defaults": {"treshold": 0.5}},
     "defaults: unknown fields ['treshold']; known: ['logistic', 'threshold']"),
    (cfgmod.load_config, {"defaults": {"logistic": {"slope": 1}}},
     "defaults.logistic: unknown logistic parameters ['slope']; "
     "known: ['upper', 'lower', 'offset', 'scale', 'decay', 'shape']"),
    (cfgmod.load_config, {"scenarios": {"s": {"kind": "urban", "vmax": 10}}},
     "scenario 's': unknown fields ['vmax']; known: ['kind', 'v_max', 'safety_distance']"),
    # A profile reads weights or a matrix, never both: the matrix beside weights is not checked.
    (cfgmod.load_config, {"profiles": {"p": {"weights": WEIGHTS, "matrix": [[1, 99], [0, 1]]}}},
     "profile 'p': unknown fields ['matrix']; known: ['weights']"),
    (cfgmod.load_config, {"profiles": {"p": {"weights": WEIGHTS, "labels": ["a", "b", "c"]}}},
     "profile 'p': unknown fields ['labels']; known: ['weights']"),
    (cfgmod.load_config, {"profiles": {"p": {"weights": dict(WEIGHTS, qualty=0.3)}}},
     "profile 'p': weights must be an object with keys ('timeliness', 'proximity', 'quality')"),
    (cfgmod.load_config, {"profiles": {"p": {"matrix": [[1, 2], [0.5, 1]], "lables": ["a", "b"]}}},
     "profile 'p': unknown fields ['lables']; known: ['matrix', 'labels', 'weights']"),
    (cfgmod.load_matrix, {"matrix": [[1, 2], [0.5, 1]], "lables": ["a", "b"]},
     "unknown fields ['lables']; known: ['matrix', 'labels']"),
    (cfgmod.load_sweep_spec, dict(SPEC, obs_grd=10),
     "unknown fields ['obs_grd']; known: ['variable', 'start', 'stop', 'step', 'series', 'obs_grid', "
     "'name', 'notes']"),
    (cfgmod.load_sweep_spec, dict(SPEC, points=3),  # derived, not read
     "unknown fields ['points']; known: ['variable', 'start', 'stop', 'step', 'series', 'obs_grid', "
     "'name', 'notes']"),
    (cfgmod.load_sweep_spec, dict(SPEC, series=[SERIES, dict(SERIES, label="q", obs_distanse=300)]),
     "series[1]: unknown fields ['obs_distanse']; known: ['label', 'profile', 'scenario', 'temporal', "
     "'sensor', 'mode', 'attribute', 'aoi', 'distance', 'obs_distance']"),
    # A profile without weights names both forms' keys, so a misspelt weights is named beside weights.
    (cfgmod.load_config, {"profiles": {"p": {"wieghts": WEIGHTS}}},
     "profile 'p': unknown fields ['wieghts']; known: ['matrix', 'labels', 'weights']"),
])
def test_a_key_its_reader_does_not_know_is_refused_by_name(tmp_path, load, doc, message):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        load(str(path), *([cfgmod.default_config()] if load is cfgmod.load_sweep_spec else []))
    assert str(info.value) == f"{path}: {message}"


def test_threshold_bounds():
    cfg = cfgmod.parse_config({"defaults": {"threshold": 0.4}})
    assert cfg.threshold == 0.4
    with pytest.raises(ValueError, match="threshold"):
        cfgmod.parse_config({"defaults": {"threshold": 1.5}})
    for edge in (0, 1):
        assert cfgmod.parse_config({"defaults": {"threshold": edge}}).threshold == edge
    for outside in (math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0)):
        with pytest.raises(ValueError) as info:
            cfgmod.parse_config({"defaults": {"threshold": outside}})
        assert str(info.value) == f"defaults.threshold must be in [0, 1], got {outside}"


def test_builtin_names_can_be_overridden():
    cfg = cfgmod.parse_config(
        {"scenarios": {"urban": {"kind": "urban", "v_max": 14.0}}}
    )
    assert cfg.scenarios["urban"].safety_distance == 28.0
    cfg = cfgmod.parse_config({"scenarios": {"urban": {"v_max": 10}, "highway": {"safety_distance": 50}}})
    assert cfg.scenarios == {"urban": voi.Scenario("urban", 20.0), "highway": voi.Scenario("highway", 50.0)}


def test_load_config_rejects_bad_documents(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="invalid JSON"):
        cfgmod.load_config(str(path))
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ValueError, match="JSON object"):
        cfgmod.load_config(str(path))
    # CRLF and CR read as LF, so json counts lines and chars as in a file written with LF.
    for newline in ("\n", "\r\n", "\r"):
        path.write_bytes(f'{{"profiles":{newline} {{}},{newline}}}'.encode())
        with pytest.raises(ValueError) as info:
            cfgmod.load_config(str(path))
        assert str(info.value) == (
            f"{path}: invalid JSON: Expecting property name enclosed in double quotes: "
            "line 3 column 1 (char 18)"
        )
    assert cfgmod.load_config(None) == cfgmod.default_config()
    for bad in NOT_FINITE_NUMBERS:
        for doc, message in (
            ({"defaults": {"threshold": bad}}, "defaults: field 'threshold' must be a finite number"),
            ({"defaults": {"logistic": {"decay": bad}}},
             "defaults.logistic: field 'decay' must be a finite number"),
            ({"scenarios": {"s": {"kind": "urban", "v_max": bad}}},
             "scenario 's': field 'v_max' must be a finite number"),
            ({"sensors": {"s": {"resolution": bad}}},
             "sensor 's': field 'resolution' must be a finite number"),
            ({"profiles": {"p": {"weights": {"timeliness": bad, "proximity": 0.5, "quality": 0.5}}}},
             "profile 'p': field 'timeliness' must be a finite number"),
        ):
            path.write_text(json.dumps(doc), encoding="utf-8")
            with pytest.raises(ValueError) as info:
                cfgmod.load_config(str(path))
            assert str(info.value).startswith(f"{path}: {message}")
    # In-range checks made by the constructors also name the entry.
    for doc, message in (
        ({"sensors": {"x": {"resolution": -1}}}, "sensor 'x': resolution must be positive, got -1.0"),
        ({"sensors": {"x": {"resolution": 1280, "height": 0}}},
         "sensor 'x': sensor height must be positive, got 0.0"),
        ({"scenarios": {"s": {"kind": "urban", "v_max": -1}}},
         "scenario 's': speed limit must be positive, got -1.0"),
        ({"scenarios": {"s": {"kind": "urban", "v_max": 10, "safety_distance": -4}}},
         "scenario 's': safety distance must be positive, got -4.0"),
        ({"scenarios": {"s": {"kind": "sea", "v_max": 10}}},
         "scenario 's': scenario kind must be one of ('urban', 'highway'), got 'sea'"),
        # safety_distance wins, but a v_max beside it is still checked.
        ({"scenarios": {"s": {"kind": "urban", "v_max": -1, "safety_distance": 50}}},
         "scenario 's': speed limit must be positive, got -1.0"),
        # Only safety_distance given: the message names it, and no speed limit is derived.
        ({"scenarios": {"s": {"kind": "urban", "safety_distance": -4}}},
         "scenario 's': safety distance must be positive, got -4.0"),
        ({"scenarios": {"s": {"kind": None, "v_max": 10}}},
         "scenario 's': field 'kind' must be a JSON string, got null"),
        # Only an entry named urban or highway may omit its kind.
        ({"scenarios": {"s": {"v_max": 10}}}, "scenario 's': missing field 'kind'"),
        ({"scenarios": {"s": {"kind": "highway", "v_max": 1e308}}},  # 2 * v_max overflows
         "scenario 's': safety distance must be finite, got inf"),
        ({"profiles": {"p": 5}}, "profile 'p' must be an object"),
    ):
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            cfgmod.load_config(str(path))
        assert str(info.value) == f"{path}: {message}"


def test_load_records(tmp_path):
    path = tmp_path / "records.jsonl"
    write_jsonl(
        path,
        [
            {"id": "r1", "source": "v1", "t0": 0.0, "d_o": 50.0, "temporal": "variable", "sensor": "medium"},
            {"id": "r2", "source": "v1", "t0": 1.0, "d_o": 10.0, "temporal": 2.5, "sensor": "high", "mode": "nonprocessed"},
        ],
    )
    records = cfgmod.load_records(str(path), cfgmod.default_config())
    assert [r.id for r in records] == ["r1", "r2"]
    assert records[0].temporal is voi.VARIABLE
    assert records[0].mode == voi.PROCESSED
    assert records[1].temporal.decay == 2.5
    assert records[1].mode == voi.NON_PROCESSED
    assert records[1].sensor == voi.SENSORS["high"]


def test_load_records_error_reporting(tmp_path):
    cfg = cfgmod.default_config()
    path = tmp_path / "records.jsonl"
    path.write_text('{"id": "r1"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=r"records.jsonl:1: missing field 'source'"):
        cfgmod.load_records(str(path), cfg)
    record = {"id": "r1", "source": "v", "t0": 0, "d_o": 1, "temporal": "nope", "sensor": "medium"}
    path.write_text("\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2: unknown temporal class 'nope'"):
        cfgmod.load_records(str(path), cfg)
    write_jsonl(path, [dict(record, temporal=1, sensor="8k")])
    with pytest.raises(ValueError, match="unknown sensor '8k'"):
        cfgmod.load_records(str(path), cfg)
    path.write_text("{oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1: invalid JSON"):
        cfgmod.load_records(str(path), cfg)
    for bad in NOT_FINITE_NUMBERS:
        # A string temporal names a class, so only non-strings reach the number check.
        for field in ("t0", "d_o") + (() if isinstance(bad, str) else ("temporal",)):
            record = {"id": "r1", "source": "v", "t0": 0, "d_o": 1, "temporal": 1, "sensor": "medium"}
            path.write_text("\n" + json.dumps(dict(record, **{field: bad})) + "\n", encoding="utf-8")
            with pytest.raises(ValueError) as info:
                cfgmod.load_records(str(path), cfg)
            assert str(info.value) == (
                f"{path}:2: field '{field}' must be a finite number, got {json.dumps(bad)}"
            )
    # In-range checks made by the constructors also name the line and the field.
    record = {"id": "r1", "source": "v", "t0": 0, "d_o": 1, "temporal": 1, "sensor": "medium"}
    for field, value, message in (
        ("d_o", -1, "field 'd_o': object distance must be non-negative, got -1.0"),
        ("temporal", -2.5, "field 'temporal': temporal decay must be non-negative, got -2.5"),
        ("mode", "raw", "field 'mode': unknown mode 'raw'; known: "
                        "['non_processed', 'nonprocessed', 'processed']"),
        ("mode", 7, "field 'mode' must be a JSON string, got 7"),
        ("mode", None, "field 'mode' must be a JSON string, got null"),
        # Text fields must be JSON strings, not coerced with str().
        ("id", None, "field 'id' must be a JSON string, got null"),
        ("id", 5, "field 'id' must be a JSON string, got 5"),
        ("source", None, "field 'source' must be a JSON string, got null"),
        ("sensor", 3, "field 'sensor' must be a JSON string, got 3"),
    ):
        path.write_text("\n" + json.dumps(dict(record, **{field: value})) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            cfgmod.load_records(str(path), cfg)
        assert str(info.value) == f"{path}:2: {message}"
    # Each line is checked in full, whatever earlier lines resolved.
    ok = dict(record, temporal="variable", mode="non_processed")
    for lines, message in (
        # A number names no class: true on a line after 1 is a bad decay rate, not a repeat of 1.
        ([dict(record, temporal=1), dict(record, id="r2", temporal=True)],
         "2: field 'temporal' must be a finite number, got true"),
        ([ok, dict(ok, id="r2", d_o=-1)],
         "2: field 'd_o': object distance must be non-negative, got -1.0"),
        ([ok, dict(ok, id="r2", d_o="1")], "2: field 'd_o' must be a finite number, got \"1\""),
        # A list or an object is not a name, even after a line whose names resolved.
        ([ok, dict(ok, id="r2", sensor=[1])], "2: field 'sensor' must be a JSON string, got [1]"),
        ([ok, dict(ok, id="r2", mode={})], "2: field 'mode' must be a JSON string, got {}"),
        ([ok, dict(ok, id="r1")], "2: duplicate record id 'r1' (first on line 1)"),
        ([ok, dict(ok, id="r2"), dict(ok, id="r1")], "3: duplicate record id 'r1' (first on line 1)"),
    ):
        write_jsonl(path, lines)
        with pytest.raises(ValueError) as info:
            cfgmod.load_records(str(path), cfg)
        assert str(info.value) == f"{path}:{message}"
    # Each line must hold exactly one JSON object, with only JSON's whitespace around it.
    line = json.dumps(record)
    for text, message in (
        # Joined with a comma, these two lines would decode as two objects.
        ('{"a":[{}\n{}]}, {}\n', ":1: invalid JSON: Expecting ',' delimiter"),
        (f"{line} {line}\n", ":1: invalid JSON: Extra data: line 1 column"),
        (f"\x0c{line}\n", ":1: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
        (f"\n{line} \n", ":2: invalid JSON: Extra data: line 1 column"),
        ("[]\n", ":1: expected a JSON object per line"),
        # json counts columns within the line, without its terminator.
        ('{"id": "a", "source":\n', ":1: invalid JSON: Expecting value: line 1 column 22 (char 21)"),
        ('{"id": "a", "source":\r\n', ":1: invalid JSON: Expecting value: line 1 column 22 (char 21)"),
        # Lines end at LF, CRLF or a lone CR, and nowhere else.
        (f"{line}\r\r{{oops\r", ":3: invalid JSON: Expecting property name"),
        *((f"{json.dumps(dict(record, source=f'v{c}'), ensure_ascii=False)}\n{{oops\n",
           ":2: invalid JSON: Expecting property name") for c in ("\u2028", "\x85")),
        # A raw \x0c is invalid in a JSON string, so it leads line 2 here: it ends no line either.
        (f"{line}\n\x0c{{oops\n", ":2: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    ):
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as info:
            cfgmod.load_records(str(path), cfg)
        assert str(info.value).startswith(f"{path}{message}")
    path.write_text(f" \t{line}\r\n\n\x0c\n", encoding="utf-8")  # JSON whitespace around a line; blank lines
    assert [r.id for r in cfgmod.load_records(str(path), cfg)] == ["r1"]
    receivers = tmp_path / "receivers.jsonl"
    for field, value, message in (
        ("distance", -3, "field 'distance': receiver distance must be non-negative, got -3.0"),
        ("id", None, "field 'id' must be a JSON string, got null"),
        ("scenario", 1, "field 'scenario' must be a JSON string, got 1"),
    ):
        write_jsonl(receivers, [{"id": "a", "distance": 1, "scenario": "urban", field: value}])
        with pytest.raises(ValueError) as info:
            cfgmod.load_receivers(str(receivers), cfg)
        assert str(info.value) == f"{receivers}:1: {message}"
    receiver = {"id": "a", "distance": 1, "scenario": "urban"}
    write_jsonl(receivers, [receiver, dict(receiver, distance=2), dict(receiver, id="b")])
    with pytest.raises(ValueError) as info:
        cfgmod.load_receivers(str(receivers), cfg)
    assert str(info.value) == f"{receivers}:2: duplicate receiver id 'a' (first on line 1)"
    # The schedule CSV prints ids unquoted, so they may not hold its delimiters, nor a lone
    # surrogate, which UTF-8 cannot encode.
    for bad in ("a,b", 'a"b', "a\rb", "a\nb", "\ud800", "\udc80"):
        why = "a comma, quote or line break" if bad.isascii() else "a lone surrogate"
        why = f"field 'id' must not hold {why}, got {json.dumps(bad)}"
        for load, target, obj in (
            (cfgmod.load_records, path, record), (cfgmod.load_receivers, receivers, receiver)
        ):
            write_jsonl(target, [dict(obj, id="ok"), dict(obj, id=bad)])
            with pytest.raises(ValueError) as info:
                load(str(target), cfg)
            assert str(info.value) == f"{target}:2: {why}"


def test_records_and_receivers_resolve_names_in_the_loaded_config(tmp_path):
    cfg = cfgmod.parse_config({"sensors": {"medium": {"resolution": 4096, "fov": 90}},
                               "scenarios": {"urban": {"v_max": 20}}})
    assert cfg.sensors["medium"] != voi.SENSORS["medium"]
    assert cfg.scenarios["urban"] != voi.SCENARIOS["urban"]
    records = tmp_path / "records.jsonl"
    record = {"source": "v", "t0": 0, "d_o": 1, "temporal": "static", "sensor": "medium"}
    write_jsonl(records, [dict(record, id="r1"), dict(record, id="r2", temporal=0.5, mode="nonprocessed")])
    assert [r.sensor for r in cfgmod.load_records(str(records), cfg)] == [cfg.sensors["medium"]] * 2
    receivers = tmp_path / "receivers.jsonl"
    write_jsonl(receivers, [{"id": "a", "distance": 1, "scenario": "urban"}])
    assert [r.scenario for r in cfgmod.load_receivers(str(receivers), cfg)] == [cfg.scenarios["urban"]]


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    # RFC 8259 section 8.1 lets a parser ignore one; json's columns on line 1 count from after it.
    cfg = cfgmod.default_config()
    record = {"id": "r1", "source": "v", "t0": 0, "d_o": 1, "temporal": 1, "sensor": "medium"}
    path = tmp_path / "file"
    for load, text, message in (
        (lambda p: cfgmod.load_records(p, cfg), json.dumps(record) + "\n{oops\n",
         ":2: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (lambda p: cfgmod.load_records(p, cfg), "{oops\n",
         ":1: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (lambda p: cfgmod.load_receivers(p, cfg), '{"id": "a", "distance": 1, "scenario": "urban"}\n',
         None),
        (cfgmod.load_config, '{"defaults": {"threshold": 0.5}}', None),
        (cfgmod.load_config, '{"defaults": {"threshold": 0.5}\n',
         ": invalid JSON: Expecting ',' delimiter: line 2 column 1 (char 32)"),
    ):
        outcomes = []
        for bom in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(bom + text.encode())
            try:
                outcomes.append(load(str(path)))
            except ValueError as exc:
                outcomes.append(str(exc))
        expected = load(str(path)) if message is None else f"{path}{message}"
        assert outcomes == [expected, expected]
    path.write_bytes(b'\xef\xbb\xbf{"id": "\xff"}\n')  # a bad byte's column too
    with pytest.raises(ValueError) as info:
        cfgmod.load_records(str(path), cfg)
    assert str(info.value) == f"{path}:1: not UTF-8 text: invalid start byte at column 9"


def test_load_receivers(tmp_path):
    path = tmp_path / "receivers.jsonl"
    write_jsonl(
        path,
        [
            {"id": "a", "distance": 100.0, "scenario": "urban"},
            {"id": "b", "distance": 30.0, "scenario": "highway"},
        ],
    )
    receivers = cfgmod.load_receivers(str(path), cfgmod.default_config())
    assert [r.receiver_id for r in receivers] == ["a", "b"]
    assert receivers[1].scenario == voi.HIGHWAY
    path.write_text('{"id": "a", "distance": 1.0, "scenario": "sea"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match="unknown scenario 'sea'"):
        cfgmod.load_receivers(str(path), cfgmod.default_config())


def test_resolve_mode_aliases(tmp_path):
    # Records and sweep series take a mode in any of MODE_ALIASES' spellings.
    aliases = {"nonprocessed": voi.NON_PROCESSED, "non_processed": voi.NON_PROCESSED,
               "processed": voi.PROCESSED}
    record = {"source": "v", "t0": 0, "d_o": 1, "temporal": "static", "sensor": "medium"}
    path = tmp_path / "records.jsonl"
    write_jsonl(path, [dict(record, id=alias, mode=alias) for alias in aliases])
    records = cfgmod.load_records(str(path), cfgmod.default_config())
    assert [r.mode for r in records] == list(aliases.values())
    series = {"label": "s", "attribute": "quality", "scenario": "urban", "sensor": "medium"}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"variable": "distance", "start": 0, "stop": 1, "step": 1, "series": [
        dict(series, label=alias, mode=alias) for alias in aliases]}), encoding="utf-8")
    spec = cfgmod.load_sweep_spec(str(path), cfgmod.default_config())
    assert [s.mode for s in spec.series] == list(aliases.values())
