"""JSON input: configuration, record batches, comparison matrices, sweep specs.

The built-in names (safety, traffic, urban, highway, low, medium, high)
are always available; a config file adds to or overrides them. Record
and receiver batches use the same format, one JSON object per line.
Every JSON file is parsed here; numeric fields must be finite JSON numbers
and text fields JSON strings. Readers raise what is wrong; the loop that
holds the file, line, entry or series says where, through _at.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from collections.abc import Callable, Mapping

from . import ahp
from ._checked import check_csv_text, unit_interval
from .scheduler import PerceptionRecord, ReceiverView
from .sweep import SweepSeries, SweepSpec
from .voi import (
    ATTRIBUTES,
    DEFAULT_LOGISTIC,
    NON_PROCESSED,
    PROCESSED,
    PROFILES,
    SCENARIOS,
    SENSORS,
    TEMPORAL_CLASSES,
    ApplicationProfile,
    LogisticParams,
    Scenario,
    SensorModel,
    profile_from_matrix,
    safety_distance,
    temporal_from_decay,
)

MODE_ALIASES = {
    "processed": PROCESSED,
    "nonprocessed": NON_PROCESSED,
    "non_processed": NON_PROCESSED,
}

WEIGHT_SUM_TOL = 1e-6
_LABEL_SPECIAL = re.compile("[\\s=\ud800-\udfff]")
_FLOAT_MAX = sys.float_info.max


class ConfigDocument(namedtuple("ConfigDocument", "profiles scenarios sensors logistic threshold",
                                defaults=(None,))):
    """Resolved configuration: dicts from each name to its object, and a float threshold or None."""

    __slots__ = ()


def default_config() -> ConfigDocument:
    return ConfigDocument(
        profiles=dict(PROFILES),
        scenarios=dict(SCENARIOS),
        sensors=dict(SENSORS),
        logistic=DEFAULT_LOGISTIC,
    )


def parse_config(data: object) -> ConfigDocument:
    if not isinstance(data, Mapping):
        raise ValueError("config must be a JSON object")
    cfg = default_config()  # its profiles, scenarios and sensors are fresh dicts, filled in here
    for key, table, parse in zip(cfg._fields, cfg, (_parse_profile, _parse_scenario, _parse_sensor)):
        for name, obj in _section(data, key).items():
            entry = f"{key[:-1]} {name!r}"  # "profile 'p'", "scenario 's'" or "sensor 'x'"
            if not isinstance(obj, Mapping):
                raise ValueError(f"{entry} must be an object")
            table[name] = _at(entry, parse, name, obj)
    defaults = _section(data, "defaults")
    logistic = _at("defaults.logistic", _parse_logistic, _section(defaults, "logistic"))
    threshold = None
    if defaults.get("threshold") is not None:
        threshold = unit_interval("defaults.threshold", _at("defaults", _number, defaults, "threshold"))
    return cfg._replace(logistic=logistic, threshold=threshold)


def _text(path: str, data: bytes, line: int = 1) -> str:
    """data decoded as UTF-8, or a ValueError naming path:line and the column of its first bad byte.

    line numbers data's first line; its lines end at LF (read_json normalises them, _read_jsonl passes one).
    """
    try:
        return data.decode()  # bytes.decode's default is UTF-8, whatever the locale
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode()
        line += head.count("\n")
        column = len(head) - head.rfind("\n")
        raise ValueError(f"{shown(path)}:{line}: not UTF-8 text: {exc.reason} at column {column}") from None


def shown(path: str) -> str:
    """path as messages print it: through repr unless printable, so no line break splits a message."""
    return path if path.isprintable() else repr(path)


def _read(path: str) -> bytes:
    """The file's bytes, less a leading byte-order mark (RFC 8259 section 8.1); an OSError names path."""
    try:
        with open(path, "rb") as fh:
            return fh.read().removeprefix(b"\xef\xbb\xbf")
    except OSError as exc:
        exc.filename = exc.filename or path  # a failed read names no file
        raise


def _json(text: str) -> object:
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"invalid JSON: {exc}") from None


def read_json(path: str) -> object:
    """Parse one JSON file, naming the file if it is not valid JSON.

    CRLF and CR read as LF in the bytes (no UTF-8 character holds either), so positions count lines alike.
    """
    data = _read(path).replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return _at(shown(path), _json, _text(path, data))


def load_config(path: str | None) -> ConfigDocument:
    return default_config() if path is None else _at(shown(path), parse_config, read_json(path))


def load_matrix(path: str) -> ahp.ComparisonMatrix:
    """A comparison matrix file, in either form parse_matrix reads."""
    return _at(shown(path), parse_matrix, read_json(path))


def _at(where: str, build: Callable[..., object], *args: object) -> object:
    """build(*args), with where (a file, line, entry or field) put in front of its ValueError."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _is_finite_number(value: object) -> bool:
    # The exact type test keeps out bool, an int subclass; int/float comparison
    # is exact, so NaN, +-Infinity and ints too large for a float all fail.
    return type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _require(obj: Mapping[str, object], key: str) -> object:
    if key not in obj:
        raise ValueError(f"missing field {key!r}")
    return obj[key]


def _number(obj: Mapping[str, object], key: str, default: float | None = None) -> float:
    """obj[key] as a finite float."""
    value = obj.get(key, default)
    # _is_finite_number's test, inlined because loaders call this per line.
    if type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return float(value)
    value = _require(obj, key)  # a default passes the test above
    raise ValueError(f"field {key!r} must be a finite number, got {json.dumps(value)}")


def _string(obj: Mapping[str, object], key: str, default: str | None = None) -> str:
    """obj[key], which must be a JSON string."""
    value = obj.get(key, default)
    if type(value) is str:
        return value
    value = _require(obj, key)  # a default passes the test above
    raise ValueError(f"field {key!r} must be a JSON string, got {json.dumps(value)}")


def _section(data: Mapping[str, object], key: str) -> Mapping[str, object]:
    value = data.get(key, {})
    if not isinstance(value, Mapping):
        raise ValueError(f"config section {key!r} must be an object, got {type(value).__name__}")
    return value


def _parse_profile(name: str, obj: Mapping[str, object]) -> ApplicationProfile:
    if "weights" in obj:
        weights = obj["weights"]
        if not isinstance(weights, Mapping) or set(weights) != set(ATTRIBUTES):
            raise ValueError(f"weights must be an object with keys {ATTRIBUTES}")
        values = {k: _number(weights, k) for k in ATTRIBUTES}
        total = sum(values.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")
        if abs(total - 1.0) > 1e-12:
            values = {k: v / total for k, v in values.items()}
        return ApplicationProfile(name, **values)
    if "matrix" in obj:
        return profile_from_matrix(name, parse_matrix(obj))
    raise ValueError("needs either weights or matrix")


def parse_matrix(data: object) -> ahp.ComparisonMatrix:
    """A comparison matrix from a list of rows, or an object with 'matrix' and 'labels'.

    Labels default to ATTRIBUTES for a 3x3 matrix and to c1..cn otherwise.
    """
    if isinstance(data, list):
        entries, labels = data, None
    elif isinstance(data, Mapping) and "matrix" in data:
        entries, labels = data["matrix"], data.get("labels")
    else:
        raise ValueError("expected a JSON matrix or an object with a 'matrix' key")
    if not isinstance(entries, list) or not all(
        isinstance(row, list) and all(_is_finite_number(v) for v in row) for row in entries
    ):
        raise ValueError("the matrix must be a list of rows of finite numbers")
    if labels is None:
        n = len(entries)
        labels = ATTRIBUTES if n == 3 else tuple(f"c{i + 1}" for i in range(n))
    elif not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise ValueError("labels must be a list of strings")
    for i, label in enumerate(labels):
        if _LABEL_SPECIAL.search(label):  # weights prints "label=weight" pairs, space-separated
            raise ValueError(f"labels[{i}]: a label must not hold whitespace, '=' or a lone surrogate, "
                             f"got {json.dumps(label)}")
    return ahp.ComparisonMatrix(tuple(labels), entries)


def _parse_scenario(name: str, obj: Mapping[str, object]) -> Scenario:
    if "v_max" not in obj and "safety_distance" not in obj:
        raise ValueError("needs v_max and/or safety_distance")
    kind = _string(obj, "kind", name if name in SCENARIOS else None)  # a built-in's name is its kind
    distance = safety_distance(_number(obj, "v_max")) if "v_max" in obj else None
    if "safety_distance" in obj:  # it wins over v_max, which is still checked when given
        distance = _number(obj, "safety_distance")
    return Scenario(kind, distance)


def _parse_sensor(name: str, obj: Mapping[str, object]) -> SensorModel:
    return SensorModel(
        _number(obj, "height", 1.2), _number(obj, "fov", 70.0), _number(obj, "resolution")
    )


def _parse_logistic(obj: Mapping[str, object]) -> LogisticParams:
    unknown = set(obj) - set(LogisticParams._fields)
    if unknown:
        raise ValueError(
            f"unknown logistic parameters {sorted(unknown)}; known: {list(LogisticParams._fields)}"
        )
    return DEFAULT_LOGISTIC._replace(**{k: _number(obj, k) for k in obj})


def resolve_name(table: Mapping[str, object], name: str, kind: str) -> object:
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown {kind} {name!r}; known: {sorted(table)}") from None


def parse_temporal(obj: Mapping[str, object]):
    """The object's "temporal" field: a class name or a decay rate."""
    raw = _require(obj, "temporal")
    if isinstance(raw, str):
        return resolve_name(TEMPORAL_CLASSES, raw, "temporal class")
    return _at("field 'temporal'", temporal_from_decay, _number(obj, "temporal"))


_decode = json.JSONDecoder().raw_decode


def _read_jsonl(path: str, kind: str, parse: Callable[..., object], cfg: ConfigDocument) -> list:
    """parse(obj, cfg) for each non-blank line's JSON object, each with a new id; errors name file:line.

    Lines end at LF, CRLF or CR, as in text mode, and are decoded one by one,
    so that errors come in line order.
    """
    items, first_line = [], {}
    # Not str.splitlines: it also splits at \x0c, U+2028 and more. A line keeps its end, which
    # ends a cut-off UTF-8 sequence as in the whole file, so the reason reads alike.
    for lineno, raw in enumerate(_read(path).splitlines(keepends=True), 1):
        line = _text(path, raw, lineno)
        if line.isspace():
            continue
        text = line.strip(" \t\n\r")  # JSON's whitespace; str.strip also drops \x0c and \xa0
        try:
            try:
                obj, end = _decode(text)
            except (json.JSONDecodeError, RecursionError):
                end = -1
            if end != len(text):
                obj = _json(line.rstrip("\r\n"))  # json's own message, columns counted in the line
            if not isinstance(obj, dict):
                raise ValueError("expected a JSON object per line")
            items.append(parse(obj, cfg))
            item_id = obj["id"]  # parse has read it as a JSON string
            check_csv_text("id", item_id)  # the schedule CSV prints ids unquoted
            first = first_line.setdefault(item_id, lineno)
            if first != lineno:
                raise ValueError(f"duplicate {kind} id {item_id!r} (first on line {first})")
        except ValueError as exc:
            raise ValueError(f"{shown(path)}:{lineno}: {exc}") from None
    return items


def _parse_record(obj: dict, cfg: ConfigDocument) -> PerceptionRecord:
    head = (_string(obj, "id"), _string(obj, "source"), _number(obj, "t0"), _number(obj, "d_o"))
    try:  # JSON keys are strings, so only a valid name is found; the readers word the rest
        tail = (TEMPORAL_CLASSES[obj["temporal"]], cfg.sensors[obj["sensor"]],
                MODE_ALIASES[obj.get("mode", PROCESSED)])
    except (KeyError, TypeError):  # a missing field, a decay rate, an unknown or unhashable name
        tail = (parse_temporal(obj), resolve_name(cfg.sensors, _string(obj, "sensor"), "sensor"),
                _at("field 'mode'", resolve_name, MODE_ALIASES, _string(obj, "mode", PROCESSED), "mode"))
    try:
        return PerceptionRecord(*head, *tail)
    except ValueError as exc:  # the one range check not made above is the one on d_o
        raise ValueError(f"field 'd_o': {exc}") from None


def load_records(path: str, cfg: ConfigDocument) -> list[PerceptionRecord]:
    """Read a batch of perception records, one JSON object per line.

    Fields: id, source, t0, d_o, temporal (class name or decay rate),
    sensor (config name), mode (optional, default processed).
    """
    return _read_jsonl(path, "record", _parse_record, cfg)


def _parse_receiver(obj: dict, cfg: ConfigDocument) -> ReceiverView:
    return _at(
        "field 'distance'", ReceiverView, _string(obj, "id"), _number(obj, "distance"),
        resolve_name(cfg.scenarios, _string(obj, "scenario"), "scenario"),
    )


def load_receivers(path: str, cfg: ConfigDocument) -> list[ReceiverView]:
    """Read receiver views, one JSON object per line: id, distance, scenario; at least one."""
    receivers = _read_jsonl(path, "receiver", _parse_receiver, cfg)
    if not receivers:
        raise ValueError(f"{shown(path)}: at least one receiver is required")
    return receivers


def _parse_series(obj: object, cfg: ConfigDocument) -> SweepSeries:
    if not isinstance(obj, Mapping):
        raise ValueError("a series must be a JSON object")
    kwargs: dict[str, object] = {"label": _string(obj, "label")}
    for key, table in (("profile", cfg.profiles), ("scenario", cfg.scenarios), ("sensor", cfg.sensors)):
        if key in obj:
            kwargs[key] = resolve_name(table, _string(obj, key), key)
    if "temporal" in obj:
        kwargs["temporal"] = parse_temporal(obj)
    if "mode" in obj:
        kwargs["mode"] = _at("field 'mode'", resolve_name, MODE_ALIASES, _string(obj, "mode"), "mode")
    if "attribute" in obj:
        kwargs["attribute"] = _string(obj, "attribute")
    for key in ("aoi", "distance", "obs_distance"):
        if obj.get(key) is not None:
            kwargs[key] = _number(obj, key)
    return SweepSeries(**kwargs)


def _parse_sweep_spec(data: object, cfg: ConfigDocument) -> SweepSpec:
    if not isinstance(data, dict):
        raise ValueError("sweep spec must be a JSON object")
    # Read in this order, so the first missing of them is the one reported.
    grid = _string(data, "variable"), _number(data, "start"), _number(data, "stop"), _number(data, "step")
    series, notes = _require(data, "series"), data.get("notes", [])
    if not isinstance(series, list) or not isinstance(notes, list):
        raise ValueError("fields 'series' and 'notes' must be JSON lists")
    if not all(type(note) is str for note in notes):
        raise ValueError(f"field 'notes' must hold JSON strings, got {json.dumps(notes)}")
    return SweepSpec(
        *grid,
        series=tuple(_at(f"series[{i}]", _parse_series, s, cfg) for i, s in enumerate(series)),
        obs_grid=None if data.get("obs_grid") is None else _number(data, "obs_grid"),
        name=_string(data, "name", "custom"),
        notes=tuple(notes),
    )


def load_sweep_spec(path: str, cfg: ConfigDocument) -> SweepSpec:
    """Read a sweep spec; profile, scenario and sensor names resolve in cfg."""
    return _at(shown(path), _parse_sweep_spec, read_json(path), cfg)
