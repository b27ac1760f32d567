"""JSON input: configuration, record batches, comparison matrices, sweep specs.

The built-in names (safety, traffic, urban, highway, low, medium, high)
are always available; a config file adds to or overrides them. Record
and receiver batches use the same format, one JSON object per line.
Every JSON file is parsed here; numeric fields must be finite JSON numbers.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Mapping, TypeVar

from . import ahp
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
    temporal_from_decay,
)

MODE_ALIASES = {
    "processed": PROCESSED,
    "nonprocessed": NON_PROCESSED,
    "non_processed": NON_PROCESSED,
}

WEIGHT_SUM_TOL = 1e-6
_FLOAT_MAX = sys.float_info.max
_T = TypeVar("_T")


@dataclass(frozen=True)
class ConfigDocument:
    """Resolved configuration: every name maps to a constructed object."""

    profiles: dict[str, ApplicationProfile]
    scenarios: dict[str, Scenario]
    sensors: dict[str, SensorModel]
    logistic: LogisticParams
    threshold: float | None = None


def default_config() -> ConfigDocument:
    return ConfigDocument(
        profiles=dict(PROFILES),
        scenarios=dict(SCENARIOS),
        sensors=dict(SENSORS),
        logistic=DEFAULT_LOGISTIC,
    )


def parse_config(data: Mapping[str, Any]) -> ConfigDocument:
    base = default_config()
    tables = {
        key: getattr(base, key) | {name: parse(name, obj) for name, obj in _section(data, key).items()}
        for key, parse in (
            ("profiles", _parse_profile), ("scenarios", _parse_scenario), ("sensors", _parse_sensor)
        )
    }
    defaults = _section(data, "defaults")
    logistic = _parse_logistic(_section(defaults, "logistic"))
    threshold = None
    if defaults.get("threshold") is not None:
        threshold = _number(defaults, "threshold", "defaults")
        if not (0.0 <= threshold <= 1.0):
            raise ValueError(f"defaults.threshold must be in [0, 1], got {threshold}")
    return ConfigDocument(**tables, logistic=logistic, threshold=threshold)


def read_json(path: str) -> Any:
    """Parse one JSON file, naming the file if it is not valid JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None


def load_config(path: str | None) -> ConfigDocument:
    if path is None:
        return default_config()
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    try:
        return parse_config(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _is_finite_number(value: Any) -> bool:
    # The exact type test keeps out bool, an int subclass; int/float comparison
    # is exact, so NaN, +-Infinity and ints too large for a float all fail.
    return type(value) in (int, float) and -_FLOAT_MAX <= value <= _FLOAT_MAX


def _number(obj: Mapping[str, Any], key: str, where: str, default: float | None = None) -> float:
    """obj[key] as a finite float; a default, when given, stands in for a missing key."""
    value = obj.get(key, default) if default is not None else _require(obj, key, where)
    if not _is_finite_number(value):
        raise ValueError(f"{where}: field {key!r} must be a finite number, got {json.dumps(value)}")
    return float(value)


def _section(data: Mapping[str, Any], key: str) -> Mapping[str, Any]:
    value = data.get(key, {})
    if not isinstance(value, Mapping):
        raise ValueError(f"config section {key!r} must be an object, got {type(value).__name__}")
    return value


def _parse_profile(name: str, obj: Any) -> ApplicationProfile:
    if not isinstance(obj, Mapping):
        raise ValueError(f"profile {name!r} must be an object")
    if "weights" in obj:
        weights = obj["weights"]
        if not isinstance(weights, Mapping) or set(weights) != set(ATTRIBUTES):
            raise ValueError(
                f"profile {name!r}: weights must be an object with keys {ATTRIBUTES}"
            )
        if not all(_is_finite_number(weights[k]) for k in ATTRIBUTES):
            raise ValueError(f"profile {name!r}: weights must be finite numbers, got {dict(weights)}")
        values = {k: float(weights[k]) for k in ATTRIBUTES}
        total = sum(values.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"profile {name!r}: weights sum to {total!r}, expected 1")
        if abs(total - 1.0) > 1e-12:
            values = {k: v / total for k, v in values.items()}
        return ApplicationProfile(name, **values)
    if "matrix" in obj:
        return profile_from_matrix(name, parse_matrix(obj, f"profile {name!r}"))
    raise ValueError(f"profile {name!r} needs either weights or matrix")


def parse_matrix(data: Any, where: str) -> ahp.ComparisonMatrix:
    """A comparison matrix from a list of rows, or an object with 'matrix' and 'labels'.

    Without labels a 3x3 matrix is labeled with ATTRIBUTES and any other
    size with c1..cn.
    """
    if isinstance(data, list):
        entries, labels = data, None
    elif isinstance(data, Mapping) and "matrix" in data:
        entries, labels = data["matrix"], data.get("labels")
    else:
        raise ValueError(f"{where}: expected a JSON matrix or an object with a 'matrix' key")
    if not isinstance(entries, list) or not all(
        isinstance(row, list) and all(_is_finite_number(v) for v in row) for row in entries
    ):
        raise ValueError(f"{where}: the matrix must be a list of rows of finite numbers")
    n = len(entries)
    for i, row in enumerate(entries, 1):
        if len(row) != n:
            raise ValueError(f"{where}: row {i} has {len(row)} entries, expected {n}")
    if labels is None:
        labels = ATTRIBUTES if n == 3 else tuple(f"c{i + 1}" for i in range(n))
    elif not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise ValueError(f"{where}: labels must be a list of strings")
    return _located(where, None, ahp.ComparisonMatrix, tuple(labels), entries)


def _parse_scenario(name: str, obj: Any) -> Scenario:
    if not isinstance(obj, Mapping):
        raise ValueError(f"scenario {name!r} must be an object")
    kind = str(obj.get("kind", name))
    where = f"scenario {name!r}"
    if "v_max" not in obj and "safety_distance" not in obj:
        raise ValueError(f"{where} needs v_max and/or safety_distance")
    if "safety_distance" in obj:
        anchor = _number(obj, "safety_distance", where)
        v_max = _number(obj, "v_max", where, anchor / 2.0)
        return _located(where, None, Scenario, kind, v_max, anchor)
    return _located(where, None, Scenario.from_speed_limit, kind, _number(obj, "v_max", where))


def _parse_sensor(name: str, obj: Any) -> SensorModel:
    if not isinstance(obj, Mapping):
        raise ValueError(f"sensor {name!r} must be an object")
    where = f"sensor {name!r}"
    return _located(
        where, None, SensorModel,
        _number(obj, "height", where, 1.2),
        _number(obj, "fov", where, 70.0),
        _number(obj, "resolution", where),
    )


def _parse_logistic(obj: Mapping[str, Any]) -> LogisticParams:
    known = [f.name for f in fields(LogisticParams)]
    unknown = set(obj) - set(known)
    if unknown:
        raise ValueError(f"unknown logistic parameters {sorted(unknown)}; known: {known}")
    return replace(DEFAULT_LOGISTIC, **{k: _number(obj, k, "defaults.logistic") for k in obj})


def resolve_mode(raw: Any) -> str:
    if not isinstance(raw, str):
        raise ValueError(f"mode must be a JSON string, got {json.dumps(raw)}")
    try:
        return MODE_ALIASES[raw]
    except KeyError:
        raise ValueError(
            f"unknown mode {raw!r}; expected one of {sorted(MODE_ALIASES)}"
        ) from None


def resolve_name(table: Mapping[str, Any], name: str, kind: str, where: str) -> Any:
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"{where}: unknown {kind} {name!r}; known: {sorted(table)}") from None


def _located(where: str, field: str | None, build: Callable[..., _T], *args: Any) -> _T:
    """build(*args), naming where, and the field if given, in its ValueError."""
    try:
        return build(*args)
    except ValueError as exc:
        at = where if field is None else f"{where}: field {field!r}"
        raise ValueError(f"{at}: {exc}") from None


def _require(obj: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in obj:
        raise ValueError(f"{where}: missing field {key!r}")
    return obj[key]


def _iter_jsonl(path: str):
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{where}: invalid JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise ValueError(f"{where}: expected a JSON object per line")
            yield where, obj


def parse_temporal(obj: Mapping[str, Any], where: str):
    """The object's "temporal" field: a class name or a decay rate."""
    raw = _require(obj, "temporal", where)
    if isinstance(raw, str):
        if raw in TEMPORAL_CLASSES:
            return TEMPORAL_CLASSES[raw]
        raise ValueError(
            f"{where}: unknown temporal class {raw!r}; known: {sorted(TEMPORAL_CLASSES)}"
        )
    return _located(where, "temporal", temporal_from_decay, _number(obj, "temporal", where))


def load_records(path: str, cfg: ConfigDocument) -> list[PerceptionRecord]:
    """Read a batch of perception records, one JSON object per line.

    Fields: id, source, t0, d_o, temporal (class name or decay rate),
    sensor (config name), mode (optional, default processed).
    """
    records = []
    for where, obj in _iter_jsonl(path):
        args = (
            str(_require(obj, "id", where)),
            str(_require(obj, "source", where)),
            _number(obj, "t0", where),
            _number(obj, "d_o", where),
            parse_temporal(obj, where),
            resolve_name(cfg.sensors, str(_require(obj, "sensor", where)), "sensor", where),
            _located(where, "mode", resolve_mode, obj.get("mode", PROCESSED)),
        )
        # The fields are read and checked above; the constructor adds only
        # the range check on d_o.
        try:
            records.append(PerceptionRecord(*args))
        except ValueError as exc:
            raise ValueError(f"{where}: field 'd_o': {exc}") from None
    return records


def load_receivers(path: str, cfg: ConfigDocument) -> list[ReceiverView]:
    """Read receiver views, one JSON object per line: id, distance, scenario."""
    receivers = []
    for where, obj in _iter_jsonl(path):
        receiver_id = str(_require(obj, "id", where))
        distance = _number(obj, "distance", where)
        scenario = resolve_name(cfg.scenarios, str(_require(obj, "scenario", where)), "scenario", where)
        receivers.append(_located(where, "distance", ReceiverView, receiver_id, distance, scenario))
    return receivers


def _parse_series(obj: Any, cfg: ConfigDocument, where: str) -> SweepSeries:
    if not isinstance(obj, Mapping):
        raise ValueError(f"{where}: a series must be a JSON object")
    kwargs: dict[str, Any] = {"label": str(_require(obj, "label", where))}
    for key, table in (("profile", cfg.profiles), ("scenario", cfg.scenarios), ("sensor", cfg.sensors)):
        if key in obj:
            kwargs[key] = resolve_name(table, str(obj[key]), key, where)
    if "temporal" in obj:
        kwargs["temporal"] = parse_temporal(obj, where)
    if "mode" in obj:
        kwargs["mode"] = _located(where, "mode", resolve_mode, obj["mode"])
    if "attribute" in obj:
        kwargs["attribute"] = str(obj["attribute"])
    for key in ("aoi", "distance", "obs_distance"):
        if obj.get(key) is not None:
            kwargs[key] = _number(obj, key, where)
    return SweepSeries(**kwargs)


def load_sweep_spec(path: str, cfg: ConfigDocument) -> SweepSpec:
    """Read a sweep spec; profile, scenario and sensor names resolve in cfg."""
    data = read_json(path)
    try:
        if not isinstance(data, dict):
            raise ValueError("sweep spec must be a JSON object")
        for key in ("variable", "start", "stop", "step", "series"):
            if key not in data:
                raise ValueError(f"sweep spec needs {key!r}")
        notes = data.get("notes", [])
        if not isinstance(data["series"], list) or not isinstance(notes, list):
            raise ValueError("fields 'series' and 'notes' must be JSON lists")
        return SweepSpec(
            variable=str(data["variable"]),
            start=_number(data, "start", "sweep spec"),
            stop=_number(data, "stop", "sweep spec"),
            step=_number(data, "step", "sweep spec"),
            series=tuple(
                _parse_series(obj, cfg, f"series[{i}]") for i, obj in enumerate(data["series"])
            ),
            obs_grid=None if data.get("obs_grid") is None else _number(data, "obs_grid", "sweep spec"),
            name=str(data.get("name", "custom")),
            notes=tuple(str(n) for n in notes),
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
