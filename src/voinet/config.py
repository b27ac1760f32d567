"""JSON configuration: named profiles, scenarios, sensors, and defaults.

The built-in names (safety, traffic, urban, highway, low, medium, high)
are always available; a config file adds to or overrides them. Record
and receiver batches use the same format, one JSON object per line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from . import ahp
from .scheduler import PerceptionRecord, ReceiverView
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
    profiles = dict(base.profiles)
    for name, obj in _section(data, "profiles").items():
        profiles[name] = _parse_profile(name, obj)
    scenarios = dict(base.scenarios)
    for name, obj in _section(data, "scenarios").items():
        scenarios[name] = _parse_scenario(name, obj)
    sensors = dict(base.sensors)
    for name, obj in _section(data, "sensors").items():
        sensors[name] = _parse_sensor(name, obj)

    defaults = _section(data, "defaults")
    logistic = _parse_logistic(_section(defaults, "logistic"))
    threshold = defaults.get("threshold")
    if threshold is not None:
        threshold = float(threshold)
        if not (0.0 <= threshold <= 1.0):
            raise ValueError(f"defaults.threshold must be in [0, 1], got {threshold}")
    return ConfigDocument(profiles, scenarios, sensors, logistic, threshold)


def load_config(path: str | None) -> ConfigDocument:
    if path is None:
        return default_config()
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return parse_config(data)


def to_dict(cfg: ConfigDocument) -> dict[str, Any]:
    """JSON-ready form; parse_config(to_dict(cfg)) resolves identically."""
    doc: dict[str, Any] = {
        "profiles": {
            name: {"weights": dict(zip(ATTRIBUTES, p.weights))}
            for name, p in cfg.profiles.items()
        },
        "scenarios": {
            name: {"kind": s.kind, "v_max": s.v_max, "safety_distance": s.safety_distance}
            for name, s in cfg.scenarios.items()
        },
        "sensors": {
            name: {"height": s.height, "fov": s.fov, "resolution": s.resolution}
            for name, s in cfg.sensors.items()
        },
        "defaults": {
            "logistic": {
                "upper": cfg.logistic.upper,
                "lower": cfg.logistic.lower,
                "offset": cfg.logistic.offset,
                "scale": cfg.logistic.scale,
                "decay": cfg.logistic.decay,
                "shape": cfg.logistic.shape,
            }
        },
    }
    if cfg.threshold is not None:
        doc["defaults"]["threshold"] = cfg.threshold
    return doc


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
        values = {k: float(weights[k]) for k in ATTRIBUTES}
        if not all(math.isfinite(v) for v in values.values()):
            raise ValueError(f"profile {name!r}: weights must be finite, got {values}")
        total = sum(values.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"profile {name!r}: weights sum to {total!r}, expected 1")
        if abs(total - 1.0) > 1e-12:
            values = {k: v / total for k, v in values.items()}
        return ApplicationProfile(name, **values)
    if "matrix" in obj:
        labels = tuple(obj.get("labels", ATTRIBUTES))
        entries = np.array(obj["matrix"], dtype=float)
        matrix = ahp.ComparisonMatrix(labels, entries)
        return profile_from_matrix(name, matrix)
    raise ValueError(f"profile {name!r} needs either weights or matrix")


def _parse_scenario(name: str, obj: Any) -> Scenario:
    if not isinstance(obj, Mapping):
        raise ValueError(f"scenario {name!r} must be an object")
    kind = obj.get("kind", name)
    if "v_max" not in obj and "safety_distance" not in obj:
        raise ValueError(f"scenario {name!r} needs v_max and/or safety_distance")
    if "safety_distance" in obj:
        anchor = float(obj["safety_distance"])
        v_max = float(obj.get("v_max", anchor / 2.0))
        return Scenario(kind, v_max, anchor)
    return Scenario.from_speed_limit(kind, float(obj["v_max"]))


def _parse_sensor(name: str, obj: Any) -> SensorModel:
    if not isinstance(obj, Mapping):
        raise ValueError(f"sensor {name!r} must be an object")
    if "resolution" not in obj:
        raise ValueError(f"sensor {name!r} needs a resolution")
    return SensorModel(
        height=float(obj.get("height", 1.2)),
        fov=float(obj.get("fov", 70.0)),
        resolution=float(obj["resolution"]),
    )


def _parse_logistic(obj: Mapping[str, Any]) -> LogisticParams:
    known = ("upper", "lower", "offset", "scale", "decay", "shape")
    unknown = set(obj) - set(known)
    if unknown:
        raise ValueError(f"unknown logistic parameters {sorted(unknown)}; known: {list(known)}")
    values = {k: float(obj[k]) for k in known if k in obj}
    if not values:
        return DEFAULT_LOGISTIC
    merged = {k: values.get(k, getattr(DEFAULT_LOGISTIC, k)) for k in known}
    return LogisticParams(**merged)


def resolve_mode(raw: str) -> str:
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


def parse_temporal(raw: Any, where: str):
    if isinstance(raw, str):
        if raw in TEMPORAL_CLASSES:
            return TEMPORAL_CLASSES[raw]
        raise ValueError(
            f"{where}: unknown temporal class {raw!r}; known: {sorted(TEMPORAL_CLASSES)}"
        )
    return temporal_from_decay(float(raw))


def load_records(path: str, cfg: ConfigDocument) -> list[PerceptionRecord]:
    """Read a batch of perception records, one JSON object per line.

    Fields: id, source, t0, d_o, temporal (class name or decay rate),
    sensor (config name), mode (optional, default processed).
    """
    records = []
    for where, obj in _iter_jsonl(path):
        records.append(
            PerceptionRecord(
                id=str(_require(obj, "id", where)),
                source_vehicle=str(_require(obj, "source", where)),
                generated_at=float(_require(obj, "t0", where)),
                object_distance=float(_require(obj, "d_o", where)),
                temporal=parse_temporal(_require(obj, "temporal", where), where),
                sensor=resolve_name(cfg.sensors, str(_require(obj, "sensor", where)), "sensor", where),
                mode=resolve_mode(str(obj.get("mode", PROCESSED))),
            )
        )
    return records


def load_receivers(path: str, cfg: ConfigDocument) -> list[ReceiverView]:
    """Read receiver views, one JSON object per line: id, distance, scenario."""
    receivers = []
    for where, obj in _iter_jsonl(path):
        receivers.append(
            ReceiverView(
                receiver_id=str(_require(obj, "id", where)),
                distance=float(_require(obj, "distance", where)),
                scenario=resolve_name(
                    cfg.scenarios, str(_require(obj, "scenario", where)), "scenario", where
                ),
            )
        )
    return receivers
