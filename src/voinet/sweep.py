"""Parameter sweeps producing labeled curves for golden-file comparison.

A sweep evaluates the overall score, or a single conditional, over a
fixed grid of distances or ages. Named presets pin the exact
parameterizations behind the reference curve files shipped with the
tests; `run_sweep` also accepts hand-built specs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from io import StringIO

from ._checked import Checked, check_csv_text, finite, non_negative, one_of, positive
from .voi import (
    DEFAULT_LOGISTIC,
    DYNAMIC,
    HIGHWAY,
    MODES,
    NON_PROCESSED,
    PROCESSED,
    SAFETY,
    SENSORS,
    STATIC,
    TRAFFIC,
    URBAN,
    VARIABLE,
    ApplicationProfile,
    LogisticParams,
    Scenario,
    SensorModel,
    TemporalClass,
    proximity_voi,
    quality_voi,
    timeliness_voi,
)

VARIABLES = ("distance", "aoi")
MAX_GRID_POINTS = 100_000  # every preset uses 51; far more means a mistyped step
ATTRIBUTE_CHOICES = ("overall", "proximity", "timeliness", "quality")

# Sensor resolution used by the reference curves. The nominal 1080 px
# annotation does not reproduce them; 1280 px does, to machine precision.
RESOLUTION_NOTE = "resolution pinned to 1280 px (the nominal 1080 px does not reproduce the reference curves)"
FIG5A_NOTE = "temporal decay pinned to 0.5 (neither 0 nor 10 reproduces the reference curves)"


_REQUIRED = {
    "overall": ("profile", "scenario", "temporal", "sensor"),
    "proximity": ("scenario",),
    "timeliness": ("temporal",),
    "quality": ("sensor",),
}


class SweepSeries(Checked, namedtuple(
    "SweepSeries", "label profile scenario temporal sensor mode attribute aoi distance obs_distance",
)):
    """One labeled curve: which quantity to evaluate, and the fixed context.

    For distance sweeps, aoi holds the fixed age; for aoi sweeps,
    distance holds the fixed separation. A quality-attribute series
    reads the sweep variable as the observation distance itself. The
    label is a CSV column name, printed unquoted.
    """

    __slots__ = ()

    def __new__(
        cls, label: str, profile: ApplicationProfile | None = None, scenario: Scenario | None = None,
        temporal: TemporalClass | None = None, sensor: SensorModel | None = None,
        mode: str = PROCESSED, attribute: str = "overall", aoi: float | None = None,
        distance: float | None = None, obs_distance: float | None = None,
    ) -> SweepSeries:
        check_csv_text("label", label)
        for field, value in (("profile", profile), ("temporal", temporal)):
            if value is not None:  # its name is printed in a "# series" line
                check_csv_text(field, value[0], comment=True)
        one_of("attribute", attribute, ATTRIBUTE_CHOICES)
        one_of("mode", mode, MODES)
        for name, value in (("aoi", aoi), ("distance", distance), ("obs_distance", obs_distance)):
            if value is not None:
                non_negative(name, value)
        self = tuple.__new__(
            cls, (label, profile, scenario, temporal, sensor, mode, attribute, aoi, distance, obs_distance)
        )
        for name in _REQUIRED[attribute]:
            if getattr(self, name) is None:
                raise ValueError(f"series {label!r}: {attribute} needs {name}")
        if attribute == "quality" and mode == NON_PROCESSED and scenario is None:
            raise ValueError(f"series {label!r}: non-processed quality needs scenario")
        return self


class SweepSpec(Checked, namedtuple("SweepSpec", "variable start stop step series obs_grid name notes points")):
    """Grid plus series definitions.

    obs_grid, when set, snaps the derived observation distance of
    overall-score series down to a multiple of itself (the reference
    curves sample d_o this way); explicit per-series obs_distance wins.
    points, the grid size, is derived on every construction, capped at
    MAX_GRID_POINTS; it is not an argument.
    """

    __slots__ = ()
    _derived = 1  # points

    def __new__(
        cls, variable: str, start: float, stop: float, step: float, series: tuple[SweepSeries, ...],
        obs_grid: float | None = None, name: str = "custom", notes: tuple[str, ...] = (),
    ) -> SweepSpec:
        one_of("variable", variable, VARIABLES)
        for field, value in (("start", start), ("stop", stop), ("step", step)):
            finite(field, value)
        positive("step", step)
        if start > stop:
            raise ValueError(f"start {start} exceeds stop {stop}")
        non_negative("start", start)
        if not series:
            raise ValueError("at least one series is required")
        for field, text in (("name", name), *(("notes", note) for note in notes)):
            check_csv_text(field, text, comment=True)  # printed in "#" lines
        if obs_grid is not None:
            finite("obs_grid", positive("obs_grid", obs_grid))
        labels = [s.label for s in series]
        if len(set(labels)) != len(labels):
            raise ValueError(f"series labels must be unique, got {labels}")
        for s in series:
            if s.attribute == "overall" and variable == "distance" and s.aoi is None:
                raise ValueError(f"series {s.label!r}: distance sweep needs a fixed aoi")
            if s.attribute in ("overall", "proximity") and variable == "aoi" and s.distance is None:
                raise ValueError(f"series {s.label!r}: aoi sweep needs a fixed distance")
            if s.attribute == "quality" and variable == "aoi" and s.distance is None and s.obs_distance is None:
                raise ValueError(f"series {s.label!r}: aoi sweep needs a fixed observation distance")
        steps = (stop - start) / step + 1e-9  # inf for a vanishingly small step
        points = int(steps) + 1 if steps < math.inf else steps
        if points > MAX_GRID_POINTS:
            raise ValueError(f"the sweep grid would have {points} points, more than {MAX_GRID_POINTS}")
        return tuple.__new__(cls, (variable, start, stop, step, series, obs_grid, name, notes, points))

    def grid(self) -> tuple[float, ...]:
        # start + i*step keeps shared abscissae bitwise stable when the
        # step is refined by an integer factor.
        return tuple(self.start + i * self.step for i in range(self.points))


class CurveSet(namedtuple("CurveSet", "spec xs curves")):
    """Evaluated sweep of a SweepSpec: the grid xs and one tuple of floats per series in curves."""

    __slots__ = ()

    def values(self, label: str) -> tuple[float, ...]:
        for series, curve in zip(self.spec.series, self.curves):
            if series.label == label:
                return curve
        known = [s.label for s in self.spec.series]
        raise KeyError(f"no series labeled {label!r}; have {known}")

    def to_csv(self) -> str:
        out = StringIO()
        out.write(f"# sweep: {self.spec.name}\n")
        unit = "m" if self.spec.variable == "distance" else "s"
        out.write(f"# variable: {self.spec.variable} ({unit})\n")
        out.write(
            f"# grid: start={self.spec.start:g} stop={self.spec.stop:g} step={self.spec.step:g}\n"
        )
        if self.spec.obs_grid is not None:
            out.write(f"# obs-grid: {self.spec.obs_grid:g}\n")
        for series in self.spec.series:
            out.write(f"# series {series.label}: {_describe(series)}\n")
        for note in self.spec.notes:
            out.write(f"# note: {note}\n")
        out.write("x," + ",".join(s.label for s in self.spec.series) + "\n")
        row = ",".join(["%.6g"] * (1 + len(self.curves))) + "\n"  # %.6g prints as format(v, ".6g")
        out.write("".join(row % values for values in zip(self.xs, *self.curves)))
        return out.getvalue()


def _describe(series: SweepSeries) -> str:
    parts = [f"attribute={series.attribute}"]
    if series.profile is not None:
        parts.append(f"profile={series.profile.name}")
    if series.scenario is not None:
        parts.append(f"scenario={series.scenario.kind}")
    if series.temporal is not None:
        parts.append(f"temporal={series.temporal.name} decay={series.temporal.decay:g}")
    if series.sensor is not None:
        parts.append(f"sensor={series.sensor.resolution:g}px")
    parts.append(f"mode={series.mode}")
    for name, value in zip(SweepSeries._fields[-3:], series[-3:]):  # aoi, distance, obs_distance
        if value is not None:
            parts.append(f"{name}={value:g}")
    return " ".join(parts)


def _observation_distances(spec: SweepSpec, series: SweepSeries, distances: Sequence[float]) -> Sequence[float]:
    """Where a series observes: at its own obs_distance, when set; else a quality series at each
    sweep distance itself, and an overall one at half of it, snapped down to obs_grid when set.
    """
    if series.obs_distance is not None:
        return [series.obs_distance]
    if series.attribute == "quality":
        return distances
    if spec.obs_grid is None:
        return [d / 2.0 for d in distances]
    cells = [d / (2.0 * spec.obs_grid) for d in distances]  # inf for a grid too fine to count cells in: no snap
    return [spec.obs_grid * math.floor(n) if n < math.inf else d / 2.0 for n, d in zip(cells, distances)]


def _score_pass(
    spec: SweepSpec, series: SweepSeries, xs: tuple[float, ...], params: LogisticParams
) -> tuple[list[float], ...]:
    """The scores of the series' context at each grid point, one list per attribute.

    An overall series gets timeliness, proximity and quality, for each profile to
    weigh; a conditional series gets its one attribute. Either scores quality at
    _observation_distances. An input the sweep holds fixed is scored once, and repeated.
    """
    attribute, scenario = series.attribute, series.scenario
    fixed = [series.aoi if spec.variable == "distance" else series.distance]  # scored once
    distances, aois = (xs, fixed) if spec.variable == "distance" else (fixed, xs)
    scores = []
    if attribute in ("overall", "timeliness"):
        scores.append([timeliness_voi(0.0 if aoi is None else aoi, series.temporal) for aoi in aois])
    if attribute in ("overall", "proximity"):
        scores.append([proximity_voi(d, scenario.safety_distance, params) for d in distances])
    if attribute in ("overall", "quality"):
        obs = _observation_distances(spec, series, distances)
        scores.append([quality_voi(d, series.sensor, scenario, series.mode) for d in obs])
    return tuple(score * len(xs) if len(score) == 1 else score for score in scores)


def run_sweep(spec: SweepSpec, params: LogisticParams = DEFAULT_LOGISTIC) -> CurveSet:
    """Evaluate every series of the spec over its grid.

    Series that differ only in label and profile share one scoring pass,
    and an input the sweep holds fixed is scored once.
    """
    xs = spec.grid()
    passes: dict[tuple, tuple[list[float], ...]] = {}
    curves = []
    for series in spec.series:
        context = series[2:]  # every field but label and profile
        scores = passes.get(context)
        if scores is None:
            scores = passes[context] = _score_pass(spec, series, xs, params)
        if series.attribute == "overall":
            curves.append(tuple(map(series.profile.overall, *scores)))
        else:
            curves.append(tuple(scores[0]))
    return CurveSet(spec=spec, xs=xs, curves=tuple(curves))


# Preset rows. A _conditional row is (label suffix, series fields) and
# gives one series. An _overall row is (variant, scenario, temporal,
# sensor, mode, aoi) and gives a safety series, then a traffic series.
_DISTANCE_GRID = dict(variable="distance", start=0.0, stop=500.0, step=10.0)
_OBS_NOTES = ("the sweep variable is the observation distance",)
_MEDIUM, _SLOW = SENSORS["medium"], TemporalClass("slow", 0.5)


def _conditional(
    name: str, attribute: str, rows: tuple, grid: dict, notes: tuple[str, ...]
) -> SweepSpec:
    series = tuple(
        SweepSeries(f"{name}:{suffix}", attribute=attribute, **fields) for suffix, fields in rows
    )
    return SweepSpec(name=name, series=series, notes=notes, **grid)


def _overall(name: str, rows: tuple, notes: tuple[str, ...]) -> SweepSpec:
    series = tuple(
        SweepSeries(
            f"{name}:{scenario.kind}:{profile.name}:{variant}",
            profile, scenario, temporal, sensor, mode, aoi=aoi,
        )
        for variant, scenario, temporal, sensor, mode, aoi in rows
        for profile in (SAFETY, TRAFFIC)
    )
    return SweepSpec(name=name, series=series, obs_grid=10.0, notes=notes, **_DISTANCE_GRID)


_PRESETS = {
    "fig2a": (_conditional, "proximity", (
        ("urban:-:proximity", {"scenario": URBAN}),
        ("highway:-:proximity", {"scenario": HIGHWAY}),
    ), _DISTANCE_GRID, ()),
    "fig2b": (_conditional, "timeliness", (
        ("-:-:static", {"temporal": STATIC}),
        ("-:-:variable", {"temporal": VARIABLE}),
        ("-:-:dynamic", {"temporal": DYNAMIC}),
    ), dict(variable="aoi", start=0.0, stop=5.0, step=0.1), ()),
    "fig2c": (_conditional, "quality", (
        ("-:-:low", {"sensor": SENSORS["low"]}),
        ("-:-:medium", {"sensor": _MEDIUM}),
        ("-:-:high", {"sensor": SENSORS["high"]}),
    ), _DISTANCE_GRID, _OBS_NOTES),
    "fig2d": (_conditional, "quality", (
        ("urban:-:non_processed", {"scenario": URBAN, "sensor": _MEDIUM, "mode": NON_PROCESSED}),
        ("highway:-:non_processed", {"scenario": HIGHWAY, "sensor": _MEDIUM, "mode": NON_PROCESSED}),
    ), _DISTANCE_GRID, _OBS_NOTES),
    "fig3a": (_overall, (
        (PROCESSED, URBAN, VARIABLE, _MEDIUM, PROCESSED, 0.1),
        (PROCESSED, HIGHWAY, VARIABLE, _MEDIUM, PROCESSED, 0.1),
    ), (RESOLUTION_NOTE,)),
    "fig3b": (_overall, (
        (NON_PROCESSED, URBAN, VARIABLE, _MEDIUM, NON_PROCESSED, 0.1),
        (NON_PROCESSED, HIGHWAY, VARIABLE, _MEDIUM, NON_PROCESSED, 0.1),
    ), (RESOLUTION_NOTE,)),
    "fig4": (_overall, (
        ("static", URBAN, STATIC, _MEDIUM, PROCESSED, 0.1),
        ("dynamic", URBAN, DYNAMIC, _MEDIUM, PROCESSED, 0.1),
    ), (RESOLUTION_NOTE,)),
    "fig5a": (_overall, (
        ("aoi0.1", URBAN, _SLOW, _MEDIUM, PROCESSED, 0.1),
        ("aoi1.0", URBAN, _SLOW, _MEDIUM, PROCESSED, 1.0),
    ), (RESOLUTION_NOTE, FIG5A_NOTE)),
    "fig5b": (_overall, (
        ("aoi0.1", URBAN, DYNAMIC, _MEDIUM, PROCESSED, 0.1),
        ("aoi1.0", URBAN, DYNAMIC, _MEDIUM, PROCESSED, 1.0),
    ), (RESOLUTION_NOTE,)),
    "fig6": (_overall, (
        ("high", URBAN, VARIABLE, SENSORS["high"], PROCESSED, 0.1),
        ("low", URBAN, VARIABLE, SENSORS["low"], PROCESSED, 0.1),
    ), ()),
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def figure_preset(name: str) -> SweepSpec:
    """The exact sweep behind one of the shipped reference figures."""
    try:
        builder, *args = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; valid presets: {', '.join(_PRESETS)}"
        ) from None
    return builder(name, *args)
