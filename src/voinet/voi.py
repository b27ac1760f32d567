"""Conditional value-of-information scores and their weighted aggregation.

A sensed observation is valued along three attributes: how close the
receiving vehicle is (proximity), how fresh the observation is
(timeliness), and how reliable the sensing is (quality). Each conditional
score lies in [0, 1], and proximity_voi, timeliness_voi and quality_voi check
that what they return does; an application profile weights them into a single
overall score. Quality has two modes: ``processed`` uses the sensor
geometry alone, ``non_processed`` additionally discounts by the
line-of-sight probability at the observation distance.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import ahp
from ._checked import Checked, finite, non_negative, one_of, positive, unit_interval

PROCESSED = "processed"
NON_PROCESSED = "non_processed"
MODES = (PROCESSED, NON_PROCESSED)

# Weight vectors and comparison matrices are ordered like this throughout.
ATTRIBUTES = ("timeliness", "proximity", "quality")


class LogisticParams(Checked, namedtuple("LogisticParams", "upper lower offset scale decay shape")):
    """Parameters of the generalized logistic proximity curve.

    upper is the score well inside the safety distance, lower the limit at
    large distance; offset and scale shape the denominator, decay (1/m)
    sets how fast the curve falls, shape the asymmetry exponent. The curve
    is monotone in distance, between upper and its far-distance limit
    upper + (lower - upper) * offset**(-1/shape); both must be in [0, 1].
    """

    __slots__ = ()

    def __new__(
        cls, upper: float = 1.0, lower: float = 0.0, offset: float = 1.0,
        scale: float = 1.0, decay: float = 0.03, shape: float = 0.2,
    ) -> LogisticParams:
        values = (upper, lower, offset, scale, decay, shape)
        for name, value in zip(cls._fields, values):
            finite(f"logistic {name}", value)
        for name, value in zip(cls._fields[2:], values[2:]):  # offset, scale, decay, shape
            positive(name, value)
        try:
            stretch = offset ** (-1.0 / shape)
        except OverflowError:  # an offset below 1 with a tiny shape
            stretch = math.inf
        unit_interval("logistic upper", upper)
        unit_interval("logistic far-distance limit", upper + (lower - upper) * stretch)
        return tuple.__new__(cls, values)


DEFAULT_LOGISTIC = LogisticParams()


def safety_distance(v_max: float) -> float:
    """Safety distance (m) for a speed limit: twice v_max."""
    return 2.0 * positive("speed limit", v_max)


def focal_distance(resolution: float, fov: float) -> float:
    """Focal distance in pixels for a horizontal resolution and field of view.

    Args:
        resolution: horizontal resolution (px), > 0.
        fov: horizontal field of view (degrees), in (0, 180).
    """
    positive("resolution", resolution)
    if not (0.0 < fov < 180.0):
        raise ValueError(f"field of view must be in (0, 180) degrees, got {fov}")
    return (resolution / 2.0) / math.tan(math.radians(fov) / 2.0)


def _urban_los(distance: float) -> float:
    return min(1.0, 1.05 * math.exp(-0.0114 * distance))


def _highway_los(distance: float) -> float:
    if distance <= 475.0:
        return min(1.0, 2.1013e-6 * distance * distance - 0.002 * distance + 1.0193)
    return max(0.0, 0.54 - 0.001 * (distance - 475.0))


_BUILTIN_LOS = {"urban": _urban_los, "highway": _highway_los}


class Scenario(Checked, namedtuple("Scenario", "kind safety_distance")):
    """Road environment: scenario kind, which fixes the line-of-sight model, and safety distance (m)."""

    __slots__ = ()

    def __new__(cls, kind: str, safety_distance: float) -> Scenario:
        one_of("scenario kind", kind, tuple(_BUILTIN_LOS))
        distance = finite("safety distance", positive("safety distance", safety_distance))
        return tuple.__new__(cls, (kind, distance))


URBAN = Scenario("urban", safety_distance(12.0))
HIGHWAY = Scenario("highway", safety_distance(36.0))
SCENARIOS = {s.kind: s for s in (URBAN, HIGHWAY)}


class TemporalClass(Checked, namedtuple("TemporalClass", "name decay")):
    """How quickly an observation loses value: decay rate in 1/s."""

    __slots__ = ()

    def __new__(cls, name: str, decay: float) -> TemporalClass:
        return tuple.__new__(cls, (name, finite("temporal decay", non_negative("temporal decay", decay))))


STATIC = TemporalClass("static", 0.0)
VARIABLE = TemporalClass("variable", 1.0)
DYNAMIC = TemporalClass("dynamic", 10.0)
TEMPORAL_CLASSES = {c.name: c for c in (STATIC, VARIABLE, DYNAMIC)}


def temporal_from_decay(decay: float) -> TemporalClass:
    """Temporal class for a decay rate, named if it matches a built-in."""
    for cls in TEMPORAL_CLASSES.values():
        if cls.decay == decay:
            return cls
    return TemporalClass("custom", decay)


class SensorModel(Checked, namedtuple("SensorModel", "height fov resolution focal")):
    """Camera geometry: mounting height (m), field of view (deg), resolution (px).

    focal, the focal distance in pixels, is derived from resolution and fov
    on every construction; it is not an argument.
    """

    __slots__ = ()
    _derived = 1  # focal

    def __new__(cls, height: float, fov: float, resolution: float) -> SensorModel:
        positive("sensor height", height)
        focal = focal_distance(resolution, fov)
        if not height * focal > 0:  # quality divides by it; tiny factors underflow to 0
            raise ValueError(f"sensor height * focal distance must be positive, got {height} * {focal}")
        return tuple.__new__(cls, (height, fov, resolution, focal))


SENSORS = {
    "low": SensorModel(height=1.2, fov=70.0, resolution=640.0),
    "medium": SensorModel(height=1.2, fov=70.0, resolution=1280.0),
    "high": SensorModel(height=1.2, fov=70.0, resolution=4096.0),
}


class AssessmentContext(Checked, namedtuple(
    "AssessmentContext", "distance aoi scenario temporal sensor mode obs_distance",
)):
    """One evaluation point for the conditional scores.

    obs_distance is the sensor-to-observation distance; when omitted it
    defaults to half the transmitter-receiver distance.
    """

    __slots__ = ()

    def __new__(
        cls, distance: float, aoi: float, scenario: Scenario, temporal: TemporalClass,
        sensor: SensorModel, mode: str = PROCESSED, obs_distance: float | None = None,
    ) -> AssessmentContext:
        non_negative("distance", distance)
        non_negative("age of information", aoi)
        if obs_distance is not None:
            non_negative("observation distance", obs_distance)
        one_of("mode", mode, MODES)
        return tuple.__new__(cls, (distance, aoi, scenario, temporal, sensor, mode, obs_distance))

    @property
    def resolved_obs_distance(self) -> float:
        if self.obs_distance is not None:
            return self.obs_distance
        return self.distance / 2.0


class AttributeScores(Checked, namedtuple("AttributeScores", "proximity timeliness quality")):
    """The three conditional scores, each in [0, 1]."""

    __slots__ = ()

    def __new__(cls, proximity: float, timeliness: float, quality: float) -> AttributeScores:
        for name, score in zip(cls._fields, (proximity, timeliness, quality)):
            unit_interval(f"{name} score", score)
        return tuple.__new__(cls, (proximity, timeliness, quality))


class ApplicationProfile(Checked, namedtuple("ApplicationProfile", "name timeliness proximity quality")):
    """Named attribute weights, constructed by attribute name.

    Weight vectors are ordered (timeliness, proximity, quality); the
    weights must be finite, non-negative and sum to 1.
    """

    __slots__ = ()

    def __new__(cls, name: str, timeliness: float, proximity: float, quality: float) -> ApplicationProfile:
        weights = (timeliness, proximity, quality)
        if not all(math.isfinite(w) for w in weights):
            raise ValueError(f"profile {name!r}: weights must be finite, got {weights}")
        if any(w < 0 for w in weights):
            raise ValueError(f"weights must be non-negative, got {weights}")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise ValueError(f"weights sum to {sum(weights)!r}, expected 1")
        return tuple.__new__(cls, (name, timeliness, proximity, quality))

    @property
    def weights(self) -> tuple[float, float, float]:
        return (self.timeliness, self.proximity, self.quality)

    def overall(self, timeliness: float, proximity: float, quality: float) -> float:
        """The weighted sum of the three conditional scores.

        Every overall value is computed here, so all callers round alike;
        scheduler.rank repeats this sum with the weights bound to locals,
        and a test keeps the two bitwise equal.
        """
        return self.timeliness * timeliness + self.proximity * proximity + self.quality * quality


# Pairwise comparison matrices behind the safety and traffic-management
# profiles, rows ordered like ATTRIBUTES; ComparisonMatrix checks each at import.
BUILTIN_MATRICES = {
    "safety": ahp.ComparisonMatrix(ATTRIBUTES, (
        (1.0, 1.0 / 7.0, 1.0),
        (7.0, 1.0, 5.0),
        (1.0, 1.0 / 5.0, 1.0),
    )),
    "traffic": ahp.ComparisonMatrix(ATTRIBUTES, (
        (1.0, 9.0, 3.0),
        (1.0 / 9.0, 1.0, 1.0 / 7.0),
        (1.0 / 3.0, 7.0, 1.0),
    )),
}


def profile_from_matrix(name: str, matrix: ahp.ComparisonMatrix) -> ApplicationProfile:
    """Derive a profile from a comparison matrix labeled with ATTRIBUTES."""
    if set(matrix.labels) != set(ATTRIBUTES):
        raise ValueError(f"profile matrices must be labeled with {ATTRIBUTES}, got {matrix.labels}")
    solution = ahp.principal_eigenvector(matrix)
    return ApplicationProfile(name, **dict(zip(matrix.labels, solution.weights)))


PROFILES = {name: profile_from_matrix(name, m) for name, m in BUILTIN_MATRICES.items()}
SAFETY, TRAFFIC = PROFILES["safety"], PROFILES["traffic"]


def proximity_voi(
    distance: float, safety_distance: float, params: LogisticParams = DEFAULT_LOGISTIC
) -> float:
    """Proximity score: a falling logistic curve in the receiver distance.

    Full value is kept up to roughly the safety distance, after which the
    score decays toward params.lower.
    """
    non_negative("distance", distance)
    try:
        denominator = (
            params.offset + params.scale * math.exp(-params.decay * (distance - safety_distance))
        ) ** (1.0 / params.shape)
    except OverflowError:  # the denominator exceeds any float: the score is at its limit
        score = params.upper
    else:
        score = params.upper + (params.lower - params.upper) / denominator
    return unit_interval("proximity score", score)


def timeliness_voi(aoi: float, temporal: TemporalClass) -> float:
    """Timeliness score: exponential decay of value with age."""
    non_negative("age of information", aoi)
    score = 1.0 if temporal.decay == 0.0 else math.exp(-temporal.decay * aoi)  # 0 * an infinite age is NaN
    return unit_interval("timeliness score", score)


def quality_voi_processed(obs_distance: float, sensor: SensorModel) -> float:
    """Quality score from sensor geometry alone, clamped to [0, 1].

    Falls linearly with the observation distance and hits 0 at
    height * focal; observations beyond that carry no quality value.
    """
    raw = 1.0 - non_negative("observation distance", obs_distance) / (sensor.height * sensor.focal)
    return min(max(raw, 0.0), 1.0)  # a NaN raw stays NaN, for quality_voi's check to refuse


def los_probability(distance: float, scenario: Scenario) -> float:
    """Probability of an unobstructed line of sight at a distance."""
    return _BUILTIN_LOS[scenario.kind](non_negative("distance", distance))


def quality_voi_nonprocessed(
    obs_distance: float, sensor: SensorModel, scenario: Scenario
) -> float:
    """Quality score for unprocessed records: geometry discounted by LOS."""
    return quality_voi_processed(obs_distance, sensor) * los_probability(obs_distance, scenario)


def quality_voi(obs_distance: float, sensor: SensorModel, scenario: Scenario, mode: str) -> float:
    """Quality score in a record's mode, processed or non-processed."""
    if mode == PROCESSED:
        score = quality_voi_processed(obs_distance, sensor)
    else:
        score = quality_voi_nonprocessed(obs_distance, sensor, scenario)
    return unit_interval("quality score", score)


def attribute_scores(
    ctx: AssessmentContext, params: LogisticParams = DEFAULT_LOGISTIC
) -> AttributeScores:
    """Evaluate the three conditional scores for one context."""
    quality = quality_voi(ctx.resolved_obs_distance, ctx.sensor, ctx.scenario, ctx.mode)
    return AttributeScores(
        proximity=proximity_voi(ctx.distance, ctx.scenario.safety_distance, params),
        timeliness=timeliness_voi(ctx.aoi, ctx.temporal),
        quality=quality,
    )


def overall_voi(
    ctx: AssessmentContext,
    profile: ApplicationProfile,
    params: LogisticParams = DEFAULT_LOGISTIC,
) -> float:
    """Weighted overall value of information for one context, in [0, 1]."""
    scores = attribute_scores(ctx, params)
    return profile.overall(scores.timeliness, scores.proximity, scores.quality)
