import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voinet import ahp, scheduler, sweep, voi
from conftest import ORACLE_SAFETY_WEIGHTS, ORACLE_TRAFFIC_WEIGHTS, SAFETY_ROWS, TRAFFIC_ROWS


def make_ctx(**kw):
    defaults = dict(
        distance=100.0,
        aoi=0.1,
        scenario=voi.URBAN,
        temporal=voi.VARIABLE,
        sensor=voi.SENSORS["medium"],
    )
    defaults.update(kw)
    return voi.AssessmentContext(**defaults)


def test_safety_distance():
    assert voi.safety_distance(12.0) == 24.0
    assert voi.safety_distance(36.0) == 72.0
    with pytest.raises(ValueError, match="positive"):
        voi.safety_distance(0.0)
    with pytest.raises(ValueError, match=r"^speed limit must be positive, got nan$"):
        voi.safety_distance(math.nan)
    with pytest.raises(ValueError, match=r"^speed limit must be positive, got -1\.0$"):
        voi.safety_distance(-1.0)


def test_builtin_scenarios():
    assert voi.URBAN.safety_distance == 24.0
    assert voi.HIGHWAY.safety_distance == 72.0
    assert voi.Scenario("urban", voi.safety_distance(12.0)) == voi.URBAN
    assert voi.Scenario("highway", voi.safety_distance(36.0)) == voi.HIGHWAY
    assert voi.SCENARIOS == {"urban": voi.URBAN, "highway": voi.HIGHWAY}
    assert all(scenario.kind == kind for kind, scenario in voi.SCENARIOS.items())


def test_scenario_validation():
    assert voi.Scenario._fields == ("kind", "safety_distance")
    with pytest.raises(ValueError) as info:
        voi.Scenario("tunnel", 20.0)
    assert str(info.value) == "scenario kind must be one of ('urban', 'highway'), got 'tunnel'"
    with pytest.raises(ValueError, match=r"^safety distance must be positive, got 0\.0$"):
        voi.Scenario("urban", 0.0)
    with pytest.raises(ValueError, match=r"^safety distance must be positive, got nan$"):
        voi.Scenario("urban", math.nan)
    assert voi.Scenario("urban", 5e-324).safety_distance == 5e-324


def test_focal_distance():
    assert voi.focal_distance(2.0, 90.0) == pytest.approx(1.0, rel=1e-12)
    assert voi.focal_distance(1280.0, 70.0) == pytest.approx(914.0147243149534, rel=1e-12)
    assert voi.focal_distance(4096.0, 70.0) == pytest.approx(2924.8471178078507, rel=1e-12)
    with pytest.raises(ValueError, match="resolution"):
        voi.focal_distance(0.0, 70.0)
    with pytest.raises(ValueError, match=r"^resolution must be positive, got nan$"):
        voi.focal_distance(math.nan, 70.0)
    with pytest.raises(ValueError, match=r"^resolution must be positive, got -1\.0$"):
        voi.focal_distance(-1.0, 70.0)
    with pytest.raises(ValueError, match="field of view"):
        voi.focal_distance(1280.0, 180.0)
    with pytest.raises(ValueError, match=r"^field of view must be in \(0, 180\) degrees, got 0\.0$"):
        voi.focal_distance(640.0, 0.0)


def test_sensor_model_precomputes_focal():
    sensor = voi.SensorModel(height=1.2, fov=70.0, resolution=1280.0)
    assert sensor.focal == pytest.approx(914.0147243149534, rel=1e-12)
    assert sensor == voi.SENSORS["medium"]
    with pytest.raises(ValueError, match="height"):
        voi.SensorModel(height=0.0, fov=70.0, resolution=1280.0)


def test_proximity_frozen_values():
    assert voi.proximity_voi(24.0, 24.0) == pytest.approx(0.96875, abs=1e-13)
    assert voi.proximity_voi(0.0, 24.0) == pytest.approx(0.9962386232620989, abs=1e-13)


def test_proximity_is_decreasing_and_bounded():
    previous = 1.0
    for d in range(0, 1001, 5):
        value = voi.proximity_voi(float(d), 24.0)
        assert 0.0 < value <= previous
        previous = value
    with pytest.raises(ValueError, match="non-negative"):
        voi.proximity_voi(-1.0, 24.0)
    with pytest.raises(ValueError, match=r"^distance must be non-negative, got nan$"):
        voi.proximity_voi(math.nan, 24.0)


def test_logistic_params_validation():
    with pytest.raises(ValueError, match="decay"):
        voi.LogisticParams(decay=0.0)
    with pytest.raises(ValueError, match="shape"):
        voi.LogisticParams(shape=-0.2)
    for name in ("upper", "lower", "offset", "scale", "decay", "shape"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"logistic {name} must be finite"):
                voi.LogisticParams(**{name: bad})
    # The curve is monotone, from upper to upper + (lower - upper) * offset**(-1/shape).
    for fields, got in (
        (dict(upper=1.5), "logistic upper must be in [0, 1], got 1.5"),
        (dict(upper=-0.5, lower=-0.5), "logistic upper must be in [0, 1], got -0.5"),
        (dict(lower=-1.0), "logistic far-distance limit must be in [0, 1], got -1.0"),
        (dict(lower=2.0), "logistic far-distance limit must be in [0, 1], got 2.0"),
        (dict(offset=0.5), "logistic far-distance limit must be in [0, 1], got -31.0"),
        (dict(offset=0.1, shape=0.001), "logistic far-distance limit must be in [0, 1], got -inf"),
    ):
        with pytest.raises(ValueError) as info:
            voi.LogisticParams(**fields)
        assert str(info.value) == got
    assert voi.LogisticParams(upper=0.8, lower=0.2, offset=2.0).lower == 0.2


def test_proximity_overflow_gives_the_upper_limit():
    # exp and ** both overflow a float near the sender; the curve is then at upper.
    assert voi.proximity_voi(0.0, 24.0, voi.LogisticParams(decay=1000.0)) == 1.0
    assert voi.proximity_voi(0.0, 24.0, voi.LogisticParams(shape=0.001)) == 1.0
    assert voi.proximity_voi(0.0, 24.0, voi.LogisticParams(upper=0.75, lower=0.5, decay=1000.0)) == 0.75


@settings(max_examples=300, deadline=None)
@given(
    upper=st.floats(0.0, 1.0), lower=st.floats(0.0, 1.0), offset=st.floats(0.5, 50.0),
    scale=st.floats(1e-3, 1e3), decay=st.floats(1e-4, 1e3), shape=st.floats(1e-3, 10.0),
    distance=st.floats(0.0, 1e5), safety=st.floats(1.0, 500.0),
)
def test_every_accepted_logistic_curve_stays_in_unit_range(
    upper, lower, offset, scale, decay, shape, distance, safety
):
    try:
        params = voi.LogisticParams(upper, lower, offset, scale, decay, shape)
    except ValueError:
        return
    assert 0.0 <= voi.proximity_voi(distance, safety, params) <= 1.0


def test_custom_logistic_params_change_the_curve():
    steep = voi.LogisticParams(decay=0.3)
    assert voi.proximity_voi(100.0, 24.0, steep) < voi.proximity_voi(100.0, 24.0)


def test_timeliness_frozen_values():
    assert voi.timeliness_voi(0.1, voi.VARIABLE) == pytest.approx(0.9048374180359595, abs=1e-15)
    assert voi.timeliness_voi(0.5, voi.DYNAMIC) == pytest.approx(0.006737946999085467, abs=1e-15)
    assert voi.timeliness_voi(5.0, voi.STATIC) == 1.0
    with pytest.raises(ValueError, match="non-negative"):
        voi.timeliness_voi(-0.1, voi.VARIABLE)
    with pytest.raises(ValueError, match=r"^age of information must be non-negative, got nan$"):
        voi.timeliness_voi(math.nan, voi.VARIABLE)


def test_temporal_classes():
    assert voi.STATIC.decay == 0.0
    assert voi.VARIABLE.decay == 1.0
    assert voi.DYNAMIC.decay == 10.0
    assert voi.temporal_from_decay(10.0) is voi.DYNAMIC
    assert voi.temporal_from_decay(0.5).name == "custom"
    with pytest.raises(ValueError, match="non-negative"):
        voi.TemporalClass("bad", -1.0)


def test_quality_processed_frozen_and_clamped():
    medium = voi.SENSORS["medium"]
    assert voi.quality_voi_processed(50.0, medium) == pytest.approx(0.9544135717311387, abs=1e-13)
    assert voi.quality_voi_processed(0.0, medium) == 1.0
    # zero crossing is at height * focal (about 1096.8 m for 1280 px)
    assert voi.quality_voi_processed(1.2 * medium.focal, medium) == 0.0
    assert voi.quality_voi_processed(5000.0, medium) == 0.0
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match=rf"^observation distance must be non-negative, got {bad}$"):
            voi.quality_voi_processed(bad, medium)


def test_los_probability_frozen_values():
    assert voi.los_probability(50.0, voi.URBAN) == pytest.approx(0.5938017106345139, abs=1e-13)
    assert voi.los_probability(100.0, voi.HIGHWAY) == pytest.approx(0.840313, abs=1e-12)
    assert voi.los_probability(0.0, voi.URBAN) == 1.0
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match=rf"^distance must be non-negative, got {bad}$"):
            voi.los_probability(bad, voi.URBAN)


def test_urban_los_is_continuous_at_the_clamp_crossover():
    crossover = math.log(1.05) / 0.0114
    below = voi.los_probability(crossover - 1e-7, voi.URBAN)
    above = voi.los_probability(crossover + 1e-7, voi.URBAN)
    assert below == 1.0
    assert above == pytest.approx(1.0, abs=1e-6)


def test_highway_los_branch_values_at_the_joint():
    # The two branches deliberately disagree by 3.4e-3 at 475 m; the
    # constants are pinned by the reference curves.
    assert voi.los_probability(475.0, voi.HIGHWAY) == pytest.approx(0.5434058125, abs=1e-12)
    assert voi.los_probability(475.0 + 1e-9, voi.HIGHWAY) == pytest.approx(0.54, abs=1e-11)
    assert voi.los_probability(1100.0, voi.HIGHWAY) == 0.0


def test_quality_nonprocessed_frozen_values():
    medium = voi.SENSORS["medium"]
    assert voi.quality_voi_nonprocessed(50.0, medium, voi.URBAN) == pytest.approx(
        0.5667324115467466, abs=1e-13
    )
    assert voi.quality_voi_nonprocessed(100.0, medium, voi.HIGHWAY) == pytest.approx(
        0.7636992634042167, abs=1e-13
    )


def test_context_validation_and_obs_default():
    ctx = make_ctx(distance=100.0)
    assert ctx.resolved_obs_distance == 50.0
    assert make_ctx(obs_distance=7.0).resolved_obs_distance == 7.0
    with pytest.raises(ValueError, match="distance"):
        make_ctx(distance=-1.0)
    with pytest.raises(ValueError, match="age of information"):
        make_ctx(aoi=-0.1)
    for field, message in (("distance", "distance"), ("obs_distance", "observation distance")):
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match=rf"^{message} must be non-negative, got {bad}$"):
                make_ctx(**{field: bad})
    with pytest.raises(ValueError, match="mode"):
        make_ctx(mode="raw")


def test_attribute_scores_reject_out_of_range():
    with pytest.raises(ValueError) as info:
        voi.AttributeScores(proximity=1.2, timeliness=0.5, quality=0.5)
    assert str(info.value) == "proximity score must be in [0, 1], got 1.2"


# Built unchecked, as no constructor allows: a logistic upper of 1.5 and a NaN decay rate.
UNCHECKED_UPPER = tuple.__new__(voi.LogisticParams, (1.5, *voi.DEFAULT_LOGISTIC[1:]))
NAN_DECAY = tuple.__new__(voi.TemporalClass, ("broken", math.nan))
MEDIUM = voi.SENSORS["medium"]


def _urban_proximity_at_0(params):
    """proximity_voi's curve at distance 0 in the urban scenario, computed without its check."""
    upper, lower, offset, scale, decay, shape = params
    denominator = (offset + scale * math.exp(-decay * (0.0 - voi.URBAN.safety_distance))) ** (1.0 / shape)
    return upper + (lower - upper) / denominator


# Each entry point, called at distance 0 and age 0 with the given logistic parameters and
# temporal class; together they reach every function that returns a conditional score.
SCORE_ENTRY_POINTS = {
    "proximity_voi": lambda params, temporal: voi.proximity_voi(0.0, voi.URBAN.safety_distance, params),
    "timeliness_voi": lambda params, temporal: voi.timeliness_voi(0.0, temporal),
    "quality_voi": lambda params, temporal: voi.quality_voi(0.0, MEDIUM, voi.URBAN, voi.PROCESSED),
    "attribute_scores": lambda params, temporal: voi.attribute_scores(
        make_ctx(distance=0.0, aoi=0.0, temporal=temporal), params),
    "rank": lambda params, temporal: scheduler.rank(
        [scheduler.PerceptionRecord("r", "v", 0.0, 0.0, temporal, MEDIUM)],
        [scheduler.ReceiverView("rx", 0.0, voi.URBAN)],
        scheduler.SchedulerConfig(voi.SAFETY, 0.5, 0.0, params)),
    "run_sweep": lambda params, temporal: sweep.run_sweep(sweep.SweepSpec(
        "distance", 0.0, 10.0, 10.0, (sweep.SweepSeries("o", voi.SAFETY, voi.URBAN, temporal, MEDIUM, aoi=0.0),),
    ), params),
}


@pytest.mark.parametrize("entry, score", [
    (entry, score) for entry in SCORE_ENTRY_POINTS for score in ("proximity", "timeliness", "quality")
    if not entry.endswith("_voi") or entry.startswith(score)
])
def test_every_entry_point_checks_the_scores_it_computes(monkeypatch, entry, score):
    # One score at a time is put out of [0, 1]: proximity by an upper of 1.5, timeliness by
    # a NaN decay, quality (which clamps its geometry) by a processed score of NaN.
    params, temporal, got = voi.DEFAULT_LOGISTIC, voi.VARIABLE, math.nan
    if score == "proximity":
        params, got = UNCHECKED_UPPER, _urban_proximity_at_0(UNCHECKED_UPPER)
        assert 1.49 < got < 1.5
    elif score == "timeliness":
        temporal = NAN_DECAY
    else:
        monkeypatch.setattr(voi, "quality_voi_processed", lambda obs_distance, sensor: math.nan)
    with pytest.raises(ValueError) as info:
        SCORE_ENTRY_POINTS[entry](params, temporal)
    assert str(info.value) == f"{score} score must be in [0, 1], got {got}"


@pytest.mark.parametrize("mode", voi.MODES)
def test_a_nan_quality_is_refused_not_clamped_to_0(mode):
    # The clamp to [0, 1] keeps a NaN geometry score NaN, so quality_voi's check sees it.
    sensor = tuple.__new__(voi.SensorModel, (*MEDIUM[:3], math.nan))
    with pytest.raises(ValueError) as info:
        voi.quality_voi(10.0, sensor, voi.URBAN, mode)
    assert str(info.value) == "quality score must be in [0, 1], got nan"


def test_profile_validation():
    with pytest.raises(ValueError, match="sum"):
        voi.ApplicationProfile("bad", 0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match="non-negative"):
        voi.ApplicationProfile("bad", -0.2, 0.7, 0.5)
    assert voi.SAFETY.weights == (voi.SAFETY.timeliness, voi.SAFETY.proximity, voi.SAFETY.quality)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_profile_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="profile 'bad': weights must be finite"):
        voi.ApplicationProfile("bad", bad, 0.5, 0.5)


def test_builtin_profiles_are_derived_from_the_builtin_matrices():
    assert voi.SAFETY.weights == pytest.approx(ORACLE_SAFETY_WEIGHTS, abs=1e-9)
    assert voi.TRAFFIC.weights == pytest.approx(ORACLE_TRAFFIC_WEIGHTS, abs=1e-9)
    assert list(voi.PROFILES) == list(voi.BUILTIN_MATRICES)
    assert all(profile.name == name for name, profile in voi.PROFILES.items())
    assert (voi.PROFILES["safety"], voi.PROFILES["traffic"]) == (voi.SAFETY, voi.TRAFFIC)


def test_no_decay_keeps_timeliness_at_one_at_an_infinite_age():
    assert voi.timeliness_voi(math.inf, voi.STATIC) == 1.0  # not exp(-0 * inf), a NaN
    assert voi.timeliness_voi(math.inf, voi.DYNAMIC) == 0.0


def test_builtin_matrices_are_the_full_rows():
    for name, rows in (("safety", SAFETY_ROWS), ("traffic", TRAFFIC_ROWS)):
        matrix = voi.BUILTIN_MATRICES[name]
        assert type(matrix) is ahp.ComparisonMatrix
        assert matrix.labels == voi.ATTRIBUTES
        assert matrix.entries == rows


def test_profile_from_matrix_requires_attribute_labels():
    import numpy as np

    matrix = ahp.ComparisonMatrix(("a", "b", "c"), np.ones((3, 3)))
    with pytest.raises(ValueError, match="labeled"):
        voi.profile_from_matrix("x", matrix)


def test_overall_frozen_values():
    assert voi.overall_voi(make_ctx(distance=0.0), voi.SAFETY) == pytest.approx(
        0.9858287316462468, abs=1e-9
    )
    assert voi.overall_voi(make_ctx(distance=100.0), voi.SAFETY) == pytest.approx(
        0.5234754834657531, abs=1e-9
    )
    assert voi.overall_voi(make_ctx(distance=0.0), voi.TRAFFIC) == pytest.approx(
        0.9374281783190102, abs=1e-9
    )
    assert voi.overall_voi(
        make_ctx(distance=100.0, mode=voi.NON_PROCESSED), voi.SAFETY
    ) == pytest.approx(0.471697317488605, abs=1e-9)


def test_overall_is_the_weighted_sum_of_the_conditionals():
    ctx = make_ctx(distance=137.0, aoi=0.7)
    scores = voi.attribute_scores(ctx)
    expected = (
        voi.SAFETY.timeliness * scores.timeliness
        + voi.SAFETY.proximity * scores.proximity
        + voi.SAFETY.quality * scores.quality
    )
    assert voi.overall_voi(ctx, voi.SAFETY) == expected
    assert voi.SAFETY.overall(scores.timeliness, scores.proximity, scores.quality) == expected


def test_zero_weight_attribute_is_ignored():
    only_time = voi.ApplicationProfile("t", 1.0, 0.0, 0.0)
    a = voi.overall_voi(make_ctx(sensor=voi.SENSORS["low"]), only_time)
    b = voi.overall_voi(make_ctx(sensor=voi.SENSORS["high"], distance=400.0), only_time)
    assert a == b == pytest.approx(math.exp(-0.1), abs=1e-15)


@settings(max_examples=300, deadline=None)
@given(
    scenario=st.sampled_from(list(voi.SCENARIOS.values())),
    distance=st.one_of(st.floats(0.0, allow_nan=False), st.sampled_from([0.0, 475.0, 1e308, math.inf])),
)
def test_builtin_los_models_stay_in_the_unit_interval(scenario, distance):
    # los_probability applies no clamp of its own: the built-in models must not need one.
    model = {"urban": voi._urban_los, "highway": voi._highway_los}[scenario.kind]
    p = voi.los_probability(distance, scenario)
    assert type(p) is float and 0.0 <= p <= 1.0
    assert p == min(1.0, max(0.0, model(distance)))


scenarios = st.sampled_from([voi.URBAN, voi.HIGHWAY])
temporals = st.sampled_from([voi.STATIC, voi.VARIABLE, voi.DYNAMIC, voi.TemporalClass("c", 2.5)])
sensors = st.sampled_from(list(voi.SENSORS.values()))
modes = st.sampled_from(voi.MODES)
distances = st.floats(0.0, 1500.0, allow_nan=False)
ages = st.floats(0.0, 30.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    distance=distances,
    aoi=ages,
    scenario=scenarios,
    temporal=temporals,
    sensor=sensors,
    mode=modes,
    obs=st.one_of(st.none(), distances),
)
def test_scores_are_always_in_unit_range(distance, aoi, scenario, temporal, sensor, mode, obs):
    ctx = voi.AssessmentContext(
        distance=distance, aoi=aoi, scenario=scenario, temporal=temporal,
        sensor=sensor, mode=mode, obs_distance=obs,
    )
    scores = voi.attribute_scores(ctx)
    for profile in (voi.SAFETY, voi.TRAFFIC):
        assert 0.0 <= voi.overall_voi(ctx, profile) <= 1.0
    assert 0.0 <= scores.proximity <= 1.0
    assert 0.0 <= scores.timeliness <= 1.0
    assert 0.0 <= scores.quality <= 1.0


@settings(max_examples=200, deadline=None)
@given(
    distance=distances,
    aoi=ages,
    scenario=scenarios,
    temporal=temporals,
    sensor=sensors,
    obs=distances,
)
def test_nonprocessed_never_exceeds_processed(distance, aoi, scenario, temporal, sensor, obs):
    kw = dict(distance=distance, aoi=aoi, scenario=scenario, temporal=temporal,
              sensor=sensor, obs_distance=obs)
    processed = voi.AssessmentContext(mode=voi.PROCESSED, **kw)
    nonprocessed = voi.AssessmentContext(mode=voi.NON_PROCESSED, **kw)
    for profile in (voi.SAFETY, voi.TRAFFIC):
        assert voi.overall_voi(nonprocessed, profile) <= voi.overall_voi(processed, profile) + 1e-12


@settings(max_examples=200, deadline=None)
@given(
    d1=distances, d2=distances, scenario=scenarios, sensor=sensors, mode=modes,
)
def test_overall_is_nonincreasing_in_distance(d1, d2, scenario, sensor, mode):
    lo, hi = sorted((d1, d2))
    near = voi.AssessmentContext(distance=lo, aoi=0.1, scenario=scenario,
                                 temporal=voi.VARIABLE, sensor=sensor, mode=mode)
    far = voi.AssessmentContext(distance=hi, aoi=0.1, scenario=scenario,
                                temporal=voi.VARIABLE, sensor=sensor, mode=mode)
    assert voi.overall_voi(far, voi.SAFETY) <= voi.overall_voi(near, voi.SAFETY) + 1e-12


@settings(max_examples=200, deadline=None)
@given(a1=ages, a2=ages, temporal=temporals)
def test_timeliness_is_nonincreasing_in_age(a1, a2, temporal):
    lo, hi = sorted((a1, a2))
    assert voi.timeliness_voi(hi, temporal) <= voi.timeliness_voi(lo, temporal) + 1e-15


@settings(max_examples=200, deadline=None)
@given(decay=st.floats(allow_infinity=True), aoi=st.floats(0.0, math.inf))
@example(decay=math.inf, aoi=0.0)  # exp(-inf * 0) is NaN
def test_timeliness_is_in_unit_range_for_every_accepted_decay(decay, aoi):
    try:
        temporal = voi.TemporalClass("t", decay)
    except ValueError:
        return  # a decay the constructor refuses gives no score
    score = voi.timeliness_voi(aoi, temporal)
    assert type(score) is float and 0.0 <= score <= 1.0
