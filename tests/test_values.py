"""The checked value types: immutable tuples whose checks run however they are built."""

import copy
import pickle

import pytest

from voinet import ahp, config, scheduler, sweep, voi
from voinet._checked import finite, non_negative, one_of, positive, unit_interval

_SERIES = sweep.SweepSeries("s", attribute="proximity", scenario=voi.URBAN)
_SERIES_AT_ZERO = dict(label="z", profile=voi.SAFETY, scenario=voi.URBAN, temporal=voi.STATIC,
                       sensor=voi.SENSORS["low"], mode=voi.PROCESSED, attribute="overall",
                       aoi=0.0, distance=0.0, obs_distance=0.0)  # 0 is accepted
_CONTEXT = dict(distance=1.0, aoi=0.0, scenario=voi.URBAN, temporal=voi.STATIC,
                sensor=voi.SENSORS["low"], mode=voi.PROCESSED, obs_distance=None)
_RECORD = dict(id="r", source_vehicle="v", generated_at=0.0, object_distance=1.0,
               temporal=voi.STATIC, sensor=voi.SENSORS["low"], mode=voi.PROCESSED)
_BAD_MODE = ("mode", "raw"), "mode must be one of ('processed', 'non_processed'), got 'raw'"
_NAN = float("nan")
_INF = float("inf")

# (type, every constructor argument in order, one bad field and value, its message)
CASES = [
    (ahp.ComparisonMatrix, dict(labels=("a", "b"), entries=((1.0, 2.0), (0.5, 1.0))),
     ("labels", ("a",)), "need at least 2 attributes, got 1"),
    (ahp.EigenSolution, dict(lambda_max=2.0, weights=(0.5, 0.5)),
     ("weights", (0.5, 0.6)), "weights sum to 1.1, expected 1"),
    (ahp.EigenSolution, dict(lambda_max=3.0, weights=(0.5, 0.5, 0.0)),
     ("weights", (1.5, -0.5, 0.0)), "weights outside [0, 1]: (1.5, -0.5, 0.0)"),
    (ahp.EigenSolution, dict(lambda_max=2.0, weights=(0.5, 0.5)),
     ("lambda_max", _NAN), "lambda_max must be finite, got nan"),
    (ahp.EigenSolution, dict(lambda_max=2.0, weights=(0.5, 0.5)),
     ("weights", (_NAN, _NAN)), "weights outside [0, 1]: (nan, nan)"),
    (voi.LogisticParams, dict(upper=1.0, lower=0.0, offset=1.0, scale=1.0, decay=0.03, shape=0.2),
     ("decay", -1.0), "decay must be positive, got -1.0"),
    (voi.Scenario, dict(kind="urban", safety_distance=24.0),
     ("safety_distance", 0.0), "safety distance must be positive, got 0.0"),
    (voi.Scenario, dict(kind="urban", safety_distance=24.0),
     ("safety_distance", _NAN), "safety distance must be positive, got nan"),
    (voi.Scenario, dict(kind="urban", safety_distance=24.0),
     ("safety_distance", -1.0), "safety distance must be positive, got -1.0"),
    (voi.Scenario, dict(kind="urban", safety_distance=24.0),
     ("kind", "tunnel"), "scenario kind must be one of ('urban', 'highway'), got 'tunnel'"),
    (voi.Scenario, dict(kind="urban", safety_distance=24.0),
     ("safety_distance", _INF), "safety distance must be finite, got inf"),
    (voi.TemporalClass, dict(name="t", decay=1.0),
     ("decay", -1.0), "temporal decay must be non-negative, got -1.0"),
    (voi.TemporalClass, dict(name="t", decay=1.0),
     ("decay", _NAN), "temporal decay must be non-negative, got nan"),
    (voi.TemporalClass, dict(name="t", decay=1.0),
     ("decay", _INF), "temporal decay must be finite, got inf"),
    (voi.SensorModel, dict(height=1.2, fov=70.0, resolution=640.0),
     ("height", 0.0), "sensor height must be positive, got 0.0"),
    (voi.SensorModel, dict(height=1.2, fov=70.0, resolution=640.0),
     ("height", _NAN), "sensor height must be positive, got nan"),
    (voi.SensorModel, dict(height=1.2, fov=70.0, resolution=640.0),
     ("height", -1.0), "sensor height must be positive, got -1.0"),
    (voi.AssessmentContext, _CONTEXT,
     ("aoi", -1.0), "age of information must be non-negative, got -1.0"),
    (voi.AssessmentContext, _CONTEXT, *_BAD_MODE),
    (voi.AssessmentContext, _CONTEXT,
     ("aoi", _NAN), "age of information must be non-negative, got nan"),
    (voi.AttributeScores, dict(proximity=0.5, timeliness=0.5, quality=0.5),
     ("quality", 1.5), "quality score must be in [0, 1], got 1.5"),
    (voi.AttributeScores, dict(proximity=0.5, timeliness=0.5, quality=0.5),
     ("timeliness", _NAN), "timeliness score must be in [0, 1], got nan"),
    (voi.ApplicationProfile, dict(name="p", timeliness=0.2, proximity=0.3, quality=0.5),
     ("quality", 0.6), "weights sum to 1.1, expected 1"),
    (scheduler.PerceptionRecord, _RECORD,
     ("object_distance", -1.0), "object distance must be non-negative, got -1.0"),
    (scheduler.PerceptionRecord, _RECORD, *_BAD_MODE),
    (scheduler.PerceptionRecord, _RECORD,
     ("object_distance", _NAN), "object distance must be non-negative, got nan"),
    (scheduler.ReceiverView, dict(receiver_id="a", distance=1.0, scenario=voi.URBAN),
     ("distance", -1.0), "receiver distance must be non-negative, got -1.0"),
    (scheduler.ReceiverView, dict(receiver_id="a", distance=1.0, scenario=voi.URBAN),
     ("distance", _NAN), "receiver distance must be non-negative, got nan"),
    (scheduler.SchedulerConfig,
     dict(profile=voi.SAFETY, threshold=0.5, now=0.0, params=voi.DEFAULT_LOGISTIC),
     ("threshold", 1.5), "threshold must be in [0, 1], got 1.5"),
    (scheduler.SchedulerConfig,
     dict(profile=voi.SAFETY, threshold=0.5, now=0.0, params=voi.DEFAULT_LOGISTIC),
     ("threshold", _NAN), "threshold must be in [0, 1], got nan"),
    (sweep.SweepSeries, dict(zip(sweep.SweepSeries._fields, _SERIES)),
     ("label", "a,b\nc"), "field 'label' must not hold a comma, quote or line break, got \"a,b\\nc\""),
    (sweep.SweepSeries, dict(zip(sweep.SweepSeries._fields, _SERIES)), *_BAD_MODE),
    (sweep.SweepSeries, dict(zip(sweep.SweepSeries._fields, _SERIES)),
     ("aoi", _NAN), "aoi must be non-negative, got nan"),
    (sweep.SweepSeries, _SERIES_AT_ZERO,
     ("distance", -1.0), "distance must be non-negative, got -1.0"),
    (sweep.SweepSpec,
     dict(variable="distance", start=0.0, stop=10.0, step=1.0, series=(_SERIES,),
          obs_grid=None, name="custom", notes=()),
     ("step", 0.0), "step must be positive, got 0.0"),
    (sweep.SweepSpec,
     dict(variable="distance", start=0.0, stop=10.0, step=1.0, series=(_SERIES,),
          obs_grid=None, name="custom", notes=()),
     ("obs_grid", 0.0), "obs_grid must be positive, got 0.0"),
    (sweep.SweepSpec,
     dict(variable="distance", start=0.0, stop=10.0, step=1.0, series=(_SERIES,),
          obs_grid=None, name="custom", notes=()),
     ("step", -1.0), "step must be positive, got -1.0"),
    (sweep.SweepSpec,
     dict(variable="distance", start=0.0, stop=10.0, step=1.0, series=(_SERIES,),
          obs_grid=None, name="custom", notes=()),
     ("start", -1.0), "start must be non-negative, got -1.0"),
    (sweep.SweepSpec,
     dict(variable="distance", start=0.0, stop=10.0, step=1.0, series=(_SERIES,),
          obs_grid=None, name="custom", notes=()),
     ("obs_grid", _INF), "obs_grid must be finite, got inf"),
]


def case_ids(cases):
    """Each case's type name, numbered from the type's second case on."""
    names = [case[0].__name__ for case in cases]
    return [name + (f"-{names[:i].count(name) + 1}" if name in names[:i] else "")
            for i, name in enumerate(names)]


@pytest.mark.parametrize("cls, fields, bad, message", CASES, ids=case_ids(CASES))
def test_every_construction_path_runs_the_checks(cls, fields, bad, message):
    good = cls(**fields)
    assert cls(*fields.values()) == good == cls._make(fields.values())
    assert good._replace() == good and pickle.loads(pickle.dumps(good)) == good
    name, value = bad
    broken = dict(fields, **{name: value})
    for build in (
        lambda: cls(*broken.values()),
        lambda: cls(**broken),
        lambda: cls._make(broken.values()),
        lambda: good._replace(**{name: value}),
    ):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message
    with pytest.raises(AttributeError):
        setattr(good, name, value)


def test_the_range_rules_return_the_value_or_word_its_fault():
    for value in (0.0, -0.0, 2.5, float("inf")):
        assert non_negative("x", value) is value
    for value in (5e-324, 2.5, float("inf")):
        assert positive("x", value) is value
    for value in (0.0, -0.0, 1.0):
        assert unit_interval("x", value) is value
    for value in (-1, -1.7976931348623157e308, 1.7976931348623157e308):
        assert finite("x", value) is value
    for rule, word, bad in ((finite, "finite", (_INF, -_INF, _NAN)),
                            (non_negative, "non-negative", (-5e-324, -1.0, float("-inf"), _NAN)),
                            (positive, "positive", (0.0, -0.0, -1.0, _NAN)),
                            (unit_interval, "in [0, 1]", (_NAN, -5e-324, 1.0000000000000002))):
        for value in bad:
            with pytest.raises(ValueError) as info:
                rule("x", value)
            assert str(info.value) == f"x must be {word}, got {value}"


def test_the_membership_rule_returns_the_value_or_names_the_choices():
    choice = "b"
    assert one_of("x", choice, ("a", "b")) is choice
    with pytest.raises(ValueError) as info:
        one_of("x", "c", ("a", "b"))
    assert str(info.value) == "x must be one of ('a', 'b'), got 'c'"


def test_matrix_and_weights_are_stored_as_float_tuples():
    matrix = ahp.ComparisonMatrix(["a", "b"], [[1, 2], [0.5, 1]])
    for built in (matrix, matrix._replace(entries=[[1, 4], [0.25, 1]])):
        assert type(built.labels) is tuple and type(built.entries) is tuple
        assert all(type(row) is tuple and all(type(v) is float for v in row) for row in built.entries)
    assert matrix.entries == ((1.0, 2.0), (0.5, 1.0))
    solution = ahp.EigenSolution(2, [1, 0])
    assert solution.weights == (1.0, 0.0) and all(type(w) is float for w in solution.weights)


def test_derived_fields_are_not_arguments_and_follow_replace():
    sensor = voi.SensorModel(1.2, 70.0, 640.0)
    assert sensor.focal == voi.focal_distance(640.0, 70.0)
    with pytest.raises(TypeError):
        voi.SensorModel(1.2, 70.0, 640.0, focal=1.0)
    with pytest.raises(TypeError):
        voi.SensorModel._make(sensor)  # _make takes the arguments, not the derived field
    with pytest.raises(ValueError, match="focal"):
        sensor._replace(focal=1.0)
    assert sensor._replace(resolution=4096.0).focal == voi.SENSORS["high"].focal

    spec = sweep.figure_preset("fig2a")
    assert spec.points == 51 == len(spec.grid())
    with pytest.raises(TypeError):
        sweep.SweepSpec(**spec._asdict())
    with pytest.raises(ValueError, match="points"):
        spec._replace(points=3)
    finer = spec._replace(step=5.0)
    assert finer.points == 101 == len(finer.grid())


def test_equal_values_compare_and_hash_equal():
    again = voi.Scenario("urban", 24.0)
    assert again == voi.URBAN and hash(again) == hash(voi.URBAN)
    assert {voi.URBAN: "urban"}[again] == "urban"
    assert voi.SensorModel(1.2, 70.0, 1280.0) == voi.SENSORS["medium"]
    assert sweep.figure_preset("fig3a") == sweep.figure_preset("fig3a")
    assert len({sweep.figure_preset("fig4"), sweep.figure_preset("fig4")}) == 1


@pytest.mark.skipif(not hasattr(copy, "replace"), reason="copy.replace is new in Python 3.13")
def test_copy_replace_runs_the_checks_and_recomputes_derived_fields():
    assert copy.replace(voi.SENSORS["medium"], resolution=4096.0) == voi.SENSORS["high"]
    finer = copy.replace(sweep.figure_preset("fig2a"), step=5.0)
    assert finer.points == 101 == len(finer.grid())
    with pytest.raises(ValueError, match="focal"):
        copy.replace(voi.SENSORS["medium"], focal=1.0)
    for cls, fields, (name, value), message in CASES:
        with pytest.raises(ValueError) as info:
            copy.replace(cls(**fields), **{name: value})
        assert str(info.value) == message


# (type, its module, its fields in order, their defaults, an instance, the first line of its docstring)
RECORDS = [
    (ahp.ConsistencyReport, "voinet.ahp",
     ("consistency_index", "random_index", "consistency_ratio", "acceptable"), {},
     ahp.ConsistencyReport(0.01, 0.58, 0.0172, True),
     "Consistency check of an eigensolution against the random index; ``acceptable`` is a bool."),
    (scheduler.RankedEntry, "voinet.scheduler", ("record_id", "best_value", "best_receiver"), {},
     scheduler.RankedEntry("r1", 0.5, "rx1"),
     "One record's best value (a float) over the receivers and the receiver (its id) reaching it."),
    (config.ConfigDocument, "voinet.config", ("profiles", "scenarios", "sensors", "logistic", "threshold"),
     {"threshold": None}, config.ConfigDocument({}, {}, {}, voi.DEFAULT_LOGISTIC),
     "Resolved configuration: dicts from each name to its object, and a float threshold or None."),
]


@pytest.mark.parametrize("cls, module, fields, defaults, value, doc", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_the_plain_records_keep_their_contract(cls, module, fields, defaults, value, doc):
    assert cls._fields == fields and cls._field_defaults == defaults and cls.__module__ == module
    assert value[len(fields) - len(defaults):] == tuple(defaults.values())  # the instance left them unset
    assert not hasattr(value, "__dict__")
    for again in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert again == value and type(again) is cls
    changed = value._replace(**{fields[0]: 0.5})
    assert type(changed) is cls and changed[0] == 0.5 and changed[1:] == value[1:]
    assert cls.__doc__.splitlines()[0] == doc
