import hashlib
import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from voinet import sweep, voi
from conftest import DATA_DIR, load_curves

GOLDEN_FIGURES = ("fig3a", "fig3b", "fig4", "fig5a", "fig5b", "fig6")


@pytest.mark.parametrize("name", GOLDEN_FIGURES)
def test_presets_match_frozen_curves(name):
    xs, columns = load_curves(name)
    curves = sweep.run_sweep(sweep.figure_preset(name))
    assert list(curves.xs) == xs
    for label, reference in columns.items():
        mine = curves.values(label)
        worst = max(abs(a - b) for a, b in zip(mine, reference))
        assert worst < 1e-3, f"{label}: max deviation {worst}"


def test_fig5b_first_point_spot_value():
    curves = sweep.run_sweep(sweep.figure_preset("fig5b"))
    assert curves.xs[0] == 0.0
    assert curves.values("fig5b:urban:traffic:aoi1.0")[0] == pytest.approx(0.344468, abs=1e-3)


def test_grid_refinement_is_bitwise_stable():
    spec = sweep.figure_preset("fig3a")
    fine = sweep.run_sweep(spec._replace(step=spec.step / 2.0))
    coarse = sweep.run_sweep(spec)
    assert fine.xs[::2] == coarse.xs
    for series in spec.series:
        assert fine.values(series.label)[::2] == coarse.values(series.label)


def test_obs_grid_quantizes_the_observation_distance():
    curves = sweep.run_sweep(sweep.figure_preset("fig3a"))
    at_10 = curves.values("fig3a:urban:safety:processed")[1]
    ctx = voi.AssessmentContext(
        distance=10.0, aoi=0.1, scenario=voi.URBAN, temporal=voi.VARIABLE,
        sensor=voi.SENSORS["medium"], obs_distance=0.0,
    )
    assert at_10 == voi.overall_voi(ctx, voi.SAFETY)
    clean = ctx._replace(obs_distance=5.0)
    assert at_10 != voi.overall_voi(clean, voi.SAFETY)


def test_fig2a_is_the_proximity_conditional():
    curves = sweep.run_sweep(sweep.figure_preset("fig2a"))
    for kind, scenario in (("urban", voi.URBAN), ("highway", voi.HIGHWAY)):
        values = curves.values(f"fig2a:{kind}:-:proximity")
        for x, value in zip(curves.xs, values):
            assert value == voi.proximity_voi(x, scenario.safety_distance)
    urban = curves.values("fig2a:urban:-:proximity")
    highway = curves.values("fig2a:highway:-:proximity")
    assert all(u <= h for u, h in zip(urban, highway))


def test_fig2b_is_the_timeliness_conditional():
    curves = sweep.run_sweep(sweep.figure_preset("fig2b"))
    assert curves.xs[0] == 0.0 and curves.xs[-1] == pytest.approx(5.0)
    assert len(curves.xs) == 51
    assert set(curves.values("fig2b:-:-:static")) == {1.0}
    dynamic = curves.values("fig2b:-:-:dynamic")
    for x, value in zip(curves.xs, dynamic):
        assert value == pytest.approx(math.exp(-10.0 * x), abs=1e-12)


def test_fig2c_and_fig2d_sweep_the_observation_distance():
    processed = sweep.run_sweep(sweep.figure_preset("fig2c"))
    for name in ("low", "medium", "high"):
        values = processed.values(f"fig2c:-:-:{name}")
        for x, value in zip(processed.xs, values):
            assert value == voi.quality_voi_processed(x, voi.SENSORS[name])
    nonprocessed = sweep.run_sweep(sweep.figure_preset("fig2d"))
    for kind, scenario in (("urban", voi.URBAN), ("highway", voi.HIGHWAY)):
        values = nonprocessed.values(f"fig2d:{kind}:-:non_processed")
        for x, value in zip(nonprocessed.xs, values):
            assert value == voi.quality_voi_nonprocessed(x, voi.SENSORS["medium"], scenario)


def test_csv_output_format_and_determinism():
    curves = sweep.run_sweep(sweep.figure_preset("fig3a"))
    text = curves.to_csv()
    assert text == sweep.run_sweep(sweep.figure_preset("fig3a")).to_csv()
    lines = text.splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert "# sweep: fig3a" in comments
    assert "# variable: distance (m)" in comments
    assert "# obs-grid: 10" in comments
    assert any(l.startswith("# note: resolution pinned to 1280 px") for l in comments)
    header = next(l for l in lines if not l.startswith("#"))
    assert header.split(",")[0] == "x"
    assert len(header.split(",")) == 5
    rows = lines[lines.index(header) + 1 :]
    assert len(rows) == 51
    assert rows[0].split(",")[0] == "0"
    assert rows[-1].split(",")[0] == "500"
    for cell in rows[3].split(",")[1:]:
        assert float(cell) and len(cell.replace(".", "").lstrip("0")) <= 7


def test_preset_csv_headers_are_frozen():
    # Every comment line and the column line of each preset's CSV: labels,
    # series descriptions, obs-grid and notes.
    frozen = (DATA_DIR / "preset_headers.txt").read_text(encoding="utf-8").splitlines()
    mine = [
        line
        for name in sweep.preset_names()
        for line in sweep.run_sweep(sweep.figure_preset(name)).to_csv().splitlines()
        if line.startswith(("#", "x,"))
    ]
    assert mine == frozen


def test_a_series_line_prints_aoi_distance_and_obs_distance_in_field_order():
    # No preset sets all three, so preset_headers.txt does not pin their order.
    series = sweep.SweepSeries(
        "all", voi.SAFETY, voi.URBAN, voi.VARIABLE, voi.SENSORS["medium"],
        aoi=0.25, distance=120.0, obs_distance=37.5,
    )
    spec = sweep.SweepSpec(variable="distance", start=0.0, stop=20.0, step=10.0, series=(series,))
    assert sweep.run_sweep(spec).to_csv().splitlines()[3] == (
        "# series all: attribute=overall profile=safety scenario=urban temporal=variable decay=1 "
        "sensor=1280px mode=processed aoi=0.25 distance=120 obs_distance=37.5"
    )


def test_custom_overall_sweeps_match_the_scalar_score():
    # Three ways a custom overall sweep picks its context: the observation
    # distance derived as distance / 2 (no obs_grid), a fixed series
    # obs_distance, and an aoi sweep at a fixed distance.
    fixed = dict(scenario=voi.URBAN, temporal=voi.VARIABLE, sensor=voi.SENSORS["medium"])
    distance_spec = sweep.SweepSpec(
        variable="distance", start=0.0, stop=200.0, step=20.0,
        series=(
            sweep.SweepSeries(label="half", profile=voi.SAFETY, aoi=0.1, **fixed),
            sweep.SweepSeries(label="pinned", profile=voi.SAFETY, aoi=0.1, obs_distance=30.0, **fixed),
        ),
    )
    aoi_spec = sweep.SweepSpec(
        variable="aoi", start=0.0, stop=2.0, step=0.25,
        series=(sweep.SweepSeries(label="at80", profile=voi.SAFETY, distance=80.0, **fixed),),
    )
    # label -> the (distance, aoi, obs_distance) that grid point x stands for
    contexts = {
        "half": lambda x: (x, 0.1, x / 2.0),
        "pinned": lambda x: (x, 0.1, 30.0),
        "at80": lambda x: (80.0, x, 40.0),
    }
    for spec in (distance_spec, aoi_spec):
        curves = sweep.run_sweep(spec)
        for series in spec.series:
            for x, value in zip(curves.xs, curves.values(series.label)):
                distance, aoi, obs = contexts[series.label](x)
                ctx = voi.AssessmentContext(distance=distance, aoi=aoi, obs_distance=obs, **fixed)
                assert value == voi.overall_voi(ctx, voi.SAFETY), (series.label, x)
    half, pinned = (sweep.run_sweep(distance_spec).values(label) for label in ("half", "pinned"))
    assert half != pinned
    assert "mode=processed aoi=0.1 obs_distance=30\n" in sweep.run_sweep(distance_spec).to_csv()
    assert "mode=processed distance=80\n" in sweep.run_sweep(aoi_spec).to_csv()


def test_degenerate_grid_is_a_single_row():
    spec = sweep.figure_preset("fig3a")._replace(start=100.0, stop=100.0)
    curves = sweep.run_sweep(spec)
    assert curves.xs == (100.0,)
    assert len(curves.to_csv().splitlines()) == len(spec.series) + 7


def test_spec_validation():
    spec = sweep.figure_preset("fig3a")
    with pytest.raises(ValueError, match="step"):
        spec._replace(step=0.0)
    with pytest.raises(ValueError, match="exceeds"):
        spec._replace(start=10.0, stop=0.0)
    with pytest.raises(ValueError, match="variable"):
        spec._replace(variable="speed")
    with pytest.raises(ValueError, match="obs_grid"):
        spec._replace(obs_grid=-1.0)
    with pytest.raises(ValueError, match="unique"):
        spec._replace(series=spec.series + spec.series[:1])
    with pytest.raises(ValueError, match="at least one series"):
        spec._replace(series=())
    for name in ("start", "stop", "step"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                spec._replace(**{name: bad})
    with pytest.raises(ValueError, match="obs_grid"):
        spec._replace(obs_grid=float("inf"))
    # The cap is arithmetic only: a 10**12-point request builds nothing.
    with pytest.raises(ValueError, match="would have 1000000000001 points, more than 100000"):
        spec._replace(stop=1e9, step=1e-3)
    with pytest.raises(ValueError, match="would have inf points"):
        spec._replace(stop=1e300, step=1e-300)
    assert spec._replace(start=0.0, stop=sweep.MAX_GRID_POINTS - 1.0, step=1.0).points == sweep.MAX_GRID_POINTS
    with pytest.raises(ValueError, match="100001 points"):
        spec._replace(start=0.0, stop=float(sweep.MAX_GRID_POINTS), step=1.0)


def test_series_validation():
    with pytest.raises(ValueError, match="attribute"):
        sweep.SweepSeries(label="bad", attribute="speed")
    with pytest.raises(ValueError, match="needs profile"):
        sweep.SweepSeries(label="bad", attribute="overall", scenario=voi.URBAN,
                          temporal=voi.VARIABLE, sensor=voi.SENSORS["medium"])
    with pytest.raises(ValueError, match="needs scenario"):
        sweep.SweepSeries(label="bad", attribute="quality", sensor=voi.SENSORS["medium"],
                          mode=voi.NON_PROCESSED)
    with pytest.raises(ValueError, match="fixed aoi"):
        series = sweep.SweepSeries(
            label="s", profile=voi.SAFETY, scenario=voi.URBAN,
            temporal=voi.VARIABLE, sensor=voi.SENSORS["medium"],
        )
        sweep.SweepSpec(variable="distance", start=0.0, stop=10.0, step=1.0, series=(series,))
    # A label is a CSV column name and sits in a "# series" line, both unquoted.
    ok = sweep.SweepSeries(label="ok: a-b", attribute="proximity", scenario=voi.URBAN)
    for bad in ("a,b\nc", 'a"b', "a\rb", "a\nb", "a,b"):
        why = f"field 'label' must not hold a comma, quote or line break, got {json.dumps(bad)}"
        for build in (lambda: sweep.SweepSeries(bad, attribute="proximity", scenario=voi.URBAN),
                      lambda: ok._replace(label=bad)):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == why


def test_unknown_preset_lists_the_valid_names():
    with pytest.raises(ValueError, match="fig3a"):
        sweep.figure_preset("fig9z")
    assert sweep.preset_names() == (
        "fig2a", "fig2b", "fig2c", "fig2d", "fig3a", "fig3b", "fig4", "fig5a", "fig5b", "fig6",
    )


def test_unknown_series_label_raises():
    curves = sweep.run_sweep(sweep.figure_preset("fig2b"))
    with pytest.raises(KeyError, match="no series labeled"):
        curves.values("nope")


def test_logistic_params_flow_through_the_sweep():
    spec = sweep.figure_preset("fig2a")
    steep = sweep.run_sweep(spec, voi.LogisticParams(decay=0.3))
    default = sweep.run_sweep(spec)
    label = "fig2a:urban:-:proximity"
    assert steep.values(label)[20] < default.values(label)[20]


def test_preset_csvs_are_frozen():
    # sha256sum of each "voinet sweep --figure NAME" output file.
    lines = (DATA_DIR / "preset_csv_sha256.txt").read_text(encoding="utf-8").splitlines()
    frozen = {name: digest for digest, name in (line.split() for line in lines)}
    mine = {
        f"{name}.csv": hashlib.sha256(
            sweep.run_sweep(sweep.figure_preset(name)).to_csv().encode("utf-8")
        ).hexdigest()
        for name in sweep.preset_names()
    }
    assert mine == frozen


def scalar_value(spec, series, x, params):
    """What grid point x of a series is, from the scalar scores: the sweep's contract."""
    distance, aoi = (x, series.aoi) if spec.variable == "distance" else (series.distance, x)
    if series.attribute == "proximity":
        return voi.proximity_voi(distance, series.scenario.safety_distance, params)
    if series.attribute == "timeliness":
        return voi.timeliness_voi(0.0 if aoi is None else aoi, series.temporal)
    if series.attribute == "quality":
        obs = distance if series.obs_distance is None else series.obs_distance
        return voi.quality_voi(obs, series.sensor, series.scenario, series.mode)
    obs = series.obs_distance
    if obs is None and spec.obs_grid is not None and distance / (2.0 * spec.obs_grid) < math.inf:
        obs = spec.obs_grid * math.floor(distance / (2.0 * spec.obs_grid))
    ctx = voi.AssessmentContext(
        distance, aoi, series.scenario, series.temporal, series.sensor, series.mode, obs
    )
    return voi.overall_voi(ctx, series.profile, params)


SWEEP_PROFILES = (voi.SAFETY, voi.TRAFFIC, voi.ApplicationProfile("even", 0.25, 0.5, 0.25))
FIXED = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 0.1, 1.0, 12.5, 250.0]))


@st.composite
def sweep_specs(draw):
    """A spec whose series share contexts: an overall context under one to three profiles."""
    series = []
    for _ in range(draw(st.integers(1, 3))):
        context = dict(
            attribute=draw(st.sampled_from(sweep.ATTRIBUTE_CHOICES)),
            scenario=draw(st.sampled_from([voi.URBAN, voi.HIGHWAY])),
            temporal=draw(st.sampled_from([*voi.TEMPORAL_CLASSES.values(), voi.TemporalClass("x", 0.5)])),
            sensor=draw(st.sampled_from(list(voi.SENSORS.values()))),
            mode=draw(st.sampled_from(voi.MODES)),
            aoi=draw(FIXED), distance=draw(FIXED), obs_distance=draw(FIXED),
        )
        profiles = draw(st.lists(st.sampled_from(SWEEP_PROFILES), min_size=1, max_size=3))
        if context["attribute"] != "overall":
            profiles = [draw(st.sampled_from((None,) + SWEEP_PROFILES)) for _ in profiles]
        series += [dict(context, profile=profile) for profile in profiles]
    series = draw(st.permutations(series))
    start, step = draw(st.sampled_from([0.0, 0.5, 10.0])), draw(st.sampled_from([0.1, 7.0, 25.0]))
    try:
        return sweep.SweepSpec(
            variable=draw(st.sampled_from(sweep.VARIABLES)),
            start=start, stop=start + step * draw(st.integers(0, 12)), step=step,
            series=tuple(sweep.SweepSeries(f"s{i}", **fields) for i, fields in enumerate(series)),
            obs_grid=draw(st.sampled_from([None, 5.0, 10.0, 1e-320])),
        )
    except ValueError:  # a context that lacks a field its attribute or variable needs
        assume(False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=sweep_specs(), params=st.sampled_from([
    voi.DEFAULT_LOGISTIC, voi.LogisticParams(upper=0.9, lower=0.1), voi.LogisticParams(scale=1e300),
]))
def test_every_sweep_point_is_bitwise_the_scalar_score(spec, params):
    curves = sweep.run_sweep(spec, params)
    assert curves.xs == spec.grid()
    for series, curve in zip(spec.series, curves.curves):
        expected = [scalar_value(spec, series, x, params) for x in curves.xs]
        assert [value.hex() for value in curve] == [value.hex() for value in expected], series


def test_an_input_the_sweep_holds_fixed_is_scored_once(monkeypatch):
    calls = dict.fromkeys(("timeliness_voi", "proximity_voi", "quality_voi"), 0)
    for name in calls:
        def counted(*args, _name=name, _score=getattr(sweep, name)):
            calls[_name] += 1
            return _score(*args)
        monkeypatch.setattr(sweep, name, counted)
    # 51 distances, two contexts, each at a fixed age; obs_grid 10 snaps the 51 observation
    # distances to 26 runs of equal ones, each scored once
    sweep.run_sweep(sweep.figure_preset("fig3a"))
    assert calls == {"timeliness_voi": 2, "proximity_voi": 102, "quality_voi": 52}
    calls.update(dict.fromkeys(calls, 0))
    sweep.run_sweep(sweep.figure_preset("fig4"))  # two contexts on one scenario share proximity
    assert calls == {"timeliness_voi": 2, "proximity_voi": 51, "quality_voi": 52}
    calls.update(dict.fromkeys(calls, 0))
    sweep.run_sweep(sweep.SweepSpec("aoi", 0.0, 1.0, 0.1, (  # 11 ages
        sweep.SweepSeries("o", voi.SAFETY, voi.URBAN, voi.VARIABLE, voi.SENSORS["low"], distance=50.0),
        sweep.SweepSeries("p", attribute="proximity", scenario=voi.HIGHWAY, distance=50.0),
        sweep.SweepSeries("q", attribute="quality", sensor=voi.SENSORS["low"], obs_distance=20.0),
    )))
    assert calls == {"timeliness_voi": 11, "proximity_voi": 2, "quality_voi": 2}
    calls.update(dict.fromkeys(calls, 0))
    curves = sweep.run_sweep(sweep.SweepSpec("aoi", 0.0, 1.0, 0.5, tuple(  # one scenario, two fixed distances
        sweep.SweepSeries(f"p{d:g}", attribute="proximity", scenario=voi.URBAN, distance=d) for d in (10.0, 90.0)
    )))
    assert calls == {"timeliness_voi": 0, "proximity_voi": 2, "quality_voi": 0}
    assert curves.curves == tuple((voi.proximity_voi(d, voi.URBAN.safety_distance),) * 3 for d in (10.0, 90.0))
    assert curves.curves[0] != curves.curves[1]
