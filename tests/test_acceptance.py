"""Acceptance gate: one test per criterion, at the stated tolerance.

Each test prints a single "criterion N: PASS" line once its assertions
hold, so a verbose run reads as a checklist.
"""

import random

import numpy as np
import pytest

from voinet import ahp, scheduler, sweep, voi
from conftest import (
    ORACLE_SAFETY_WEIGHTS,
    SAFETY_ROWS,
    TRAFFIC_ROWS,
    oracle_eigen,
    run_main,
)

FIG3A_SAFETY = {0.0: 0.985829, 100.0: 0.523475, 300.0: 0.224267, 500.0: 0.211146}
FIG3A_TRAFFIC = {0.0: 0.937428, 100.0: 0.890689, 500.0: 0.816692}


def preset_column(name, label):
    curves = sweep.run_sweep(sweep.figure_preset(name))
    return dict(zip(curves.xs, curves.values(label)))


def test_criterion_1_ahp_weights():
    safety = ahp.principal_eigenvector(voi.BUILTIN_MATRICES["safety"])
    traffic = ahp.principal_eigenvector(voi.BUILTIN_MATRICES["traffic"])
    assert safety.weights == pytest.approx((0.1194, 0.7471, 0.1336), abs=1e-4)
    assert traffic.weights == pytest.approx((0.6554, 0.0549, 0.2897), abs=1e-4)
    # independent oracle: characteristic-cubic root + linear solve
    _, oracle_weights = oracle_eigen(SAFETY_ROWS)
    assert oracle_weights == pytest.approx((0.119389, 0.747055, 0.133559), abs=1e-4)
    assert safety.weights == pytest.approx(ORACLE_SAFETY_WEIGHTS, abs=1e-8)
    print("criterion 1: PASS - eigenvector weights within 1e-4 of the published roundings")


def test_criterion_2_consistency_rule():
    safety = ahp.principal_eigenvector(voi.BUILTIN_MATRICES["safety"])
    traffic = ahp.principal_eigenvector(voi.BUILTIN_MATRICES["traffic"])
    assert safety.lambda_max == pytest.approx(3.0126, abs=1e-3)
    assert traffic.lambda_max == pytest.approx(3.0803, abs=1e-3)
    safety_report = ahp.consistency(safety)
    traffic_report = ahp.consistency(traffic)
    assert safety_report.consistency_ratio == pytest.approx(0.0109, abs=1e-3)
    assert traffic_report.consistency_ratio == pytest.approx(0.069, abs=2e-3)
    assert safety_report.acceptable and traffic_report.acceptable
    print("criterion 2: PASS - both matrices satisfy the consistency rule")


def direct_overall(profile, d, mode=voi.PROCESSED, scenario=voi.URBAN):
    ctx = voi.AssessmentContext(
        distance=d, aoi=0.1, scenario=scenario, temporal=voi.VARIABLE,
        sensor=voi.SENSORS["medium"], mode=mode,
    )
    return voi.overall_voi(ctx, profile)


def test_criterion_3_fig3a_golden_points():
    safety = preset_column("fig3a", "fig3a:urban:safety:processed")
    traffic = preset_column("fig3a", "fig3a:urban:traffic:processed")
    for d, want in FIG3A_SAFETY.items():
        assert safety[d] == pytest.approx(want, abs=1e-3)
        assert direct_overall(voi.SAFETY, d) == pytest.approx(want, abs=1e-3)
    for d, want in FIG3A_TRAFFIC.items():
        assert traffic[d] == pytest.approx(want, abs=1e-3)
        assert direct_overall(voi.TRAFFIC, d) == pytest.approx(want, abs=1e-3)
    print("criterion 3: PASS - fig3a golden points within 1e-3")


def test_criterion_4_fig3b_golden_points():
    cases = [
        (voi.SAFETY, voi.URBAN, "fig3b:urban:safety:non_processed", 100.0, 0.471697),
        (voi.SAFETY, voi.HIGHWAY, "fig3b:highway:safety:non_processed", 200.0, 0.285382),
        (voi.TRAFFIC, voi.HIGHWAY, "fig3b:highway:traffic:non_processed", 300.0, 0.785019),
    ]
    for profile, scenario, label, d, want in cases:
        assert preset_column("fig3b", label)[d] == pytest.approx(want, abs=1e-3)
        direct = direct_overall(profile, d, mode=voi.NON_PROCESSED, scenario=scenario)
        assert direct == pytest.approx(want, abs=1e-3)
    print("criterion 4: PASS - fig3b golden points within 1e-3 (urban and highway LOS)")


def test_criterion_5_fig5_dynamic_observations():
    safety = preset_column("fig5b", "fig5b:urban:safety:aoi0.1")
    traffic = preset_column("fig5b", "fig5b:urban:traffic:aoi0.1")
    assert safety[10.0] == pytest.approx(0.917210, abs=1e-3)
    assert traffic[10.0] == pytest.approx(0.585198, abs=1e-3)
    print("criterion 5: PASS - dynamic observation points within 1e-3")


def test_criterion_6_fig6_sensor_quality():
    high = preset_column("fig6", "fig6:urban:safety:high")
    low = preset_column("fig6", "fig6:urban:safety:low")
    assert high[500.0] == pytest.approx(0.232075, abs=1e-3)
    assert low[500.0] == pytest.approx(0.180704, abs=1e-3)
    # gap measured on the unit VoI scale; relative to the high curve it
    # reaches 22% at d=500, so only the absolute bound can hold
    for profile in ("safety", "traffic"):
        hi = preset_column("fig6", f"fig6:urban:{profile}:high")
        lo = preset_column("fig6", f"fig6:urban:{profile}:low")
        for d in hi:
            assert 0.0 <= hi[d] - lo[d] < 0.15
    print("criterion 6: PASS - sensor-quality points within 1e-3, gap below 0.15 everywhere")


def test_criterion_7_directional_claims():
    processed = sweep.run_sweep(sweep.figure_preset("fig3a"))
    nonprocessed = sweep.run_sweep(sweep.figure_preset("fig3b"))
    for scenario in ("urban", "highway"):
        for profile in ("safety", "traffic"):
            p = processed.values(f"fig3a:{scenario}:{profile}:processed")
            np_ = nonprocessed.values(f"fig3b:{scenario}:{profile}:non_processed")
            assert all(b <= a + 1e-12 for a, b in zip(p, np_))
    urban = dict(zip(nonprocessed.xs, nonprocessed.values("fig3b:urban:traffic:non_processed")))
    highway = dict(zip(nonprocessed.xs, nonprocessed.values("fig3b:highway:traffic:non_processed")))
    gaps = [(highway[d] - urban[d]) / urban[d] for d in urban if d > 200.0]
    assert max(gaps) > 0.20
    print("criterion 7: PASS - non-processed is a lower bound; highway-urban gap exceeds 20%")


def test_criterion_8_property_suites():
    rng = random.Random(20260816)
    scenarios = [voi.URBAN, voi.HIGHWAY]
    temporals = [voi.STATIC, voi.VARIABLE, voi.DYNAMIC]
    sensors = list(voi.SENSORS.values())

    contexts = 0
    for _ in range(10_000):
        scenario = rng.choice(scenarios)
        sensor = rng.choice(sensors)
        temporal = rng.choice(temporals + [voi.TemporalClass("c", rng.uniform(0.0, 20.0))])
        d = rng.uniform(0.0, 1200.0)
        kw = dict(
            distance=d,
            aoi=rng.uniform(0.0, 20.0),
            scenario=scenario,
            temporal=temporal,
            sensor=sensor,
            mode=rng.choice(voi.MODES),
            obs_distance=rng.choice([None, rng.uniform(0.0, 3000.0)]),
        )
        ctx = voi.AssessmentContext(**kw)
        scores = voi.attribute_scores(ctx)
        for value in (scores.proximity, scores.timeliness, scores.quality):
            assert 0.0 <= value <= 1.0
        for profile in (voi.SAFETY, voi.TRAFFIC):
            assert 0.0 <= voi.overall_voi(ctx, profile) <= 1.0
        # clamping: quality vanishes past the focal range
        beyond = sensor.height * sensor.focal * (1.0 + rng.random())
        assert voi.quality_voi_processed(beyond, sensor) == 0.0
        # monotonicity in distance and age
        farther = voi.AssessmentContext(**{**kw, "distance": d + rng.uniform(0.0, 300.0)})
        assert voi.overall_voi(farther, voi.SAFETY) <= voi.overall_voi(ctx, voi.SAFETY) + 1e-12
        assert voi.timeliness_voi(ctx.aoi + 1.0, temporal) <= scores.timeliness
        contexts += 1
    assert contexts >= 10_000

    for _ in range(200):
        batch = [
            scheduler.PerceptionRecord(
                id=f"r{i:03d}",
                source_vehicle="v",
                generated_at=rng.uniform(-4.0, 0.0),
                object_distance=rng.uniform(0.0, 800.0),
                temporal=rng.choice(temporals),
                sensor=rng.choice(sensors),
                mode=rng.choice(voi.MODES),
            )
            for i in range(rng.randint(2, 10))
        ]
        views = [
            scheduler.ReceiverView(f"x{j}", rng.uniform(0.0, 700.0), rng.choice(scenarios))
            for j in range(rng.randint(1, 4))
        ]
        cfg = scheduler.SchedulerConfig(
            profile=rng.choice([voi.SAFETY, voi.TRAFFIC]), threshold=rng.random(), now=0.0,
        )
        ranked = scheduler.rank(batch, views, cfg)
        assert scheduler.rank(batch, views, cfg) == ranked
        shuffled = batch[:]
        rng.shuffle(shuffled)
        assert scheduler.rank(shuffled, views, cfg) == ranked
        lower = {e.record_id for e in scheduler.filter_broadcast(ranked, cfg)[0]}
        stricter = scheduler.SchedulerConfig(
            profile=cfg.profile, threshold=min(1.0, cfg.threshold + 0.2), now=0.0,
        )
        higher = {e.record_id for e in scheduler.filter_broadcast(ranked, stricter)[0]}
        assert higher <= lower

    matrices = 0
    saaty = [1.0 / k for k in range(2, 10)] + [float(k) for k in range(1, 10)]
    for _ in range(1000):
        n = rng.randint(3, 9)
        entries = [[1.0] * n for _ in range(n)]
        for j in range(n):
            for k in range(j + 1, n):
                value = rng.choice(saaty)
                entries[j][k] = value
                entries[k][j] = 1.0 / value
        matrix = ahp.ComparisonMatrix(tuple(f"c{i}" for i in range(n)), np.array(entries))
        for j in range(n):
            for k in range(n):
                assert matrix.entries[j][k] * matrix.entries[k][j] == pytest.approx(1.0, abs=1e-12)
        solution = ahp.principal_eigenvector(matrix)
        assert solution.lambda_max >= n - 1e-9
        matrices += 1
    assert matrices == 1000
    print("criterion 8: PASS - 10000 contexts, 200 scheduler batches, 1000 random matrices")


def test_criterion_9_cli_end_to_end(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_main("sweep", "--figure", "fig3a", "--out", str(first))[0] == 0
    assert run_main("sweep", "--figure", "fig3a", "--out", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()

    rows = [l.split(",") for l in first.read_text(encoding="utf-8").splitlines() if not l.startswith("#")]
    header, data = rows[0], rows[1:]
    by_x = {float(r[0]): r for r in data}
    safety_col = header.index("fig3a:urban:safety:processed")
    traffic_col = header.index("fig3a:urban:traffic:processed")
    for d, want in FIG3A_SAFETY.items():
        assert float(by_x[d][safety_col]) == pytest.approx(want, abs=1e-3)
    for d, want in FIG3A_TRAFFIC.items():
        assert float(by_x[d][traffic_col]) == pytest.approx(want, abs=1e-3)

    code, out, _ = run_main("weights", "--profile", "safety")
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("weights:"))
    values = dict(part.split("=") for part in line.removeprefix("weights: ").split())
    assert float(values["timeliness"]) == pytest.approx(0.1194, abs=1e-4)
    assert float(values["proximity"]) == pytest.approx(0.7471, abs=1e-4)
    assert float(values["quality"]) == pytest.approx(0.1336, abs=1e-4)
    code, out, _ = run_main("weights", "--profile", "traffic")
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("weights:"))
    values = dict(part.split("=") for part in line.removeprefix("weights: ").split())
    assert float(values["timeliness"]) == pytest.approx(0.6554, abs=1e-4)
    assert float(values["proximity"]) == pytest.approx(0.0549, abs=1e-4)
    assert float(values["quality"]) == pytest.approx(0.2897, abs=1e-4)
    print("criterion 9: PASS - CLI sweep is byte-deterministic and weights match")
