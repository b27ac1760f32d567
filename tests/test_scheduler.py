import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voinet import scheduler, voi


def make_record(rid="r1", d_o=50.0, t0=0.0, temporal=voi.VARIABLE, sensor=None, mode=voi.PROCESSED):
    return scheduler.PerceptionRecord(
        id=rid,
        source_vehicle="veh-1",
        generated_at=t0,
        object_distance=d_o,
        temporal=temporal,
        sensor=sensor or voi.SENSORS["medium"],
        mode=mode,
    )


def make_cfg(threshold=0.5, profile=voi.SAFETY, now=0.1):
    return scheduler.SchedulerConfig(profile=profile, threshold=threshold, now=now)


def urban_view(rid="rx1", d=100.0):
    return scheduler.ReceiverView(receiver_id=rid, distance=d, scenario=voi.URBAN)


def test_score_matches_reference_point():
    value = scheduler.score_record(make_record(d_o=50.0), urban_view(d=100.0), make_cfg())
    assert value == pytest.approx(0.523475, abs=1e-3)


def test_score_dynamic_reference_point():
    record = make_record(d_o=5.0, temporal=voi.DYNAMIC)
    value = scheduler.score_record(record, urban_view(d=10.0), make_cfg())
    assert value == pytest.approx(0.917210, abs=1e-3)


def test_score_at_all_maxima_is_the_weight_identity():
    record = make_record(d_o=0.0, temporal=voi.STATIC, t0=0.0)
    cfg = make_cfg(now=0.0)
    value = scheduler.score_record(record, urban_view(d=0.0), cfg)
    w = voi.SAFETY
    expected = w.timeliness + w.proximity * voi.proximity_voi(0.0, 24.0) + w.quality
    assert value == pytest.approx(expected, abs=1e-15)


def test_clock_skew_is_rejected():
    record = make_record(t0=5.0)
    with pytest.raises(ValueError, match="after the scheduler clock"):
        scheduler.score_record(record, urban_view(), make_cfg(now=4.0))
    # A NaN clock fails the same check, not a later score check.
    for score in (scheduler.score_record, lambda r, v, cfg: scheduler.rank([r], [v], cfg)):
        with pytest.raises(ValueError) as info:
            score(record, urban_view(), make_cfg(now=math.nan))
        assert str(info.value) == "record 'r1' was generated at 5.0, after the scheduler clock nan"


def test_rank_prefers_the_closest_receiver():
    records = [make_record("a"), make_record("b")]
    views = [urban_view("near", 50.0), urban_view("far", 300.0)]
    entries = scheduler.rank(records, views, make_cfg())
    assert [e.record_id for e in entries] == ["a", "b"]
    assert all(e.best_receiver == "near" for e in entries)
    for entry, record in zip(entries, records):
        near = scheduler.score_record(record, views[0], make_cfg())
        far = scheduler.score_record(record, views[1], make_cfg())
        assert entry.best_value == near > far


def test_rank_ties_break_on_record_id():
    records = [make_record("z"), make_record("m"), make_record("a")]
    entries = scheduler.rank(records, [urban_view()], make_cfg())
    assert [e.record_id for e in entries] == ["a", "m", "z"]


def test_equal_valued_receivers_pick_the_first_id():
    # Past 5 km every proximity score is the logistic lower limit, so a processed
    # record's value ties across scenario groups too.
    for views in ([urban_view("right", 80.0), urban_view("left", 80.0)],
                  [scheduler.ReceiverView("right", 6000.0, voi.URBAN),
                   scheduler.ReceiverView("left", 9000.0, voi.HIGHWAY)]):
        record = make_record()
        entries = scheduler.rank([record], views, make_cfg())
        assert entries[0].best_receiver == "left"
        assert entries[0].best_value == scheduler.score_record(record, views[0], make_cfg()) \
            == scheduler.score_record(record, views[1], make_cfg())


def test_rank_scores_quality_once_per_processed_record(monkeypatch):
    # A processed record's Q ignores the scenario, so it is scored once; a
    # non-processed record's Q is scored once per scenario group.
    calls = []
    quality_voi = voi.quality_voi
    monkeypatch.setattr(voi, "quality_voi", lambda *args: calls.append(args) or quality_voi(*args))
    records = [make_record(f"r{i}", d_o=10.0 * i, mode=voi.MODES[i % 2]) for i in range(6)]
    views = [scheduler.ReceiverView(f"v{j}", 30.0 * j, scenario)
             for j, scenario in enumerate([voi.URBAN, voi.HIGHWAY, TUNNEL, voi.URBAN])]
    scheduler.rank(records, views, make_cfg())
    counts = Counter(obs_distance for obs_distance, *_ in calls)  # each record has its own d_o
    assert [counts[r.object_distance] for r in records] == [1, 3] * 3


def test_rank_rejects_duplicates_and_empty_receivers():
    with pytest.raises(ValueError, match="duplicate record id 'dup'"):
        scheduler.rank([make_record("dup"), make_record("dup")], [urban_view()], make_cfg())
    with pytest.raises(ValueError, match=r"^duplicate record id 'dup'$"):  # not the first id
        scheduler.rank([make_record("a"), make_record("dup"), make_record("dup")], [urban_view()], make_cfg())
    with pytest.raises(ValueError, match="receiver"):
        scheduler.rank([make_record()], [], make_cfg())
    with pytest.raises(ValueError, match="duplicate receiver id 'x'"):
        scheduler.rank([make_record()], [urban_view("x", 10.0), urban_view("x", 90.0)], make_cfg())


def test_rank_keeps_the_per_pair_checks():
    with pytest.raises(ValueError, match="after the scheduler clock"):
        scheduler.rank([make_record(t0=5.0)], [urban_view()], make_cfg(now=4.0))
    # LogisticParams rejects upper=1.5 itself; built unchecked, it reaches proximity_voi's check.
    unchecked = tuple.__new__(voi.LogisticParams, (1.5, *voi.DEFAULT_LOGISTIC[1:]))
    cfg = scheduler.SchedulerConfig(profile=voi.SAFETY, threshold=0.5, now=0.1, params=unchecked)
    with pytest.raises(ValueError) as info:
        scheduler.rank([make_record()], [urban_view(d=0.0)], cfg)
    upper, lower, offset, scale, decay, shape = unchecked  # proximity_voi's curve at distance 0
    denominator = (offset + scale * math.exp(-decay * (0.0 - voi.URBAN.safety_distance))) ** (1.0 / shape)
    p = upper + (lower - upper) / denominator
    assert 1.49 < p < 1.5 and str(info.value) == f"proximity score must be in [0, 1], got {p}"
    # TemporalClass rejects a NaN decay itself; built unchecked, it reaches timeliness_voi's check.
    stale = make_record(temporal=tuple.__new__(voi.TemporalClass, ("broken", math.nan)))
    with pytest.raises(ValueError) as info:
        scheduler.rank([stale], [urban_view()], make_cfg())
    assert str(info.value) == "timeliness score must be in [0, 1], got nan"


def test_reference_batch_reconstructed_per_receiver():
    # One record per receiver distance, d_o = d/2, aoi = 0.1: the best
    # values land on the reference curve and split 2/1 at threshold 0.5.
    expected = {0.0: 0.985829, 100.0: 0.523475, 500.0: 0.211146}
    cfg = make_cfg(threshold=0.5)
    best = {}
    decisions = []
    for d, want in expected.items():
        entries = scheduler.rank(
            [make_record("r", d_o=d / 2.0)], [urban_view("v", d)], cfg
        )
        assert entries[0].best_value == pytest.approx(want, abs=1e-3)
        best[d] = entries[0].best_value
        transmit, cancelled = scheduler.filter_broadcast(entries, cfg)
        decisions.append((len(transmit), len(cancelled)))
    assert sorted(best.values(), reverse=True) == [best[0.0], best[100.0], best[500.0]]
    assert decisions == [(1, 0), (1, 0), (0, 1)]


def test_filter_boundaries():
    entries = scheduler.rank(
        [make_record("a"), make_record("b", d_o=2000.0)], [urban_view()], make_cfg()
    )
    everything, nothing = scheduler.filter_broadcast(entries, make_cfg(threshold=0.0))
    assert [e.record_id for e in everything] == ["a", "b"] and nothing == []
    nothing, everything = scheduler.filter_broadcast(entries, make_cfg(threshold=1.0))
    assert nothing == [] and [e.record_id for e in everything] == ["a", "b"]
    # A best value equal to the threshold reaches it, and transmits.
    top, rest = scheduler.filter_broadcast(entries, make_cfg(threshold=entries[0].best_value))
    assert [e.record_id for e in top] == ["a"] and [e.record_id for e in rest] == ["b"]


def test_filter_puts_every_entry_in_exactly_one_list():
    entries = [scheduler.RankedEntry("a", 0.9, "v"), scheduler.RankedEntry("b", float("nan"), "v")]
    transmit, cancelled = scheduler.filter_broadcast(entries, make_cfg(threshold=0.5))
    assert [e.record_id for e in transmit] == ["a"]
    assert [e.record_id for e in cancelled] == ["b"]


def test_records_and_entries_are_immutable_and_checked():
    record = make_record()
    entry = scheduler.RankedEntry(record_id="r1", best_value=0.5, best_receiver="rx1")
    for obj, field in ((record, "object_distance"), (record, "mode"), (entry, "best_value")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 1.0)
    with pytest.raises(AttributeError):
        record.extra = 1  # no instance dict either
    assert record == make_record() and record.mode == voi.PROCESSED  # the default
    with pytest.raises(ValueError, match=r"object distance must be non-negative, got -1\.0"):
        make_record(d_o=-1.0)
    with pytest.raises(ValueError, match="mode must be one of"):
        make_record(mode="raw")
    # _replace rebuilds through the same checks.
    assert record._replace(object_distance=3.0).object_distance == 3.0
    with pytest.raises(ValueError, match="object distance must be non-negative"):
        record._replace(object_distance=-2.0)


def test_threshold_validation():
    with pytest.raises(ValueError, match="threshold"):
        make_cfg(threshold=1.5)


def random_batch(rng, size):
    records = []
    for i in range(size):
        records.append(
            make_record(
                rid=f"r{i:03d}",
                d_o=rng.uniform(0.0, 600.0),
                t0=rng.uniform(-5.0, 0.0),
                temporal=rng.choice([voi.STATIC, voi.VARIABLE, voi.DYNAMIC]),
                sensor=rng.choice(list(voi.SENSORS.values())),
                mode=rng.choice(voi.MODES),
            )
        )
    views = [
        scheduler.ReceiverView(
            receiver_id=f"v{j}",
            distance=rng.uniform(0.0, 600.0),
            scenario=rng.choice([voi.URBAN, voi.HIGHWAY]),
        )
        for j in range(rng.randint(1, 5))
    ]
    return records, views


def test_rank_is_deterministic_and_permutation_invariant():
    rng = random.Random(7)
    for _ in range(25):
        records, views = random_batch(rng, rng.randint(2, 12))
        cfg = make_cfg(now=0.0)
        baseline = scheduler.rank(records, views, cfg)
        assert scheduler.rank(records, views, cfg) == baseline
        shuffled_records = records[:]
        rng.shuffle(shuffled_records)
        shuffled_views = views[:]
        rng.shuffle(shuffled_views)
        again = scheduler.rank(shuffled_records, shuffled_views, cfg)
        assert [e.record_id for e in again] == [e.record_id for e in baseline]
        assert [e.best_value for e in again] == [e.best_value for e in baseline]
        assert [e.best_receiver for e in again] == [e.best_receiver for e in baseline]


def test_adding_a_receiver_never_lowers_best_values():
    rng = random.Random(11)
    for _ in range(25):
        records, views = random_batch(rng, 6)
        cfg = make_cfg(now=0.0)
        before = {e.record_id: e.best_value for e in scheduler.rank(records, views, cfg)}
        extra = views + [urban_view("vnew", rng.uniform(0.0, 600.0))]
        after = {e.record_id: e.best_value for e in scheduler.rank(records, extra, cfg)}
        for rid, value in before.items():
            assert after[rid] >= value


def test_raising_the_threshold_only_shrinks_the_transmit_set():
    rng = random.Random(13)
    records, views = random_batch(rng, 20)
    entries = scheduler.rank(records, views, make_cfg(now=0.0))
    previous = None
    for theta in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        transmit, cancelled = scheduler.filter_broadcast(entries, make_cfg(threshold=theta, now=0.0))
        ids = {e.record_id for e in transmit}
        assert len(transmit) + len(cancelled) == len(entries)
        if previous is not None:
            assert ids <= previous
        previous = ids


TUNNEL = voi.Scenario("highway", 40.0)  # a third scenario group: HIGHWAY's kind, its own safety distance
# Shared distances put receivers of both scenarios at equal range; past
# 5 km every proximity score rounds to the logistic lower limit.
receiver_distances = st.one_of(
    st.sampled_from([0.0, 24.0, 80.0, 150.0]),
    st.floats(0.0, 600.0),
    st.floats(5000.0, 1e5),
)
record_attributes = st.tuples(
    st.one_of(st.sampled_from([0.0, 40.0]), st.floats(0.0, 700.0)),
    st.floats(0.0, 5.0),
    st.sampled_from([voi.STATIC, voi.VARIABLE, voi.DYNAMIC]),
    st.sampled_from(list(voi.SENSORS.values())),
    st.sampled_from(voi.MODES),
)


@st.composite
def batches(draw):
    # Each attribute tuple is cloned under several ids, so values tie exactly.
    groups = draw(st.lists(st.tuples(record_attributes, st.integers(1, 3)), min_size=1, max_size=6))
    records = [
        make_record(f"r{i}-{k}", d_o=d_o, t0=-age, temporal=temporal, sensor=sensor, mode=mode)
        for i, ((d_o, age, temporal, sensor, mode), copies) in enumerate(groups)
        for k in range(copies)
    ]
    placements = draw(st.lists(
        st.tuples(receiver_distances, st.sampled_from([voi.URBAN, voi.HIGHWAY, TUNNEL])),
        min_size=1, max_size=10,
    ))
    views = [scheduler.ReceiverView(f"v{j}", d, scenario) for j, (d, scenario) in enumerate(placements)]
    return records, views


def reference_rank(records, views, cfg):
    """score_record over every pair, best by (-value, id), then sorted."""
    best = []
    for record in records:
        value, receiver = min(
            ((scheduler.score_record(record, v, cfg), v.receiver_id) for v in views),
            key=lambda vr: (-vr[0], vr[1]),
        )
        best.append((record.id, value, receiver))
    return sorted(best, key=lambda e: (-e[1], e[0]))


# The "flat" profile weighs proximity 0, so distinct proximity scores tie.
@settings(max_examples=300, deadline=None)
@given(
    batch=batches(),
    profile=st.sampled_from([voi.SAFETY, voi.TRAFFIC, voi.ApplicationProfile("flat", 0.5, 0.0, 0.5)]),
    data=st.data(),
)
def test_rank_equals_the_per_pair_reference_bitwise(batch, profile, data):
    records, views = batch
    cfg = make_cfg(profile=profile, now=0.0)
    expected = [(rid, value.hex(), receiver) for rid, value, receiver in reference_rank(records, views, cfg)]
    shuffled = (data.draw(st.permutations(records)), data.draw(st.permutations(views)))
    for recs, vs in ((records, views), shuffled):
        got = [(e.record_id, e.best_value.hex(), e.best_receiver) for e in scheduler.rank(recs, vs, cfg)]
        assert got == expected
