"""Threshold scheduling of perception records over candidate receivers.

A record's rank is set by its best value over the receivers. The overall
value separates as w_t*T(record) + w_p*P(receiver) + w_q*Q(record, scenario),
and with finite non-negative weights it never falls as P rises. So rank
scores P once per receiver and sorts the receivers by falling P, all merged
and per scenario group. Per record it scores T once. It scores Q once for a
processed record, whose Q ignores the scenario, and walks the merged list;
for a non-processed one it scores Q once per group and walks each group. A
walk goes on only while the value equals its first. The result is bitwise
the one score_record gives over every pair. The scheduler is stateless: one
config, one clock instant, and the same batch always produce the same
ordering.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from . import voi
from ._checked import Checked, non_negative, one_of, unit_interval


class PerceptionRecord(Checked, namedtuple(
    "PerceptionRecord", "id source_vehicle generated_at object_distance temporal sensor mode",
)):
    """A sensed observation held by one vehicle, awaiting a send decision (an immutable tuple)."""

    __slots__ = ()

    def __new__(cls, id, source_vehicle, generated_at, object_distance, temporal, sensor, mode=voi.PROCESSED):
        non_negative("object distance", object_distance)
        one_of("mode", mode, voi.MODES)
        return tuple.__new__(cls, (id, source_vehicle, generated_at, object_distance, temporal, sensor, mode))


class ReceiverView(Checked, namedtuple("ReceiverView", "receiver_id distance scenario")):
    """A candidate receiver: its id, distance from the sender, and scenario."""

    __slots__ = ()

    def __new__(cls, receiver_id: str, distance: float, scenario: voi.Scenario) -> ReceiverView:
        return tuple.__new__(cls, (receiver_id, non_negative("receiver distance", distance), scenario))


class SchedulerConfig(Checked, namedtuple("SchedulerConfig", "profile threshold now params")):
    """Profile, send threshold in [0, 1], and the evaluation instant."""

    __slots__ = ()

    def __new__(
        cls, profile: voi.ApplicationProfile, threshold: float, now: float,
        params: voi.LogisticParams = voi.DEFAULT_LOGISTIC,
    ) -> SchedulerConfig:
        return tuple.__new__(cls, (profile, unit_interval("threshold", threshold), now, params))


RankedEntry = namedtuple("RankedEntry", "record_id best_value best_receiver")
RankedEntry.__doc__ = """One record's best value (a float) over the receivers and the receiver (its id) reaching it.

Among receivers of equal value the smallest receiver id wins.
"""


def _age(record: PerceptionRecord, now: float) -> float:
    aoi = now - record.generated_at
    if not aoi >= 0:
        raise ValueError(
            f"record {record.id!r} was generated at {record.generated_at}, "
            f"after the scheduler clock {now}"
        )
    return aoi


def score_record(
    record: PerceptionRecord, view: ReceiverView, cfg: SchedulerConfig
) -> float:
    """Overall value of one record for one receiver at cfg.now.

    The scalar reference for rank, which must agree with it bitwise.
    """
    ctx = voi.AssessmentContext(
        distance=view.distance,
        aoi=_age(record, cfg.now),
        scenario=view.scenario,
        temporal=record.temporal,
        sensor=record.sensor,
        mode=record.mode,
        obs_distance=record.object_distance,
    )
    return voi.overall_voi(ctx, cfg.profile, cfg.params)


def _reject_duplicates(ids: Sequence[str], kind: str) -> None:
    seen: set[str] = set()
    for item in ids:
        if item in seen:
            raise ValueError(f"duplicate {kind} id {item!r}")
        seen.add(item)


def _proximity_groups(
    receivers: Sequence[ReceiverView], cfg: SchedulerConfig
) -> tuple[list[tuple[voi.Scenario, list[tuple[float, str]]]], list[tuple[float, str]]]:
    """Receivers by scenario, and all receivers merged, each as (P, receiver id) by falling P.

    Of receivers with equal P only the smallest id is kept, since it wins
    every tie among them.
    """
    scored = []
    for view in receivers:
        p = voi.proximity_voi(view.distance, view.scenario.safety_distance, cfg.params)
        scored.append((-p, view.receiver_id, view.scenario))
    scored.sort()  # by falling P, then id; ids are unique, so no scenarios are compared
    merged, groups = [], {}
    for minus_p, receiver_id, scenario in scored:
        for members in (merged, groups.setdefault(scenario, [])):
            if not members or members[-1][0] != -minus_p:
                members.append((-minus_p, receiver_id))
    return list(groups.items()), merged


def rank(
    records: Sequence[PerceptionRecord],
    receivers: Sequence[ReceiverView],
    cfg: SchedulerConfig,
) -> list[RankedEntry]:
    """Rank records by their best per-receiver value, descending.

    Ties break on record id, and the best receiver for a record is the
    lexicographically first among equal-valued ones, so the ordering is
    independent of input permutation.
    """
    if not receivers:
        raise ValueError("at least one receiver is required")
    _reject_duplicates([v.receiver_id for v in receivers], "receiver")
    _reject_duplicates([r.id for r in records], "record")
    groups, merged = _proximity_groups(receivers, cfg)
    merged_walk = ((groups[0][0], merged),)  # Q ignores the scenario in processed mode
    # Names bound once: a local reads faster than a field or a module attribute. The sum
    # is ApplicationProfile.overall's, term for term, so values stay bitwise score_record's.
    now, (w_t, w_p, w_q), processed = cfg.now, cfg.profile.weights, voi.PROCESSED
    timeliness_voi, quality_voi = voi.timeliness_voi, voi.quality_voi

    entries = []
    for record in records:
        t = timeliness_voi(_age(record, now), record.temporal)
        best_value, best_receiver = -1.0, ""  # every value is >= 0
        for scenario, members in merged_walk if record.mode == processed else groups:
            q = quality_voi(record.object_distance, record.sensor, scenario, record.mode)
            top = None
            for p, receiver_id in members:
                value = w_t * t + w_p * p + w_q * q
                if top is None:
                    top = value
                elif value != top:
                    break
                if value > best_value or (value == best_value and receiver_id < best_receiver):
                    best_value, best_receiver = value, receiver_id
        entries.append(RankedEntry(record.id, best_value, best_receiver))
    entries.sort(key=lambda e: (-e.best_value, e.record_id))  # ids are unique
    return entries


def filter_broadcast(
    entries: Sequence[RankedEntry], cfg: SchedulerConfig
) -> tuple[list[RankedEntry], list[RankedEntry]]:
    """Split a ranked batch into (transmit, cancelled) at the threshold.

    An entry transmits when its best value reaches cfg.threshold and is
    cancelled otherwise; both returned lists preserve the rank order.
    """
    threshold = cfg.threshold
    transmit = [e for e in entries if e.best_value >= threshold]
    cancelled = [e for e in entries if not e.best_value >= threshold]
    return transmit, cancelled
