"""Threshold scheduling of perception records over candidate receivers.

A record's rank is set by its best value over the receivers. The overall
value separates as w_t*T(record) + w_p*P(receiver) + w_q*Q(record, scenario),
and with finite non-negative weights it never falls as P rises. So rank
scores P once per receiver, groups the receivers by scenario and sorts each
group by falling P; per record it scores T once and Q once per group, and
walks each group only while the value equals the group's first. The
result is bitwise the one score_record gives over every pair. The
scheduler is stateless: one config, one clock instant, and the same batch
always produce the same ordering.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from operator import attrgetter

from . import voi
from ._checked import Checked


class PerceptionRecord(Checked, namedtuple(
    "PerceptionRecord", "id source_vehicle generated_at object_distance temporal sensor mode",
)):
    """A sensed observation held by one vehicle, awaiting a send decision (an immutable tuple)."""

    __slots__ = ()

    def __new__(cls, id, source_vehicle, generated_at, object_distance, temporal, sensor, mode=voi.PROCESSED):
        if object_distance < 0:
            raise ValueError(f"object distance must be non-negative, got {object_distance}")
        voi.check_mode(mode)
        return tuple.__new__(cls, (id, source_vehicle, generated_at, object_distance, temporal, sensor, mode))


class ReceiverView(Checked, namedtuple("ReceiverView", "receiver_id distance scenario")):
    """A candidate receiver: its id, distance from the sender, and scenario."""

    __slots__ = ()

    def __new__(cls, receiver_id: str, distance: float, scenario: voi.Scenario) -> ReceiverView:
        if distance < 0:
            raise ValueError(f"receiver distance must be non-negative, got {distance}")
        return tuple.__new__(cls, (receiver_id, distance, scenario))


class SchedulerConfig(Checked, namedtuple("SchedulerConfig", "profile threshold now params")):
    """Profile, send threshold in [0, 1], and the evaluation instant."""

    __slots__ = ()

    def __new__(
        cls, profile: voi.ApplicationProfile, threshold: float, now: float,
        params: voi.LogisticParams = voi.DEFAULT_LOGISTIC,
    ) -> SchedulerConfig:
        if not (0.0 <= threshold <= 1.0):
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        return tuple.__new__(cls, (profile, threshold, now, params))


class RankedEntry(namedtuple("RankedEntry", "record_id best_value best_receiver")):
    """One record's best value (a float) over the receivers and the receiver (its id) reaching it.

    Among receivers of equal value the smallest receiver id wins.
    """

    __slots__ = ()


def _age(record: PerceptionRecord, now: float) -> float:
    aoi = now - record.generated_at
    if aoi < 0:
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
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        for item in ids:
            if item in seen:
                raise ValueError(f"duplicate {kind} id {item!r}")
            seen.add(item)


def _proximity_groups(
    receivers: Sequence[ReceiverView], cfg: SchedulerConfig
) -> list[tuple[voi.Scenario, list[tuple[float, str]]]]:
    """Receivers by scenario, each group as (P, receiver id) by falling P.

    Of receivers with equal P only the smallest id is kept, since it wins
    every tie among them.
    """
    groups: dict[voi.Scenario, list[tuple[float, str]]] = {}
    for view in receivers:
        p = voi.proximity_voi(view.distance, view.scenario.safety_distance, cfg.params)
        voi.check_score("proximity", p)
        groups.setdefault(view.scenario, []).append((p, view.receiver_id))
    result = []
    for scenario, members in groups.items():
        members.sort(key=lambda m: (-m[0], m[1]))
        distinct = [m for i, m in enumerate(members) if i == 0 or m[0] != members[i - 1][0]]
        result.append((scenario, distinct))
    return result


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
    groups = _proximity_groups(receivers, cfg)
    # Fields bound once: a namedtuple field read costs more than a local. The
    # sum is ApplicationProfile.overall's, term for term, so values stay
    # bitwise equal to score_record's.
    now = cfg.now
    w_t, w_p, w_q = cfg.profile.weights

    entries = []
    for record in records:
        t = voi.timeliness_voi(_age(record, now), record.temporal)
        voi.check_score("timeliness", t)
        best_value, best_receiver = -1.0, ""  # every value is >= 0
        for scenario, members in groups:
            q = voi.quality_voi(record.object_distance, record.sensor, scenario, record.mode)
            voi.check_score("quality", q)
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
    entries.sort()  # by record id, as ids are unique
    entries.sort(key=attrgetter("best_value"), reverse=True)  # stable: ties stay in id order
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
