"""Per-layer tracing from outside the program.

Each traced function is rebound where its caller looks it up: `cli` did
``from .scheduler import rank``, so the span wraps ``voinet.cli.rank``, not
``voinet.scheduler.rank``. Layer-boundary functions get spans (name, start,
end, parent); per-pair functions get count-only wrappers, which cost one
dict update per call. A target that a later refactor removes is reported
on stderr and its metric becomes null; the run goes on.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # may be dotted, as in "CurveSet.to_csv"
    metric: str
    spanned: bool  # False: count calls only
    tally: Callable[[Any], int] | None = None  # counts work in the result, under metric


SPAN_TARGETS = (
    Target("voinet.cli", "main", "cli.main", True),
    Target("voinet.config", "load_config", "config.load_config", True),
    Target("voinet.config", "load_records", "config.load_records", True, len),
    Target("voinet.config", "load_receivers", "config.load_receivers", True),
    Target("voinet.cli", "rank", "scheduler.rank", True),
    Target("voinet.cli", "filter_broadcast", "scheduler.filter_broadcast", True),
    Target("voinet.cli", "figure_preset", "sweep.figure_preset", True),
    Target("voinet.cli", "run_sweep", "sweep.run_sweep", True,
           lambda curves: len(curves.xs) * len(curves.curves)),
    Target("voinet.sweep", "CurveSet.to_csv", "sweep.to_csv", True),
    Target("voinet.ahp", "principal_eigenvector", "ahp.principal_eigenvector", True),
)
# `sweep` imported the attribute functions by name, so both bindings count.
COUNT_TARGETS = (Target("voinet.scheduler", "score_record", "scheduler.score_record", False),) + tuple(
    Target(module, name, f"voi.{name}", False)
    for name in ("proximity_voi", "timeliness_voi", "quality_voi_processed", "quality_voi_nonprocessed")
    for module in ("voinet.voi", "voinet.sweep")
)
TARGETS = SPAN_TARGETS + COUNT_TARGETS

# Per-layer metric -> (unit, the trace names it is computed from).
LAYER_METRICS = {
    "config.load_config_s": ("s", ("config.load_config",)),
    "config.load_records_s": ("s", ("config.load_records",)),
    "config.load_receivers_s": ("s", ("config.load_receivers",)),
    "config.records_per_s": ("1/s", ("config.load_records",)),
    "scheduler.rank_s": ("s", ("scheduler.rank",)),
    "scheduler.filter_broadcast_s": ("s", ("scheduler.filter_broadcast",)),
    "scheduler.score_record.calls": ("count", ("scheduler.score_record",)),
    "voi.proximity_voi.calls": ("count", ("voi.proximity_voi",)),
    "voi.timeliness_voi.calls": ("count", ("voi.timeliness_voi",)),
    "voi.quality_voi_processed.calls": ("count", ("voi.quality_voi_processed",)),
    "voi.quality_voi_nonprocessed.calls": ("count", ("voi.quality_voi_nonprocessed",)),
    "voi.pairs_per_record": ("ratio", ("voi.proximity_voi",)),
    "sweep.figure_preset_s": ("s", ("sweep.figure_preset",)),
    "sweep.run_sweep_s": ("s", ("sweep.run_sweep",)),
    "sweep.to_csv_s": ("s", ("sweep.to_csv",)),
    "sweep.points": ("count", ("sweep.run_sweep",)),
    "ahp.principal_eigenvector_s": ("s", ("ahp.principal_eigenvector",)),
    "ahp.principal_eigenvector.calls": ("count", ("ahp.principal_eigenvector",)),
    "cli.self_s": ("s", ("cli.main",)),
}


def _resolve(target: Target) -> tuple[Any, str, Any]:
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Installs the wrappers, keeps spans and counts in memory, restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or None, pass]
        self.counts: Counter[str] = Counter()  # since the current pass began
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._pass = 0
        self._first = 0  # index of the current pass's first span
        self._undo: list[tuple[Any, str, Any]] = []
        self._installed = False

    def install(self) -> None:
        present: set[str] = set()
        for target in TARGETS:
            try:
                owner, name, original = _resolve(target)
            except (ImportError, AttributeError):
                if not self._installed:
                    print(f"warning: trace target {target.module}.{target.attr} not found; "
                          f"{target.metric} may be null", file=sys.stderr)
                continue
            wrapper = self._span(target, original) if target.spanned else self._count(target, original)
            setattr(owner, name, wrapper)
            self._undo.append((owner, name, original))
            present.add(target.metric)
        self.missing = {t.metric for t in TARGETS} - present
        self._installed = True

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def begin_pass(self) -> None:
        self._pass += 1
        self._first = len(self.spans)
        self.counts.clear()

    def _span(self, target: Target, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append([target.metric, time.perf_counter(), None, parent, self._pass])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                stack.pop()
            counts[target.metric] += target.tally(result) if target.tally else 1
            return result

        return wrapper

    def _count(self, target: Target, fn: Callable) -> Callable:
        counts, metric = self.counts, target.metric

        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def pass_metrics(self, items: int) -> dict[str, float | None]:
        """Per-layer metrics of the current pass's spans and counts."""
        spans = list(enumerate(self.spans[self._first:], self._first))
        busy: Counter[str] = Counter()
        child_time: Counter[int] = Counter()
        for _, (name, start, end, parent, _) in spans:
            busy[name] += end - start
            if parent is not None:
                child_time[parent] += end - start
        cli_self = sum(end - start - child_time[i]
                       for i, (name, start, end, _, _) in spans if name == "cli.main")
        records = self.counts["config.load_records"]
        values = {
            "config.records_per_s": records / busy["config.load_records"] if records else 0.0,
            "voi.pairs_per_record": self.counts["voi.proximity_voi"] / items,
            "sweep.points": self.counts["sweep.run_sweep"],
            "cli.self_s": cli_self,
        }
        for metric, (_, sources) in LAYER_METRICS.items():
            if metric.endswith(".calls"):
                values[metric] = self.counts[sources[0]]
            elif metric not in values:
                values[metric] = float(busy[sources[0]])
        for metric, (_, sources) in LAYER_METRICS.items():
            if any(source in self.missing for source in sources):
                values[metric] = None
        return values

    def dump(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "pass": k}
                for n, s, e, p, k in self.spans]


def median_metrics(passes: list[dict[str, float | None]]) -> dict[str, float | None]:
    """Median of each metric over traced passes; null stays null, counts stay whole."""
    medians = {}
    for metric, (unit, _) in LAYER_METRICS.items():
        values = [p[metric] for p in passes]
        if values[0] is None:
            medians[metric] = None
        else:
            medians[metric] = (statistics.median_low if unit == "count" else statistics.median)(values)
    return medians
