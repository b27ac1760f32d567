"""Seeded inputs and command lines for the benchmark workloads.

Every input is drawn from ``random.Random(seed)``, so one seed fixes the
generated files byte for byte. The program under test sees only those
files and the command line.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

NOW = 10.0  # evaluation instant, passed as --now so the batch does not set it
PROFILE = "safety"
TEMPORALS = ("static", "variable", "dynamic")
SENSORS = ("low", "medium", "high")
# Share of records copied under a fresh id. A copy scores exactly like its
# original, so the output must order the pair by id: a real tie-break test.
CLONE_SHARE = 0.05

FIGURE_PRESETS = (
    "fig2a", "fig2b", "fig2c", "fig2d", "fig3a",
    "fig3b", "fig4", "fig5a", "fig5b", "fig6",
)
WEIGHT_PROFILES = ("safety", "traffic")
# Curve points the ten presets write: 51 grid points times the series count.
FIGURE_POINTS = 51 * (2 + 3 + 3 + 2 + 4 * 6)


@dataclass(frozen=True)
class Schedule:
    """A `schedule` batch: its size, its threshold and where receivers sit.

    Receiver i sits near ``nearest + i * spacing`` metres and alternates
    through ``scenarios``. Jitter is kept below the spacing, so the nearest
    receiver of each scenario, which decides most records, barely moves
    with the seed, and the threshold splits every seed's batch.
    """

    records: int
    receivers: int
    threshold: float
    scenarios: tuple[str, ...]
    nearest: float
    spacing: float


SCHEDULES = {
    "fanout-1k-x100": Schedule(1000, 100, 0.8, ("urban", "highway"), 90.0, 4.0),
    "ingest-40k-x1": Schedule(40000, 1, 0.7, ("highway",), 110.0, 4.0),
}
SMOKE_RECORDS = 50


def make_records(rng: random.Random, count: int) -> list[dict]:
    numbers = rng.sample(range(10 * count), count)  # distinct ids in no particular order
    records: list[dict] = []
    for number in numbers:
        record_id = f"obj-{number:07d}"
        if records and rng.random() < CLONE_SHARE:
            records.append(dict(rng.choice(records), id=record_id))
            continue
        records.append({
            "id": record_id,
            "source": f"car-{rng.randrange(64)}",
            "t0": NOW - rng.uniform(0.0, 2.0),
            "d_o": rng.uniform(0.0, 400.0),
            "temporal": rng.choice(TEMPORALS),
            "sensor": rng.choice(SENSORS),
            "mode": "nonprocessed" if rng.random() < 1 / 3 else "processed",
        })
    return records


def make_receivers(rng: random.Random, shape: Schedule) -> list[dict]:
    return [
        {
            "id": f"rx-{i:03d}",
            "distance": shape.nearest + i * shape.spacing + rng.uniform(0.0, shape.spacing / 2),
            "scenario": shape.scenarios[i % len(shape.scenarios)],
        }
        for i in range(shape.receivers)
    ]


def write_jsonl(path: Path, rows: list[dict]) -> None:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def schedule_argv(shape: Schedule, records: Path, receivers: Path) -> list[str]:
    return [
        "schedule", "--records", str(records), "--receivers", str(receivers),
        "--profile", PROFILE, "--threshold", repr(shape.threshold), "--now", repr(NOW),
    ]


def figure_argvs(out_dir: Path) -> list[list[str]]:
    sweeps = [["sweep", "--figure", name, "--out", str(out_dir / f"{name}.csv")]
              for name in FIGURE_PRESETS]
    return sweeps + [["weights", "--profile", name] for name in WEIGHT_PROFILES]
