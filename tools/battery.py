"""A byte battery for the voinet CLI: one line per case, the case name and a sha256.

Each case runs `python -m voinet.cli` in a fresh process on this checkout's src/,
in a new directory that holds only the case's input files. The sha256 covers the
exit code, stdout, stderr and every file in that directory afterwards, so two
checkouts print the same lines exactly when their commands behave the same, byte
for byte:

    python tools/battery.py > before.txt     # in the parent checkout
    python tools/battery.py > after.txt      # in the changed one
    diff before.txt after.txt

The cases: `schedule` on the benchmark's seeded fanout batch (seeds 1 and 2), every
figure preset's CSV, `weights`, `presets`, `assess`, custom configs, specs and
matrices, and one case per bad input. Not part of the test suite: it starts about
120 interpreters, one after another.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # the benchmark's seeded inputs

RECORD = {"id": "r1", "source": "v1", "t0": 0.0, "d_o": 50.0, "temporal": "variable", "sensor": "medium"}
RECEIVER = {"id": "rx1", "distance": 100.0, "scenario": "urban"}
SERIES = {"label": "p", "attribute": "proximity", "scenario": "urban"}
SPEC = {"name": "s", "variable": "distance", "start": 0, "stop": 100, "step": 10, "series": [SERIES]}
OVERALL = {"profile": "safety", "scenario": "urban", "temporal": "variable", "sensor": "medium", "aoi": 0.1}
CONFIG = {
    "profiles": {"mine": {"weights": {"timeliness": 0.2, "proximity": 0.5, "quality": 0.3}}},
    "scenarios": {"slow": {"kind": "urban", "v_max": 20.0}},
    "sensors": {"wide": {"resolution": 1920.0, "fov": 90.0}},
    "defaults": {"threshold": 0.5},
}
MATRIX = {"labels": ["a", "b", "c"], "matrix": [[1, 3, 5], [1 / 3, 1, 3], [1 / 5, 1 / 3, 1]]}
SCHEDULE = ["schedule", "--records", "r.jsonl", "--receivers", "v.jsonl", "--profile", "safety"]


def jsonl(*rows: object) -> str:
    return "".join(json.dumps(row) + "\n" for row in rows)


def changed(base: dict, **changes: object) -> dict:
    """base with changes applied; a key changed to None is dropped."""
    return {k: v for k, v in dict(base, **changes).items() if v is not None}


def record(**changes: object) -> dict:
    return changed(RECORD, **changes)


def schedule(records: str = jsonl(RECORD), receivers: str = jsonl(RECEIVER), *extra: str,
             **files: str | bytes) -> tuple[list[str], dict]:
    """A schedule case: argv and input files, with --threshold 0.5 unless extra sets it or a config."""
    threshold = [] if {"--config", "--threshold"} & set(extra) else ["--threshold", "0.5"]
    argv = SCHEDULE + list(extra) + threshold
    return argv, {"r.jsonl": records, "v.jsonl": receivers, **files}


def spec(**changes: object) -> tuple[list[str], dict]:
    return ["sweep", "--spec", "spec.json"], {"spec.json": json.dumps(changed(SPEC, **changes))}


def matrix(rows: object) -> tuple[list[str], dict]:
    return ["weights", "--matrix", "m.json"], {"m.json": json.dumps(rows)}


def fanout(seed: int, *extra: str) -> tuple[list[str], dict]:
    shape = workloads.SCHEDULES["fanout-1k-x100"]
    rng = random.Random(seed)  # drawn in the order bench/run.py draws them
    records, receivers = workloads.make_records(rng, shape.records), workloads.make_receivers(rng, shape)
    argv = workloads.schedule_argv(shape, Path("r.jsonl"), Path("v.jsonl")) + list(extra)
    return argv, {"r.jsonl": jsonl(*records), "v.jsonl": jsonl(*receivers)}


def cases() -> dict[str, tuple[list[str], dict]]:
    """Every case by name: (argv, {input file name: its text or bytes})."""
    good = {
        "fanout-seed1": fanout(1),
        "fanout-seed2": fanout(2),
        "fanout-seed1-out": fanout(1, "--out", "ranked.csv"),
        **{f"figure-{name}": (["sweep", "--figure", name], {}) for name in workloads.FIGURE_PRESETS},
        "figure-out": (["sweep", "--figure", "fig3a", "--out", "x.csv"], {}),
        "figure-out-line-break-path": (["sweep", "--figure", "fig3a", "--out", "o\nx.csv"], {}),
        "weights-safety": (["weights", "--profile", "safety"], {}),
        "weights-traffic": (["weights", "--profile", "traffic"], {}),
        "weights-matrix": matrix(MATRIX),
        "weights-rows": matrix(MATRIX["matrix"]),
        "weights-consistent-3x3": matrix([[1, 1, 0.2], [1, 1, 0.2], [5, 5, 1]]),
        "weights-matrix-line-break-path": (["weights", "--matrix", "m\nx.json"],
                                           {"m\nx.json": json.dumps(MATRIX)}),
        "presets": (["presets"], {}),
        "assess-default": (["assess", "--profile", "safety", "--distance", "100"], {}),
        "assess-nonprocessed": (["assess", "--profile", "traffic", "--distance", "40", "--aoi", "0.5",
                                 "--scenario", "highway", "--sensor", "high", "--mode", "nonprocessed",
                                 "--obs-distance", "120", "--ptd", "2"], {}),
        "assess-config": (["assess", "--config", "c.json", "--profile", "mine", "--scenario", "slow",
                           "--sensor", "wide", "--distance", "30"], {"c.json": json.dumps(CONFIG)}),
        "schedule-small": schedule(jsonl(RECORD, record(id="r2", d_o=5.0, mode="nonprocessed"),
                                         record(id="r3", temporal=0.5)),
                                   jsonl(RECEIVER, dict(RECEIVER, id="rx2", scenario="highway"))),
        "schedule-config": schedule(jsonl(record(sensor="wide")), jsonl(dict(RECEIVER, scenario="slow")),
                                    "--config", "c.json", **{"c.json": json.dumps(CONFIG)}),
        "schedule-config-redefines-medium": schedule(
            jsonl(RECORD, record(id="r2", temporal=0.5)), jsonl(RECEIVER), "--config", "c.json",
            **{"c.json": json.dumps({"sensors": {"medium": {"resolution": 4096.0, "fov": 90.0}},
                                     "defaults": {"threshold": 0.5}})}),
        "config-scenario-tiny-safety-distance": schedule(
            jsonl(RECORD), jsonl(dict(RECEIVER, scenario="s")), "--config", "c.json", **{"c.json": json.dumps({
                "scenarios": {"s": {"kind": "urban", "safety_distance": 5e-324}}, "defaults": {"threshold": 0.5}})}),
        "schedule-now": schedule(jsonl(RECORD), jsonl(RECEIVER), "--now", "2.5"),
        "schedule-bom-crlf": schedule("\ufeff" + jsonl(RECORD).replace("\n", "\r\n")),
        "schedule-empty-batch": schedule(""),
        "sweep-spec": spec(),
        "sweep-spec-overall": spec(series=[{"label": "o", "profile": "safety", "scenario": "urban",
                                            "temporal": "dynamic", "sensor": "low", "aoi": 0.2}],
                                   obs_grid=10),
        # Inputs a sweep holds fixed, in the shapes no figure preset has.
        "sweep-spec-aoi-overall": spec(variable="aoi", stop=5, step=0.5, obs_grid=10, series=[
            dict(OVERALL, label="safety", scenario="highway", aoi=None, distance=65),
            dict(OVERALL, label="traffic", profile="traffic", scenario="highway", aoi=None, distance=65),
            dict(OVERALL, label="own-obs", aoi=None, distance=65, obs_distance=20)]),
        "sweep-spec-quality-fixed-obs": spec(series=[
            {"label": "p", "attribute": "quality", "sensor": "low", "obs_distance": 120},
            {"label": "n", "attribute": "quality", "sensor": "medium", "scenario": "highway",
             "mode": "nonprocessed", "obs_distance": 80}]),
        "sweep-spec-aoi-quality-fixed-distance": spec(variable="aoi", stop=2, step=0.25, series=[
            {"label": "q", "attribute": "quality", "sensor": "high", "distance": 300},
            {"label": "p", "attribute": "proximity", "scenario": "urban", "distance": 30}]),
        "sweep-spec-timeliness-no-aoi": spec(series=[
            {"label": "t", "attribute": "timeliness", "temporal": "dynamic"},
            {"label": "u", "attribute": "timeliness", "temporal": 0.5, "aoi": 0.3}]),
        "sweep-spec-overall-no-obs-grid": spec(step=7, series=[
            dict(OVERALL, label="safety"), dict(OVERALL, label="traffic", profile="traffic"),
            dict(OVERALL, label="own-obs", obs_distance=25)]),
        "help": (["--help"], {}),
        "help-schedule": (["schedule", "--help"], {}),
    }
    bad = {
        "no-command": ([], {}),
        "unknown-command": (["frobnicate"], {}),
        "schedule-missing-records": (["schedule", "--receivers", "v.jsonl", "--profile", "safety"], {}),
        "threshold-above-1": schedule(jsonl(RECORD), jsonl(RECEIVER), "--threshold", "1.5"),
        "threshold-nan": schedule(jsonl(RECORD), jsonl(RECEIVER), "--threshold", "nan"),
        "now-before-t0": schedule(jsonl(record(t0=5.0)), jsonl(RECEIVER), "--now", "1"),
        "no-threshold": (SCHEDULE, {"r.jsonl": jsonl(RECORD), "v.jsonl": jsonl(RECEIVER)}),
        "unknown-profile": (["schedule", "--records", "r.jsonl", "--receivers", "v.jsonl",
                             "--profile", "nope", "--threshold", "0.5"],
                            {"r.jsonl": jsonl(RECORD), "v.jsonl": jsonl(RECEIVER)}),
        "assess-negative-distance": (["assess", "--profile", "safety", "--distance", "-1"], {}),
        "assess-bad-mode": (["assess", "--profile", "safety", "--distance", "1", "--mode", "raw"], {}),
        "weights-unknown-profile": (["weights", "--profile", "nope"], {}),
        "weights-both-sources": (["weights", "--profile", "safety", "--matrix", "m.json"], {}),
        "figure-unknown": (["sweep", "--figure", "nope"], {}),
        "records-missing-file": (SCHEDULE + ["--threshold", "0.5"], {"v.jsonl": jsonl(RECEIVER)}),
        "records-a-directory": schedule(jsonl(RECORD), jsonl(RECEIVER), "--records", "."),
        "records-invalid-json": schedule('{"id": "r1",\n'),
        "records-line-break-path": schedule(jsonl(RECORD), jsonl(RECEIVER), "--records", "a\nb.jsonl",
                                            **{"a\nb.jsonl": '{"id": "r1",\n'}),
        "records-not-an-object": schedule("[1, 2]\n"),
        "records-missing-d_o": schedule(jsonl(record(d_o=None))),
        "records-negative-d_o": schedule(jsonl(record(d_o=-1.0))),
        "records-nan-d_o": schedule('{"id": "r1", "source": "v", "t0": 0, "d_o": NaN, '
                                    '"temporal": "static", "sensor": "low"}\n'),
        "records-string-t0": schedule(jsonl(record(t0="0"))),
        "record-temporal-true-after-1": schedule(jsonl(record(temporal=1), record(id="r2", temporal=True))),
        "records-duplicate-id": schedule(jsonl(RECORD, record(id="r2"), record(id="r2"))),
        "records-unknown-sensor": schedule(jsonl(record(sensor="nope"))),
        "records-unknown-temporal": schedule(jsonl(record(temporal="nope"))),
        "records-negative-decay": schedule(jsonl(record(temporal=-1.0))),
        "records-bad-mode": schedule(jsonl(record(mode="raw"))),
        "records-csv-unsafe-id": schedule(jsonl(record(id="a,b"))),
        "records-bad-utf8": schedule(b'{"id": "caf\xe9", "source": "v"}\n'),
        "receivers-empty": schedule(jsonl(RECORD), ""),
        "receivers-negative-distance": schedule(jsonl(RECORD), jsonl(dict(RECEIVER, distance=-1.0))),
        "receivers-unknown-scenario": schedule(jsonl(RECORD), jsonl(dict(RECEIVER, scenario="moon"))),
        "receivers-duplicate-id": schedule(jsonl(RECORD), jsonl(RECEIVER, RECEIVER)),
        "receivers-csv-unsafe-id": schedule(jsonl(RECORD), jsonl(dict(RECEIVER, id='"q"'))),
        "config-invalid-json": schedule(jsonl(RECORD), jsonl(RECEIVER), "--config", "c.json",
                                        **{"c.json": "{"}),
        "config-weights-sum": schedule(jsonl(RECORD), jsonl(RECEIVER), "--config", "c.json", **{
            "c.json": json.dumps({"profiles": {"p": {"weights": {"timeliness": 0.3, "proximity": 0.5,
                                                                 "quality": 0.3}}}})}),
        "config-scenario-no-speed": schedule(jsonl(RECORD), jsonl(RECEIVER), "--config", "c.json",
                                             **{"c.json": json.dumps({"scenarios": {"s": {}}})}),
        "config-scenario-unknown-kind": schedule(jsonl(RECORD), jsonl(RECEIVER), "--config", "c.json", **{
            "c.json": json.dumps({"scenarios": {"s": {"kind": "sea", "v_max": 10}}})}),
        "config-scenario-negative-v_max-beside-safety-distance": schedule(
            jsonl(RECORD), jsonl(RECEIVER), "--config", "c.json", **{
                "c.json": json.dumps({"scenarios": {"s": {"kind": "urban", "v_max": -1, "safety_distance": 50}}})}),
        "config-scenario-missing-kind": schedule(jsonl(RECORD), jsonl(RECEIVER), "--config", "c.json",
                                                 **{"c.json": json.dumps({"scenarios": {"s": {"v_max": 10}}})}),
        "config-scenario-v_max-overflows": schedule(jsonl(RECORD), jsonl(RECEIVER), "--config", "c.json", **{
            "c.json": json.dumps({"scenarios": {"s": {"kind": "highway", "v_max": 1e308}}})}),
        "config-threshold-above-1": schedule(jsonl(RECORD), jsonl(RECEIVER), "--config", "c.json",
                                             **{"c.json": json.dumps({"defaults": {"threshold": 1.5}})}),
        "config-sensor-height-0": schedule(jsonl(RECORD), jsonl(RECEIVER), "--config", "c.json", **{
            "c.json": json.dumps({"sensors": {"x": {"height": 0, "resolution": 640}}})}),
        "config-logistic-unknown": schedule(jsonl(RECORD), jsonl(RECEIVER), "--config", "c.json", **{
            "c.json": json.dumps({"defaults": {"logistic": {"slope": 1}}})}),
        "config-logistic-negative-decay": schedule(jsonl(RECORD), jsonl(RECEIVER), "--config", "c.json", **{
            "c.json": json.dumps({"defaults": {"logistic": {"decay": -1}}})}),
        "config-logistic-upper-out-of-range": schedule(jsonl(RECORD), jsonl(RECEIVER), "--config", "c.json", **{
            "c.json": json.dumps({"defaults": {"logistic": {"upper": 1.5}}})}),
        "matrix-ragged": matrix([[1, 2, 3], [0.5, 1], [1 / 3, 1, 1]]),
        "matrix-off-scale": matrix([[1, 10], [0.1, 1]]),
        "matrix-not-reciprocal": matrix([[1, 2], [0.6, 1]]),
        "matrix-inconsistent": matrix([[1, 9, 1 / 9], [1 / 9, 1, 9], [9, 1 / 9, 1]]),
        "matrix-too-large": matrix([[1] * 11 for _ in range(11)]),
        "matrix-label-space": matrix({"labels": ["a b", "c"], "matrix": [[1, 2], [0.5, 1]]}),
        "matrix-not-numbers": matrix([[1, "2"], [0.5, 1]]),
        "matrix-line-break-path": (["weights", "--matrix", "m\nx.json"], {"m\nx.json": "[[1, 2], [0.5"}),
        "spec-missing-start": spec(start=None),
        "spec-step-0": spec(step=0),
        "spec-start-after-stop": spec(start=200),
        "spec-obs-grid-0": spec(obs_grid=0),
        "spec-unknown-variable": spec(variable="speed"),
        "spec-bad-attribute": spec(series=[dict(SERIES, attribute="colour")]),
        "spec-csv-unsafe-label": spec(series=[dict(SERIES, label="a,b")]),
        "spec-duplicate-labels": spec(series=[SERIES, SERIES]),
        "spec-too-many-points": spec(step=1e-9),
        "spec-null-in-name": spec(name="a\u0000b"),
        "spec-out-missing-dir": (["sweep", "--spec", "spec.json", "--out", "no/such/dir.csv"],
                                 {"spec.json": json.dumps(SPEC)}),
        "sweep-out-empty": (["sweep", "--figure", "fig2a", "--out", ""], {}),
        "schedule-out-empty": schedule(jsonl(RECORD), jsonl(RECEIVER), "--out", ""),
        # A lone surrogate, as a JSON escape, in each kind of text that stdout or a CSV prints.
        **{f"{where}-surrogate-{ord(char):x}": case
           for char in ("\ud800", "\udc80")
           for where, case in (
               ("records-id", schedule(jsonl(record(id=char)))),
               ("receivers-id", schedule(jsonl(RECORD), jsonl(dict(RECEIVER, id=char)))),
               ("spec-note", spec(notes=[char])),
               ("spec-label", spec(series=[dict(SERIES, label=char)])),
               ("matrix-label", matrix({"labels": ["a", char], "matrix": [[1, 2], [0.5, 1]]})),
           )},
    }
    return {**good, **{f"bad-{name}": case for name, case in bad.items()}}


def run_case(argv: list[str], files: dict, env: dict[str, str]) -> str:
    """sha256 of the exit code, stdout, stderr and every file in the case's directory after it ran."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, content in files.items():
            (work / name).write_bytes(content.encode("utf-8") if isinstance(content, str) else content)
        run = subprocess.run([sys.executable, "-m", "voinet.cli", *argv], cwd=work, env=env,
                             capture_output=True, timeout=120)
        parts = [str(run.returncode).encode(), run.stdout, run.stderr]
        for path in sorted(work.rglob("*")):
            if path.is_file():
                parts += [path.relative_to(work).as_posix().encode(), path.read_bytes()]
    h = hashlib.sha256()
    for part in parts:  # each length-prefixed, so that no two outcomes hash the same stream
        h.update(b"%d:%b" % (len(part), part))
    return h.hexdigest()


def main() -> int:
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for name, (argv, files) in cases().items():
        print(name, run_case(argv, files, env), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
