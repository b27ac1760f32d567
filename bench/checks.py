"""Output checks. Each returns a list of problems; an empty list passes.

The reference values come from the public library API (`voi.overall_voi`
on an `AssessmentContext`), the golden curves under `tests/data/curves/`,
the README's `weights` example and an independent numpy eigen solve,
never from the code path that produced the output.
"""

from __future__ import annotations

import math
import random
import re
from pathlib import Path

import numpy as np

from workloads import NOW, PROFILE

SCHEDULE_HEADER = "rank,record_id,best_receiver,best_value,decision"
SAMPLE = 64  # records whose best value is recomputed from the public API
GOLDEN_TOL = 1e-3  # the acceptance tolerance; never loosen it
GOLDEN = ("fig3a", "fig3b", "fig4", "fig5a", "fig5b", "fig6")
# Pairwise comparison matrices of the two built-in profiles, from the paper,
# ordered (timeliness, proximity, quality).
PAPER_MATRICES = {
    "safety": ((1, 1 / 7, 1), (7, 1, 5), (1, 1 / 5, 1)),
    "traffic": ((1, 9, 3), (1 / 9, 1, 1 / 7), (1 / 3, 7, 1)),
}
RANDOM_INDEX_3 = 0.58


def _context(voi, record: dict, receiver: dict):
    mode = voi.NON_PROCESSED if record["mode"] == "nonprocessed" else voi.PROCESSED
    return voi.AssessmentContext(
        distance=receiver["distance"],
        aoi=NOW - record["t0"],
        scenario=voi.SCENARIOS[receiver["scenario"]],
        temporal=voi.TEMPORAL_CLASSES[record["temporal"]],
        sensor=voi.SENSORS[record["sensor"]],
        mode=mode,
        obs_distance=record["d_o"],
    )


def check_schedule(text: str, records: list[dict], receivers: list[dict],
                   threshold: float, seed: int, voi) -> list[str]:
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != SCHEDULE_HEADER:
        return ["schedule: missing CSV header"]
    summary = re.fullmatch(r"transmit=(\d+) cancelled=(\d+)", lines[-1])
    if summary is None:
        return [f"schedule: bad summary line {lines[-1]!r}"]
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(row) != 5 for row in rows):
        return ["schedule: a row does not have 5 fields"]
    problems = []
    transmit, cancelled = int(summary[1]), int(summary[2])
    if transmit + cancelled != len(records):
        problems.append(f"transmit {transmit} + cancelled {cancelled} != {len(records)} records")
    if [row[0] for row in rows] != [str(i) for i in range(1, len(rows) + 1)]:
        problems.append("ranks do not run 1..N")
    by_id = {record["id"]: record for record in records}
    if sorted(row[1] for row in rows) != sorted(by_id):
        problems.append("record ids differ from the input")
    receiver_ids = {receiver["id"] for receiver in receivers}
    if any(row[2] not in receiver_ids for row in rows):
        problems.append("a best receiver is not an input receiver")
    values = [float(row[3]) for row in rows]
    if any(a < b for a, b in zip(values, values[1:])):
        problems.append("best_value increases down the ranking")
    decisions = [row[4] for row in rows]
    if decisions.count("transmit") != transmit or decisions.count("cancel") != cancelled:
        problems.append("summary counts disagree with the decisions")
    for value, decision in zip(values, decisions):
        # Printed values carry 6 significant digits; closer calls are settled
        # by the exact sample check below.
        if abs(value - threshold) > 1e-6 and decision != ("transmit" if value > threshold else "cancel"):
            problems.append(f"decision {decision} disagrees with value {value} at threshold {threshold}")
            break
    problems += _check_ties(rows, records)
    problems += _check_sample(rows, records, receivers, threshold, seed, voi)
    return problems


def _check_ties(rows: list[list[str]], records: list[dict]) -> list[str]:
    """Records identical but for their id tie exactly and must rank by id."""
    groups: dict[tuple, list[str]] = {}
    for record in records:
        key = tuple(sorted((k, v) for k, v in record.items() if k != "id"))
        groups.setdefault(key, []).append(record["id"])
    position = {row[1]: i for i, row in enumerate(rows)}
    for ids in groups.values():
        if len(ids) < 2:
            continue
        ranked = sorted(ids, key=position.__getitem__)
        if ranked != sorted(ids):
            return [f"exact tie {ranked} is not broken by id"]
        if len({(rows[position[i]][2], rows[position[i]][3]) for i in ids}) != 1:
            return [f"exact tie {ranked} got different receivers or values"]
    return []


def _check_sample(rows, records, receivers, threshold, seed, voi) -> list[str]:
    profile = voi.PROFILES[PROFILE]
    row_of = {row[1]: row for row in rows}
    sample = random.Random(seed).sample(records, min(SAMPLE, len(records)))
    for record in sample:
        best = max(voi.overall_voi(_context(voi, record, receiver), profile) for receiver in receivers)
        row = row_of.get(record["id"])
        if row is None:
            return [f"record {record['id']} missing from the output"]
        if row[3] != format(best, ".6g"):
            return [f"record {record['id']}: best_value {row[3]}, expected {best:.6g}"]
        if row[4] != ("transmit" if best >= threshold else "cancel"):
            return [f"record {record['id']}: {row[4]} at exact value {best!r}"]
    return []


def read_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def check_sweep(name: str, csv_text: str, stdout: str, root: Path) -> list[str]:
    header, rows = read_csv(csv_text)
    series = len(header) - 1
    if not stdout.startswith(f"wrote {len(rows)} rows x {series} series to "):
        return [f"{name}: stdout {stdout!r} disagrees with the CSV ({len(rows)} x {series})"]
    if any(not (0.0 <= v <= 1.0) for row in rows for v in row[1:]):
        return [f"{name}: a value lies outside [0, 1]"]
    if name not in GOLDEN:
        return []
    golden_header, golden_rows = read_csv((root / "tests/data/curves" / f"{name}.csv").read_text())
    if len(golden_rows) != len(rows) or set(golden_header) != set(header):
        return [f"{name}: shape or columns differ from the golden curves"]
    out_by_x = {row[0]: row for row in rows}
    for golden in golden_rows:
        row = out_by_x.get(golden[0])
        if row is None:
            return [f"{name}: no row at x={golden[0]}"]
        for column, want in zip(golden_header[1:], golden[1:]):
            got = row[header.index(column)]
            if not abs(got - want) <= GOLDEN_TOL:
                return [f"{name}: {column} at x={golden[0]} is {got}, golden {want}"]
    return []


def readme_weights(root: Path, profile: str) -> str | None:
    """The output the README shows for `voinet weights --profile <profile>`."""
    match = re.search(rf"\$ voinet weights --profile {profile}\n(.*?)```",
                      (root / "README.md").read_text(), re.S)
    return None if match is None else match[1]


def check_weights(profile: str, stdout: str, code: int, root: Path) -> list[str]:
    problems = []
    documented = readme_weights(root, profile)
    if documented is not None and stdout != documented:
        problems.append(f"weights {profile}: output differs from the README example")
    fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    try:
        weights = [float(part.split("=")[1]) for part in fields["weights"].split()]
        lambda_max = float(fields["lambda_max"])
        ratio = float(fields["consistency_ratio"])
    except (KeyError, IndexError, ValueError):
        return problems + [f"weights {profile}: unparseable output"]
    eigenvalues, eigenvectors = np.linalg.eig(np.array(PAPER_MATRICES[profile]))
    k = int(np.argmax(eigenvalues.real))
    vector = np.abs(eigenvectors[:, k].real)
    want_lambda = float(eigenvalues[k].real)
    want_ratio = (want_lambda - 3) / 2 / RANDOM_INDEX_3
    if any(not math.isclose(w, v, abs_tol=1e-6) for w, v in zip(weights, vector / vector.sum())):
        problems.append(f"weights {profile}: {weights} disagree with the eigen solve")
    if not math.isclose(lambda_max, want_lambda, abs_tol=1e-6) or not math.isclose(ratio, want_ratio, abs_tol=1e-6):
        problems.append(f"weights {profile}: lambda_max or consistency ratio disagree with the eigen solve")
    if code != (0 if want_ratio < 0.1 else 2):
        problems.append(f"weights {profile}: exit code {code}")
    return problems
