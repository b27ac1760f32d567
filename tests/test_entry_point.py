"""The CLI's checks that only a real voinet process can make.

Every test here starts its process through conftest's run_voinet, which runs
the voinet that pytest imported: src/ in the tier-1 run, and the installed
console script under `python -m pytest -o pythonpath= tests/test_entry_point.py`.
Each child turns an open() that names no encoding into an error.
"""

import errno
import hashlib
import json
import os
import re
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import voinet
from conftest import (
    DATA_DIR, FROM_SRC, SRC, base_record, process_env, run_voinet, schedule_files, voinet_command,
)

C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


def test_the_launcher_runs_the_voinet_this_process_imported():
    # A child on another copy of voinet would check code that this run never imported.
    probe = subprocess.run(
        [sys.executable, "-c", "import voinet; print(voinet.__file__)"],
        env=process_env(), capture_output=True, encoding="utf-8", check=True,
    )
    assert Path(probe.stdout.rstrip("\n")).resolve() == Path(voinet.__file__).resolve()
    if FROM_SRC:
        assert voinet_command() == [sys.executable, "-m", "voinet.cli"]
    else:
        assert voinet_command() == [os.path.join(sysconfig.get_path("scripts"), "voinet")]


@pytest.mark.parametrize("command", [
    "weights --profile safety", "assess --profile safety --distance 100 --aoi 0.1",
    "schedule --records records.jsonl --receivers receivers.jsonl --profile safety --threshold 0.5 --now 0.5",
], ids=lambda command: command.split()[0])
def test_the_readme_transcripts_are_what_the_cli_prints(tmp_path, command):
    readme = (SRC.parent / "README.md").read_text(encoding="utf-8")
    # schedule reads the README's JSON lines: its records block, then its receivers block.
    records, receivers = re.findall(r"```json\n(.*?)```", readme, re.S)
    (tmp_path / "records.jsonl").write_text(records, encoding="utf-8")
    (tmp_path / "receivers.jsonl").write_text(receivers, encoding="utf-8")
    readme = re.sub(r" \\\n +", " ", readme)  # join a command's continued lines
    shown = re.search(rf"```text\n\$ voinet {re.escape(command)}\n(.*?)```", readme, re.S)
    assert shown is not None, f"README shows no transcript of voinet {command}"
    run = run_voinet(command.split(), cwd=tmp_path, capture_output=True, encoding="utf-8")
    assert (run.returncode, run.stdout, run.stderr) == (0, shown[1], "")


def test_every_preset_that_sweep_writes_holds_the_frozen_bytes(tmp_path):
    lines = (DATA_DIR / "preset_csv_sha256.txt").read_text(encoding="utf-8").splitlines()
    frozen = {name: digest for digest, name in map(str.split, lines)}
    listing = run_voinet(["presets"], capture_output=True, encoding="utf-8", check=True)
    names = [line.partition(":")[0] for line in listing.stdout.splitlines()]
    assert sorted(f"{name}.csv" for name in names) == sorted(frozen)
    for name in names:
        path = tmp_path / f"{name}.csv"
        run = run_voinet(["sweep", "--figure", name, "--out", str(path)], capture_output=True)
        assert (run.returncode, run.stderr) == (0, b""), name
        assert hashlib.sha256(path.read_bytes()).hexdigest() == frozen[path.name], name


def test_files_are_read_and_written_as_utf8_under_the_c_locale(tmp_path):
    rec, rcv = schedule_files(tmp_path, [], [{"id": "ü", "distance": 50.0, "scenario": "urban"}])
    record = json.dumps(base_record("café", 10.0), ensure_ascii=False)  # raw UTF-8, not \u00e9
    Path(rec).write_text(record + "\n", encoding="utf-8")
    schedule = ["schedule", "--records", rec, "--receivers", rcv, "--profile", "safety",
                "--threshold", "0.5", "--now", "0"]
    out_path = tmp_path / "decisions.csv"
    for out in (["--out", str(out_path)], []):  # the CSV to a file, then to stdout
        run = run_voinet([*schedule, *out], env=C_LOCALE, capture_output=True)
        assert (run.returncode, run.stderr) == (0, b"")
        rows = (out_path.read_bytes() if out else run.stdout).splitlines()
        assert rows[1].startswith("1,café,ü,".encode("utf-8")) and rows[1].endswith(b",transmit")
    Path(rec).write_bytes(b'{"id": "a\xff"}\n')
    run = run_voinet(schedule, env=C_LOCALE, capture_output=True)
    assert (run.returncode, run.stdout) == (1, b"")
    assert run.stderr == f"error: {rec}:1: not UTF-8 text: invalid start byte at column 10\n".encode()
    # The file system encoding is ASCII here, so open() cannot name a sweep's "café.csv".
    spec = {"name": "café", "variable": "distance", "start": 0, "stop": 100, "step": 50,
            "series": [{"label": "p", "attribute": "proximity", "scenario": "urban"}]}
    (tmp_path / "spec.json").write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    run = run_voinet(["sweep", "--spec", "spec.json"], env=C_LOCALE, cwd=tmp_path, capture_output=True)
    assert (run.returncode, run.stdout) == (1, b"")
    assert run.stderr == (b"error: 'caf\\xe9.csv': 'ascii' codec can't encode character '\\xe9' "
                          b"in position 3: ordinal not in range(128)\n")
    assert not any(path.suffix == ".csv" and path != out_path for path in tmp_path.iterdir())


def test_stdout_does_not_depend_on_the_locale(tmp_path):
    # Every command writes its stdout, and its files, as UTF-8.
    matrix = {"labels": ["café", "b"], "matrix": [[1, 2], [0.5, 1]]}
    (tmp_path / "m.json").write_text(json.dumps(matrix, ensure_ascii=False), encoding="utf-8")
    spec = {"name": "s", "variable": "distance", "start": 0, "stop": 100, "step": 50,
            "series": [{"label": "prox·ü", "attribute": "proximity", "scenario": "urban"}]}
    (tmp_path / "spec.json").write_text(json.dumps(spec, ensure_ascii=False), encoding="utf-8")
    for argv, shows in (
        (["presets"], b"fig2a: 2 series over "),
        (["weights", "--profile", "safety"], b"acceptable: yes\n"),
        (["weights", "--matrix", "m.json"], "weights: café=0.666667 b=0.333333\n".encode("utf-8")),
        (["assess", "--profile", "safety", "--distance", "5"], b"overall="),
        (["sweep", "--spec", "spec.json"], b"wrote 3 rows x 1 series to s.csv\n"),
    ):
        runs = []
        for env in (C_LOCALE, {"LC_ALL": "C.UTF-8"}):
            run = run_voinet(argv, env=env, cwd=tmp_path, capture_output=True)
            csv = (tmp_path / "s.csv").read_bytes() if argv[0] == "sweep" else None
            runs.append((run.returncode, run.stdout, run.stderr, csv))
        assert runs[0] == runs[1], argv
        code, stdout, stderr, _ = runs[0]
        assert (code, stderr) == (0, b"") and shows in stdout, argv
    assert "x,prox·ü\n".encode("utf-8") in (tmp_path / "s.csv").read_bytes()


def test_text_a_caller_printed_before_main_comes_first():
    # A block-buffered pipe: the caller's text waits in sys.stdout while main writes bytes.
    code = "print('caller'); from voinet.cli import main; main(['presets'])"
    run = subprocess.run([sys.executable, "-c", code], env=process_env({"PYTHONUNBUFFERED": None}),
                         capture_output=True, check=True)
    assert run.stdout.startswith(b"caller\nfig2a: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_output_that_cannot_be_written_exits_1_and_names_its_sink(tmp_path, unbuffered):
    # A real process: with buffered stdout the last write happens in the flush at exit.
    rec, rcv = schedule_files(
        tmp_path, [base_record("r", 10.0)], [{"id": "a", "distance": 50.0, "scenario": "urban"}],
    )
    env = {"PYTHONUNBUFFERED": "1" if unbuffered else None}
    schedule = ["schedule", "--records", rec, "--receivers", rcv, "--profile", "safety",
                "--threshold", "0.5"]
    commands = [  # help too: argparse's own print_help swallows the error on Python 3.11+
        ["--help"], ["sweep", "--help"], ["presets"], ["weights", "--profile", "safety"],
        ["assess", "--profile", "safety", "--distance", "5"],
        ["sweep", "--figure", "fig3a", "--out", str(tmp_path / "fig3a.csv")], schedule,
    ]
    full = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    broken = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"
    read_end, pipe = os.pipe()
    os.close(read_end)  # before any child starts, so every write to the pipe fails
    with open("/dev/full", "wb") as dev_full:
        cases = [(argv, dev_full, f"<stdout>: {full}") for argv in commands]
        cases += [(argv, pipe, f"<stdout>: {broken}") for argv in commands]
        cases += [([*argv, "--out", "/dev/full"], subprocess.PIPE, f"{full}: '/dev/full'")
                  for argv in (["sweep", "--figure", "fig3a"], schedule)]
        try:
            for argv, stdout, message in cases:
                run = run_voinet(argv, env=env, stdout=stdout, stderr=subprocess.PIPE, encoding="utf-8")
                assert (run.returncode, run.stderr) == (1, f"error: {message}\n"), argv
        finally:
            os.close(pipe)
