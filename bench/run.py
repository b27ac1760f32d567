"""voinet benchmark: seeded workloads through the real CLI.

    python3 bench/run.py --workload fanout-1k-x100 --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --smoke

Run it from anywhere inside a voinet checkout; it imports the package from
the checkout's ``src/``. One closed-loop client: this process runs the
commands one after another, with no threads.

``--trace 0`` prints the end-to-end metrics. ``cold_s`` times the CLI
child processes from launch to exit; ``warm_s`` runs the same argument
lists through ``voinet.cli.main`` in this process after a warm-up pass;
``setup_s`` times a fresh process that imports ``voinet.cli`` and loads the
default config. ``--trace 1`` prints the per-layer metrics of traced warm
passes, spans from wrappers around each module's public functions (see
``tracing.py``), and writes the spans to ``.bench_out/``.

Every invocation is checked: the first cold pass against independent
references (``checks.py``), every later pass byte for byte against it.
The last stdout line is one JSON object; the exit code is 1 if a check
failed or the package cannot be imported.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = tuple(workloads.SCHEDULES) + ("figures",)

SETUP_CODE = "import voinet.cli, voinet.config; voinet.config.load_config(None)"
IMPORT_CODE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import voinet.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)

END_TO_END_UNITS = {
    "cold_s": "s", "warm_s": "s", "items_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
}


# voinet is not installed: children find it through PYTHONPATH, this process through sys.path.
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def import_error() -> str | None:
    """Why the package cannot be imported from src/, or None if it can."""
    probe = subprocess.run([sys.executable, "-c", "import voinet.cli"], env=ENV,
                           capture_output=True, text=True)
    if probe.returncode == 0:
        return None
    last = (probe.stderr.strip().splitlines() or ["no output"])[-1]
    return f"cannot import voinet.cli with PYTHONPATH={SRC} ({last}); run the benchmark inside a voinet checkout"


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    files: dict[str, bytes]


@dataclass
class Prepared:
    argvs: list[list[str]]
    items: int  # records decided, or curve points written
    check: Callable[[list[Outcome]], list[list[str]]]  # problems per invocation
    notes: str


def out_path(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def prepare(name: str, seed: int, work: Path, smoke: bool) -> Prepared:
    from voinet import voi

    if name == "figures":
        argvs = workloads.figure_argvs(work)

        def check_figures(outcomes: list[Outcome]) -> list[list[str]]:
            problems = []
            for argv, out in zip(argvs, outcomes):
                if argv[0] == "weights":
                    problems.append(checks.check_weights(argv[2], out.stdout, out.code, ROOT))
                elif out.code != 0:
                    problems.append([f"{' '.join(argv)}: exit code {out.code}"])
                else:
                    csv_text = out.files[out_path(argv)].decode()
                    problems.append(checks.check_sweep(argv[2], csv_text, out.stdout, ROOT))
            return problems

        return Prepared(argvs, workloads.FIGURE_POINTS, check_figures,
                        f"{len(argvs)} invocations, {workloads.FIGURE_POINTS} curve points")

    shape = workloads.SCHEDULES[name]
    if smoke:
        shape = dataclasses.replace(shape, records=workloads.SMOKE_RECORDS)
    rng = random.Random(seed)
    records = workloads.make_records(rng, shape.records)
    receivers = workloads.make_receivers(rng, shape)
    records_path, receivers_path = work / "records.jsonl", work / "receivers.jsonl"
    workloads.write_jsonl(records_path, records)
    workloads.write_jsonl(receivers_path, receivers)

    def check_schedule(outcomes: list[Outcome]) -> list[list[str]]:
        out = outcomes[0]
        if out.code != 0:
            return [[f"schedule: exit code {out.code}"]]
        return [checks.check_schedule(out.stdout, records, receivers, shape.threshold, seed, voi)]

    return Prepared([workloads.schedule_argv(shape, records_path, receivers_path)],
                    shape.records, check_schedule,
                    f"{shape.records} records x {shape.receivers} receivers, threshold {shape.threshold}")


def spawn(args: list[str], stdout_path: Path) -> tuple[int, float, int]:
    """Run a child to completion: exit code, wall seconds, peak RSS in KiB."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=subprocess.DEVNULL, env=ENV)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


class Runner:
    """Runs a prepared workload cold and warm and checks every invocation."""

    def __init__(self, prepared: Prepared, work: Path) -> None:
        import voinet.cli

        self.cli = voinet.cli
        self.prepared = prepared
        self.work = work
        self.reference: list[Outcome] | None = None
        self.passed: list[bool] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _files(self, argv: list[str]) -> dict[str, bytes]:
        path = out_path(argv)
        return {} if path is None else {path: Path(path).read_bytes()}

    def _record(self, outcomes: list[Outcome]) -> None:
        if self.reference is None:
            self.reference = outcomes
            per_invocation = self.prepared.check(outcomes)
            self.passed = [not problems for problems in per_invocation]
            self.problems += [p for problems in per_invocation for p in problems]
            oks = self.passed
        else:
            oks = [ok and out == ref for ok, out, ref in zip(self.passed, outcomes, self.reference)]
            if not all(oks) and all(self.passed):
                self.problems.append("output differs from the first cold pass")
        self.attempted += len(oks)
        self.failed += oks.count(False)

    def cold_pass(self) -> tuple[float, float]:
        """Wall seconds summed over the pass's processes, and their peak RSS in MB."""
        outcomes, wall, peak = [], 0.0, 0
        stdout_path = self.work / "stdout"
        for argv in self.prepared.argvs:
            code, seconds, rss = spawn([sys.executable, "-m", "voinet.cli", *argv], stdout_path)
            wall += seconds
            peak = max(peak, rss)
            outcomes.append(Outcome(code, stdout_path.read_text(), self._files(argv)))
        self._record(outcomes)
        return wall, peak / 1024

    def warm_pass(self) -> float:
        results, wall = [], 0.0
        for argv in self.prepared.argvs:
            stdout, stderr = io.StringIO(), io.StringIO()
            gc.collect()
            start = time.perf_counter()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = self.cli.main(list(argv))
            wall += time.perf_counter() - start
            results.append((code, stdout.getvalue(), argv))
        self._record([Outcome(code, text, self._files(argv)) for code, text, argv in results])
        return wall


def rounds(seconds: float):
    """Yield until another round, as long as the last, would overrun; at least once."""
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        yield
        end = time.perf_counter()
        if end + (end - start) > deadline:
            return


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    cold, rss, warm, setup = [], [], [], []
    for _ in rounds(seconds):
        wall, peak = runner.cold_pass()
        cold.append(wall)
        rss.append(peak)
        for _ in range(max(1, int(wall))):  # one set-up probe per second of cold time
            setup.append(spawn([sys.executable, "-c", SETUP_CODE], runner.work / "probe.out")[1])
        # Warm passes get half as long as the cold pass, and at least one pass.
        block_end = time.perf_counter() + wall / 2
        while True:
            warm.append(runner.warm_pass())
            if time.perf_counter() >= block_end:
                break
    warm_s = statistics.median(warm)
    print(f"# {len(cold)} cold passes, {len(warm)} warm passes, {len(setup)} setup probes", file=sys.stderr)
    return {
        "cold_s": statistics.median(cold),
        "warm_s": warm_s,
        "items_per_s": runner.prepared.items / warm_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }


def import_times(work: Path) -> tuple[float, float]:
    """Seconds to import numpy, then voinet.cli on top of it, in a fresh process."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=ENV, cwd=work,
                           capture_output=True, text=True, check=True)
    numpy_s, voinet_s = map(float, probe.stdout.split())
    return numpy_s, voinet_s


def per_layer(runner: Runner, seconds: float, trace_file: Path) -> dict[str, float | None]:
    tracer = tracing.Tracer()
    untraced, traced, passes, imports = [], [], [], []
    for _ in rounds(seconds):
        untraced.append(runner.warm_pass())
        tracer.install()
        tracer.begin_pass()
        try:
            traced.append(runner.warm_pass())
        finally:
            tracer.restore()
        passes.append(tracer.pass_metrics(runner.prepared.items))
        imports.append(import_times(runner.work))
    trace_file.parent.mkdir(exist_ok=True)
    trace_file.write_text(json.dumps(tracer.dump()) + "\n")
    print(f"# {len(passes)} traced and {len(untraced)} untraced warm passes; spans in {trace_file}",
          file=sys.stderr)
    metrics = tracing.median_metrics(passes)
    metrics["import.numpy_s"] = statistics.median([numpy_s for numpy_s, _ in imports])
    metrics["import.voinet_s"] = statistics.median([voinet_s for _, voinet_s in imports])
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(prepare(name, seed, work, smoke), work)
        runner.cold_pass()  # the checked reference; also fills the bytecode cache
        runner.warm_pass()  # warm-up
        summary = runner.reference[0].stdout.splitlines()[-1:] if name in workloads.SCHEDULES else []
        print(f"# {name} seed {seed}: {runner.prepared.notes}", *summary, file=sys.stderr)
        values: dict[str, float | None] = {}
        units = dict(END_TO_END_UNITS)
        if smoke or not trace:
            values |= end_to_end(runner, seconds)
        if smoke or trace:
            trace_file = ROOT / ".bench_out" / f"trace-{name}-seed{seed}.json"
            layers = per_layer(runner, seconds, trace_file)
            values |= layers
            units |= {metric: tracing.LAYER_METRICS.get(metric, ("s",))[0] for metric in layers}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for metric, value in values.items():
        print(f"{name} {metric} {value} {units[metric]}")
    print(f"{name} error_rate {runner.failed / runner.attempted} "
          f"({runner.failed} of {runner.attempted} invocations)")
    return {
        "correct": not runner.problems and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in values.items()},
    }


def smoke() -> bool:
    """Every workload at 50 records: checks, one timed round and one traced pass."""
    results = [run(name, seed=1, seconds=0, trace=True, smoke=True) for name in WORKLOADS]
    return all(result["correct"] for result in results)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at tiny sizes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    error = import_error()  # once, before any timing
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return 0 if smoke() else 1
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
