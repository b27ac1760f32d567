"""Command-line front end.

Commands: weights (derive priority weights from a comparison matrix),
assess (score a single context), sweep (figure presets or custom sweep
specs to CSV), schedule (rank and filter a record batch), presets.

Exit codes: 0 success, 1 input error, 2 consistency rule failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import ahp, config as cfgmod
from .scheduler import SchedulerConfig, filter_broadcast, rank
from .sweep import figure_preset, preset_names, run_sweep
from .voi import BUILTIN_MATRICES, AssessmentContext, attribute_scores, temporal_from_decay

class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2; the contract reserves 2 for the
    # consistency rule, so argument errors must exit 1.
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def print_help(self, file=None) -> None:
        # argparse's own swallows a failed write (Python 3.11+); this lets main name <stdout>.
        (file or sys.stdout).write(self.format_help())


def _finite_float(text: str) -> float:
    """argparse type: a finite float; the value type that receives it checks its range."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _command(name: str, p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """p, given command name's function and arguments."""
    p.set_defaults(func=COMMANDS[name][1])
    if name == "weights":
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--profile", help="built-in comparison matrix (safety, traffic)")
        src.add_argument("--matrix", help="JSON file with a pairwise comparison matrix")
    elif name == "assess":
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--profile", required=True)
        p.add_argument("--scenario", default="urban")
        p.add_argument("--sensor", default="medium")
        p.add_argument("--distance", type=_finite_float, required=True)
        p.add_argument("--aoi", type=_finite_float, default=0.0)
        p.add_argument("--ptd", type=_finite_float, default=1.0, help="temporal decay rate (1/s)")
        p.add_argument("--mode", choices=sorted(cfgmod.MODE_ALIASES), default="processed")
        p.add_argument("--obs-distance", type=_finite_float, default=None)
    elif name == "sweep":
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--figure", help="preset name (see the presets command)")
        src.add_argument("--spec", help="JSON sweep spec file")
        p.add_argument("--config", help="JSON config file (names used by --spec)")
        p.add_argument("--out", help="output CSV path (default: <name>.csv)")
    elif name == "schedule":
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--records", required=True, help="JSON-lines record file")
        p.add_argument("--receivers", required=True, help="JSON-lines receiver file")
        p.add_argument("--profile", required=True)
        p.add_argument("--threshold", type=_finite_float, default=None)
        p.add_argument(
            "--now", type=_finite_float, default=None, help="evaluation instant (default: latest t0)"
        )
        p.add_argument("--out", help="output CSV path (default: stdout)")
    return p


def build_parser() -> argparse.ArgumentParser:
    """The full command-line parser: every command, with its arguments and help."""
    parser = _Parser(prog="voinet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _) in COMMANDS.items():
        _command(name, sub.add_parser(name, help=summary))
    return parser


def _write(path: str, text: str) -> None:
    """text written as UTF-8 to the file at path; an OSError names path, as open's own do."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        exc.filename = exc.filename or path  # a failed write or close names no file
        raise
    except ValueError as exc:  # path holds a null byte, or what the file system encoding cannot
        raise ValueError(f"{path!r}: {exc}") from None


def cmd_weights(args: argparse.Namespace) -> tuple[int, str]:
    if args.profile is not None:
        matrix = cfgmod.resolve_name(BUILTIN_MATRICES, args.profile, "comparison matrix")
        source = args.profile
    else:
        matrix = cfgmod.load_matrix(args.matrix)
        source = cfgmod.shown(args.matrix)

    solution = ahp.principal_eigenvector(matrix)
    report = cfgmod._at(source, ahp.consistency, solution)  # no random index for the size
    pairs = " ".join(f"{label}={w:.6f}" for label, w in zip(matrix.labels, solution.weights))
    return (0 if report.acceptable else 2), (
        f"matrix: {source} ({matrix.n}x{matrix.n})\n"
        f"weights: {pairs}\n"
        f"lambda_max: {solution.lambda_max:.6f}\n"
        f"consistency_index: {report.consistency_index:.6f}\n"
        f"random_index: {report.random_index:g}\n"
        f"consistency_ratio: {report.consistency_ratio:.6f}\n"
        f"acceptable: {'yes' if report.acceptable else 'no'}\n"
    )


def cmd_assess(args: argparse.Namespace) -> tuple[int, str]:
    cfg = cfgmod.load_config(args.config)
    ctx = AssessmentContext(
        distance=args.distance,
        aoi=args.aoi,
        scenario=cfgmod.resolve_name(cfg.scenarios, args.scenario, "scenario"),
        temporal=temporal_from_decay(args.ptd),
        sensor=cfgmod.resolve_name(cfg.sensors, args.sensor, "sensor"),
        mode=cfgmod.MODE_ALIASES[args.mode],  # argparse has checked it against choices
        obs_distance=args.obs_distance,
    )
    profile = cfgmod.resolve_name(cfg.profiles, args.profile, "profile")
    scores = attribute_scores(ctx, cfg.logistic)
    overall = profile.overall(scores.timeliness, scores.proximity, scores.quality)
    return 0, (
        f"overall={overall:.6f} proximity={scores.proximity:.6f} "
        f"timeliness={scores.timeliness:.6f} quality={scores.quality:.6f}\n"
    )


def cmd_sweep(args: argparse.Namespace) -> tuple[int, str]:
    cfg = cfgmod.load_config(args.config)
    if args.figure is not None:
        spec = figure_preset(args.figure)
    else:
        spec = cfgmod.load_sweep_spec(args.spec, cfg)
    curves = run_sweep(spec, cfg.logistic)
    out_path = args.out if args.out is not None else f"{spec.name}.csv"
    _write(out_path, curves.to_csv())
    return 0, f"wrote {len(curves.xs)} rows x {len(spec.series)} series to {cfgmod.shown(out_path)}\n"


def cmd_schedule(args: argparse.Namespace) -> tuple[int, str]:
    cfg = cfgmod.load_config(args.config)
    records = cfgmod.load_records(args.records, cfg)
    receivers = cfgmod.load_receivers(args.receivers, cfg)
    threshold = args.threshold if args.threshold is not None else cfg.threshold
    if threshold is None:
        raise ValueError("no threshold given; pass --threshold or set defaults.threshold in the config")
    now = args.now if args.now is not None else max((r.generated_at for r in records), default=0.0)
    sched_cfg = SchedulerConfig(
        profile=cfgmod.resolve_name(cfg.profiles, args.profile, "profile"),
        threshold=threshold,
        now=now,
        params=cfg.logistic,
    )
    # The readers reject repeated ids and an empty receivers file, so only a late record gets here.
    ranked = cfgmod._at(cfgmod.shown(args.records), rank, records, receivers, sched_cfg)
    transmit, cancelled = filter_broadcast(ranked, sched_cfg)
    sent = len(transmit)  # ranked falls in value, so transmit is its prefix

    lines = ["rank,record_id,best_receiver,best_value,decision"]
    for position, (record_id, best_value, best_receiver) in enumerate(ranked, 1):
        decision = "transmit" if position <= sent else "cancel"
        lines.append(f"{position},{record_id},{best_receiver},{best_value:.6g},{decision}")
    body = "\n".join(lines) + "\n"
    summary = f"transmit={len(transmit)} cancelled={len(cancelled)}\n"
    if args.out is not None:
        _write(args.out, body)
        return 0, summary
    return 0, body + summary


def cmd_presets(args: argparse.Namespace) -> tuple[int, str]:
    return 0, "".join(
        f"{spec.name}: {len(spec.series)} series over {spec.variable} "
        f"{spec.start:g}..{spec.stop:g} step {spec.step:g}\n"
        for spec in map(figure_preset, preset_names())
    )


COMMANDS = {  # name: (summary, function)
    "weights": ("derive priority weights", cmd_weights),
    "assess": ("score a single context", cmd_assess),
    "sweep": ("evaluate a sweep and write CSV", cmd_sweep),
    "schedule": ("rank records and apply the threshold", cmd_schedule),
    "presets": ("list figure presets", cmd_presets),
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    """argv, parsed as the full tree parses it, by the named command's parser alone.

    The full tree is built only when argv names no command, or when the command
    leaves arguments over: it then prints argparse's top-level help, usage or error.
    """
    if argv and argv[0] in COMMANDS:
        args, extra = _command(argv[0], _Parser(prog=f"voinet {argv[0]}")).parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = parse_args(argv)
        except SystemExit as exc:  # help, or a usage error already reported
            code = int(exc.code or 0)
        else:  # stdout's one write: UTF-8 whatever the locale
            code, text = args.func(args)
            if hasattr(sys.stdout, "buffer"):
                sys.stdout.flush()  # text a caller printed before main goes out first
                sys.stdout.buffer.write(text.encode())
            else:  # a text-only stream, such as io.StringIO
                sys.stdout.write(text)
        sys.stdout.flush()  # here, not at exit, so that a failed write is reported
        return code
    except (ValueError, OSError, RuntimeError) as exc:
        if isinstance(exc, OSError) and exc.filename is None:
            # Every file voinet opens names itself (config._read, _write), so this is stdout:
            # point it at os.devnull so that the flush at exit cannot fail again, as in
            # https://docs.python.org/3/library/signal.html#note-on-sigpipe.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            exc = f"<stdout>: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
