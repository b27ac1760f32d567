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
from .voi import BUILTIN_MATRICES, BUILTIN_SOLUTIONS, AssessmentContext, attribute_scores, temporal_from_decay

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


def build_parser() -> argparse.ArgumentParser:
    """The full command-line parser: every command, with its arguments and help."""
    parser = _Parser(prog="voinet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, func, either, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        group = p.add_mutually_exclusive_group(required=True) if either else p
        for i, (flag, keywords) in enumerate(options.items()):
            (group if i < either else p).add_argument(flag, **keywords)
    return parser


def _write(path: str, text: str) -> None:
    """text written as UTF-8 bytes to the file at path, as main writes stdout; an OSError names path."""
    try:
        data = text.encode()  # before open: text that cannot be encoded leaves no file
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        exc.filename = exc.filename or path  # a failed write or close names no file
        raise
    except ValueError as exc:  # a surrogate in text; in path, a null byte or what the filesystem cannot encode
        raise ValueError(f"{path!r}: {exc}") from None


def cmd_weights(args: argparse.Namespace) -> tuple[int, str]:
    if args.profile is not None:
        matrix = cfgmod.resolve_name(BUILTIN_MATRICES, args.profile, "comparison matrix")
        source, solution = args.profile, BUILTIN_SOLUTIONS[args.profile]
    else:
        matrix = cfgmod.load_matrix(args.matrix)
        source, solution = cfgmod.shown(args.matrix), ahp.principal_eigenvector(matrix)
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


COMMANDS = {  # name: (summary, function, n, {flag: add_argument keywords}); one of the first n flags is required
    "weights": ("derive priority weights", cmd_weights, 2, {
        "--profile": dict(help="built-in comparison matrix (safety, traffic)"),
        "--matrix": dict(help="JSON file with a pairwise comparison matrix")}),
    "assess": ("score a single context", cmd_assess, 0, {
        "--config": dict(help="JSON config file"),
        "--profile": dict(required=True),
        "--scenario": dict(default="urban"),
        "--sensor": dict(default="medium"),
        "--distance": dict(type=_finite_float, required=True),
        "--aoi": dict(type=_finite_float, default=0.0),
        "--ptd": dict(type=_finite_float, default=1.0, help="temporal decay rate (1/s)"),
        "--mode": dict(choices=sorted(cfgmod.MODE_ALIASES), default="processed"),
        "--obs-distance": dict(type=_finite_float)}),
    "sweep": ("evaluate a sweep and write CSV", cmd_sweep, 2, {
        "--figure": dict(help="preset name (see the presets command)"),
        "--spec": dict(help="JSON sweep spec file"),
        "--config": dict(help="JSON config file (names used by --spec)"),
        "--out": dict(help="output CSV path (default: <name>.csv)")}),
    "schedule": ("rank records and apply the threshold", cmd_schedule, 0, {
        "--config": dict(help="JSON config file"),
        "--records": dict(required=True, help="JSON-lines record file"),
        "--receivers": dict(required=True, help="JSON-lines receiver file"),
        "--profile": dict(required=True),
        "--threshold": dict(type=_finite_float),
        "--now": dict(type=_finite_float, help="evaluation instant (default: latest t0)"),
        "--out": dict(help="output CSV path (default: stdout)")}),
    "presets": ("list figure presets", cmd_presets, 0, {}),
}


def _parse_plain(name: str, argv: list[str]) -> argparse.Namespace | None:
    """argv, the arguments after command name, as argparse parses them, when argv is flags of name, each once
    and each followed by a value that argparse takes as it stands and accepts; else None, for argparse."""
    _, func, either, options = COMMANDS[name]
    given = dict(zip(argv[::2], argv[1::2]))
    if (len(given) * 2 != len(argv) or not given.keys() <= options.keys()
            or any(value[:1] == "-" for value in given.values())
            or either and len(given.keys() & list(options)[:either]) != 1
            or any(keywords.get("required") and flag not in given for flag, keywords in options.items())):
        return None
    args = argparse.Namespace(func=func)
    for flag, keywords in options.items():
        try:
            value = keywords.get("type", str)(given[flag]) if flag in given else keywords.get("default")
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if value not in keywords.get("choices", [value]):  # a default outside choices goes to argparse
            return None
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def parse_args(argv: list[str]) -> argparse.Namespace:
    """argv, parsed as the full tree parses it; the tree is built only when _parse_plain leaves argv to it:
    for help, a usage error, or a form such as an abbreviated flag or a value that starts with "-"."""
    args = argv and argv[0] in COMMANDS and _parse_plain(argv[0], argv[1:])
    return args or build_parser().parse_args(argv)


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
