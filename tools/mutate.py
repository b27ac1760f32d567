"""Mutation testing with the standard library: how many small faults do the tests catch?

Each mutant is the module with one change:
  - a comparison flipped: < and <=, > and >=, == and !=, is and is not, in and not in;
  - `and` swapped for `or`, or `or` for `and`;
  - a `not` dropped;
  - a `raise` or a `return` statement dropped (replaced by `pass`).

Every mutant runs the given tests with pytest -x on a copy of the repository, so the
working tree is never edited. A mutant is killed when the tests fail or time out, and
survives when they pass. Survivors are printed as path:line: change. Mutants left
when the time budget runs out are counted as not run.

    python tools/mutate.py src/voinet/cli.py --tests tests/test_cli.py --budget 600

Not part of the test suite: it runs the suite once per mutant, for minutes.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}


def _offset(lines: list[str], line: int, col: int) -> int:
    """The index in the joined source of line (1-based) and col (a UTF-8 byte offset)."""
    text = lines[line - 1]
    return sum(map(len, lines[: line - 1])) + len(text.encode("utf-8")[:col].decode("utf-8"))


def mutants(source: str) -> list[tuple[int, str, str]]:
    """(line, description, mutated source) for every mutation site in source."""
    lines = source.splitlines(keepends=True)
    found = []

    def splice(node: ast.AST, text: str, description: str) -> None:
        start = _offset(lines, node.lineno, node.col_offset)
        end = _offset(lines, node.end_lineno, node.end_col_offset)
        found.append((node.lineno, description, source[:start] + text + source[end:]))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                flipped = FLIPS[type(op)]()
                changed = ast.Compare(node.left, node.ops[:i] + [flipped] + node.ops[i + 1:],
                                      node.comparators)
                description = f"{ast.unparse(node)} -> {ast.unparse(changed)}"
                splice(node, f"({ast.unparse(changed)})", description)
        elif isinstance(node, ast.BoolOp):
            swapped = ast.Or() if isinstance(node.op, ast.And) else ast.And()
            old, new = ("and", "or") if isinstance(node.op, ast.And) else ("or", "and")
            splice(node, f"({ast.unparse(ast.BoolOp(swapped, node.values))})", f"{old} -> {new}")
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            splice(node, f"({ast.unparse(node.operand)})", "not dropped")
        elif isinstance(node, (ast.Raise, ast.Return)):
            splice(node, "pass", f"{'raise' if isinstance(node, ast.Raise) else 'return'} dropped")
    return sorted(found, key=lambda mutant: mutant[0])


def run_tests(copy: Path, tests: list[str], timeout: float | None) -> tuple[bool, float]:
    """(whether tests pass on copy, seconds taken); a run past timeout fails."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return run.returncode == 0, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="source file to mutate, relative to the repository root")
    parser.add_argument("--tests", nargs="+", default=["tests"], help="pytest arguments (default: tests)")
    parser.add_argument("--budget", type=float, default=1800.0, help="seconds for all mutants")
    args = parser.parse_args(argv)

    module = Path(args.module)
    found = mutants((ROOT / module).read_text(encoding="utf-8"))

    with tempfile.TemporaryDirectory(prefix="mutate-") as work:
        copy = Path(work) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_*"))
        passed, seconds = run_tests(copy, args.tests, timeout=None)
        if not passed:
            print(f"the tests fail on the unmutated tree: {' '.join(args.tests)}", file=sys.stderr)
            return 1
        timeout = 10 * seconds + 10
        deadline = time.monotonic() + args.budget
        killed, survivors = 0, []
        for line, description, source in found:
            if time.monotonic() > deadline:
                break
            (copy / module).write_text(source, encoding="utf-8")
            if run_tests(copy, args.tests, timeout)[0]:
                survivors.append(f"{module}:{line}: {description}")
                print(f"survived {survivors[-1]}", flush=True)
            else:
                killed += 1
    run = killed + len(survivors)
    print(f"{module}: {len(found)} mutants, {killed} killed, {len(survivors)} survived, "
          f"{len(found) - run} not run (budget {args.budget:g} s; baseline {seconds:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
