"""Shared oracle, golden-file and process helpers.

The eigen oracle here deliberately avoids the package's power iteration:
for a 3x3 reciprocal comparison matrix the principal eigenvalue is the
root in (n, n+1) of the characteristic cubic, found by bisection, and
the eigenvector follows from a 2x2 linear solve. Frozen outputs below
were produced by this oracle before the implementation existed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import voinet
from voinet.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"
# Whether pytest imported voinet from this tree's src/ rather than from an install.
FROM_SRC = SRC in Path(voinet.__file__).resolve().parents
DATA_DIR = Path(__file__).parent / "data"

# JSON values that are not finite numbers; every numeric input field must
# reject each of them (json.dumps writes the floats as NaN / +-Infinity).
NOT_FINITE_NUMBERS = (True, "1", [1], float("nan"), float("inf"), float("-inf"))

# Rows ordered (timeliness, proximity, quality).
SAFETY_ROWS = (
    (1.0, 1.0 / 7.0, 1.0),
    (7.0, 1.0, 5.0),
    (1.0, 1.0 / 5.0, 1.0),
)
TRAFFIC_ROWS = (
    (1.0, 9.0, 3.0),
    (1.0 / 9.0, 1.0, 1.0 / 7.0),
    (1.0 / 3.0, 7.0, 1.0),
)

# Frozen oracle outputs (bisection tolerance 1e-14).
ORACLE_SAFETY_LAMBDA = 3.0125924771779644
ORACLE_SAFETY_WEIGHTS = (0.11938853460347487, 0.7470528319243156, 0.13355863347220948)
ORACLE_TRAFFIC_LAMBDA = 3.0802998437612841
ORACLE_TRAFFIC_WEIGHTS = (0.655355490660134, 0.0549003994681273, 0.28974410987173876)


def _det3(m) -> float:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _char_poly(m, lam: float) -> float:
    shifted = [
        [m[i][j] - (lam if i == j else 0.0) for j in range(3)] for i in range(3)
    ]
    return _det3(shifted)


def oracle_eigen(rows) -> tuple[float, tuple[float, float, float]]:
    """Principal eigenpair of a 3x3 reciprocal matrix, without iteration.

    The characteristic cubic of a unit-diagonal reciprocal matrix is
    -x^3 + 3x^2 + det(M), positive at 3 and negative at 4, so the
    principal eigenvalue is bracketed by (3, 4).
    """
    lo, hi = 3.0, 4.0
    assert _char_poly(rows, lo) > 0 >= _char_poly(rows, hi)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if _char_poly(rows, mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    lam = (lo + hi) / 2.0

    # (M - lam I) w = 0 with w3 := 1, solved from the first two rows.
    a, b = rows[0][0] - lam, rows[0][1]
    c, d = rows[1][0], rows[1][1] - lam
    r1, r2 = -rows[0][2], -rows[1][2]
    det = a * d - b * c
    w1 = (r1 * d - b * r2) / det
    w2 = (a * r2 - r1 * c) / det
    total = w1 + w2 + 1.0
    return lam, (w1 / total, w2 / total, 1.0 / total)


def load_curves(name: str):
    """Read a frozen curve file: (xs, {label: values})."""
    path = DATA_DIR / "curves" / f"{name}.csv"
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    xs = [float(r[0]) for r in body]
    columns = {
        label: [float(r[i]) for r in body] for i, label in enumerate(header) if i > 0
    }
    return xs, columns


def write_jsonl(path, objs):
    path.write_text("\n".join(json.dumps(o) for o in objs) + "\n", encoding="utf-8")


def base_record(rid, d_o, t0=0.0):
    return {"id": rid, "source": "v1", "t0": t0, "d_o": d_o, "temporal": "variable", "sensor": "medium"}


def schedule_files(tmp_path, records, receivers):
    rec_path = tmp_path / "records.jsonl"
    rcv_path = tmp_path / "receivers.jsonl"
    write_jsonl(rec_path, records)
    write_jsonl(rcv_path, receivers)
    return str(rec_path), str(rcv_path)


def run_main(*argv: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of voinet.cli.main(argv), run in this process.

    stdout has a byte buffer, as the console's has, so main writes it as it
    writes a terminal or a pipe; it must be UTF-8, and is decoded strictly.
    """
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline=""), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue()


def refusal(code: int, out: str, err: str) -> str:
    """The message of a run that refused its input: exit 1, no stdout, one stderr line, no traceback."""
    assert (code, out) == (1, ""), (code, out, err)
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    assert "Traceback" not in err
    return err[len("error: "):-1]


def voinet_command():
    """The command that starts the voinet this process imported.

    From src/ that is `python -m voinet.cli` in this interpreter; from an
    install, the console script installed beside this interpreter. A missing
    script fails the test: it never falls back to src/.
    """
    if FROM_SRC:
        return [sys.executable, "-m", "voinet.cli"]
    script = shutil.which("voinet", path=sysconfig.get_path("scripts"))
    assert script, f"no voinet console script in {sysconfig.get_path('scripts')}"
    return [script]


def process_env(env=None):
    """os.environ for a child, updated by env; a key that env maps to None is unset.

    From src/, src/ comes first on PYTHONPATH. Every child turns an open()
    that names no encoding into an error.
    """
    full = dict(os.environ, PYTHONWARNDEFAULTENCODING="1", PYTHONWARNINGS="error::EncodingWarning")
    if FROM_SRC:
        full["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    full.update(env or {})
    return {key: value for key, value in full.items() if value is not None}


def run_voinet(argv, env=None, **kwargs):
    """subprocess.run of voinet argv, through voinet_command() and process_env(env)."""
    return subprocess.run([*voinet_command(), *argv], env=process_env(env), **kwargs)
