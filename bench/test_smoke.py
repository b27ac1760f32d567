"""The benchmark still runs: every workload at 50 records, checked and traced.

    python -m pytest bench
"""

import subprocess
import sys
from pathlib import Path


def test_smoke():
    run = Path(__file__).with_name("run.py")
    result = subprocess.run([sys.executable, str(run), "--smoke"],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-4000:]
    assert "check failed" not in result.stderr
