import os
import subprocess
import sys
import types
from pathlib import Path

import voinet

SRC = Path(__file__).resolve().parent.parent / "src"


def test_all_lists_every_public_name_once_and_no_modules():
    assert "__version__" in voinet.__all__
    assert len(set(voinet.__all__)) == len(voinet.__all__)
    for name in voinet.__all__:
        assert not isinstance(getattr(voinet, name), types.ModuleType), name


def test_the_cli_imports_no_numpy():
    # Each CLI run is one process, so its start-up is part of every command's time:
    # numpy, and dataclasses with the inspect it loads, cost tens of ms per process.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = subprocess.run(
        [sys.executable, "-c", "import sys; before = set(sys.modules); import voinet.cli; "
         "print(*sorted({'numpy', 'dataclasses', 'inspect'} & (set(sys.modules) - before)))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert probe.stdout.strip() == ""
