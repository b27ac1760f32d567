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
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = subprocess.run(
        [sys.executable, "-c", "import voinet.cli, sys; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert probe.stdout.strip() == "False"
