import ast
import os
import subprocess
import sys
import types

import voinet
from conftest import SRC


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
        env=env, capture_output=True, encoding="utf-8", check=True,
    )
    assert probe.stdout.strip() == ""


def test_the_cli_imports_no_typing_in_a_clean_interpreter():
    # -S keeps site, and the .pth files some installs carry, from loading typing first.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, voinet.cli; print('typing' in sys.modules)"],
        env=env, capture_output=True, encoding="utf-8", check=True,
    )
    assert probe.stdout == "False\n"


def test_no_module_imports_a_name_it_never_reads():
    # Deleting a name's last use can leave its import behind; __init__.py imports to re-export.
    for path in sorted((SRC / "voinet").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.partition(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        } - {"annotations"}  # from __future__ import annotations
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert sorted(imported - read) == [], path.name
