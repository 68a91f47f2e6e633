import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spin1chain

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib needs Python 3.11")
def test_declared_dependencies_are_importable():
    import tomllib

    with PYPROJECT.open("rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert dependencies
    for requirement in dependencies:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        assert importlib.util.find_spec(name.replace("-", "_")) is not None, requirement


def test_cli_import_leaves_optimizer_and_graph_modules_unloaded():
    # the optimizer serves swap_check alone and the block search is numpy
    # only, so neither belongs to the import cost of every CLI run
    src = str(Path(spin1chain.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import json, sys; import spin1chain.cli; "
            "print(json.dumps(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.optimize', 'scipy.sparse.csgraph')))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
