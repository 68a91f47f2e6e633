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


def loaded_modules(statements, prefix):
    """Modules starting with ``prefix`` loaded after running ``statements`` in a fresh process."""
    src = str(Path(spin1chain.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    code = (f"import json, sys; {statements}; "
            f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_import_loads_no_scipy():
    # scipy serves only the CSR build of chains longer than AUTO_DENSE_MAX,
    # so it is no part of the import cost of every CLI run
    assert loaded_modules("import spin1chain.cli", "scipy") == []


def test_swap_check_loads_no_optimizer():
    statements = ("import numpy as np; from spin1chain.hamiltonians import swap_check; "
                  "swap_check(np.eye(9))")
    assert loaded_modules(statements, "scipy.optimize") == []
