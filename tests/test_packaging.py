import importlib.util
import re
import sys
from pathlib import Path

import pytest

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
