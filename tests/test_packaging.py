import ast
import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spin1chain
from spin1chain import cli

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
    # scipy is a test dependency only (the tests' references), so it is no
    # part of the import cost of a CLI run
    assert loaded_modules("import spin1chain.cli", "scipy") == []


def test_cli_import_loads_no_fractions_or_decimal():
    # the CSV kernel builds its power-of-ten table from ints, so neither module
    # adds to the import time of a CLI run
    assert loaded_modules("import spin1chain.cli", "fractions") == []
    assert loaded_modules("import spin1chain.cli", "decimal") == []


# every subcommand, run from a directory holding chain.json; the full-space
# transfer builds, solves and scans a seven-site chain
CLI_RUNS = [
    ["spectra", "--format", "json", "--output-dir", "out"],
    ["swap-check"],
    ["transfer", "--preset-n", "7", "--source", "1000000", "--target", "0000001",
     "--t-max", "pi", "--dt", "0.1", "--output-dir", "out", "--tag", "full"],
    ["transfer", "--preset-n", "4", "--channel", "up", "--t-max", "pi", "--dt", "0.1",
     "--output-dir", "out", "--tag", "channel"],
    ["pst-check", "--n", "4", "--scan", "--t-max", "pi", "--dt", "0.1", "--output-dir", "out"],
    ["tomography", "--preset-n", "3", "--emit-records", "--output-dir", "out", "--tag", "emit"],
    ["tomography", "--record-up", "out/emit_record_up.csv", "--record-down",
     "out/emit_record_down.csv", "--order", "3", "--output-dir", "out", "--tag", "files"],
    ["validate", "--spec", "chain.json"],
]

NO_SCIPY_CHILD = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy now fails
from spin1chain.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_cli_runs_without_scipy(tmp_path, monkeypatch):
    spec = json.dumps(spin1chain.pst_preset(3).to_json_dict())
    for side in ("blocked", "present"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "chain.json").write_text(spec)
    src = str(Path(spin1chain.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get(
        "PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD, json.dumps(CLI_RUNS)],
                          capture_output=True, text=True, env=env, cwd=tmp_path / "blocked",
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    blocked = json.loads(proc.stdout.splitlines()[-1])
    monkeypatch.chdir(tmp_path / "present")
    present = [cli.main(argv) for argv in CLI_RUNS]
    assert blocked == present == [0] * len(CLI_RUNS)
    blocked, present = ({p.name: p.read_bytes() for p in (tmp_path / side / "out").iterdir()}
                        for side in ("blocked", "present"))
    assert blocked == present and len(present) > len(CLI_RUNS)


def test_swap_check_loads_no_optimizer():
    statements = ("import numpy as np; from spin1chain.hamiltonians import swap_check; "
                  "swap_check(np.eye(9))")
    assert loaded_modules(statements, "scipy.optimize") == []


def test_traced_names_resolve():
    # perfbench/tracing.py wraps package functions by name, so a deleted or
    # renamed traced function breaks every traced benchmark run
    tree = ast.parse((Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text())
    traced, = (ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and any(getattr(target, "id", None) == "TRACED" for target in node.targets))
    assert len(traced) > 10
    missing = [f"{module}.{name}" for module, name in traced
               if not callable(getattr(importlib.import_module(f"spin1chain.{module}"), name,
                                       None))]
    assert missing == []


def test_spectra_checker_passes_its_warmup_ops(tmp_path):
    # the benchmark's spectra checker keys the eigensystem cache with the dense
    # matrix of each chain and measures the cached eigensystem against it: each
    # warm-up op, run as the benchmark runs it, passes its own check
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = workloads.warmup_ops("spectra")
    assert any(op.call is not None for op in ops)
    for op in ops:
        workloads.prepare(op, str(tmp_path))
        outcome, _ = workloads.execute(op, str(tmp_path))
        assert outcome.code == 0, outcome.stderr
        assert op.check(outcome) is None, op.label


def public_callables(module):
    """Public functions of ``module`` and public methods of its classes, with the
    constructors of its other classes; dataclass and exception constructors
    are left out, as their fields are data, not settings."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            plain = not (dataclasses.is_dataclass(obj) or issubclass(obj, BaseException))
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # class and static methods
                if inspect.isfunction(member) and (
                        not attr.startswith("_") or (attr == "__init__" and plain)):
                    yield f"{name}.{attr}", member


def test_settable_value_count():
    # a parameter with a default is a value a caller may set; a new one has to
    # change this count and the count in ROADMAP.md together
    settable = [f"{info.name}.{qualname}({param.name})"
                for info in pkgutil.iter_modules(spin1chain.__path__)
                for qualname, func in public_callables(
                    importlib.import_module(f"spin1chain.{info.name}"))
                for param in inspect.signature(func).parameters.values()
                if param.default is not param.empty]
    assert len(settable) == 18, settable


FAILING_PROPERTY = '''
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_failing_property(x):
    assert x < 5


def test_neighbour():
    pass
'''


def test_failing_property_is_a_plain_failure(tmp_path):
    # under the project's warning filters, a falsified Hypothesis property
    # fails alone: the modules Hypothesis imports to report it raise no
    # warning that aborts the run before the next test
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                           "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
                           "test_property.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == pytest.ExitCode.TESTS_FAILED, proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
