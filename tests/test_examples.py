"""The examples that ship with the package: the doctests in the module
docstrings and the narrative scripts under demos/."""
import doctest
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import altperm

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_module_doctests():
    attempted = failed = 0
    for info in pkgutil.iter_modules(altperm.__path__):
        module = importlib.import_module(f"altperm.{info.name}")
        result = doctest.testmod(module)
        attempted += result.attempted
        failed += result.failed
    assert attempted > 0
    assert failed == 0


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    src = str(Path(altperm.__file__).resolve().parents[1])
    env = dict(os.environ, ALTPERM_CACHE=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
