"""Smoke test: every demo script runs to completion without a numpy
RuntimeWarning."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import zonewton

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
SRC = str(Path(zonewton.__file__).resolve().parent.parent)


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Run from a scratch directory so files a demo writes stay out of the tree.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    # pytest's filterwarnings setting does not reach a subprocess
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
