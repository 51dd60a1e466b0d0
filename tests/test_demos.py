"""The demos are consumers of the public API: each must run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spacerank

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(spacerank.__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("0[1-4]_*.py")))
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
