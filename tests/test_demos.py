"""Every narrative walk-through in ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import figplane

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(figplane.__file__)))
    done = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
