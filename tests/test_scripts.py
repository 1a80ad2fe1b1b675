"""The example scripts the README documents run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# runs a script where numpy cannot be imported, as the CI smoke step runs the CLI
WITHOUT_NUMPY = 'import runpy, sys; sys.modules["numpy"] = None; sys.argv = sys.argv[1:]; runpy.run_path(sys.argv[0], run_name="__main__")'


@pytest.mark.parametrize("script", ["kinship_demo.py", "synthesis_sweep.py", "entropy_scaling.py"])
def test_script_runs(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    path = str(ROOT / "scripts" / script)
    # the second run shows that no script reaches a dense path, all of which import numpy
    for argv in ([path], ["-c", WITHOUT_NUMPY, path]):
        done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip()
