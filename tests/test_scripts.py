"""The example scripts and the Python example the README documents run to completion."""

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


def test_readme_example_prints_what_its_comments_say():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Core model in five lines", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # the closed forms need no numpy, so the example runs where it cannot be imported
    code = f'import sys; sys.modules["numpy"] = None\n{example}'
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    converse, bits = done.stdout.splitlines()
    assert converse == "('person:Alice', 'kin:ChildOf', 'person:Bob')"
    assert abs(float(bits) - 0.4) <= 1e-12, bits
