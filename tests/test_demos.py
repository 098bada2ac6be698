"""The demos that neither train nor write files run to completion, each in
a fresh interpreter with the package imported from src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo, expect", [
    ("01_simulate_hierarchical_data.py", "outcomes regenerate bit-identically from stored truth: True"),
    ("02_standardize_and_invert.py", "intercept column untouched: True"),
])
def test_demo_runs(tmp_path, demo, expect):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert expect in run.stdout
    assert not any(tmp_path.iterdir())   # nothing written
