"""Each demo script runs from a checkout and prints its narrative, word
for word as in its transcript under ``tests/demo_transcripts``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRANSCRIPTS = Path(__file__).resolve().parent / "demo_transcripts"
DEMOS = [
    "01_smooth_indices.py",
    "02_complete_intersections.py",
    "03_stratified_mobius.py",
    "04_equivariant_burnside.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    expected = (TRANSCRIPTS / demo).with_suffix(".txt").read_text()
    assert expected.strip()
    assert done.stdout == expected
