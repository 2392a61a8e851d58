"""Smoke tests for the scripts under scripts/."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_two_moons_demo_writes_points_and_labels(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "two_moons_demo.py"), "--n", "200", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("points.csv", "labels.csv"):
        assert len((tmp_path / name).read_text().splitlines()) == 200
