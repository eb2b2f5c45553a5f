"""Each demo script runs to completion and prints what it narrates."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# One line of each demo's output; demo 03's is from the star table, not from
# power iteration's stall on C_400.
@pytest.mark.parametrize("demo, line", [
    ("01_alpha_matrix_basics.py",
     "edge entry (0,1) falls with alpha, diagonal entry (2,2) rises:"),
    ("02_bound_trichotomy.py", "  symbolic/numeric disagreements = 0"),
    ("03_eigensolver_crosscheck.py",
     "  Delta = 10: lambda1 = 5.500000000000   g = 5.500000000000"),
    ("04_verification_campaign.py", "  round-trip intact: True"),
])
def test_demo_runs(tmp_path, demo, line):
    # TMPDIR keeps demo 04's report directory inside tmp_path.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
