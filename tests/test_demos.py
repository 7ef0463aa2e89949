"""Every demo runs to completion, so a stale call in one fails here.

``reliable_eigenvalue_count.py`` is left out: its dense full-spectrum solves
take about 45 s, and criterion 7 of the acceptance suite makes the same
count for m = 1 and 4.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SLOW = {"reliable_eigenvalue_count.py"}
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py") if p.name not in SLOW)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
