"""The demos run to completion against the current package.

Each demo runs in its own interpreter, as a user would start it, so a
renamed or deleted export breaks this test rather than the demo.  Demo 05,
the consistency study, is the slowest (about 13 s on a two-core machine).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_two_phase_pipeline.py", "02_expander_augmentation.py",
         "03_reservoir_sampling.py", "04_sampling_phenomena.py",
         "05_consistency_study.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
