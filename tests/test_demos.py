"""Every demo script runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_demo_exits_zero():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    for script in demos:
        done = subprocess.run(
            [sys.executable, str(script)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, f"{script.name}: {done.stderr}"
