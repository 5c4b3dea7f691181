import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", sorted(p.name for p in (ROOT / "demos").glob("[0-9][0-9]_*.py")))
def test_demo_runs(name, tmp_path):
    # a copy, so that the demo writes its SVGs under tmp_path
    shutil.copy(ROOT / "demos" / name, tmp_path / name)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, name], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
