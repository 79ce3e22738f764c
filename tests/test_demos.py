import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import dualunitary

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # a copy in tmp_path, so the demo's out/ directory lands there
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    src = str(pathlib.Path(dualunitary.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
