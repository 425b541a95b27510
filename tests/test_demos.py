"""Each demo runs to completion. Outside the tests, the demos are the only
callers of ``select_im``'s and ``influence_scores``' default settings."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("0*.py")), ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    # demo 04 writes its artifacts under mkdtemp(), so TMPDIR keeps them in tmp_path
    paths = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(p for p in paths if p))
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    result = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stderr
