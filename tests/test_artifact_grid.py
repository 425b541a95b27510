"""scripts/artifact_grid.py lists the same bytes on every run, so a ``diff``
of two checkouts' listings shows only what the code changed."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"[0-9a-f]{64}  (citation|synthetic-sbm)/[a-z-]+/(e[15]/)?[a-z-]+/"
                  r"(report\.json|matrix_seed0\.csv|runlog_seed0\.jsonl)")


def test_quick_grid_lists_the_same_hashes_twice(tmp_path):
    listings = [subprocess.run([sys.executable, str(ROOT / "scripts" / "artifact_grid.py"),
                                "--quick"], cwd=tmp_path, capture_output=True, text=True,
                               timeout=600, check=True).stdout
                for _ in range(2)]
    assert listings[0] == listings[1]
    lines = listings[0].splitlines()
    # 26 citation configurations (`none` at e = 1 only) and 10 synthetic-sbm
    # ones, each with a report, a matrix and a runlog for seed 0
    assert len(lines) == 3 * (26 + 10)
    assert all(LINE.fullmatch(line) for line in lines), lines
    assert len({line.split()[1] for line in lines}) == len(lines)
