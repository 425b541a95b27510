"""Run a fixed grid of experiments and print ``sha256  relative/path`` for
every artifact they write, so two checkouts can be compared with ``diff``.

Run from anywhere; it imports replaygraph from this checkout's src/:

    python3 scripts/artifact_grid.py [--quick] > grid.txt

The grid:

- the benchmark's Cora-shaped citation fixture (``bench/citation.py``,
  fixture seed 0) × all 7 strategies × seeds 0–19 × both eval modes ×
  ``e`` ∈ {1, 5}; ``none`` stores nothing, so it runs at ``e`` = 1 only;
- ``synthetic-sbm`` × 5 strategies × seeds 0–9 × both eval modes.

``--quick`` runs seed 0 alone. Each configuration writes ``matrix_seed*.csv``,
``runlog_seed*.jsonl`` and ``report.json`` into its own directory, which
names it (``citation/task-aware/e1/im/...``). A ``report.json`` is hashed
without ``config.out``, ``config.content`` and ``config.cites``, the paths of
this run's scratch directory. BLAS runs at one thread, as in the benchmark:
the bytes hold at one BLAS build and thread count.
"""

import os

# BLAS threads are pinned before anything can load numpy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from citation import write_citation_fixture  # noqa: E402
from replaygraph.experiment import ExperimentConfig, run_experiment  # noqa: E402
from replaygraph.replay import EVAL_MODES, STRATEGIES  # noqa: E402

SBM_STRATEGIES = ("none", "random", "mf", "cm", "im")
RUN_PATHS = ("out", "content", "cites")


def grid(fixture: tuple[Path, Path], quick: bool):
    """``(name, config keys)`` per configuration of the grid."""
    content, cites = (str(p) for p in fixture)
    for mode in EVAL_MODES:
        for e in (1, 5):
            for strategy in STRATEGIES:
                if strategy != "none" or e == 1:
                    yield (f"citation/{mode}/e{e}/{strategy}",
                           dict(dataset="citation", content=content, cites=cites,
                                strategy=strategy, e=e, eval_mode=mode,
                                seeds=[0] if quick else list(range(20))))
        for strategy in SBM_STRATEGIES:
            yield (f"synthetic-sbm/{mode}/{strategy}",
                   dict(dataset="synthetic-sbm", strategy=strategy, eval_mode=mode,
                        seeds=[0] if quick else list(range(10))))


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "report.json":
        report = json.loads(data)
        for key in RUN_PATHS:
            report["config"].pop(key)
        data = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="seed 0 alone")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="artifact-grid-") as tmp:
        work = Path(tmp)
        fixture = write_citation_fixture(work / "fixture", 0)[:2]
        for name, keys in grid(fixture, args.quick):
            run_experiment(ExperimentConfig(**keys, out=str(work / "out" / name)))
        out = work / "out"
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            print(f"{digest(path)}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
