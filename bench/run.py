"""replaygraph benchmark: times `replaygraph run` seed-runs per strategy.

Run from the root of a checkout:

    python3 bench/run.py --workload sgc-citation --seed 0 --seconds 55 --trace 0

Each timed operation is one seed-run: an in-process call of
``replaygraph.cli.main(["run", "--config", ..., "--strategy", S, "--seeds", N,
"--out", ...])``. The five strategies take turns in round-robin order, so a
slow spell on a shared host falls on every strategy, and a fixed probe timed
many times during each seed-run corrects it for the host's speed while it
ran. With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run. Workloads, metrics and the layer table are described in
bench/NOTES.md.
"""

import os

# BLAS threads are pinned before anything can load numpy.
THREAD_PIN = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREAD_PIN

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STRATEGIES = ("none", "random", "mf", "cm", "im")
SETUP_REPEATS = 5
# A timed seed-run is interrupted every PROBE_INTERVAL_S of wall time to time
# one ``SpeedProbe.work``. PROBE_NOMINAL_S is that work's usual duration inside
# seed-runs on the 2-core Intel Xeon VM the benchmark was tuned on; ``run_s.*``
# report seed-run seconds scaled to a host on which it takes this long.
PROBE_INTERVAL_S = 0.025
PROBE_NOMINAL_S = 0.0015

# ``panel``: fixed experiment seeds every run visits first; fm.*, pm_min and
# the exact per-layer counts come from them, so they do not depend on the
# workload seed. ``extra``: how many further experiment seeds the workload
# seed draws; their seed-runs are timed with the panel's. mlp-images draws
# none because its `im` cost follows the CG iteration count, which ranges
# from 12 to the 200 cap per solve across experiment seeds.
WORKLOADS = {
    "sgc-citation": {
        "config": {"dataset": "citation", "model": "sgc", "e": 1, "epochs": 100,
                   "tasks": 3, "classes_per_task": 2, "train_per_class": 20},
        "panel": (0, 1), "extra": 2, "classes_per_task": 2,
    },
    "mlp-images": {
        "config": {"dataset": "synthetic-images", "model": "mlp", "e": 10, "epochs": 20,
                   "lr": 5e-3, "decay": 1e-5, "batch_size": 64, "tasks": 3,
                   "hidden_dim": 64, "syn_noise": 0.6, "syn_images_per_class": 200,
                   "mnist_train_per_task": 300, "mnist_test_per_task": 200},
        "panel": (0,), "extra": 0, "classes_per_task": 10,
    },
}
CITATION_PANEL_FIXTURE_SEED = 0


class SpeedProbe:
    """Samples the host's speed while a seed-run executes.

    Inside ``with probe:`` an interval timer raises SIGALRM every
    ``PROBE_INTERVAL_S``, and the handler times ``work``: 1 to 1.5 ms of what
    seed-runs spend their time on (parsing text into floats in the
    interpreter, small matrix products, passes over an array). ``samples``
    holds the durations, one taken on entry and one per signal handled. The
    work calls nothing from the program. Its time changes with the host's
    speed and, a little, with what the program leaves in the caches.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        bits = rng.random((4, 1433)) < 0.02
        self.lines = [" ".join("01"[b] for b in row) for row in bits.tolist()]
        self.left = rng.standard_normal((32, 256))
        self.right = rng.standard_normal((256, 32))
        self.array = rng.standard_normal(16_384)
        self.samples = []
        self.previous = None

    def work(self) -> float:
        total = 0.0
        for line in self.lines:
            total += float(np.array([float(t) for t in line.split()]).sum())
        for _ in range(4):
            total += float((self.left @ self.right).sum())
        for _ in range(2):
            total += float(np.sqrt(self.array * self.array + 1.0).sum())
        return total

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.work()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self.samples = []
        self.sample()   # so that even a seed-run shorter than the interval has one
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)   # disarm before the handler goes
        signal.signal(signal.SIGALRM, self.previous)


class CheckFailed(Exception):
    """A seed-run finished but its artifacts are wrong."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import replaygraph from this checkout's src/, never from elsewhere."""
    package = SRC / "replaygraph" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from a replaygraph checkout")
    sys.path.insert(0, str(SRC))
    from replaygraph import cli
    return cli


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_version,
            "thread_pin": {var: os.environ[var] for var in THREAD_VARS},
            "git_commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def measure_setup() -> float:
    """Median wall seconds for a fresh interpreter to import replaygraph."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import replaygraph"], cwd=ROOT, env=env,
                       check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def workload_seeds(spec: dict, seed: int) -> list[int]:
    """Panel seeds, then the extra experiment seeds drawn from the workload seed."""
    rng = random.Random(seed)
    return list(spec["panel"]) + rng.sample(range(1_000, 1_000_000), spec["extra"])


def write_configs(spec: dict, seeds: list[int], seed: int, work: Path) -> tuple[dict, dict]:
    """Config file per experiment seed, plus input checksums to record."""
    base = dict(spec["config"])
    checksums = {}
    configs = {}
    if base["dataset"] == "citation":
        from citation import write_citation_fixture
        fixtures = {}
        for label, fixture_seed in (("panel", CITATION_PANEL_FIXTURE_SEED), ("seed", seed)):
            content, cites, digest = write_citation_fixture(work / f"fixture-{label}",
                                                            fixture_seed)
            path = work / f"config-{label}.json"
            path.write_text(json.dumps(dict(base, content=str(content), cites=str(cites))))
            fixtures[label] = path
            checksums[f"citation_{label}_fixture{fixture_seed}_sha256"] = digest
        for s in seeds:
            configs[s] = fixtures["panel" if s in spec["panel"] else "seed"]
    else:
        path = work / "config.json"
        path.write_text(json.dumps(base))
        configs = {s: path for s in seeds}
    return configs, checksums


def check_artifacts(out: Path, seed: int, strategy: str, spec: dict) -> tuple[float, float]:
    """Validate one seed-run's files; returns its (PM, FM)."""
    report_path = out / "report.json"
    matrix_path = out / f"matrix_seed{seed}.csv"
    runlog_path = out / f"runlog_seed{seed}.jsonl"
    for path in (report_path, matrix_path, runlog_path):
        if not path.is_file():
            raise CheckFailed(f"missing {path.name}")
    report = json.loads(report_path.read_text())
    tasks = spec["config"]["tasks"]
    lines = matrix_path.read_text().split()
    if lines[0] != "i,j,value":
        raise CheckFailed(f"{matrix_path.name}: bad header {lines[0]!r}")
    cells = {}
    for line in lines[1:]:
        i, j, value = line.split(",")
        cells[int(i), int(j)] = float(value)
    if set(cells) != {(i, j) for i in range(tasks) for j in range(i + 1)}:
        raise CheckFailed(f"{matrix_path.name}: not a lower-triangular {tasks}x{tasks} matrix")
    if not all(0.0 <= v <= 1.0 for v in cells.values()):
        raise CheckFailed(f"{matrix_path.name}: accuracy outside [0, 1]")
    last = json.loads(runlog_path.read_text().splitlines()[-1])
    pairs = tasks * spec["classes_per_task"]
    expected = 0 if strategy == "none" else spec["config"]["e"] * pairs
    if last["buffer_after"] != expected:
        raise CheckFailed(f"buffer_after {last['buffer_after']}, expected {expected}")
    pm, fm = report["pm_mean"], report["fm_mean"]
    if not (math.isfinite(pm) and math.isfinite(fm)):
        raise CheckFailed(f"non-finite pm {pm} or fm {fm}")
    return pm, fm


class Runner:
    """Executes and checks seed-runs and keeps their timings and scores."""

    def __init__(self, cli, spec: dict, configs: dict, work: Path):
        self.cli = cli
        self.spec = spec
        self.configs = configs
        self.work = work
        self.tracer = None     # set for a traced run
        self.probe = None      # set for a timed run
        self.probe_samples = []
        self.attempted = 0
        self.failed = 0
        self.times = {s: [] for s in STRATEGIES}    # wall seconds, probes excluded
        self.scaled = {s: [] for s in STRATEGIES}   # seconds at the nominal host speed
        self.first = {}       # (strategy, seed) -> (pm, fm) of its first run
        self.runs = []        # (strategy, seed) per traced run id

    def seed_run(self, strategy: str, seed: int, traced: bool = False):
        """One checked seed-run; returns its wall seconds, less the time spent
        in the speed probe if one is set, or None if it failed."""
        self.attempted += 1
        out = self.work / f"out-{strategy}-{seed}"
        argv = ["run", "--config", str(self.configs[seed]), "--strategy", strategy,
                "--seeds", str(seed), "--jobs", "1", "--out", str(out)]
        gc.collect()   # the last seed-run's garbage is not this one's cost
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                if traced:
                    self.tracer.run = len(self.runs)
                    self.runs.append((strategy, seed))
                    try:
                        code = self.tracer.span("cli", self.cli.main, argv)
                    finally:
                        self.tracer.run = None
                elif self.probe is None:
                    code = self.cli.main(argv)
                else:
                    with self.probe:
                        code = self.cli.main(argv)
                elapsed = time.perf_counter() - start
            if self.probe is not None and not traced:
                elapsed -= sum(self.probe.samples)
            if code != 0:
                raise CheckFailed(f"cli exited with {code}")
            scores = check_artifacts(out, seed, strategy, self.spec)
            key = (strategy, seed)
            if self.first.setdefault(key, scores) != scores:
                raise CheckFailed(f"repeat gave pm/fm {scores}, first run {self.first[key]}")
        except Exception as exc:  # a failed seed-run is counted, and the run goes on
            self.failed += 1
            print(f"seed-run failed: {strategy} seed {seed}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return elapsed

    def round(self, seed: int, traced: bool = False) -> float:
        """One seed-run of every strategy; returns the summed seed-run seconds.

        With a probe set, every untraced seed-run is also recorded scaled by
        the nominal probe time over the mean probe time during it.
        """
        total = 0.0
        for strategy in STRATEGIES:
            elapsed = self.seed_run(strategy, seed, traced)
            if elapsed is not None:
                if not traced:
                    self.times[strategy].append(elapsed)
                if self.probe is not None and not traced:
                    samples = self.probe.samples
                    self.probe_samples.extend(samples)
                    self.scaled[strategy].append(
                        elapsed * PROBE_NOMINAL_S / statistics.fmean(samples))
                total += elapsed
        return total


def high_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n})"
    ordered = sorted(values)
    return f"p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f} s (n={n})"


def run_timed(runner: Runner, seeds: list[int], panel: int, seconds: float) -> int:
    """Rounds over ``seeds`` until the next round would overrun ``seconds``;
    the panel rounds always run. Returns the number of rounds."""
    rounds = 0
    last = 0.0
    start = time.perf_counter()
    while rounds < panel or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        runner.round(seeds[rounds % len(seeds)])
        last = time.perf_counter() - began
        rounds += 1
    return rounds


def end_to_end(runner: Runner, spec: dict, setup_s: float,
               rounds: int) -> tuple[dict, list[str]]:
    metrics = {}
    lines = []
    for strategy in STRATEGIES:
        scaled = runner.scaled[strategy]
        value = statistics.median(scaled) if scaled else None
        metrics[f"run_s.{strategy}"] = (value, "s")
        wall = runner.times[strategy]
        wall_median = statistics.median(wall) if wall else None
        lines.append(f"run_s.{strategy:7s} {value if value is None else round(value, 4)} s "
                     f"median at nominal speed; {high_percentile(scaled)}; wall "
                     f"{wall_median if wall_median is None else round(wall_median, 4)} s "
                     f"median, {high_percentile(wall)}")
    if runner.probe_samples:
        lines.append(f"speed probe {1e3 * statistics.median(runner.probe_samples):.4f} ms "
                     f"median over {len(runner.probe_samples)} samples "
                     f"(nominal {1e3 * PROBE_NOMINAL_S} ms)")
    pms = {}
    for strategy in STRATEGIES:
        scores = [runner.first.get((strategy, seed)) for seed in spec["panel"]]
        if None in scores:
            metrics[f"fm.{strategy}"] = (None, "fraction")
            continue
        metrics[f"fm.{strategy}"] = (statistics.fmean(fm for _, fm in scores), "fraction")
        pms[strategy] = statistics.fmean(pm for pm, _ in scores)
    metrics["pm_min"] = (min(pms.values()) if len(pms) == len(STRATEGIES) else None,
                         "fraction")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["ok_frac"] = (1.0 - runner.failed / runner.attempted, "fraction")
    lines.append(f"rounds {rounds}, seed-runs attempted {runner.attempted}, failed "
                 f"{runner.failed}, fail_frac {runner.failed / runner.attempted:.4f}")
    lines.append("pm by strategy (panel mean): "
                 + ", ".join(f"{s} {v:.4f}" for s, v in pms.items()))
    return metrics, lines


# Per-layer metrics: (name, unit, kind, key). ``inclusive`` and ``self`` read
# span times; ``count`` reads a counter or the number of spans of that name.
LAYER_METRICS = (
    ("datasets.build_s", "s", "inclusive", "datasets.build"),
    ("datasets.calls", "count", "count", "datasets.build"),
    ("datasets.tasks_s", "s", "inclusive", "datasets.tasks"),
    ("graph.normalize_s", "s", "inclusive", "graph.normalize"),
    ("graph.propagate_s", "s", "inclusive", "graph.propagate"),
    ("graph.subgraph_s", "s", "inclusive", "graph.subgraph"),
    ("graph.spmm_flops", "flop", "count", "graph.spmm_flops"),
    ("linear.fit_s", "s", "inclusive", "linear.fit"),
    ("linear.fit_calls", "count", "count", "linear.fit"),
    ("optim.adam_steps", "count", "count", "optim.update"),
    ("optim.update_s", "s", "inclusive", "optim.update"),
    ("linear.hvp_s", "s", "inclusive", "linear.hvp"),
    ("linear.hvp_calls", "count", "count", "linear.hvp"),
    ("linear.dots_s", "s", "inclusive", "linear.gradient_dots"),
    ("linear.stack_s", "s", "inclusive", "linear.stack"),
    ("linear.stack_calls", "count", "count", "linear.stack"),
    ("mlp.fit_s", "s", "inclusive", "mlp.fit"),
    ("mlp.dots_s", "s", "inclusive", "mlp.gradient_dots"),
    ("mlp.hvp_s", "s", "inclusive", "mlp.hvp"),
    ("mlp.hvp_calls", "count", "count", "mlp.hvp"),
    ("selection.cg_solves", "count", "count", "selection.cg"),
    ("selection.cg_iters", "count", "count", "selection.cg_iters"),
    ("selection.cg_s", "s", "inclusive", "selection.cg"),
    ("selection.influence_s", "s", "inclusive", "selection.influence"),
    ("selection.coverage_s", "s", "inclusive", "selection.coverage"),
    ("selection.select_s", "s", "inclusive", "selection.select"),
    ("replay.learn_task_s", "s", "self", "replay.learn_task"),
    ("replay.prepare_s", "s", "inclusive", "replay.prepare"),
    ("replay.buffer_rows", "count", "count", "replay.buffer_rows"),
    ("metrics.s", "s", "inclusive", "metrics"),
    ("experiment.self_s", "s", "self", "experiment"),
    ("cli.self_s", "s", "self", "cli"),
)
# Layers whose inclusive share of each strategy's seed-run time is printed.
PROFILE_LAYERS = ("datasets.build", "datasets.tasks", "replay.prepare", "linear.fit",
                  "mlp.fit", "selection.cg", "selection.coverage", "metrics")


def run_traced(runner: Runner, panel: list[int], seconds: float):
    """Passes over the panel until the next would overrun ``seconds``. Each
    round runs untraced, then traced on the same seed; returns the round-time
    differences (traced minus untraced) and the run ids of the first pass."""
    from tracing import install, uninstall
    patches = install(runner.tracer)
    overheads = []
    first_pass = None
    last = 0.0
    start = time.perf_counter()
    try:
        while first_pass is None or time.perf_counter() - start + last <= seconds:
            began = time.perf_counter()
            first_id = len(runner.runs)
            for seed in panel:
                plain = runner.round(seed)
                overheads.append(runner.round(seed, traced=True) - plain)
            if first_pass is None:
                first_pass = set(range(first_id, len(runner.runs)))
            last = time.perf_counter() - began
    finally:
        uninstall(patches)
    return overheads, first_pass


def per_layer(runner: Runner, overheads: list[float], first_pass: set,
              env: dict) -> tuple[dict, list[str]]:
    """Times are seconds per panel pass (one seed-run of each strategy on each
    panel seed), averaged over the passes run; counts are exact totals of the
    first pass."""
    from tracing import layer_times
    tracer = runner.tracer
    passes = len(runner.runs) / len(first_pass)
    inclusive, own = layer_times(tracer.spans)
    counts = Counter()
    for run in first_pass:
        counts.update(tracer.counts[run])
    metrics = {}
    for name, unit, kind, key in LAYER_METRICS:
        if kind == "inclusive":
            value = inclusive.get(key, 0.0) / passes
        elif kind == "self":
            value = own.get(key, 0.0) / passes
        else:
            value = counts[key]
        metrics[name] = (value, unit)
    solves = counts["selection.cg"]
    metrics["selection.cg_converged_frac"] = (
        counts["selection.cg_converged"] / solves if solves else 0.0, "fraction")
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    metrics["src.lines"] = (env["src_lines"], "lines")

    lines = []
    for strategy in STRATEGIES:
        ids = {i for i, (s, _) in enumerate(runner.runs) if s == strategy}
        shares, _ = layer_times(tracer.spans, ids)
        total = shares.get("cli", 0.0)
        parts = ", ".join(f"{layer} {100 * shares[layer] / total:.0f}%"
                          for layer in PROFILE_LAYERS if shares.get(layer, 0.0) > 0.005 * total)
        lines.append(f"profile {strategy:6s} {total / len(ids):.4f} s per seed-run: {parts}")
    return metrics, lines


def write_trace(path: Path, runner: Runner, env: dict, header: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps({"header": header, "env": env,
                             "runs": [{"id": i, "strategy": s, "seed": seed}
                                      for i, (s, seed) in enumerate(runner.runs)]}) + "\n")
        for name, start, end, parent, run in runner.tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "run": run}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = import_program()
    sys.path.insert(0, str(BENCH))
    spec = WORKLOADS[args.workload]
    env = environment()
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_s = None if args.trace else measure_setup()
        seeds = workload_seeds(spec, args.seed)
        configs, checksums = write_configs(spec, seeds, args.seed, work)
        header = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "experiment_seeds": seeds, **checksums}
        print("env " + json.dumps(env, sort_keys=True))
        print("inputs " + json.dumps(header, sort_keys=True))

        runner = Runner(cli, spec, configs, work)
        runner.seed_run("none", seeds[0])   # warm-up: first calls fill caches
        if args.trace:
            from tracing import Tracer
            runner.tracer = Tracer()
            overheads, first_pass = run_traced(runner, list(spec["panel"]), args.seconds)
            metrics, lines = per_layer(runner, overheads, first_pass, env)
            trace_path = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            write_trace(trace_path, runner, env, header)
            lines.append(f"trace: {trace_path.relative_to(ROOT)} "
                         f"({len(runner.tracer.spans)} spans)")
        else:
            runner.probe = SpeedProbe()
            rounds = run_timed(runner, seeds, len(spec["panel"]), args.seconds)
            metrics, lines = end_to_end(runner, spec, setup_s, rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()   # only if no other run is using it

    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:30s} {value} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and all(v is not None for v, _ in metrics.values()),
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
