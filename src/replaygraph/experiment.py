"""Multi-seed experiment orchestration: config validation, per-seed runs,
artifact files, and aggregate reports.

Artifacts per output directory: ``matrix_seed<k>.csv`` and
``runlog_seed<k>.jsonl`` for each seed, plus ``report.json`` with the resolved
config and mean/std metrics. Reports contain no timestamps or host details,
so identical configs produce byte-identical outputs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import datasets
from .metrics import AccuracyMatrix, forgetting_mean, performance_mean
from .replay import (STRATEGIES, ReplayConfig, config_errors, run_image_tasks,
                     run_sequence)

SCHEMA_VERSION = 1
DATA_DIR_ENV = "REPLAYGRAPH_DATA_DIR"
# The model each dataset runs: SGC on the graphs, the MLP on permuted images.
DATASETS = {"cora": "sgc", "citeseer": "sgc", "citation": "sgc", "permuted-mnist": "mlp",
            "synthetic-sbm": "sgc", "synthetic-images": "mlp"}
MODELS = ("sgc", "mlp")


class ExperimentError(RuntimeError):
    """Configuration or orchestration failure; message is user-facing."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Field annotation -> (accepts value, what it must be).
_TYPE_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "list[int]": (lambda v: isinstance(v, list) and all(map(_is_int, v)),
                  "a list of integers"),
}


@dataclass
class ExperimentConfig:
    dataset: str = "synthetic-sbm"
    content: str | None = None
    cites: str | None = None
    mnist_dir: str | None = None
    model: str = "sgc"
    strategy: str = "im"
    e: int = 1
    k: int = 2
    epochs: int = 100
    lr: float = 0.2
    decay: float = 5e-6
    tasks: int = 3
    classes_per_task: int = 2
    train_per_class: int = 20
    eval_mode: str = "task-aware"
    seeds: list[int] = field(default_factory=lambda: [0])
    jobs: int = 1
    out: str = "out"
    # model/strategy details
    batch_size: int = 64
    hidden_dim: int = 256
    # image-task construction
    mnist_train_per_task: int = 1000
    mnist_test_per_task: int = 500
    # synthetic fixtures
    sbm_test_per_class: int = 40
    sbm_intra_p: float = 0.2
    sbm_inter_p: float = 0.02
    sbm_noise: float = 0.6
    syn_images_per_class: int = 200
    syn_noise: float = 0.25

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ExperimentError("unknown config key(s): " + ", ".join(unknown))
        return cls(**{k: v for k, v in data.items() if k in known})

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    # -- path resolution --

    def citation_paths(self) -> tuple[Path | None, Path | None]:
        """Explicit paths win; for the named datasets the conventional
        layouts <root>/<name>/<name>.content and <root>/<name>.content are
        both tried (likewise .cites)."""
        name = self.dataset

        def find(explicit: str | None, suffix: str) -> Path | None:
            layouts = (f"{name}/{name}{suffix}", f"{name}{suffix}")
            return _locate(explicit, *(layouts if name in ("cora", "citeseer") else ()))

        return find(self.content, ".content"), find(self.cites, ".cites")

    def mnist_path(self) -> Path | None:
        return _locate(self.mnist_dir, "mnist")

    # -- validation --

    def validate(self) -> list[str]:
        """All violations, each prefixed with the offending key. Values of the
        wrong type are reported alone, before any range is checked."""
        errors = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.type in _TYPE_CHECKS and not _TYPE_CHECKS[f.type][0](value):
                errors.append(f"{f.name}: must be {_TYPE_CHECKS[f.type][1]}; got {value!r}")
        if errors:
            return errors
        if self.dataset not in DATASETS:
            errors.append(f"dataset: must be one of {', '.join(DATASETS)}; "
                          f"got {self.dataset!r}")
        if self.model not in MODELS:
            errors.append(f"model: must be one of {', '.join(MODELS)}; got {self.model!r}")
        if self.strategy not in STRATEGIES:
            errors.append(f"strategy: must be one of {', '.join(STRATEGIES)}; "
                          f"got {self.strategy!r}")
        errors += [f"{key}: {message}" for key, message in config_errors(self)]
        for key in ("tasks", "classes_per_task", "train_per_class", "jobs", "hidden_dim",
                    "mnist_train_per_task", "mnist_test_per_task", "sbm_test_per_class",
                    "syn_images_per_class"):
            if getattr(self, key) < 1:
                errors.append(f"{key}: must be >= 1")
        for key in ("sbm_intra_p", "sbm_inter_p"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                errors.append(f"{key}: must lie in [0, 1]")
        if not self.seeds:
            errors.append("seeds: must list at least one seed")
        elif len(set(self.seeds)) != len(self.seeds):
            errors.append("seeds: duplicate values")
        if min(self.seeds, default=0) < 0:
            errors.append("seeds: must be >= 0")
        if self.dataset == "synthetic-images":
            count, test = 10 * self.syn_images_per_class, self.mnist_test_per_task
            if test >= count:
                errors.append("mnist_test_per_task: must be < 10 * syn_images_per_class = "
                              f"{count}, the synthetic images to split")
            elif self.mnist_train_per_task + test > count:
                errors.append(f"mnist_train_per_task: must be <= {count - test}, the {count} "
                              "synthetic images less mnist_test_per_task")

        paired = DATASETS.get(self.dataset, self.model)
        if self.model != paired:
            errors.append(f"model: dataset {self.dataset!r} requires model {paired!r}")
        if DATASETS.get(self.dataset) == "mlp" and self.eval_mode == "class-incremental":
            errors.append(f"eval_mode: must be task-aware for {self.dataset!r}: every permuted "
                          "task holds every label, so class-incremental would train and score "
                          "exactly as task-aware")

        needed_by, paths = self.dataset, {}
        if self.dataset in ("cora", "citeseer", "citation"):
            needed_by = "citation datasets"
            paths = dict(zip(("content", "cites"), self.citation_paths()))
        elif self.dataset == "permuted-mnist":
            paths = {"mnist_dir": self.mnist_path()}
        for key, path in paths.items():
            if path is None:
                errors.append(f"{key}: required for {needed_by} "
                              f"(set the flag or {DATA_DIR_ENV})")
            elif not path.exists():
                errors.append(f"{key}: {path} does not exist")
            elif key == "mnist_dir":
                try:
                    count, test = datasets._mnist_train_count(path), self.mnist_test_per_task
                    if self.mnist_train_per_task + test > count:
                        errors.append(f"mnist_train_per_task: must be <= {count - test}, "
                                      f"the {count} images in {path} less mnist_test_per_task")
                except (OSError, EOFError, zlib.error, datasets.IdxFormatError) as exc:
                    errors.append(f"mnist_dir: {exc}")
        return errors

    def replay_config(self, seed: int) -> ReplayConfig:
        return ReplayConfig(
            e=self.e, k=self.k, epochs=self.epochs, lr=self.lr, decay=self.decay,
            batch_size=self.batch_size if self.model == "mlp" else None,
            eval_mode=self.eval_mode, seed=seed)


def _locate(explicit: str | None, *layouts: str) -> Path | None:
    """``explicit``, else the first of ``layouts`` that exists. Relative paths
    are taken under $REPLAYGRAPH_DATA_DIR, or the working directory when it
    is unset; an absolute ``explicit`` stays as it is."""
    root = Path(os.environ.get(DATA_DIR_ENV, "."))
    if explicit is not None:
        return root / explicit
    return next((root / p for p in layouts if (root / p).exists()), None)


def _load_graph(config: ExperimentConfig, seed: int):
    if config.dataset in ("cora", "citeseer", "citation"):
        content, cites = config.citation_paths()
        return datasets.load_citation_dataset(content, cites)
    if config.dataset == "synthetic-sbm":
        classes = config.tasks * config.classes_per_task
        per_class = config.train_per_class + config.sbm_test_per_class
        return datasets.synthetic_sbm_graph([per_class] * classes, config.sbm_intra_p,
                                            config.sbm_inter_p, config.sbm_noise,
                                            seed=seed)
    raise ExperimentError(f"dataset {config.dataset!r} is not graph-valued")


def _image_tasks(config: ExperimentConfig, seed: int) -> list[datasets.ImageTask]:
    """The permuted tasks; the source images are freed when this returns."""
    if config.dataset == "permuted-mnist":
        images, labels = datasets.load_mnist(config.mnist_path(), split="train")
    else:
        images, labels = datasets.synthetic_image_dataset(
            10, config.syn_images_per_class, config.syn_noise, seed=seed)
    return datasets.make_permuted_tasks(images, labels, config.tasks,
                                        config.mnist_train_per_task,
                                        config.mnist_test_per_task, seed=seed)


def run_single_seed(config: ExperimentConfig, seed: int) -> dict:
    """One deterministic run; returns matrix rows, metrics, and log events."""
    rc = config.replay_config(seed)
    if DATASETS.get(config.dataset) == "mlp":
        state = run_image_tasks(_image_tasks(config, seed), config.strategy, rc,
                                hidden_dim=config.hidden_dim)
    else:
        graph = _load_graph(config, seed)
        seq = datasets.build_task_sequence(graph, config.classes_per_task,
                                           config.tasks, config.train_per_class,
                                           seed=seed)
        state = run_sequence(seq, config.strategy, rc)

    matrix = state.matrix()
    pm = performance_mean(matrix)
    if matrix.num_tasks >= 2:
        fm, per_task = forgetting_mean(matrix)
        per_task = per_task.tolist()
    else:
        fm, per_task = None, []
    return {"seed": seed, "rows": state.rows, "pm": pm, "fm": fm,
            "per_task_forgetting": per_task, "events": state.events}


def _seed_worker(config_dict: dict, seed: int) -> dict:
    return run_single_seed(ExperimentConfig.from_dict(config_dict), seed)


def _aggregate(values) -> tuple[float, float]:
    arr = np.asarray([v for v in values if v is not None], dtype=np.float64)
    if arr.size == 0:
        return float("nan"), float("nan")
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return float(np.mean(arr)), std


def _write_artifacts(out: Path, result: dict) -> None:
    seed = result["seed"]
    AccuracyMatrix.from_rows(result["rows"]).to_csv(out / f"matrix_seed{seed}.csv")
    with (out / f"runlog_seed{seed}.jsonl").open("w") as fh:
        for event in result["events"]:
            fh.write(json.dumps(event, sort_keys=True) + "\n")


def run_experiment(config: ExperimentConfig) -> dict:
    """Run every seed, write per-seed artifacts plus ``report.json``, and
    return the aggregate report."""
    errors = config.validate()
    if errors:
        raise ExperimentError("invalid config:\n  " + "\n  ".join(errors))
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)

    seeds = list(config.seeds)
    if config.jobs > 1 and len(seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor  # slow to import; only jobs > 1
        with ProcessPoolExecutor(max_workers=config.jobs) as pool:
            results = list(pool.map(_seed_worker, [config.to_dict()] * len(seeds), seeds))
    else:
        results = [run_single_seed(config, seed) for seed in seeds]

    for result in results:
        _write_artifacts(out, result)

    pm_mean, pm_std = _aggregate([r["pm"] for r in results])
    fm_mean, fm_std = _aggregate([r["fm"] for r in results])
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "pm_mean": pm_mean, "pm_std": pm_std,
        "fm_mean": fm_mean, "fm_std": fm_std,
        "per_seed": [{"seed": r["seed"], "pm": r["pm"], "fm": r["fm"],
                      "per_task_forgetting": r["per_task_forgetting"]}
                     for r in results],
    }
    (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def sweep_e(config: ExperimentConfig, e_values) -> list[dict]:
    """One aggregate per e value; e<val>/ subdirectories hold the per-run
    artifacts and ``sweep_e.csv`` collects (e, pm, fm) rows for plotting."""
    values = list(e_values)
    if not values:
        raise ExperimentError("e_values is empty")
    if len(set(values)) != len(values):
        raise ExperimentError(f"duplicate e values: {values}")
    if any(v < 1 for v in values):
        raise ExperimentError("e values must be >= 1")

    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    for e in values:
        sub = dataclasses.replace(config, e=e, out=str(out / f"e{e}"))
        reports.append(run_experiment(sub))
    lines = ["e,pm,fm"]
    lines.extend(f"{e},{r['pm_mean']:.10g},{r['fm_mean']:.10g}"
                 for e, r in zip(values, reports))
    (out / "sweep_e.csv").write_text("\n".join(lines) + "\n")
    return reports


def read_config_file(path) -> dict:
    """The JSON object in a config file; ExperimentError if it cannot be
    read, is not JSON, or is not an object."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ExperimentError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ExperimentError(f"{path}: top level must be a JSON object")
    return data


def validate_config_file(path) -> list[str]:
    """Full validation without compute; one message per violation."""
    try:
        config = ExperimentConfig.from_dict(read_config_file(path))
    except ExperimentError as exc:
        return [str(exc)]
    return config.validate()
