"""The experience-replay loop: per task, train on a weighted mix of current
and buffered samples, select a few training examples into the buffer, and
score the model on every task seen so far.

The loop runs ``MlpModel``: graph tasks train the depth-0 model (softmax
regression on propagated features), image tasks the two-hidden-layer one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .datasets import ImageTask, TaskSequence, TaskSpec
from .graph import (Graph, PropagatedRows, induced_subgraph, normalize_adjacency, propagate,
                    propagated_rows)
from .linear import Batch, LossGroup, stack_samples
from .metrics import AccuracyMatrix, accuracy
from .mlp import MlpModel
from .optim import TrainConfig
from .selection import class_rows, select_cm, select_im, select_mf, select_random

STRATEGIES = ("none", "random", "mf", "mf-embed", "cm", "cm-embed", "im")
EVAL_MODES = ("task-aware", "class-incremental")
# Share of each class's training rows that `im` holds out as influence probes.
PROBE_FRACTION = 0.25


@dataclass(frozen=True)
class ReplayConfig:
    """Knobs for one continual run (strategy is passed separately)."""

    e: int = 1
    k: int = 2
    epochs: int = 100
    lr: float = 0.2
    decay: float = 5e-6
    batch_size: Optional[int] = None
    eval_mode: str = "task-aware"
    seed: int = 0

    def __post_init__(self):
        errors = config_errors(self)
        if errors:
            raise ValueError("{} {}".format(*errors[0]))


def config_errors(config) -> list[tuple[str, str]]:
    """``(key, message)`` per invalid replay setting of a ReplayConfig, or of
    the ExperimentConfig whose same-named keys feed one."""
    errors = [(key, f"must be >= {low}")
              for key, low in (("e", 1), ("k", 0), ("epochs", 0))
              if getattr(config, key) < low]
    if config.lr <= 0:
        errors.append(("lr", "must be > 0"))
    if config.decay < 0:
        errors.append(("decay", "must be >= 0"))
    if config.batch_size is not None and config.batch_size < 1:
        errors.append(("batch_size", "must be >= 1"))
    if config.eval_mode not in EVAL_MODES:
        errors.append(("eval_mode", f"must be one of {', '.join(EVAL_MODES)}; "
                                    f"got {config.eval_mode!r}"))
    return errors


def weight_factor(train_count: int, buffer_count: int) -> float:
    """buffer_count / (train_count + buffer_count)."""
    if train_count < 1:
        raise ValueError("train_count must be >= 1")
    if buffer_count < 0:
        raise ValueError("buffer_count must be >= 0")
    return buffer_count / (train_count + buffer_count)


def loss_groups(train: Batch, buffer: Batch | None, train_mask,
                buffer_mask) -> list[LossGroup]:
    """Loss terms realizing beta * loss(train) + (1 - beta) * loss(buffer)
    over sum-reduced losses.

    The balance is exact: the total weight placed on the current task,
    beta * len(train), equals the total weight on the buffer,
    (1 - beta) * len(buffer). An empty buffer (None or no rows) contributes
    nothing and the current task keeps coefficient 1, otherwise the first
    task could never be learned (beta would zero it out).
    """
    if len(train) == 0:
        raise ValueError("train batch is empty")
    if buffer is None or len(buffer) == 0:
        return [LossGroup(train, train_mask, 1.0)]
    beta = weight_factor(len(train), len(buffer))
    return [LossGroup(train, train_mask, beta),
            LossGroup(buffer, buffer_mask, 1.0 - beta)]


class ExperienceBuffer:
    """Add-only store of selected rows, at most ``capacity`` per (origin
    task, class) pair.

    Keying by the pair rather than by class alone keeps capacities correct
    when tasks share a label space (permuted images); for class-disjoint
    graph sequences the two keyings coincide.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._rows: Batch | None = None

    def add(self, rows: Batch) -> None:
        """Store rows carrying ``task`` and ``node`` columns; all or nothing.
        Adding no rows changes nothing."""
        if rows.task is None or rows.node is None:
            raise ValueError("buffer rows need task and node columns")
        if len(rows) == 0:
            return
        finite = np.all(np.isfinite(rows.x), axis=1)
        if not finite.all():
            raise ValueError(f"node {rows.node[~finite][0]}: non-finite input representation")
        new = Batch(rows.x, rows.y, node=rows.node, task=rows.task)
        merged = new if self._rows is None else stack_samples([self._rows, new])
        pairs, sizes = np.unique(np.column_stack([merged.task, merged.y]), axis=0,
                                 return_counts=True)
        over = np.flatnonzero(sizes > self.capacity)
        if over.size:
            (task, label), size = pairs[over[0]].tolist(), int(sizes[over[0]])
            fresh = int(np.sum((new.task == task) & (new.y == label)))
            raise ValueError(f"buffer capacity {self.capacity} exceeded for (task, class) "
                             f"{(task, label)}: {size - fresh} stored + {fresh} new")
        # a stable sort, so the oldest row stays first within a pair
        self._rows = merged.take(np.lexsort((merged.y, merged.task)))

    def batch(self) -> Batch | None:
        """Stored rows ordered by (task, class), oldest first within a pair;
        None while empty."""
        return self._rows

    def classes(self) -> tuple[int, ...]:
        return () if self._rows is None else tuple(np.unique(self._rows.y).tolist())

    def __len__(self) -> int:
        return 0 if self._rows is None else len(self._rows)


@dataclass(frozen=True)
class TaskData:
    """One task's model-ready rows: the training batch (which doubles as the
    selection candidates) and the held-back evaluation split. Graph tasks
    hold their test rows unmade (``graph.PropagatedRows``), which is all
    ``MlpModel.predict`` needs; image tasks hold theirs as given."""

    task_id: int
    classes: tuple[int, ...]
    train: Batch
    test_inputs: np.ndarray | PropagatedRows
    test_labels: np.ndarray


def prepare_task_data(graph: Graph, task: TaskSpec, k: int = 2) -> TaskData:
    """Propagate features over the subgraph induced by the task's own nodes
    (nodes from other tasks are invisible while it is current) and package
    its splits: the training rows dense in float64, the test rows unmade."""
    nodes = np.unique(np.concatenate([task.train_nodes, task.test_nodes]))
    sub = induced_subgraph(graph, nodes)
    s = normalize_adjacency(sub)
    # induced_subgraph numbers the nodes in ascending order, as in ``nodes``
    train_x = propagate(s, sub.features, k, np.searchsorted(nodes, task.train_nodes)).values
    n = len(task.train_nodes)
    train = Batch(train_x.toarray(), graph.labels[task.train_nodes],
                  node=task.train_nodes, task=np.full(n, task.task_id),
                  attributes=graph.features[task.train_nodes].toarray())
    test_x = propagated_rows(s, sub.features, k, np.searchsorted(nodes, task.test_nodes))
    return TaskData(task.task_id, tuple(task.classes), train,
                    test_x, graph.labels[task.test_nodes])


def prepare_sequence(seq: TaskSequence, config: ReplayConfig) -> list[TaskData]:
    return [prepare_task_data(seq.graph, task, config.k) for task in seq.tasks]


def prepare_image_task(task: ImageTask) -> TaskData:
    """Package a permuted-image task; pixels serve as both input and geometry."""
    classes = tuple(sorted(set(task.train_labels.tolist()) | set(task.test_labels.tolist())))
    n = len(task.train_labels)
    train = Batch(task.train_images, task.train_labels, node=np.arange(n),
                  task=np.full(n, task.task_id))
    return TaskData(task.task_id, classes, train, task.test_images, task.test_labels)


@dataclass
class RunState:
    """Everything a run accumulates: model, buffer, scores, snapshots, events."""

    model: object
    buffer: ExperienceBuffer
    rows: list[list[float]] = field(default_factory=list)
    history: list[TaskData] = field(default_factory=list)
    snapshots: list[dict[str, np.ndarray]] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)

    def matrix(self) -> AccuracyMatrix:
        return AccuracyMatrix.from_rows(self.rows)

    def seen_classes(self) -> tuple[int, ...]:
        seen: set[int] = set()
        for data in self.history:
            seen.update(data.classes)
        return tuple(sorted(seen))


def _derived_seed(*keys: int) -> int:
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def _train_config(config: ReplayConfig, task_id: int) -> TrainConfig:
    """Per-task trainer settings; the shuffle seed varies by task so mini-batch
    orders differ across tasks but stay reproducible."""
    return TrainConfig(epochs=config.epochs, lr=config.lr,
                       batch_size=config.batch_size,
                       seed=_derived_seed(config.seed, task_id, 3))


def _carve_probes(candidates: Batch, rng) -> tuple[np.ndarray, np.ndarray]:
    """Rows to keep and rows held out as influence probes, roughly
    ``PROBE_FRACTION`` of each class.

    Classes too small to split contribute no probes; if every class is like
    that, nothing is carved and the candidates double as their own probes.
    """
    keep, probes = [], []
    for _, rows in class_rows(candidates):
        n_probe = min(len(rows) - 1, max(1, round(PROBE_FRACTION * len(rows))))
        if n_probe < 1:
            keep.append(rows)
            continue
        held = np.zeros(len(rows), dtype=bool)
        held[rng.choice(len(rows), size=n_probe, replace=False)] = True
        keep.append(rows[~held])
        probes.append(rows[held])
    if not probes:
        everything = np.arange(len(candidates))
        return everything, everything
    return np.concatenate(keep), np.concatenate(probes)


def _select(model, strategy: str, candidates: Batch, probes: Batch | None,
            buffer: Batch | None, seen, config: ReplayConfig, task_id: int) -> np.ndarray:
    """Row indices into ``candidates`` that go into the buffer; ``im`` scores
    over the ``seen`` classes."""
    if strategy == "none":
        return np.zeros(0, dtype=np.int64)
    if strategy == "random":
        return select_random(candidates, config.e, _derived_seed(config.seed, task_id, 1))
    if strategy == "im":
        population = candidates if buffer is None else stack_samples([candidates, buffer])
        return select_im(model, candidates, config.e, probes, mask=seen,
                         population=population)
    if strategy.endswith("-embed"):
        geometry = model.embed(candidates.x)
    else:
        geometry = (candidates.attributes if candidates.attributes is not None
                    else candidates.x)
    if strategy in ("mf", "mf-embed"):
        return select_mf(candidates, config.e, geometry)
    return select_cm(candidates, config.e, geometry)


def learn_task(state: RunState, data: TaskData, strategy: str,
               config: ReplayConfig) -> RunState:
    """One pass of the per-task loop; mutates and returns ``state``.

    Steps: record the task and the classes seen so far, train on the weighted
    current-plus-buffer objective, select experiences from the trained rows,
    grow the buffer, then score every task seen so far and snapshot the
    parameters. Every class mask is chosen here. Task-aware, each loss group
    runs over its own rows' classes and each task is scored over its own;
    class-incremental, both loss groups and every score run over all classes
    seen so far. ``im`` always scores influence over the seen classes.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    buffer = state.buffer.batch()
    buffer_before = len(state.buffer)
    state.history.append(data)
    seen = state.seen_classes()
    if config.eval_mode == "task-aware":
        train_mask, buffer_mask = data.classes, state.buffer.classes()
        score_masks = [past.classes for past in state.history]
    else:
        train_mask = buffer_mask = seen
        score_masks = [seen] * len(state.history)

    train, probes = data.train, None
    if strategy == "im":
        rng = np.random.default_rng(_derived_seed(config.seed, data.task_id, 2))
        keep, held = _carve_probes(train, rng)
        train, probes = train.take(keep), Batch(train.x[held], train.y[held])

    beta = weight_factor(len(train), buffer_before)
    groups = loss_groups(train, buffer, train_mask, buffer_mask)
    state.model = state.model.fit(groups, _train_config(config, data.task_id))

    selected = train.take(_select(state.model, strategy, train, probes, buffer, seen, config,
                                  data.task_id))
    state.buffer.add(selected)

    row = []
    for past, mask in zip(state.history, score_masks):
        row.append(accuracy(state.model.predict(past.test_inputs, mask), past.test_labels))
    state.rows.append(row)
    state.snapshots.append({name: arr.copy()
                            for name, arr in state.model.to_arrays().items()})

    losses = [float(state.model.loss(g.batch, g.mask)) for g in groups]
    state.events.append({
        "task": data.task_id,
        "strategy": strategy,
        "beta": beta,
        "train_count": len(train),
        "probe_count": 0 if probes is None else len(probes),
        "buffer_before": buffer_before,
        "buffer_after": len(state.buffer),
        "loss_train": losses[0],
        "loss_buffer": losses[1] if buffer is not None else None,
        "loss_combined": sum(g.coeff * loss for g, loss in zip(groups, losses)),
        "selected_nodes": selected.node.tolist(),
        "seen_classes": list(seen),
        "accuracies": list(row),
    })
    return state


def _run(model, datas, strategy: str, config: ReplayConfig) -> RunState:
    """Learn each task in turn, starting from ``model`` and an empty buffer."""
    state = RunState(model=model, buffer=ExperienceBuffer(config.e))
    for data in datas:
        learn_task(state, data, strategy, config)
    return state


def run_sequence(seq: TaskSequence, strategy: str, config: ReplayConfig) -> RunState:
    """Run the full loop over a graph task sequence with the linear model."""
    model = MlpModel.zeros(seq.graph.class_count, seq.graph.feature_dim,
                           weight_decay=config.decay)
    return _run(model, prepare_sequence(seq, config), strategy, config)


def run_image_tasks(tasks, strategy: str, config: ReplayConfig,
                    hidden_dim: int = 256) -> RunState:
    """Run the loop over permuted-image tasks with the MLP.

    All tasks share the label space, classes 0 up to the largest train or
    test label, so the buffer's per-(task, class) keying is what keeps
    capacities right.
    """
    if not tasks:
        raise ValueError("no image tasks given")
    input_dim = tasks[0].train_images.shape[1]
    class_count = 1 + max(int(labels.max()) for task in tasks
                          for labels in (task.train_labels, task.test_labels))
    model = MlpModel.init(input_dim=input_dim, hidden_dim=hidden_dim,
                          class_count=class_count, weight_decay=config.decay,
                          seed=config.seed)
    return _run(model, map(prepare_image_task, tasks), strategy, config)
