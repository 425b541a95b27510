"""Dataset loading and continual-task construction.

Covers the plain-text citation format (``.content``/``.cites``), IDX-format
MNIST files, class-partitioned task sequences for graphs, pixel-permuted
image tasks, and seeded synthetic fixtures for tests and demos.
"""

from __future__ import annotations

import gzip
import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import Graph, graph_from_edges

logger = logging.getLogger(__name__)


class CitationFormatError(ValueError):
    """Malformed .content/.cites line; message carries the file and line number."""


class IdxFormatError(ValueError):
    """Bad magic number or truncated IDX file."""


@dataclass(frozen=True)
class TaskSpec:
    """One node-classification task: its class set and train/test node lists."""

    task_id: int
    classes: tuple[int, ...]
    train_nodes: np.ndarray
    test_nodes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "train_nodes", np.asarray(self.train_nodes, dtype=np.int64))
        object.__setattr__(self, "test_nodes", np.asarray(self.test_nodes, dtype=np.int64))
        if set(self.train_nodes.tolist()) & set(self.test_nodes.tolist()):
            raise ValueError(f"task {self.task_id}: train/test node sets overlap")


@dataclass(frozen=True)
class TaskSequence:
    """Ordered tasks over one graph; class sets of distinct tasks are disjoint."""

    graph: Graph
    tasks: tuple[TaskSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        seen: set[int] = set()
        for i, task in enumerate(self.tasks):
            if task.task_id != i:
                raise ValueError("tasks must be ordered by task_id starting at 0")
            if seen & set(task.classes):
                raise ValueError(f"task {i} reuses classes from an earlier task")
            seen.update(task.classes)
            for nodes in (task.train_nodes, task.test_nodes):
                bad = set(self.graph.labels[nodes].tolist()) - set(task.classes)
                if bad:
                    raise ValueError(f"task {i} lists nodes with labels {sorted(bad)} "
                                     "outside its class set")


@dataclass(frozen=True)
class ImageTask:
    """One permuted-image task; the same pixel permutation is applied to train and test."""

    task_id: int
    pixel_permutation: np.ndarray
    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray


def _parse_attributes(blocks: list[str]) -> np.ndarray:
    """Parse whitespace-separated attribute blocks into an (n, d) float64 matrix.

    Bag-of-words blocks (every one `d` single `0`/`1` digits joined by one
    space or tab) are decoded straight from their bytes; anything else goes
    through ``np.loadtxt``, which gives the same matrix for binary blocks.
    """
    width = len(blocks[0])
    if width % 2 and all(len(block) == width for block in blocks):
        raw = np.frombuffer("".join(blocks).encode(), dtype=np.uint8)
        if raw.size == len(blocks) * width:
            grid = raw.reshape(len(blocks), width)
            digits = grid[:, 0::2] - ord("0")
            gaps = grid[:, 1::2]
            if (digits <= 1).all() and ((gaps == ord(" ")) | (gaps == ord("\t"))).all():
                return digits.astype(np.float64)
    return np.loadtxt(blocks, dtype=np.float64, comments=None, ndmin=2)


def _check_attribute_rows(path: Path, linenos: list[int], middles: list[str]) -> None:
    """Raise for the first attribute block that is narrower or wider than the
    first one, or that holds a token :func:`_parse_attributes` rejects."""
    width = None
    for lineno, middle in zip(linenos, middles):
        attrs = middle.split()
        if width is None:
            width = len(attrs)
        elif len(attrs) != width:
            raise CitationFormatError(
                f"{path}:{lineno}: expected {width} attributes, got {len(attrs)}")
        try:
            _parse_attributes([middle])
        except ValueError:
            for token in attrs:
                try:
                    _parse_attributes([token])
                except ValueError:
                    raise CitationFormatError(
                        f"{path}:{lineno}: non-numeric attribute {token!r}") from None


def load_citation_dataset(content_path, cites_path) -> Graph:
    """Parse `<id> <attr_0> ... <attr_{d-1}> <label>` content lines and
    `<cited_id> <citing_id>` cites lines into a Graph.

    Fields are separated by runs of whitespace (tabs or spaces); blank lines
    are skipped and there is no comment syntax, so ``#`` is data.

    String labels are mapped to contiguous integer ids in first-appearance
    order (recorded in ``Graph.label_names``). Citations are symmetrized;
    edges referencing unknown ids (and self citations) are dropped with a
    logged warning count.
    """
    content_path = Path(content_path)
    cites_path = Path(cites_path)

    ids: list[str] = []
    index: dict[str, int] = {}
    middles: list[str] = []
    linenos: list[int] = []
    label_ids: list[int] = []
    label_index: dict[str, int] = {}
    label_names: list[str] = []

    with content_path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            head = line.split(None, 1)
            if not head:
                continue
            rest = head[1].rsplit(None, 1) if len(head) == 2 else []
            if len(rest) < 2:
                _check_attribute_rows(content_path, linenos, middles)
                raise CitationFormatError(
                    f"{content_path}:{lineno}: expected `<id> <attrs...> <label>`, "
                    f"got {1 + len(rest)} fields")
            node_id, (middle, label) = head[0], rest
            if node_id in index:
                _check_attribute_rows(content_path, linenos, middles)
                raise CitationFormatError(f"{content_path}:{lineno}: duplicate node id {node_id}")
            if label not in label_index:
                label_index[label] = len(label_names)
                label_names.append(label)
            index[node_id] = len(ids)
            ids.append(node_id)
            middles.append(middle)
            linenos.append(lineno)
            label_ids.append(label_index[label])

    if not ids:
        raise CitationFormatError(f"{content_path}: no content lines")
    try:
        features = _parse_attributes(middles)
    except ValueError:
        _check_attribute_rows(content_path, linenos, middles)
        raise

    edges = []
    dropped = 0
    with cites_path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 2:
                raise CitationFormatError(
                    f"{cites_path}:{lineno}: expected `<cited_id> <citing_id>`, "
                    f"got {len(tokens)} fields")
            cited, citing = tokens
            if cited not in index or citing not in index or cited == citing:
                dropped += 1
                continue
            edges.append((index[cited], index[citing]))
    if dropped:
        logger.warning("%s: dropped %d citation(s) referencing unknown ids or self loops",
                       cites_path, dropped)

    return graph_from_edges(len(ids), edges, features,
                            np.array(label_ids, dtype=np.int64),
                            class_count=len(label_names),
                            label_names=tuple(label_names))


def build_task_sequence(g: Graph, classes_per_task: int, num_tasks: int,
                        train_per_class: int, seed: int) -> TaskSequence:
    """Partition classes (sorted by global id) into consecutive tasks and split nodes.

    Within each class, ``train_per_class`` nodes are sampled uniformly with the
    given seed as the train set; all remaining nodes of that class are test.
    Classes beyond ``classes_per_task * num_tasks`` are left unused.
    """
    needed = classes_per_task * num_tasks
    if needed > g.class_count:
        raise ValueError(f"need {needed} classes but the graph has {g.class_count}")
    rng = np.random.default_rng(seed)
    tasks = []
    for t in range(num_tasks):
        classes = tuple(range(t * classes_per_task, (t + 1) * classes_per_task))
        train: list[np.ndarray] = []
        test: list[np.ndarray] = []
        for c in classes:
            nodes = np.flatnonzero(g.labels == c)
            if len(nodes) < train_per_class + 1:
                raise ValueError(f"class {c} has {len(nodes)} nodes, "
                                 f"need at least {train_per_class + 1}")
            picked = rng.choice(nodes, size=train_per_class, replace=False)
            picked = np.sort(picked)
            train.append(picked)
            test.append(np.setdiff1d(nodes, picked))
        tasks.append(TaskSpec(t, classes, np.concatenate(train), np.concatenate(test)))
    return TaskSequence(g, tuple(tasks))


def _read_idx(path: Path) -> np.ndarray:
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise IdxFormatError(f"{path}: truncated header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic == 2051:
        ndim = 3
    elif magic == 2049:
        ndim = 1
    else:
        raise IdxFormatError(f"{path}: bad magic number {magic}")
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise IdxFormatError(f"{path}: truncated header")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    count = int(np.prod(dims))
    if len(raw) - header < count:
        raise IdxFormatError(f"{path}: expected {count} data bytes, got {len(raw) - header}")
    return np.frombuffer(raw, dtype=np.uint8, count=count, offset=header).reshape(dims)


def load_mnist(directory, split: str = "train") -> tuple[np.ndarray, np.ndarray]:
    """Load IDX image/label files; pixels scaled to [0, 1], images flattened to 784.

    Looks for the conventional `train-*`/`t10k-*` file names, gzipped or not.
    """
    directory = Path(directory)
    prefix = {"train": "train", "test": "t10k"}[split]
    images_file = None
    labels_file = None
    for name in (f"{prefix}-images-idx3-ubyte", f"{prefix}-images.idx3-ubyte"):
        for candidate in (directory / name, directory / f"{name}.gz"):
            if candidate.exists():
                images_file = candidate
    for name in (f"{prefix}-labels-idx1-ubyte", f"{prefix}-labels.idx1-ubyte"):
        for candidate in (directory / name, directory / f"{name}.gz"):
            if candidate.exists():
                labels_file = candidate
    if images_file is None or labels_file is None:
        raise FileNotFoundError(f"no {split} IDX files under {directory}")
    images = _read_idx(images_file)
    labels = _read_idx(labels_file)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(f"{directory}: {images.shape[0]} images vs "
                             f"{labels.shape[0]} labels")
    flat = images.reshape(images.shape[0], -1).astype(np.float64) / 255.0
    return flat, labels.astype(np.int64)


def make_permuted_tasks(images: np.ndarray, labels: np.ndarray, num_tasks: int,
                        per_task_train: int, per_task_test: int, seed: int) -> list[ImageTask]:
    """Build pixel-permutation tasks: task 0 keeps the identity permutation,
    later tasks draw independent seeded permutations applied to both splits.
    """
    n, dim = images.shape
    if per_task_train + per_task_test > n:
        raise ValueError("per-task train+test exceeds dataset size")
    rng = np.random.default_rng(seed)
    tasks = []
    for t in range(num_tasks):
        perm = np.arange(dim) if t == 0 else rng.permutation(dim)
        idx = rng.choice(n, size=per_task_train + per_task_test, replace=False)
        tr, te = idx[:per_task_train], idx[per_task_train:]
        tasks.append(ImageTask(
            task_id=t,
            pixel_permutation=perm,
            train_images=images[tr][:, perm],
            train_labels=labels[tr].copy(),
            test_images=images[te][:, perm],
            test_labels=labels[te].copy(),
        ))
    return tasks


def synthetic_sbm_graph(block_sizes, intra_p: float, inter_p: float,
                        feature_noise: float, seed: int) -> Graph:
    """Stochastic-block-model fixture: labels are block ids, features are a
    one-hot block indicator plus Gaussian noise."""
    if not 0.0 <= intra_p <= 1.0 or not 0.0 <= inter_p <= 1.0:
        raise ValueError("edge probabilities must lie in [0, 1]")
    sizes = list(block_sizes)
    n = sum(sizes)
    blocks = np.repeat(np.arange(len(sizes)), sizes)
    rng = np.random.default_rng(seed)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            p = intra_p if blocks[u] == blocks[v] else inter_p
            if rng.random() < p:
                edges.append((u, v))
    features = np.eye(len(sizes))[blocks]
    features = features + feature_noise * rng.standard_normal(features.shape)
    return graph_from_edges(n, edges, features, blocks.astype(np.int64),
                            class_count=len(sizes))


def synthetic_image_dataset(num_classes: int, per_class: int, noise: float,
                            seed: int, dim: int = 784) -> tuple[np.ndarray, np.ndarray]:
    """Template-plus-noise image fixture shaped like flattened MNIST.

    Each class has a fixed random template in [0, 1]; samples are the template
    under a random intensity plus Gaussian noise, clipped back to [0, 1].
    """
    rng = np.random.default_rng(seed)
    templates = rng.uniform(0.0, 1.0, size=(num_classes, dim))
    images = np.empty((num_classes * per_class, dim))
    labels = np.empty(num_classes * per_class, dtype=np.int64)
    for c in range(num_classes):
        intensity = rng.uniform(0.6, 1.0, size=(per_class, 1))
        block = templates[c] * intensity + noise * rng.standard_normal((per_class, dim))
        images[c * per_class:(c + 1) * per_class] = np.clip(block, 0.0, 1.0)
        labels[c * per_class:(c + 1) * per_class] = c
    order = rng.permutation(len(images))
    return images[order], labels[order]
