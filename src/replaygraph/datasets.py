"""Dataset loading and continual-task construction.

Covers the plain-text citation format (``.content``/``.cites``), IDX-format
MNIST files, class-partitioned task sequences for graphs, pixel-permuted
image tasks, and seeded synthetic fixtures for tests and demos.
"""

from __future__ import annotations

import gzip
import logging
import math
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .graph import Graph, graph_from_edges

logger = logging.getLogger(__name__)


class CitationFormatError(ValueError):
    """Malformed .content/.cites line; message carries the file and line number."""


class IdxFormatError(ValueError):
    """Bad magic number, truncated IDX file or corrupt gzip stream."""


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
    """One permuted-image task: C-contiguous float64 splits under one pixel permutation."""

    task_id: int
    pixel_permutation: np.ndarray
    train_images: np.ndarray
    train_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray


PARSE_BLOCK_BYTES = 2**19  # text decoded at a time: small enough to stay in L2
# .cites text split into tokens at a time: their str objects take ~8x its bytes
CITES_BLOCK_BYTES = PARSE_BLOCK_BYTES // 8


def _bag_of_words(blocks: list[str]):
    """The (n, d) CSR matrix of bag-of-words blocks (every one ``d`` single
    ``0``/``1`` digits joined by one space or tab), holding only the ones;
    None if any block is not of that form.

    Rows are decoded ``PARSE_BLOCK_BYTES`` of text at a time, so each byte is
    read once while it is still in cache and no whole-input array is made.
    """
    width = len(blocks[0])
    if not width % 2 or any(len(block) != width for block in blocks):
        return None
    d = (width + 1) // 2
    step = max(1, PARSE_BLOCK_BYTES // width)
    ones = []  # flat positions row * d + column, ascending
    for start in range(0, len(blocks), step):
        chunk = blocks[start:start + step]
        raw = np.frombuffer("".join(chunk).encode(), dtype=np.uint8)
        if raw.size != len(chunk) * width:  # a character wider than one byte
            return None
        grid = raw.reshape(len(chunk), width)
        digits = grid[:, 0::2] - ord("0")  # uint8: bytes below "0" wrap past 1
        if digits.max() > 1:
            return None
        gaps = grid[:, 1::2]
        if not (gaps == ord(" ")).all():  # test tabs only when spaces alone fail
            if not ((gaps == ord(" ")) | (gaps == ord("\t"))).all():
                return None
        ones.append(np.flatnonzero(digits.view(np.bool_)) + start * d)  # digits are 0/1
    import scipy.sparse as sp
    ones = np.concatenate(ones)
    indptr = np.searchsorted(ones, np.arange(len(blocks) + 1) * d)
    return sp.csr_matrix((np.ones(ones.size), ones % d, indptr), shape=(len(blocks), d))


def _parse_attributes(blocks: list[str]):
    """Parse whitespace-separated attribute blocks into (n, d) float64 values:
    a sparse CSR matrix for bag-of-words blocks, a dense array otherwise.

    Bag-of-words blocks are decoded straight from their bytes
    (:func:`_bag_of_words`); anything else goes through ``np.loadtxt``, which
    gives the same entries for binary blocks. ``Graph`` stores either as CSR.
    A ``nan``, ``inf`` or overflowing value raises ``ValueError("non-finite")``.
    """
    features = _bag_of_words(blocks)
    if features is None:
        features = np.loadtxt(blocks, dtype=np.float64, comments=None, ndmin=2)
        if not np.isfinite(features).all():  # bag-of-words holds only 0/1
            raise ValueError("non-finite")
    return features


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
                except ValueError as exc:
                    kind = "non-finite" if exc.args == ("non-finite",) else "non-numeric"
                    raise CitationFormatError(
                        f"{path}:{lineno}: {kind} attribute {token!r}") from None


# 1 for each ASCII byte that is whitespace to str.split(), else 0; bytes from
# 0x80 up are parts of UTF-8 sequences (`à` is C3 A0), never separators
_SPACE = bytes(code < 0x80 and chr(code).isspace() for code in range(256))


def _citations(path: Path, text: str, index: dict[str, int]):
    """``(pairs, dropped)`` for ``.cites`` text: the (m, 2) int64 node pairs
    of its citations between known, distinct ids, and how many others there
    were. The first line that is neither blank nor two tokens raises.

    Lines end at ``\\n`` and tokens at ``str.split()``'s whitespace. The text
    is taken ``CITES_BLOCK_BYTES`` of whole lines at a time, so the token
    strings of only one block are held at once.
    """
    if not text.isascii():  # one space for each non-ASCII separator
        text = text.translate({ord(char): " " for char in set(text)
                               if char.isspace() and not char.isascii()})
    parts = []
    dropped = 0
    lines_before = 0
    start = 0
    while start < len(text):
        end = text.find("\n", start + CITES_BLOCK_BYTES) + 1 or len(text)
        block = text[start:end]
        start = end
        data = block.encode()
        space = np.frombuffer(data.translate(_SPACE), dtype=np.bool_)
        first = ~space  # the first byte of each token
        first[1:] &= space[:-1]
        # each token's line in the block: how many newlines come before it
        newlines = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
        counts = np.bincount(np.searchsorted(newlines, np.flatnonzero(first)))
        bad = np.flatnonzero((counts != 0) & (counts != 2))
        if bad.size:
            raise CitationFormatError(
                f"{path}:{lines_before + bad[0] + 1}: expected `<cited_id> <citing_id>`, "
                f"got {counts[bad[0]]} fields")
        lines_before += len(newlines)
        tokens = block.split()
        pairs = np.fromiter(map(index.get, tokens, repeat(-1)), dtype=np.int64,
                            count=len(tokens)).reshape(-1, 2)
        keep = (pairs >= 0).all(axis=1) & (pairs[:, 0] != pairs[:, 1])
        dropped += len(pairs) - np.count_nonzero(keep)
        parts.append(pairs[keep])
    return np.concatenate(parts) if parts else np.empty((0, 2), dtype=np.int64), dropped


def load_citation_dataset(content_path, cites_path) -> Graph:
    """Parse `<id> <attr_0> ... <attr_{d-1}> <label>` content lines and
    `<cited_id> <citing_id>` cites lines into a Graph.

    Fields are separated by runs of whitespace (tabs or spaces); blank lines
    are skipped and there is no comment syntax, so ``#`` is data.

    String labels are mapped to contiguous integer ids in first-appearance
    order. Citations are symmetrized; edges referencing unknown ids (and
    self citations) are dropped with a logged warning count.
    """
    content_path = Path(content_path)
    cites_path = Path(cites_path)

    index: dict[str, int] = {}
    middles: list[str] = []
    linenos: list[int] = []
    label_ids: list[int] = []
    label_index: dict[str, int] = {}

    with content_path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            head = line.split(None, 1)
            if not head:
                continue
            rest = head[1].rsplit(None, 1) if len(head) == 2 else []
            if len(rest) == 2 and head[0] not in index:
                index[head[0]] = len(index)
                middles.append(rest[0])
                linenos.append(lineno)
                label_ids.append(label_index.setdefault(rest[1], len(label_index)))
                continue
            _check_attribute_rows(content_path, linenos, middles)  # an earlier fault wins
            fault = (f"duplicate node id {head[0]}" if len(rest) == 2 else
                     f"expected `<id> <attrs...> <label>`, got {1 + len(rest)} fields")
            raise CitationFormatError(f"{content_path}:{lineno}: {fault}")

    if not index:
        raise CitationFormatError(f"{content_path}: no content lines")
    try:
        features = _parse_attributes(middles)
    except ValueError:
        _check_attribute_rows(content_path, linenos, middles)
        raise

    with cites_path.open() as fh:
        text = fh.read()
    edges, dropped = _citations(cites_path, text, index)
    if dropped:
        logger.warning("%s: dropped %d citation(s) referencing unknown ids or self loops",
                       cites_path, dropped)

    return graph_from_edges(len(index), edges, features,
                            np.array(label_ids, dtype=np.int64),
                            class_count=len(label_index))


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


def _idx_dims(path: Path, fh, ndim: int) -> tuple[int, ...]:
    """The dimensions in the header ``fh`` is at, of an IDX file of ``ndim``-D
    unsigned bytes (magic 2051 for images, 2049 for labels); reads only that."""
    raw = fh.read(4 + 4 * ndim)
    magic = int.from_bytes(raw[:4], "big")
    if len(raw) >= 4 and magic != 0x800 + ndim:
        raise IdxFormatError(f"{path}: bad magic number {magic}, expected {0x800 + ndim}")
    if len(raw) < 4 + 4 * ndim:
        raise IdxFormatError(f"{path}: truncated header")
    return struct.unpack(f">{ndim}I", raw[4:])


@contextmanager
def _open_idx(path: Path):
    """``path`` opened for reading, gzipped or not; a truncated or corrupt gzip
    stream, read in the ``with`` body, raises IdxFormatError naming the file."""
    try:
        with (gzip.open if path.suffix == ".gz" else open)(path, "rb") as fh:
            yield fh
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise IdxFormatError(f"{path}: {exc}") from None


def _read_idx(path: Path, ndim: int) -> np.ndarray:
    with _open_idx(path) as fh:
        dims = _idx_dims(path, fh, ndim)
        raw = fh.read()
    count = math.prod(dims)  # np.prod would wrap past 2**63 and pass the check below
    if len(raw) < count:
        raise IdxFormatError(f"{path}: expected {count} data bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8, count=count).reshape(dims)


def _mnist_files(directory: Path) -> dict[str, Path]:
    """The train IDX files under the conventional names, gzipped or not."""
    found = {}  # the last existing name wins
    for kind, idx in (("images", "idx3"), ("labels", "idx1")):
        for name in (f"train-{kind}-{idx}-ubyte", f"train-{kind}.{idx}-ubyte"):
            for candidate in (directory / name, directory / f"{name}.gz"):
                if candidate.exists():
                    found[kind] = candidate
    if len(found) < 2:
        raise FileNotFoundError(f"no train IDX files under {directory}")
    return found


def _mnist_train_count(directory: Path) -> int:
    """The image count in the train images' IDX header; raises unless the
    labels file's header is well formed and gives the same count."""
    found = _mnist_files(directory)
    counts = []
    for kind, ndim in (("images", 3), ("labels", 1)):
        with _open_idx(found[kind]) as fh:
            counts.append(_idx_dims(found[kind], fh, ndim)[0])
    if counts[0] != counts[1]:
        raise IdxFormatError(f"{directory}: {counts[0]} images vs {counts[1]} labels")
    return counts[0]


def load_mnist(directory) -> tuple[np.ndarray, np.ndarray]:
    """Load the train IDX image/label files; pixels scaled to [0, 1], images flattened.

    Looks for the conventional `train-*` file names, gzipped or not.
    """
    directory = Path(directory)
    found = _mnist_files(directory)
    images = _read_idx(found["images"], 3)
    labels = _read_idx(found["labels"], 1)
    if images.shape[0] != labels.shape[0]:
        raise IdxFormatError(f"{directory}: {images.shape[0]} images vs "
                             f"{labels.shape[0]} labels")
    flat = images.reshape(images.shape[0], -1).astype(np.float64)
    flat /= 255.0  # in place: one float64 copy of the pixels
    return flat, labels.astype(np.int64)


def _permuted_rows(images: np.ndarray, rows: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """``images[np.ix_(rows, perm)]``, built 32 rows at a time: a row gather,
    then a column ``np.take`` into the output. That is twice as fast as the
    2-D fancy index, and no temporary the size of the output is made."""
    out = np.empty((len(rows), len(perm)))
    for start in range(0, len(rows), 32):
        block = slice(start, start + 32)
        # mode="clip" changes nothing (perm is in range) but lets take write
        # straight into out; the default mode copies through a buffer
        np.take(images[rows[block]], perm, axis=1, out=out[block], mode="clip")
    return out


def make_permuted_tasks(images: np.ndarray, labels: np.ndarray, num_tasks: int,
                        per_task_train: int, per_task_test: int, seed: int) -> list[ImageTask]:
    """Build pixel-permutation tasks: task 0 keeps the identity permutation,
    later tasks draw independent seeded permutations applied to both splits.
    Each split is new C-contiguous float64 rows (:func:`_permuted_rows`).
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
            train_images=_permuted_rows(images, tr, perm),
            train_labels=labels[tr],
            test_images=_permuted_rows(images, te, perm),
            test_labels=labels[te],
        ))
    return tasks


def synthetic_sbm_graph(block_sizes, intra_p: float, inter_p: float,
                        feature_noise: float, seed: int) -> Graph:
    """Stochastic-block-model fixture: labels are block ids, features are a
    one-hot block indicator plus Gaussian noise."""
    if not 0.0 <= intra_p <= 1.0 or not 0.0 <= inter_p <= 1.0:
        raise ValueError("edge probabilities must lie in [0, 1]")
    if feature_noise < 0:
        raise ValueError(f"feature_noise must be >= 0, got {feature_noise}")
    sizes = list(block_sizes)
    n = sum(sizes)
    blocks = np.repeat(np.arange(len(sizes)), sizes)
    rng = np.random.default_rng(seed)
    # One uniform per pair u < v, drawn in row-major order.
    u, v = np.triu_indices(n, 1)
    hit = rng.random(len(u)) < np.where(blocks[u] == blocks[v], intra_p, inter_p)
    features = np.eye(len(sizes))[blocks]
    features = features + feature_noise * rng.standard_normal(features.shape)
    return graph_from_edges(n, np.column_stack([u[hit], v[hit]]), features,
                            blocks.astype(np.int64), class_count=len(sizes))


def synthetic_image_dataset(num_classes: int, per_class: int, noise: float,
                            seed: int, dim: int = 784) -> tuple[np.ndarray, np.ndarray]:
    """Template-plus-noise image fixture shaped like flattened MNIST.

    Each class has a fixed random template in [0, 1]; samples are the template
    under a random intensity plus Gaussian noise, clipped back to [0, 1]. The
    images are generated and shuffled in place, so only one copy is ever held.
    """
    if noise < 0:
        raise ValueError(f"noise must be >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    templates = rng.uniform(0.0, 1.0, size=(num_classes, dim))
    images = np.empty((num_classes * per_class, dim))
    for c in range(num_classes):
        intensity = rng.uniform(0.6, 1.0, size=(per_class, 1))
        block = images[c * per_class:(c + 1) * per_class]
        rng.standard_normal(out=block)
        block *= noise
        block += templates[c] * intensity
        np.clip(block, 0.0, 1.0, out=block)
    order = rng.permutation(len(images))
    # images[order] in place, cycle by cycle (numpy copies an overlapping gather)
    src = order.tolist()
    for start in range(len(src)):
        if src[start] is None:
            continue
        held, dst = images[start].copy(), start
        while src[dst] is not None:
            nxt, src[dst] = src[dst], None
            images[dst] = held if nxt == start else images[nxt]
            dst = nxt
    return images, order // per_class  # row r was drawn for class r // per_class
