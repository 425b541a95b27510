"""Performance-mean and forgetting-mean over a task-by-task accuracy matrix."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class AccuracyMatrix:
    """Lower-triangular matrix: ``values[i, j]`` is the score on task ``j``
    measured right after training task ``i`` (defined for ``j <= i``).
    """

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"accuracy matrix must be square, got shape {v.shape}")
        lower = np.tril_indices_from(v)
        if not np.all(np.isfinite(v[lower])):
            raise ValueError("incomplete matrix: lower triangle contains non-finite entries")
        if np.any(v[lower] < 0.0) or np.any(v[lower] > 1.0):
            raise ValueError("scores must lie in [0, 1]")
        upper = np.triu_indices_from(v, k=1)
        if not np.all(np.isnan(v[upper])):
            raise ValueError("entries above the diagonal must be NaN")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_rows(cls, rows) -> "AccuracyMatrix":
        """Build from ragged rows, row ``i`` holding the ``i + 1`` scores so far."""
        m = len(rows)
        values = np.full((m, m), np.nan)
        for i, row in enumerate(rows):
            if len(row) != i + 1:
                raise ValueError(f"row {i} has {len(row)} entries, expected {i + 1}")
            values[i, :i + 1] = row
        return cls(values)

    @property
    def num_tasks(self) -> int:
        return self.values.shape[0]

    def to_csv(self, path) -> None:
        """One ``i,j,value`` line per defined entry, row-major."""
        lines = ["i,j,value"]
        for i in range(self.num_tasks):
            for j in range(i + 1):
                lines.append(f"{i},{j},{self.values[i, j]:.10g}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path) -> "AccuracyMatrix":
        """Read what :meth:`to_csv` writes; blank lines are skipped.

        A line that is not ``i,j,value`` with ``0 <= j <= i`` decimal indices
        and a number, an ``(i, j)`` given twice, and a file with no entries
        raise ``ValueError`` naming the file and line.
        """
        lines = [(lineno, line.strip()) for lineno, line
                 in enumerate(Path(path).read_text().split("\n"), start=1) if line.strip()]
        if not lines or lines[0][1] != "i,j,value":
            raise ValueError(f"{path}: expected header 'i,j,value'")
        if len(lines) == 1:
            raise ValueError(f"{path}:{lines[0][0]}: no entries after the header")
        entries = {}
        for lineno, line in lines[1:]:
            where = f"{path}:{lineno}"
            parts = [part.strip() for part in line.split(",")]
            if len(parts) != 3:
                raise ValueError(f"{where}: expected 'i,j,value'")
            if not all(index.isascii() and index.isdigit() for index in parts[:2]):
                raise ValueError(f"{where}: indices must be non-negative integers, "
                                 f"got {parts[0]!r}, {parts[1]!r}")
            i, j = int(parts[0]), int(parts[1])
            if j > i:
                raise ValueError(f"{where}: entry ({i}, {j}) lies above the diagonal")
            if (i, j) in entries:
                raise ValueError(f"{where}: entry ({i}, {j}) given twice")
            try:
                entries[i, j] = float(parts[2])
            except ValueError:
                raise ValueError(f"{where}: non-numeric value {parts[2]!r}") from None
        m = max(i for i, _ in entries) + 1
        values = np.full((m, m), np.nan)
        for (i, j), val in entries.items():
            values[i, j] = val
        return cls(values)


def performance_mean(matrix: AccuracyMatrix) -> float:
    """Mean of the just-after-training scores, (1/M) sum_j A[j][j]."""
    return float(np.mean(np.diag(matrix.values)))


def forgetting_mean(matrix: AccuracyMatrix) -> tuple[float, np.ndarray]:
    """How much each task lost between its own training and the end of the run.

    f_j = A[j][j] - A[M-1][j], averaged over the M-1 earlier tasks; the final
    task's difference is identically zero and is left out.
    """
    m = matrix.num_tasks
    if m < 2:
        raise ValueError("forgetting needs at least 2 tasks")
    diffs = np.array([matrix.values[j, j] - matrix.values[m - 1, j] for j in range(m - 1)])
    return float(np.mean(diffs)), diffs


def _checked(predictions, labels) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(predictions)
    lab = np.asarray(labels)
    if pred.size == 0:
        raise ValueError("empty prediction vector")
    if pred.shape != lab.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {lab.shape}")
    return pred, lab


def accuracy(predictions, labels) -> float:
    pred, lab = _checked(predictions, labels)
    return float(np.mean(pred == lab))


def micro_f1(predictions, labels) -> float:
    """Micro-averaged F1 from pooled per-class true/false positive counts.

    For single-label predictions this equals accuracy (every wrong prediction
    is one false positive and one false negative), but the computation goes
    through the pooled counts rather than assuming the identity.
    """
    pred, lab = _checked(predictions, labels)
    classes = np.union1d(pred, lab)
    tp = fp = fn = 0
    for c in classes:
        tp += int(np.sum((pred == c) & (lab == c)))
        fp += int(np.sum((pred == c) & (lab != c)))
        fn += int(np.sum((pred != c) & (lab == c)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return float(2.0 * precision * recall / (precision + recall))
