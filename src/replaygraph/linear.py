"""Rows as columns, and the pieces of the masked softmax head.

``Batch`` is the container every model and selector consumes, ``LossGroup``
one term of a training objective. ``logsumexp`` and ``label_positions``
serve the head of :class:`~replaygraph.mlp.MlpModel`, whose depth-0 case,
softmax regression on propagated features, is the linear model:
``LinearModel`` here names that same class.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields

import numpy as np


class MaskError(ValueError):
    """A sample label (or prediction request) fell outside the class mask."""


@dataclass(frozen=True, eq=False)
class Batch:
    """Rows held as columns: inputs ``x`` (n, d), global class ids ``y`` and
    loss weights ``w`` (ones by default).

    Selection candidates and buffered rows also carry ``node`` (index of the
    row in its graph or image set), ``task`` (origin task) and, for graph
    tasks, the raw ``attributes`` that attribute-space geometry uses.
    """

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray | None = None
    node: np.ndarray | None = None
    task: np.ndarray | None = None
    attributes: np.ndarray | None = None

    def __post_init__(self):
        # C-contiguous float64 (int64 for ids), as np.vstack of rows would give
        if self.w is None:
            object.__setattr__(self, "w", np.ones(np.shape(self.x)[0]))
        for f in fields(self):
            if getattr(self, f.name) is not None:
                dtype = np.int64 if f.name in ("y", "node", "task") else np.float64
                object.__setattr__(self, f.name,
                                   np.ascontiguousarray(getattr(self, f.name), dtype=dtype))
        if self.x.ndim != 2:
            raise ValueError(f"inputs have shape {self.x.shape}, expected (n, d)")
        for f in fields(self):
            column = getattr(self, f.name)
            if column is not None and column.shape[:1] != self.x.shape[:1]:
                raise ValueError(f"column {f.name} has shape {column.shape}, "
                                 f"expected {len(self)} rows")

    def __len__(self) -> int:
        return self.x.shape[0]

    def take(self, rows) -> "Batch":
        """The given rows, in the given order, with every column kept."""
        return Batch(**{f.name: None if getattr(self, f.name) is None
                        else getattr(self, f.name)[rows] for f in fields(self)})


@dataclass(frozen=True)
class LossGroup:
    """Rows sharing a class mask, contributing ``coeff * loss(batch, mask)``."""

    batch: Batch
    mask: tuple[int, ...] | None
    coeff: float


def stack_samples(batches) -> Batch:
    """Concatenate batches row-wise; a column survives if every batch has it."""
    batches = list(batches)
    if not batches:
        raise ValueError("need at least one sample")
    parts = {f.name: [getattr(b, f.name) for b in batches] for f in fields(Batch)}
    return Batch(**{name: None if any(p is None for p in column) else np.concatenate(column)
                    for name, column in parts.items()})


def logsumexp(z: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """Row-wise ``log(sum(exp(z)))`` of a 2-D array: the real-input formula of
    ``scipy.special.logsumexp(z, axis=1)`` without its array-API dispatch.

    As there, each row's maxima are split out of the sum, giving
    ``log1p(s / m) + log(m) + max`` for ``m`` maxima and ``s`` the sum of the
    other shifted exponentials; rows where that is not finite (a nan, an
    infinity, or all ``-inf``) take ``log(sum(exp(z)))`` instead. When every
    row's maximum is finite, so is every result, and nothing can warn.

    When every row's maximum is finite and is reached once, ``m = 1`` and
    the division and ``log(m)`` are skipped: ``s / 1`` is ``s``, and adding
    ``log(1) = +0.0`` to ``log1p(s) >= +0.0`` changes no bit.
    """
    top = z.max(axis=1, keepdims=True)
    finite = np.isfinite(top).all()
    with contextlib.nullcontext() if finite else np.errstate(divide="ignore", invalid="ignore",
                                                             over="ignore"):
        is_top = z == top
        # a finite maximum is hit at least once in its row
        single = finite and np.count_nonzero(is_top) == len(z)
        out = np.where(is_top, -np.inf, z)
        out -= top
        out = np.exp(out, out=out).sum(axis=1, keepdims=True)
        if single:
            np.log1p(out, out=out)
        else:
            m = is_top.sum(axis=1, keepdims=True, dtype=np.float64)
            out /= m
            np.log1p(out, out=out)
            out += np.log(m)
        out += top
        if not finite:
            bad = ~np.isfinite(out[:, 0])
            out[bad] = np.log(np.sum(np.exp(z[bad]), axis=1, keepdims=True))
    return out if keepdims else out[:, 0]


def label_positions(mask_arr: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each label's index within the sorted mask; empty or out-of-mask labels raise."""
    if y.size == 0:
        raise ValueError("need at least one sample")
    pos = np.searchsorted(mask_arr, y)
    bad = (pos >= mask_arr.size) | (mask_arr[np.minimum(pos, mask_arr.size - 1)] != y)
    if np.any(bad):
        raise MaskError(f"label(s) {sorted(set(y[bad].tolist()))} outside mask "
                        f"{mask_arr.tolist()}")
    return pos


def __getattr__(name):
    # The linear model is the depth-0 MlpModel. mlp imports this module, so
    # the name resolves on first use rather than at import.
    if name == "LinearModel":
        from .mlp import MlpModel
        return MlpModel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
