"""Multiclass softmax classifier over fixed node representations.

The model keeps one output row per global class; training and prediction are
restricted to a mask of currently relevant classes, so a single parameter set
serves every task in a sequence. Loss is SUM-reduced over rows (this makes
the replay weight factor balance exact), while ``hvp`` applies the Hessian of
the per-row MEAN loss, which is the operator the influence approximation
inverts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.special import logsumexp

from .optim import AdamState, TrainConfig, adam_minimize


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


@dataclass
class LinearModel:
    """Softmax regression with per-class output rows and L2 decay in the loss."""

    weights: np.ndarray          # (class_count, feature_dim)
    bias: np.ndarray             # (class_count,)
    active_classes: frozenset[int]
    weight_decay: float = 0.0

    @classmethod
    def zeros(cls, class_count: int, feature_dim: int, weight_decay: float = 0.0,
              active_classes=()) -> "LinearModel":
        return cls(np.zeros((class_count, feature_dim)), np.zeros(class_count),
                   frozenset(active_classes), weight_decay)

    @property
    def class_count(self) -> int:
        return self.weights.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def num_params(self) -> int:
        return self.weights.size + self.bias.size

    def copy(self) -> "LinearModel":
        return replace(self, weights=self.weights.copy(), bias=self.bias.copy())

    def activate(self, classes) -> "LinearModel":
        """New model with the given classes added to the active set."""
        new = frozenset(classes) | self.active_classes
        if new and (min(new) < 0 or max(new) >= self.class_count):
            raise ValueError("active class id outside [0, class_count)")
        return replace(self, weights=self.weights.copy(), bias=self.bias.copy(),
                       active_classes=new)

    # -- flat parameter vector (weights row-major, then bias) --

    def get_flat(self) -> np.ndarray:
        return np.concatenate([self.weights.ravel(), self.bias])

    def set_flat(self, theta: np.ndarray) -> None:
        if theta.size != self.num_params:
            raise ValueError(f"expected {self.num_params} parameters, got {theta.size}")
        split = self.weights.size
        self.weights = theta[:split].reshape(self.weights.shape).copy()
        self.bias = theta[split:].copy()

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights, "bias": self.bias}

    def with_arrays(self, arrays: dict[str, np.ndarray]) -> "LinearModel":
        return replace(self, weights=np.array(arrays["weights"], dtype=np.float64),
                       bias=np.array(arrays["bias"], dtype=np.float64))

    # -- masked softmax machinery --

    def resolve_mask(self, mask) -> np.ndarray:
        classes = self.active_classes if mask is None else mask
        arr = np.array(sorted(set(int(c) for c in classes)), dtype=np.int64)
        if arr.size == 0:
            raise MaskError("class mask is empty")
        if arr[0] < 0 or arr[-1] >= self.class_count:
            raise MaskError(f"mask {arr.tolist()} outside [0, {self.class_count})")
        return arr

    def _logits(self, x: np.ndarray, mask_arr: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.feature_dim:
            raise ValueError(f"inputs have shape {x.shape}, expected (n, {self.feature_dim})")
        return x @ self.weights[mask_arr].T + self.bias[mask_arr]

    def _decay_value(self) -> float:
        return 0.5 * self.weight_decay * (float(self.weights.ravel() @ self.weights.ravel())
                                          + float(self.bias @ self.bias))

    def _loss(self, batch: Batch, mask_arr) -> float:
        z = self._logits(batch.x, mask_arr)
        pos = label_positions(mask_arr, batch.y)
        ce = logsumexp(z, axis=1) - z[np.arange(len(batch)), pos]
        return float(batch.w @ ce) + self._decay_value()

    def _gradient(self, batch: Batch, mask_arr) -> np.ndarray:
        z = self._logits(batch.x, mask_arr)
        pos = label_positions(mask_arr, batch.y)
        p = np.exp(z - logsumexp(z, axis=1, keepdims=True))
        g = p.copy()
        g[np.arange(len(batch)), pos] -= 1.0
        g *= batch.w[:, None]
        dw = self.weight_decay * self.weights
        db = self.weight_decay * self.bias
        dw[mask_arr] += g.T @ batch.x
        db[mask_arr] += g.sum(axis=0)
        return np.concatenate([dw.ravel(), db])

    # -- public contract --

    def loss(self, batch: Batch, mask=None) -> float:
        """Weighted sum of softmax cross-entropies plus weight_decay * ||theta||^2 / 2."""
        return self._loss(batch, self.resolve_mask(mask))

    def gradient(self, batch: Batch, mask=None) -> np.ndarray:
        """Exact flat gradient of :meth:`loss`."""
        return self._gradient(batch, self.resolve_mask(mask))

    def hvp(self, batch: Batch, mask=None, v: np.ndarray = None,
            damping: float = 0.0) -> np.ndarray:
        """(H + damping I) v for H the Hessian of ``loss(batch) / len(batch)``.

        Closed form: each row contributes the block
        ``(diag(p) - p p^T) (x) [x 1][x 1]^T`` on its mask rows; the decay term
        contributes ``weight_decay / n``.
        """
        v = np.asarray(v, dtype=np.float64)
        if v.size != self.num_params:
            raise ValueError(f"vector has {v.size} entries, expected {self.num_params}")
        if damping < 0:
            raise ValueError("damping must be >= 0")
        x, w = batch.x, batch.w
        mask_arr = self.resolve_mask(mask)
        label_positions(mask_arr, batch.y)

        split = self.weights.size
        vw = v[:split].reshape(self.weights.shape)
        vb = v[split:]
        z = self._logits(x, mask_arr)
        p = np.exp(z - logsumexp(z, axis=1, keepdims=True))
        u = x @ vw[mask_arr].T + vb[mask_arr]
        q = p * u - p * np.sum(p * u, axis=1, keepdims=True)
        q *= w[:, None]
        hw = np.zeros_like(self.weights)
        hb = np.zeros_like(self.bias)
        hw[mask_arr] = q.T @ x
        hb[mask_arr] = q.sum(axis=0)
        flat = np.concatenate([hw.ravel(), hb]) + self.weight_decay * v
        return flat / len(batch) + damping * v

    def gradient_dots(self, batch: Batch, mask=None, vec: np.ndarray = None) -> np.ndarray:
        """Per-row inner products <grad CE_i, vec>, computed without
        materializing the per-row gradients.

        The decay term is excluded: it belongs to the objective, not to any
        one row, and the influence of removing a row is taken against its
        cross-entropy contribution alone.
        """
        vec = np.asarray(vec, dtype=np.float64)
        if vec.size != self.num_params:
            raise ValueError(f"vector has {vec.size} entries, expected {self.num_params}")
        x, y = batch.x, batch.y
        mask_arr = self.resolve_mask(mask)
        pos = label_positions(mask_arr, y)
        split = self.weights.size
        vw = vec[:split].reshape(self.weights.shape)
        vb = vec[split:]
        z = self._logits(x, mask_arr)
        p = np.exp(z - logsumexp(z, axis=1, keepdims=True))
        g = p.copy()
        g[np.arange(len(y)), pos] -= 1.0
        u = x @ vw[mask_arr].T + vb[mask_arr]
        return np.sum(g * u, axis=1) * batch.w

    def predict(self, inputs: np.ndarray, mask=None) -> np.ndarray:
        """Argmax over mask-restricted logits; ties go to the lowest class id."""
        mask_arr = self.resolve_mask(mask)
        z = self._logits(np.atleast_2d(inputs), mask_arr)
        return mask_arr[np.argmax(z, axis=1)]

    def fit(self, groups, config: TrainConfig, adam: AdamState | None = None) -> "LinearModel":
        """Full-batch Adam on ``sum_g coeff_g * loss(g.batch, g.mask)``.

        Returns a trained copy; the receiver is left untouched.
        """
        resolved = [(g.batch, self.resolve_mask(g.mask), g.coeff) for g in groups]
        scratch = self.copy()

        def grad_fn(theta):
            scratch.set_flat(theta)
            total = np.zeros(theta.size)
            for batch, mask_arr, coeff in resolved:
                total += coeff * scratch._gradient(batch, mask_arr)
            return total

        def loss_fn(theta):
            scratch.set_flat(theta)
            return sum(coeff * scratch._loss(batch, mask_arr)
                       for batch, mask_arr, coeff in resolved)

        theta = adam_minimize(self.get_flat(), grad_fn, config, loss_fn, adam)
        trained = self.copy()
        trained.set_flat(theta)
        return trained
