"""Two-hidden-layer ReLU classifier with manual backprop.

Mirrors the :class:`~replaygraph.linear.LinearModel` contract (masked softmax
head, sum-reduced loss, mean-curvature ``hvp``) so replay and selection code
is model-agnostic. The curvature is the Gauss-Newton matrix (Schraudolph
2002), not the Hessian: it is positive semidefinite by construction, so the
damped influence solve is one conjugate gradients can converge on, and at
depth 0 it equals the linear model's exact Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linear import Batch, MaskError, label_positions, logsumexp
from .optim import AdamState, TrainConfig, TrainingDiverged


@dataclass
class MlpModel:
    """784-256-256-10 by default; weights stored row-major as (out, in)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    active_classes: frozenset[int]
    weight_decay: float = 0.0

    @classmethod
    def init(cls, input_dim: int = 784, hidden_dim: int = 256, class_count: int = 10,
             weight_decay: float = 0.0, seed: int = 0, active_classes=()) -> "MlpModel":
        """He-initialized weights, zero biases."""
        rng = np.random.default_rng(seed)

        def he(out_dim, in_dim):
            return rng.normal(0.0, np.sqrt(2.0 / in_dim), size=(out_dim, in_dim))

        return cls(he(hidden_dim, input_dim), np.zeros(hidden_dim),
                   he(hidden_dim, hidden_dim), np.zeros(hidden_dim),
                   he(class_count, hidden_dim), np.zeros(class_count),
                   frozenset(active_classes), weight_decay)

    @property
    def class_count(self) -> int:
        return self.w3.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def num_params(self) -> int:
        return sum(a.size for a in self._arrays())

    def _arrays(self):
        return (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3)

    def copy(self) -> "MlpModel":
        return replace(self, w1=self.w1.copy(), b1=self.b1.copy(), w2=self.w2.copy(),
                       b2=self.b2.copy(), w3=self.w3.copy(), b3=self.b3.copy())

    def activate(self, classes) -> "MlpModel":
        new = frozenset(classes) | self.active_classes
        if new and (min(new) < 0 or max(new) >= self.class_count):
            raise ValueError("active class id outside [0, class_count)")
        out = self.copy()
        out.active_classes = new
        return out

    # -- flat parameter vector: w1, b1, w2, b2, w3, b3 --

    def get_flat(self) -> np.ndarray:
        return np.concatenate([a.ravel() for a in self._arrays()])

    def set_flat(self, theta: np.ndarray) -> None:
        if theta.size != self.num_params:
            raise ValueError(f"expected {self.num_params} parameters, got {theta.size}")
        self.w1, self.b1, self.w2, self.b2, self.w3, self.b3 = (
            part.copy() for part in self._split(theta))

    def _split(self, vec: np.ndarray) -> list[np.ndarray]:
        """Views of a flat vector shaped like w1, b1, w2, b2, w3, b3."""
        offset = 0
        parts = []
        for a in self._arrays():
            parts.append(vec[offset:offset + a.size].reshape(a.shape))
            offset += a.size
        return parts

    def to_arrays(self) -> dict[str, np.ndarray]:
        names = ("w1", "b1", "w2", "b2", "w3", "b3")
        return dict(zip(names, self._arrays()))

    def with_arrays(self, arrays: dict[str, np.ndarray]) -> "MlpModel":
        kwargs = {name: np.array(arrays[name], dtype=np.float64)
                  for name in ("w1", "b1", "w2", "b2", "w3", "b3")}
        return replace(self, **kwargs)

    # -- masked softmax head (same conventions as the linear model) --

    def resolve_mask(self, mask) -> np.ndarray:
        classes = self.active_classes if mask is None else mask
        arr = np.array(sorted(set(int(c) for c in classes)), dtype=np.int64)
        if arr.size == 0:
            raise MaskError("class mask is empty")
        if arr[0] < 0 or arr[-1] >= self.class_count:
            raise MaskError(f"mask {arr.tolist()} outside [0, {self.class_count})")
        return arr

    def _forward(self, x: np.ndarray, mask_arr: np.ndarray):
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.feature_dim:
            raise ValueError(f"inputs have shape {x.shape}, expected (n, {self.feature_dim})")
        a1 = np.maximum(x @ self.w1.T + self.b1, 0.0)
        a2 = np.maximum(a1 @ self.w2.T + self.b2, 0.0)
        z = a2 @ self.w3[mask_arr].T + self.b3[mask_arr]
        return a1, a2, z

    def embed(self, inputs: np.ndarray) -> np.ndarray:
        """Last hidden activation, the representation MF/CM variants select on."""
        x = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        a1 = np.maximum(x @ self.w1.T + self.b1, 0.0)
        return np.maximum(a1 @ self.w2.T + self.b2, 0.0)

    def _decay_value(self) -> float:
        return 0.5 * self.weight_decay * sum(float(a.ravel() @ a.ravel())
                                             for a in self._arrays())

    def _ce_backprop(self, x, a1, a2, g3, mask_arr) -> np.ndarray:
        """Flat gradient of the summed cross-entropy given head error g3."""
        dw3 = np.zeros_like(self.w3)
        db3 = np.zeros_like(self.b3)
        dw3[mask_arr] = g3.T @ a2
        db3[mask_arr] = g3.sum(axis=0)
        g2 = (g3 @ self.w3[mask_arr]) * (a2 > 0)
        dw2 = g2.T @ a1
        db2 = g2.sum(axis=0)
        g1 = (g2 @ self.w2) * (a1 > 0)
        dw1 = g1.T @ x
        db1 = g1.sum(axis=0)
        return np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2, dw3.ravel(), db3])

    # -- public contract --

    def loss(self, batch: Batch, mask=None) -> float:
        mask_arr = self.resolve_mask(mask)
        _, _, z = self._forward(batch.x, mask_arr)
        pos = label_positions(mask_arr, batch.y)
        ce = logsumexp(z) - z[np.arange(len(batch)), pos]
        return float(batch.w @ ce) + self._decay_value()

    def gradient(self, batch: Batch, mask=None) -> np.ndarray:
        mask_arr = self.resolve_mask(mask)
        a1, a2, z = self._forward(batch.x, mask_arr)
        pos = label_positions(mask_arr, batch.y)
        p = np.exp(z - logsumexp(z, keepdims=True))
        g3 = p.copy()
        g3[np.arange(len(batch)), pos] -= 1.0
        g3 *= batch.w[:, None]
        return (self._ce_backprop(batch.x, a1, a2, g3, mask_arr)
                + self.weight_decay * self.get_flat())

    def hvp(self, batch: Batch, mask=None, v: np.ndarray = None,
            damping: float = 0.0) -> np.ndarray:
        """(G + damping I) v for G the Gauss-Newton matrix of
        ``loss(batch) / len(batch)``.

        ``G = (sum_i w_i J_i^T (diag p_i - p_i p_i^T) J_i + weight_decay I) / n``
        with ``J_i`` the Jacobian of row i's masked logits: the Hessian minus
        the terms that need second derivatives of the network. Exact, in one
        R-forward pass (Pearlmutter 1994) for ``J v`` and one backward pass for
        ``J^T``.
        """
        v = np.asarray(v, dtype=np.float64)
        if v.size != self.num_params:
            raise ValueError(f"vector has {v.size} entries, expected {self.num_params}")
        if damping < 0:
            raise ValueError("damping must be >= 0")
        x = batch.x
        mask_arr = self.resolve_mask(mask)
        label_positions(mask_arr, batch.y)
        v1, vb1, v2, vb2, v3, vb3 = self._split(v)
        a1, a2, z = self._forward(x, mask_arr)
        p = np.exp(z - logsumexp(z, keepdims=True))
        r1 = (x @ v1.T + vb1) * (a1 > 0)
        r2 = (r1 @ self.w2.T + a1 @ v2.T + vb2) * (a2 > 0)
        rz = r2 @ self.w3[mask_arr].T + a2 @ v3[mask_arr].T + vb3[mask_arr]
        q = p * rz - p * np.sum(p * rz, axis=1, keepdims=True)
        q *= batch.w[:, None]
        flat = self._ce_backprop(x, a1, a2, q, mask_arr) + self.weight_decay * v
        return flat / len(batch) + damping * v

    def gradient_dots(self, batch: Batch, mask=None, vec: np.ndarray = None) -> np.ndarray:
        """Per-row <grad CE_i, vec> via layerwise bilinear forms (decay
        excluded, matching the linear model's convention)."""
        vec = np.asarray(vec, dtype=np.float64)
        if vec.size != self.num_params:
            raise ValueError(f"vector has {vec.size} entries, expected {self.num_params}")
        x = batch.x
        mask_arr = self.resolve_mask(mask)
        a1, a2, z = self._forward(x, mask_arr)
        pos = label_positions(mask_arr, batch.y)
        p = np.exp(z - logsumexp(z, keepdims=True))
        g3 = p.copy()
        g3[np.arange(len(batch)), pos] -= 1.0
        g2 = (g3 @ self.w3[mask_arr]) * (a2 > 0)
        g1 = (g2 @ self.w2) * (a1 > 0)

        v1, vb1, v2, vb2, v3, vb3 = self._split(vec)
        dots = np.sum(g1 * (x @ v1.T + vb1), axis=1)
        dots += np.sum(g2 * (a1 @ v2.T + vb2), axis=1)
        dots += np.sum(g3 * (a2 @ v3[mask_arr].T + vb3[mask_arr]), axis=1)
        return dots * batch.w

    def predict(self, inputs: np.ndarray, mask=None) -> np.ndarray:
        mask_arr = self.resolve_mask(mask)
        _, _, z = self._forward(np.atleast_2d(inputs), mask_arr)
        return mask_arr[np.argmax(z, axis=1)]

    def fit(self, groups, config: TrainConfig) -> "MlpModel":
        """Mini-batch Adam on ``sum_g coeff_g * loss(g.batch, g.mask)``.

        Groups are pooled and shuffled together each epoch; within a batch each
        group's members keep their own mask, and the decay gradient is scaled
        by batch_size / pool_size so one epoch applies it exactly once.
        """
        stacks = [(g.batch.x, g.batch.y, g.batch.w, self.resolve_mask(g.mask), g.coeff)
                  for g in groups]
        total = sum(s[0].shape[0] for s in stacks)
        group_of = np.concatenate([np.full(s[0].shape[0], gi, dtype=np.int64)
                                   for gi, s in enumerate(stacks)])
        local_of = np.concatenate([np.arange(s[0].shape[0], dtype=np.int64) for s in stacks])

        scratch = self.copy()
        theta = self.get_flat()
        state = AdamState.zeros(theta.size)
        batch = config.batch_size if config.batch_size is not None else total
        if batch <= 0:
            raise ValueError("batch_size must be positive")
        rng = np.random.default_rng(config.seed)

        for epoch in range(config.epochs):
            order = rng.permutation(total)
            for start in range(0, total, batch):
                idx = order[start:start + batch]
                scratch.set_flat(theta)
                grad = (len(idx) / total) * scratch.weight_decay * theta
                for gi, (x, y, w, mask_arr, coeff) in enumerate(stacks):
                    members = local_of[idx[group_of[idx] == gi]]
                    if members.size == 0:
                        continue
                    xb, yb, wb = x[members], y[members], w[members]
                    a1, a2, z = scratch._forward(xb, mask_arr)
                    pos = label_positions(mask_arr, yb)
                    p = np.exp(z - logsumexp(z, keepdims=True))
                    g3 = p.copy()
                    g3[np.arange(len(yb)), pos] -= 1.0
                    g3 *= wb[:, None]
                    grad += coeff * scratch._ce_backprop(xb, a1, a2, g3, mask_arr)
                theta = state.update(theta, grad, config)
            if not np.all(np.isfinite(theta)):
                raise TrainingDiverged(f"parameters became non-finite at epoch {epoch + 1} "
                                       f"(lr={config.lr})")
        trained = self.copy()
        trained.set_flat(theta)
        return trained
