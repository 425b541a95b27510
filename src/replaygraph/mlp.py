"""Softmax classifier with ReLU hidden layers and manual backprop.

At depth 0 (``MlpModel.zeros``) it is softmax regression on propagated
graph features, the SGC model (Wu et al. 2019), which ``linear.LinearModel``
names; ``MlpModel.init`` builds the two-hidden-layer net for permuted images.
One output row per global class, restricted to the caller's mask of relevant
classes (``mask=None`` is every class), lets a single parameter set serve
every task in a sequence; the model keeps no class state of its own. Loss is
SUM-reduced over rows (this makes the replay weight factor balance exact);
``curvature`` builds the Gauss-Newton operator (Schraudolph 2002) of the
per-row MEAN loss, the operator the influence approximation inverts: one
forward pass per operator, then one R-forward and one backward pass per
product (``hvp`` is a single product). It is positive semidefinite, so
conjugate gradients converge on the damped solve, and at depth 0 it is the
exact Hessian.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .graph import PropagatedRows
from .linear import Batch, MaskError, label_positions, logsumexp
from .optim import TrainConfig, adam_minimize


def _head_rows(layers, head):
    """The layers with the output layer cut to the rows ``head`` indexes: a
    mask's class ids, or a slice, whose rows are views rather than copies."""
    w, b = layers[-1]
    return layers[:-1] + [(w[head], b[head])]


def _hidden(layers, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's input: ``x``, then each hidden activation."""
    acts = [x]
    for w, b in layers[:-1]:
        a = acts[-1] @ w.T
        a += b
        acts.append(np.maximum(a, 0.0, out=a))
    return acts


def _forward_pass(layers, x: np.ndarray):
    """Every layer's input and the logits of the output layer."""
    acts = _hidden(layers, x)
    w, b = layers[-1]
    z = acts[-1] @ w.T
    z += b
    return acts, z


def _ce_error(z: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy derivative in the logits, written over ``z``:
    softmax minus the float one-hot of each row's label position. After
    ``exp`` no entry is ``-0.0`` and ``x - 0.0`` is ``x``, so this has the
    bits of subtracting 1.0 at the label alone."""
    z -= logsumexp(z, keepdims=True)
    np.exp(z, out=z)
    z -= onehot
    return z


def _carry(g: np.ndarray, w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The error at the previous layer's pre-activation from ``g``, this
    layer's: back through ``W`` and the ReLU whose output ``a`` is this
    layer's input."""
    g = g @ w
    return np.multiply(g, a > 0, out=g)


def _backward_pass(layers, acts, g: np.ndarray, grads) -> None:
    """Summed gradient from the logits' error ``g``: each layer's ``dW`` and
    ``db`` written into its pair of ``grads``, last layer first, carrying the
    error down as it goes."""
    for i in range(len(layers) - 1, -1, -1):
        dw, db = grads[i]
        np.matmul(g.T, acts[i], out=dw)
        g.sum(axis=0, out=db)
        if i:
            g = _carry(g, layers[i][0], acts[i])


@dataclass
class MlpModel:
    """Layers ``(W, b)``, input first, W stored (out, in); ReLU after all but the last."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    weight_decay: float = 0.0

    @classmethod
    def zeros(cls, class_count: int, feature_dim: int, weight_decay: float = 0.0) -> "MlpModel":
        """The depth-0 (linear) model, every parameter zero."""
        return cls([(np.zeros((class_count, feature_dim)), np.zeros(class_count))],
                   weight_decay)

    @classmethod
    def init(cls, input_dim: int = 784, hidden_dim: int = 256, class_count: int = 10,
             weight_decay: float = 0.0, seed: int = 0) -> "MlpModel":
        """Two hidden layers (784-256-256-10 by default), He weights, zero biases."""
        rng = np.random.default_rng(seed)
        dims = (input_dim, hidden_dim, hidden_dim, class_count)
        layers = [(rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_out, d_in)), np.zeros(d_out))
                  for d_in, d_out in zip(dims, dims[1:])]
        return cls(layers, weight_decay)

    @property
    def class_count(self) -> int:
        return self.layers[-1][0].shape[0]

    @property
    def feature_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def num_params(self) -> int:
        return sum(w.size + b.size for w, b in self.layers)

    def copy(self) -> "MlpModel":
        return replace(self, layers=[(w.copy(), b.copy()) for w, b in self.layers])

    # -- flat parameter vector: W1 (row-major), b1, W2, b2, ... --

    def get_flat(self) -> np.ndarray:
        return np.concatenate([a.ravel() for layer in self.layers for a in layer])

    def set_flat(self, theta: np.ndarray) -> None:
        self.layers = [(w.copy(), b.copy()) for w, b in self._split(self._vector(theta))]

    def _split(self, vec: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Views of a flat vector as (W, b) pairs shaped like the layers."""
        pairs, offset = [], 0
        for w, b in self.layers:
            end = offset + w.size
            pairs.append((vec[offset:end].reshape(w.shape), vec[end:end + b.size]))
            offset = end + b.size
        return pairs

    def _vector(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.size != self.num_params:
            raise ValueError(f"vector has {v.size} entries, expected {self.num_params}")
        return v

    def to_arrays(self) -> dict[str, np.ndarray]:
        """``w1, b1, w2, b2, ...``, first layer first."""
        return {f"{kind}{i}": a for i, (w, b) in enumerate(self.layers, 1)
                for kind, a in (("w", w), ("b", b))}

    def with_arrays(self, arrays: dict[str, np.ndarray]) -> "MlpModel":
        return replace(self, layers=[
            tuple(np.array(arrays[f"{kind}{i}"], dtype=np.float64) for kind in "wb")
            for i in range(1, len(self.layers) + 1)])

    # -- masked softmax head --

    def resolve_mask(self, mask) -> np.ndarray:
        """The mask's class ids, sorted and unique; ``None`` is every class."""
        classes = range(self.class_count) if mask is None else mask
        arr = np.array(sorted(set(int(c) for c in classes)), dtype=np.int64)
        if arr.size == 0:
            raise MaskError("class mask is empty")
        if arr[0] < 0 or arr[-1] >= self.class_count:
            raise MaskError(f"mask {arr.tolist()} outside [0, {self.class_count})")
        return arr

    def _inputs(self, x) -> np.ndarray:
        """``x`` as float64 rows of ``feature_dim`` columns, a single row as
        one (unmade graph rows are checked, not made); the public entry
        points check their inputs here, so the passes below do not."""
        if not isinstance(x, PropagatedRows):
            x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if len(x.shape) != 2 or x.shape[1] != self.feature_dim:
            raise ValueError(f"inputs have shape {x.shape}, expected (n, {self.feature_dim})")
        return x

    def _forward(self, x: np.ndarray, head):
        """Every layer's input and the logits of the output rows ``head``
        indexes (see ``_head_rows``)."""
        return _forward_pass(_head_rows(self.layers, head), x)

    def embed(self, inputs: np.ndarray) -> np.ndarray:
        """Last hidden activation, the representation MF/CM variants select
        on; at depth 0, the inputs themselves."""
        return _hidden(self.layers, self._inputs(inputs))[-1]

    def _backprop(self, acts, g_out, mask_arr) -> np.ndarray:
        """Summed-CE gradient from the logits' error, as a new flat vector;
        output rows outside ``mask_arr`` get zero."""
        out = np.zeros(self.num_params)
        *grads, (head_w, head_b) = self._split(out)
        rows = np.empty((len(mask_arr), head_w.shape[1])), np.empty(len(mask_arr))
        _backward_pass(_head_rows(self.layers, mask_arr), acts, g_out, grads + [rows])
        head_w[mask_arr], head_b[mask_arr] = rows
        return out

    # -- public contract --

    def loss(self, batch: Batch, mask=None) -> float:
        """Weighted sum of softmax cross-entropies plus weight_decay * ||theta||^2 / 2."""
        mask_arr = self.resolve_mask(mask)
        _, z = self._forward(self._inputs(batch.x), mask_arr)
        pos = label_positions(mask_arr, batch.y)
        ce = logsumexp(z) - z[np.arange(len(batch)), pos]
        decay = sum(float(a.ravel() @ a.ravel()) for layer in self.layers for a in layer)
        return float(batch.w @ ce) + 0.5 * self.weight_decay * decay

    def gradient(self, batch: Batch, mask=None) -> np.ndarray:
        """Exact flat gradient of :meth:`loss`."""
        mask_arr = self.resolve_mask(mask)
        onehot = np.eye(len(mask_arr))[label_positions(mask_arr, batch.y)]
        acts, z = self._forward(self._inputs(batch.x), mask_arr)
        g = _ce_error(z, onehot)
        g *= batch.w[:, None]
        return self._backprop(acts, g, mask_arr) + self.weight_decay * self.get_flat()

    def curvature(self, batch: Batch, mask=None, damping: float = 0.0):
        """The operator ``v -> (G + damping I) v`` for G the Gauss-Newton
        matrix of ``loss(batch) / len(batch)``.

        ``G = (sum_i w_i J_i^T (diag p_i - p_i p_i^T) J_i + weight_decay I) / n``
        with ``J_i`` the Jacobian of row i's masked logits: the Hessian minus
        the terms that need second derivatives of the network, so at depth 0
        the Hessian itself. The forward pass, the softmax and the ReLU
        patterns do not depend on ``v``, so they are computed once, here;
        each product is then exact in one R-forward pass (Pearlmutter 1994)
        for ``J v`` and one backward pass for ``J^T``. The operator holds a
        copy of the parameters, so later changes to the model do not reach
        it. Each product is a new array that later products leave alone.
        """
        if damping < 0:
            raise ValueError("damping must be >= 0")
        net = self.copy()
        mask_arr = net.resolve_mask(mask)
        label_positions(mask_arr, batch.y)
        acts, z = net._forward(net._inputs(batch.x), mask_arr)
        p = np.exp(z - logsumexp(z, keepdims=True))
        layers = _head_rows(net.layers, mask_arr)
        active = [a > 0 for a in acts[1:]]
        row_w, n, decay = batch.w[:, None], len(batch), net.weight_decay
        scaled = np.empty(net.num_params)

        def apply(v: np.ndarray) -> np.ndarray:
            v = net._vector(v)
            r = None  # directional derivative of the current layer's output along v
            for i, ((w, _), (vw, vb)) in enumerate(zip(layers,
                                                       _head_rows(net._split(v), mask_arr))):
                r = (acts[i] @ vw.T if r is None else r @ w.T + acts[i] @ vw.T) + vb
                if i < len(active):
                    r *= active[i]
            q = p * r - p * np.sum(p * r, axis=1, keepdims=True)
            q *= row_w
            flat = net._backprop(acts, q, mask_arr)
            flat += np.multiply(decay, v, out=scaled)
            flat /= n
            flat += np.multiply(damping, v, out=scaled)
            return flat

        return apply

    def hvp(self, batch: Batch, mask=None, v: np.ndarray = None,
            damping: float = 0.0) -> np.ndarray:
        """``curvature(batch, mask, damping)(v)``: one Gauss-Newton-vector
        product. A solve that takes many products builds the operator once
        with :meth:`curvature` instead, so the forward pass runs once."""
        return self.curvature(batch, mask, damping)(v)

    def gradient_dots(self, batch: Batch, mask=None, vec: np.ndarray = None) -> np.ndarray:
        """Per-row inner products <grad CE_i, vec> via layerwise bilinear
        forms, without materializing the per-row gradients.

        The decay term is excluded: it belongs to the objective, not to any
        one row, and the influence of removing a row is taken against its
        cross-entropy contribution alone.
        """
        vec = self._vector(vec)
        mask_arr = self.resolve_mask(mask)
        acts, z = self._forward(self._inputs(batch.x), mask_arr)
        onehot = np.eye(len(mask_arr))[label_positions(mask_arr, batch.y)]
        deltas = [_ce_error(z, onehot)]  # each layer's error, last layer first
        for (w, _), a in zip(_head_rows(self.layers, mask_arr)[:0:-1], acts[:0:-1]):
            deltas.append(_carry(deltas[-1], w, a))
        dots = sum(np.sum(g * (a @ vw.T + vb), axis=1) for a, g, (vw, vb)
                   in zip(acts, deltas[::-1], _head_rows(self._split(vec), mask_arr)))
        return dots * batch.w

    def predict(self, inputs, mask=None) -> np.ndarray:
        """Argmax over mask-restricted float64 logits; ties go to the lowest
        class id.

        ``inputs`` is rows taken as float64, or a graph task's unmade test
        rows (``graph.PropagatedRows``), whose ``@ W.T`` is the first layer's
        pre-activation before ``b`` is added, and at depth 0 the logits."""
        mask_arr = self.resolve_mask(mask)
        _, z = self._forward(self._inputs(inputs), mask_arr)
        return mask_arr[np.argmax(z, axis=1)]

    def fit(self, groups, config: TrainConfig) -> "MlpModel":
        """Adam on ``sum_g coeff_g * loss(g.batch, g.mask)`` in steps of
        ``config.batch_size`` rows (full batch when None).

        The groups' rows are pooled once, each weighted ``coeff_g * w_i`` and
        labelled by its position in the union of the masks; a pool larger than
        one batch is shuffled together each epoch. Where the masks differ, a
        row's union classes outside its own group's mask are blocked (``-inf``
        logits), so each step is one gradient pass over its rows. A step adds
        the decay gradient ``(rows in step / rows in pool) * sum_g coeff_g *
        weight_decay * theta``, so one epoch applies the objective's decay term
        exactly once. Returns a trained copy; the receiver is left untouched.

        Adam steps only the output rows that can move: the union's rows and
        any row holding a value other than ±0 (NaN included), which still
        decays. Any other row gets the gradient ``decay * 0``, which from zero
        moments is a step of ``0 / (sqrt(0) + eps') = 0``, so leaving it out
        keeps every bit, ``-0.0`` included. At depth 0 these are the rows of
        classes not yet seen. The union's rows come first in the trainee's
        head, so a slice indexes them and each step reads and writes them as
        views rather than copies; the other rows' CE gradient stays 0. The
        layers, the gradient buffer's views, each row's float one-hot label and
        weight column are made once per fit, so a step is one forward pass,
        the error over the logits in place and one backward pass.
        """
        masks = [self.resolve_mask(g.mask) for g in groups]
        for g, mask_arr in zip(groups, masks):
            label_positions(mask_arr, g.batch.y)  # own mask: the union below is looser
        union = functools.reduce(np.union1d, masks)
        x = self._inputs(np.concatenate([g.batch.x for g in groups]))
        pos = label_positions(union, np.concatenate([g.batch.y for g in groups]))
        w = np.concatenate([g.coeff * g.batch.w for g in groups])
        outside = np.array([~np.isin(union, mask_arr) for mask_arr in masks])
        blocked = (np.repeat(outside, [len(g.batch) for g in groups], axis=0)
                   if outside.any() else None)
        total = len(pos)
        size = config.batch_size if config.batch_size is not None else total
        if size <= 0:
            raise ValueError("batch_size must be positive")
        decay = sum(g.coeff for g in groups) * self.weight_decay
        rng = np.random.default_rng(config.seed)
        head_w, head_b = self.layers[-1]
        holding = np.flatnonzero(np.any(head_w != 0, axis=1) | (head_b != 0))
        moving = np.concatenate([union, np.setdiff1d(holding, union)])  # the union's rows first
        trainee = replace(self, layers=self.layers[:-1] + [(head_w[moving], head_b[moving])])
        head = slice(0, len(union))

        def epoch_batches():
            if size >= total:
                return [None]  # the whole pool, in row order
            order = rng.permutation(total)
            return [order[start:start + size] for start in range(0, total, size)]

        theta = trainee.get_flat()
        layers = _head_rows(trainee._split(theta), head)  # views: each step moves them
        grad_out, term = np.empty_like(theta), np.zeros_like(theta)  # rows past head stay 0
        grads = _head_rows(trainee._split(term), head)
        pool = (x, np.eye(len(union))[pos], w[:, None], blocked)

        def grad_fn(theta, rows):
            # the whole pool is the arrays themselves: no copies, no views
            xs, onehot, ws, bs = pool if rows is None else [
                None if a is None else a[rows] for a in pool]
            acts, z = _forward_pass(layers, xs)
            if bs is not None:
                z[bs] = -np.inf
            g = _ce_error(z, onehot)
            g *= ws
            _backward_pass(layers, acts, g, grads)
            grad = np.multiply((len(xs) / total) * decay, theta, out=grad_out)
            grad += term
            return grad

        adam_minimize(theta, grad_fn, config, epoch_batches)
        trainee.set_flat(theta)  # arrays of its own, not views of theta
        full_w, full_b = head_w.copy(), head_b.copy()
        full_w[moving], full_b[moving] = trainee.layers[-1]
        trainee.layers[-1] = (full_w, full_b)
        return trainee
