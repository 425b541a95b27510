"""Adam on flat parameter vectors.

``AdamState`` holds the moments and takes one step; ``adam_minimize`` is the
one training loop, full-batch or mini-batch, that every model's ``fit`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class TrainingDiverged(RuntimeError):
    """Parameters became non-finite during optimization."""


@dataclass
class TrainConfig:
    """Optimizer hyperparameters for ``fit``.

    ``batch_size=None`` means full batch; the trainer shuffles with ``seed``
    when the rows span more than one batch.
    """

    epochs: int = 100
    lr: float = 0.2
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int | None = None
    seed: int = 0


@dataclass
class AdamState:
    """First/second moment accumulators and step counter for one parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(np.zeros(dim), np.zeros(dim))

    def update(self, theta: np.ndarray, grad: np.ndarray, config: TrainConfig) -> np.ndarray:
        """One bias-corrected Adam step; returns the new parameter vector."""
        self.step += 1
        self.m = config.beta1 * self.m + (1.0 - config.beta1) * grad
        self.v = config.beta2 * self.v + (1.0 - config.beta2) * grad * grad
        m_hat = self.m / (1.0 - config.beta1 ** self.step)
        v_hat = self.v / (1.0 - config.beta2 ** self.step)
        return theta - config.lr * m_hat / (np.sqrt(v_hat) + config.eps)


def adam_minimize(theta0: np.ndarray, grad_fn, config: TrainConfig,
                  epoch_batches) -> np.ndarray:
    """Run ``config.epochs`` epochs of Adam from ``theta0``.

    Each epoch takes one step per item of ``epoch_batches()``, on the
    gradient ``grad_fn(theta, item)``. Parameters that are not finite after
    an epoch abort with a diagnostic.
    """
    theta = np.array(theta0, dtype=np.float64, copy=True)
    adam = AdamState.zeros(theta.size)
    for epoch in range(config.epochs):
        for batch in epoch_batches():
            # kept over the next step; freed early, its pages were unmapped and faulted back
            grad = grad_fn(theta, batch)
            theta = adam.update(theta, grad, config)
        if not np.all(np.isfinite(theta)):
            raise TrainingDiverged(f"parameters became non-finite at epoch {epoch + 1} "
                                   f"(lr={config.lr})")
    return theta
