"""Adam on flat parameter vectors.

``AdamState`` holds the moments and takes one step in place: it overwrites θ
and returns it, allocating nothing. ``adam_minimize`` is the one training
loop, full-batch or mini-batch, that every model's ``fit`` runs; it steps one
θ buffer for the whole run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


# Adam's decay rates and denominator guard, Kingma & Ba 2015's defaults
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


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
    batch_size: int | None = None
    seed: int = 0


@dataclass
class AdamState:
    """First/second moment accumulators and step counter for one parameter vector."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    # the step's two intermediate vectors: its numerator and its denominator
    work: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.work = np.empty((2, self.m.size))

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(np.zeros(dim), np.zeros(dim))

    def update(self, theta: np.ndarray, grad: np.ndarray, config: TrainConfig) -> np.ndarray:
        """One bias-corrected Adam step, in place: overwrites ``m``, ``v`` and
        ``theta`` and returns ``theta``; ``grad`` is only read.

        ``m = b1 m + (1 - b1) g`` and ``v = b2 v + (1 - b2) g g`` (``b1``,
        ``b2`` and ``eps`` are ``BETA1``, ``BETA2`` and ``EPS``), then the bias
        corrections ``bc1 = 1 - b1^t`` and ``bc2 = 1 - b2^t`` folded into two
        scalars (Kingma & Ba 2015, end of section 2):
        ``theta - (lr sqrt(bc2) / bc1) m / (sqrt(v) + eps sqrt(bc2))``, the
        textbook ``theta - lr m_hat / (sqrt(v_hat) + eps)`` up to rounding.
        """
        self.step += 1
        root_bc2 = math.sqrt(1.0 - BETA2 ** self.step)
        num, den = self.work
        self.m *= BETA1
        self.m += np.multiply(1.0 - BETA1, grad, out=num)
        self.v *= BETA2
        np.multiply(1.0 - BETA2, grad, out=num)
        self.v += np.multiply(num, grad, out=num)
        np.sqrt(self.v, out=den)
        den += EPS * root_bc2
        np.multiply(config.lr * root_bc2 / (1.0 - BETA1 ** self.step), self.m, out=num)
        theta -= np.divide(num, den, out=num)
        return theta


def adam_minimize(theta: np.ndarray, grad_fn, config: TrainConfig,
                  epoch_batches) -> np.ndarray:
    """Run ``config.epochs`` epochs of Adam on ``theta`` in place; returns it.

    ``theta`` is a float64 vector that every step overwrites, so views of it
    follow the parameters. Each epoch takes one step per item of
    ``epoch_batches()``, on the gradient ``grad_fn(theta, item)``. Parameters
    that are not finite after an epoch abort with a diagnostic.
    """
    adam = AdamState.zeros(theta.size)
    for epoch in range(config.epochs):
        for batch in epoch_batches():
            adam.update(theta, grad_fn(theta, batch), config)
        if not np.isfinite(theta).all():
            raise TrainingDiverged(f"parameters became non-finite at epoch {epoch + 1} "
                                   f"(lr={config.lr})")
    return theta
