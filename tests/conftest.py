import numpy as np
import pytest

from replaygraph import Batch, LinearModel


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def random_instance(rng, n=6, feature_dim=4, class_count=3, weight_decay=0.0,
                    mask=None, spread=1.0):
    """A random trained-ish model plus a weighted batch whose labels stay
    inside mask."""
    classes = list(range(class_count)) if mask is None else sorted(mask)
    model = LinearModel(spread * rng.standard_normal((class_count, feature_dim)),
                        spread * rng.standard_normal(class_count),
                        frozenset(classes), weight_decay)
    rows = [(rng.standard_normal(feature_dim), int(rng.choice(classes)),
             float(rng.uniform(0.5, 2.0))) for _ in range(n)]
    return model, batch_of(rows)


def batch_of(rows):
    """A Batch from (input, label[, weight]) tuples."""
    x, y, *w = zip(*rows)
    return Batch(np.vstack(x), y, *w)


def finite_difference_gradient(loss_fn, theta, h=1e-6):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += h
        down = theta.copy()
        down[i] -= h
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2 * h)
    return grad
