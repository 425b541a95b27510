import gzip
import math
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from replaygraph import Batch, LinearModel, MlpModel, optim, selection


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def cg_solves(monkeypatch):
    """The ``CgSettings`` of every ``selection.cg_solve`` call, in order."""
    seen = []
    real = selection.cg_solve

    def spy(hvp_fn, rhs, settings):
        seen.append(settings)
        return real(hvp_fn, rhs, settings)

    monkeypatch.setattr(selection, "cg_solve", spy)
    return seen


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the most bytes allocated at once during the
    call, its result included. numpy reports its buffers to ``tracemalloc``,
    so the peak is exact and repeats from run to run."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_idx_images(path, images, gz=False):
    n, rows, cols = images.shape
    blob = struct.pack(">IIII", 2051, n, rows, cols) + images.astype(np.uint8).tobytes()
    path.write_bytes(gzip.compress(blob) if gz else blob)


def write_idx_labels(path, labels, gz=False):
    blob = struct.pack(">II", 2049, len(labels)) + labels.astype(np.uint8).tobytes()
    path.write_bytes(gzip.compress(blob) if gz else blob)


def write_damaged_idx_images(path, damage):
    """A gzipped IDX file of 4,096 blank 16x16 images (1 MiB of pixels), cut
    to half its bytes ("truncated") or followed by an invalid deflate block
    ("corrupt"). Its header still reads, since gzip reads ahead at most
    128 KiB; reading the pixels fails."""
    blob = struct.pack(">IIII", 2051, 4096, 16, 16) + bytes(4096 * 16 * 16)
    if damage == "truncated":
        packed = gzip.compress(blob)
        path.write_bytes(packed[:len(packed) // 2])
    else:
        deflate = zlib.compressobj(9, zlib.DEFLATED, -15)  # raw deflate, no gzip header
        path.write_bytes(b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\xff" + deflate.compress(blob)
                         + deflate.flush(zlib.Z_SYNC_FLUSH) + b"\x07")  # block type 3


def random_instance(rng, n=6, feature_dim=4, class_count=3, weight_decay=0.0,
                    mask=None, spread=1.0):
    """A random trained-ish model plus a weighted batch whose labels stay
    inside mask."""
    classes = list(range(class_count)) if mask is None else sorted(mask)
    model = LinearModel([(spread * rng.standard_normal((class_count, feature_dim)),
                          spread * rng.standard_normal(class_count))],
                        weight_decay)
    rows = [(rng.standard_normal(feature_dim), int(rng.choice(classes)),
             float(rng.uniform(0.5, 2.0))) for _ in range(n)]
    return model, batch_of(rows)


def model_of_depth(depth, feature_dim, class_count, weight_decay=0.0):
    """Depth 0: the zero linear model; depth 2: a seeded He-initialized MLP
    with four units per hidden layer."""
    if depth == 0:
        return LinearModel.zeros(class_count, feature_dim, weight_decay)
    assert depth == 2
    return MlpModel.init(input_dim=feature_dim, hidden_dim=4, class_count=class_count,
                         weight_decay=weight_decay)


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


def dense_gauss_newton(model, batch, mask=None, h=1e-6):
    """Reference Gauss-Newton matrix of ``loss(batch) / len(batch)``:
    ``sum_i w_i J_i^T (diag p_i - p_i p_i^T) J_i / n + (decay / n) I``, with
    ``J_i`` a central-difference Jacobian of row i's masked logits."""
    mask_arr = model.resolve_mask(mask)
    theta = model.get_flat()
    scratch = model.copy()

    def logits(t):
        scratch.set_flat(t)
        return scratch._forward(batch.x, mask_arr)[1]

    steps = h * np.eye(theta.size)
    jac = np.stack([(logits(theta + s) - logits(theta - s)) / (2 * h) for s in steps],
                   axis=-1)
    z = logits(theta)
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    n = len(batch)
    gn = sum(w * j.T @ (np.diag(pi) - np.outer(pi, pi)) @ j
             for w, j, pi in zip(batch.w, jac, p))
    return gn / n + (model.weight_decay / n) * np.eye(theta.size)


def folded_adam_step(theta, m, v, step, grad, config):
    """One Adam step on new vectors with the bias corrections folded into the
    step size and eps (Kingma & Ba 2015, end of section 2), the arithmetic
    ``AdamState.update`` does in place: returns ``(theta, m, v)`` after step
    number ``step``."""
    m = optim.BETA1 * m + (1.0 - optim.BETA1) * grad
    v = optim.BETA2 * v + (1.0 - optim.BETA2) * grad * grad
    root_bc2 = math.sqrt(1.0 - optim.BETA2 ** step)
    step_size = config.lr * root_bc2 / (1.0 - optim.BETA1 ** step)
    return theta - step_size * m / (np.sqrt(v) + optim.EPS * root_bc2), m, v


def textbook_adam_step(theta, m, v, step, grad, config):
    """One bias-corrected Adam step (Kingma & Ba 2015, Algorithm 1) on new
    vectors: returns ``(theta, m, v)`` after step number ``step``."""
    m = optim.BETA1 * m + (1.0 - optim.BETA1) * grad
    v = optim.BETA2 * v + (1.0 - optim.BETA2) * grad * grad
    m_hat = m / (1.0 - optim.BETA1 ** step)
    v_hat = v / (1.0 - optim.BETA2 ** step)
    return theta - config.lr * m_hat / (np.sqrt(v_hat) + optim.EPS), m, v
