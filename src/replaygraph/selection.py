"""Experience selection: random, mean-of-feature, coverage maximization, and
influence maximization, plus the conjugate-gradient solver and the
leave-one-out retraining oracle that keeps the influence approximation honest.

Every strategy takes the candidate :class:`~replaygraph.linear.Batch` and
returns row indices into it: ``min(e, class size)`` rows per class, classes in
ascending id order, each class's rows in selection order. Score ties break by
lowest node index, so a fixed input yields a fixed selection. ``mf`` and
``cm`` measure distances in a caller-supplied geometry matrix with one row per
candidate: raw attributes, or the model's embedding of the inputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import pdist, squareform

from .linear import Batch, LinearModel

logger = logging.getLogger(__name__)


def class_rows(batch: Batch) -> list[tuple[int, np.ndarray]]:
    """Row indices per label, labels ascending, each class sorted by node
    (by row position when the batch has no node column)."""
    nodes = batch.node if batch.node is not None else np.arange(len(batch))
    order = np.lexsort((nodes, batch.y))
    labels, starts = np.unique(batch.y[order], return_index=True)
    return list(zip(labels.tolist(), np.split(order, starts[1:])))


def _candidate_classes(batch: Batch, e: int) -> list[tuple[int, np.ndarray]]:
    if e < 1:
        raise ValueError(f"e must be >= 1, got {e}")
    if len(batch) == 0:
        raise ValueError("no candidate classes")
    return class_rows(batch)


def _take_lowest(rows: np.ndarray, keys, e: int) -> np.ndarray:
    """The e node-sorted rows with the smallest keys, ties by node."""
    return rows[np.argsort(keys, kind="stable")[:e]]


def select_random(batch: Batch, e: int, seed: int) -> np.ndarray:
    """Uniform per-class sample without replacement."""
    rng = np.random.default_rng(seed)
    chosen = []
    for _, rows in _candidate_classes(batch, e):
        idx = rng.choice(len(rows), size=min(e, len(rows)), replace=False)
        chosen.append(rows[np.sort(idx)])
    return np.concatenate(chosen)


def select_mf(batch: Batch, e: int, geometry: np.ndarray) -> np.ndarray:
    """Per class, the e candidates closest to the class mean of ``geometry``."""
    chosen = []
    for _, rows in _candidate_classes(batch, e):
        vectors = geometry[rows]
        dists = np.linalg.norm(vectors - vectors.mean(axis=0), axis=1)
        chosen.append(_take_lowest(rows, dists, e))
    return np.concatenate(chosen)


def coverage_counts(batch: Batch, geometry: np.ndarray,
                    d: float | str = "auto") -> tuple[np.ndarray, float]:
    """|N(v)| per candidate row: other-class candidates strictly within
    distance d in ``geometry``.

    ``d="auto"`` uses the median cross-class pairwise distance; with a single
    class every count is zero and d is irrelevant.
    """
    dist = squareform(pdist(geometry))
    other = batch.y[:, None] != batch.y[None, :]
    if d == "auto":
        # Each cross-class pair appears twice; the median of the doubled set
        # is the median of the pairs.
        d_val = float(np.median(dist[other])) if other.any() else 0.0
    else:
        d_val = float(d)
        if d_val <= 0:
            raise ValueError(f"d must be positive, got {d_val}")
    return np.sum((dist < d_val) & other, axis=1), d_val


def select_cm(batch: Batch, e: int, geometry: np.ndarray,
              d: float | str = "auto") -> np.ndarray:
    """Per class, the e candidates with the fewest other-class neighbors
    within distance d (they sit in sparsely contested regions)."""
    groups = _candidate_classes(batch, e)
    counts, _ = coverage_counts(batch, geometry, d)
    return np.concatenate([_take_lowest(rows, counts[rows], e) for _, rows in groups])


# -- influence machinery --


@dataclass(frozen=True)
class CgSettings:
    """``max_iters=None`` means min(dimension, 200)."""

    max_iters: int | None = None
    residual_tol: float = 1e-6
    damping: float = 0.01

    def __post_init__(self):
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be > 0")
        if self.damping < 0:
            raise ValueError("damping must be >= 0")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


LINEAR_CG = CgSettings(residual_tol=1e-6)
# The MLP's Gauss-Newton solves also converge at 1e-6, in 14-23 iterations
# instead of 10-15, but the sharper solutions pick other experiences: on the
# benchmark's mlp-images panel `im` forgetting rises from 0.0425 to 0.06.
# Tightening it is a change of its own that re-measures forgetting.
MLP_CG = CgSettings(residual_tol=1e-3)


@dataclass(frozen=True)
class CgResult:
    solution: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


def cg_solve(hvp_fn, rhs: np.ndarray, settings: CgSettings = CgSettings()) -> CgResult:
    """Conjugate gradients on the symmetric positive-definite operator hvp_fn.

    Only operator applications are used; the matrix is never formed. Stops at
    ``||residual|| <= residual_tol * ||rhs||`` or the iteration cap, whichever
    comes first (the cap is reported, not an error). A search direction with
    zero curvature (``p . Ap == 0``) admits no step: the solve stops there and
    returns the iterate reached so far, unconverged.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    limit = settings.max_iters if settings.max_iters is not None else min(rhs.size, 200)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return CgResult(np.zeros_like(rhs), 0.0, 0, True)

    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rr = float(r @ r)
    for iteration in range(1, limit + 1):
        ap = hvp_fn(p)
        if not np.all(np.isfinite(ap)):
            raise RuntimeError(f"CG operator returned non-finite values at iteration "
                               f"{iteration}")
        curvature = float(p @ ap)
        if curvature == 0.0:
            return CgResult(x, float(np.sqrt(rr)), iteration - 1, False)
        alpha = rr / curvature
        x += alpha * p
        r -= alpha * ap
        rr_new = float(r @ r)
        if not np.isfinite(rr_new):
            raise RuntimeError(f"CG residual became non-finite at iteration {iteration}")
        if np.sqrt(rr_new) <= settings.residual_tol * rhs_norm:
            return CgResult(x, float(np.sqrt(rr_new)), iteration, True)
        p = r + (rr_new / rr) * p
        rr = rr_new
    return CgResult(x, float(np.sqrt(rr)), limit, False)


def influence_scores(model, train: Batch, probes: Batch,
                     settings: CgSettings = CgSettings(), mask=None,
                     population: Batch | None = None) -> np.ndarray:
    """Signed influence of upweighting each training row on the probe loss.

    One CG solve of ``(H + damping I) w = grad(probe CE)`` against the mean
    curvature ``H`` over ``population`` (the training rows themselves by
    default, or train-plus-buffer inside a replay run): the Hessian for the
    linear model, Gauss-Newton for the MLP. Then ``score_i = -<w, grad
    CE_i>``. More positive means upweighting the row would increase the probe
    loss; the predicted probe-loss change from REMOVING it is
    ``-score / len(population)``.

    The probe functional is the bare cross-entropy: the decay term belongs to
    the training objective (it stays in the curvature), not to the quantity
    being measured on the probes.
    """
    if len(probes) == 0:
        raise ValueError("probe set is empty")
    pop = population if population is not None else train
    g_probe = replace(model, weight_decay=0.0).gradient(probes, mask)
    probe_norm = float(np.linalg.norm(g_probe))
    if probe_norm == 0.0:
        return np.zeros(len(train))
    result = cg_solve(lambda v: model.hvp(pop, mask, v, damping=settings.damping),
                      g_probe, settings)
    if not result.converged:
        logger.warning("influence CG solve stopped unconverged after %d iteration(s), "
                       "relative residual %.3g", result.iterations,
                       result.residual_norm / probe_norm)
    return -model.gradient_dots(train, mask, result.solution)


def predicted_loss_change(scores: np.ndarray, population_size: int) -> np.ndarray:
    """Probe-loss change predicted for removing each scored row."""
    if population_size < 1:
        raise ValueError("population_size must be >= 1")
    return -np.asarray(scores, dtype=np.float64) / population_size


def select_im(model, batch: Batch, e: int, probes: Batch,
              settings: CgSettings = CgSettings(), signed: bool = False,
              mask=None, population: Batch | None = None) -> np.ndarray:
    """Per class, the e candidates with the largest influence on the probes.

    Default ranking is by |score|: influence is signed and a strongly negative
    row shapes the decision boundary as much as a strongly positive one.
    ``signed=True`` ranks by raw score descending instead. Candidates are
    scored as unit-weight rows in class order.
    """
    groups = _candidate_classes(batch, e)
    order = np.concatenate([rows for _, rows in groups])
    scores = np.empty(len(batch))
    scores[order] = influence_scores(model, Batch(batch.x[order], batch.y[order]), probes,
                                     settings, mask, population)
    keys = -scores if signed else -np.abs(scores)
    return np.concatenate([_take_lowest(rows, keys[rows], e) for _, rows in groups])


# -- retraining oracle --


def fit_to_stationarity(template: LinearModel, batch: Batch, mask=None) -> LinearModel:
    """Minimize the convex objective to optimizer-grade stationarity.

    The oracle compares optima, not training trajectories, so it uses a
    quasi-Newton solve from zero parameters instead of the production Adam
    loop; the gradient fed to it is the same closed form the trainer uses.
    """
    import scipy.optimize  # slow to import, and only this oracle uses it

    work = template.copy()
    mask_arr = work.resolve_mask(mask)

    def objective(theta):
        work.set_flat(theta)
        return (work.loss(batch, mask_arr), work.gradient(batch, mask_arr))

    res = scipy.optimize.minimize(objective, np.zeros(work.num_params), jac=True,
                                  method="L-BFGS-B",
                                  options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-10})
    if not np.all(np.isfinite(res.x)):
        raise RuntimeError(f"stationarity solve diverged: {res.message}")
    fitted = template.copy()
    fitted.set_flat(res.x)
    return fitted


def _fit_with_and_without(template: LinearModel, train: Batch, index: int, mask):
    """Optima on all of ``train`` and on ``train`` without row ``index``."""
    if not 0 <= index < len(train):
        raise IndexError(f"index {index} outside [0, {len(train)})")
    if len(train) == 1:
        raise ValueError("cannot remove the only training sample")
    full = fit_to_stationarity(template, train, mask)
    reduced = train.take(np.delete(np.arange(len(train)), index))
    return full, fit_to_stationarity(template, reduced, mask)


def loo_retrain_oracle(template: LinearModel, train: Batch, probes: Batch,
                       index: int, mask=None) -> float:
    """Ground-truth probe-loss change from dropping one training row.

    Retrains from the same (zero) initialization with row ``index`` removed
    and returns ``probe_CE(without) - probe_CE(with)``, the quantity the
    influence prediction approximates; the probe evaluation excludes the
    decay term, mirroring influence_scores. Intended for small instances; it
    runs one full solve per call.
    """
    full, loo = _fit_with_and_without(template, train, index, mask)
    return (replace(loo, weight_decay=0.0).loss(probes, mask)
            - replace(full, weight_decay=0.0).loss(probes, mask))


def loo_parameter_change(template: LinearModel, train: Batch, index: int,
                         mask=None) -> np.ndarray:
    """Actual parameter displacement from dropping one training row."""
    full, loo = _fit_with_and_without(template, train, index, mask)
    return loo.get_flat() - full.get_flat()
