"""Experience selection: random, mean-of-feature, coverage maximization, and
influence maximization, plus the conjugate-gradient solver and the
leave-one-out retraining oracle that keeps the influence approximation honest.

Every strategy takes the candidate :class:`~replaygraph.linear.Batch` and
returns row indices into it: ``min(e, class size)`` rows per class, classes in
ascending id order, each class's rows in selection order. Score ties break by
lowest node index, so a fixed input yields a fixed selection. ``mf`` and
``cm`` measure distances in a caller-supplied geometry matrix with one row per
candidate: raw attributes, or the model's embedding of the inputs. ``cm``
reproduces ``scipy.spatial.distance.pdist``'s distances bit for bit in numpy,
so only the leave-one-out oracle imports scipy.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .linear import Batch
from .mlp import MlpModel

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


# Squared differences held at once while exact distances are summed.
_REFINE_CHUNK = 1 << 16


def _exact_distances(g: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows ``rows[k]`` and ``cols[k]`` of ``g``,
    summed strictly in column order as ``scipy.spatial.distance.pdist`` sums
    them, so the two agree bit for bit."""
    out = np.empty(len(rows))
    step = max(1, _REFINE_CHUNK // g.shape[1])
    for start in range(0, len(rows), step):
        part = slice(start, start + step)
        diff = g[rows[part]] - g[cols[part]]
        diff *= diff
        out[part] = np.sqrt(np.cumsum(diff, axis=1)[:, -1])
    return out


def _settle(g, est, pairs, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs whose estimate is not certainly below ``lo`` or above ``hi``
    (NaN included), as row indices, column indices and exact distances."""
    rows, cols = np.nonzero(pairs & ~(est < lo) & ~(est > hi))
    return rows, cols, _exact_distances(g, rows, cols)


def coverage_counts(batch: Batch, geometry: np.ndarray) -> tuple[np.ndarray, float]:
    """|N(v)| per candidate row, other-class candidates strictly within
    distance d in ``geometry``, and d: the median cross-class pairwise
    distance. With a single class every count is zero and d is 0.

    Counts and d equal those computed from ``scipy.spatial.distance.pdist``
    bit for bit, without forming every exact distance: a Gram-matrix estimate
    of each squared distance with a rounding bound (Higham 2002, *Accuracy and
    Stability of Numerical Algorithms*, §3.1) settles most pairs, and only the
    pairs whose rank or side of d it leaves in doubt are summed exactly.
    Raises ValueError if a row of ``geometry`` holds a non-finite value.
    """
    g = np.ascontiguousarray(geometry, dtype=np.float64)
    finite = np.isfinite(g).all(axis=1)
    if not finite.all():
        raise ValueError(f"geometry row {int(np.argmin(finite))} has a non-finite value")
    n, dim = g.shape
    pairs = np.triu(batch.y[:, None] != batch.y[None, :], 1)  # cross-class, i < j
    if not pairs.any():
        return np.zeros(n, dtype=np.int64), 0.0

    sq = np.einsum("ij,ij->i", g, g)
    est = g @ g.T  # becomes ||g_i||^2 + ||g_j||^2 - 2 g_i.g_j in place
    est *= -2.0
    est += sq[:, None]
    est += sq
    # The estimate and pdist's sequential sum each lie within
    # (D + 2) eps (||g_i||^2 + ||g_j||^2) of the true squared distance, so
    # within twice that of each other. `bound` is twice that again at the
    # largest norm; the spare exceeds 7 eps d^2 (d^2 <= 4 max ||g||^2) and
    # covers the rounding of the thresholds and of the square root. The tiny
    # term covers underflow.
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    bound = 4 * (dim + 4) * (2 * eps * sq.max() + tiny)

    # np.median over the doubled cross-class set averages the pair values at
    # ranks (P - 1) // 2 and P // 2. An exact value of rank k lies within
    # `bound` of the rank-k estimate, so a pair whose estimate lies more than
    # 2 * bound outside the two middle estimates is outside both ranks; only
    # the pairs in the window are summed exactly.
    cross = est[pairs]
    ranks = [(cross.size - 1) // 2, cross.size // 2]
    cross.partition(ranks)
    lo, hi = cross[ranks[0]] - 2 * bound, cross[ranks[1]] + 2 * bound
    del cross
    below = np.count_nonzero(pairs & (est < lo))
    exact = np.sort(_settle(g, est, pairs, lo, hi)[2])
    d = float((exact[ranks[0] - below] + exact[ranks[1] - below]) / 2)

    d2 = d * d
    inside = pairs & (est < d2 - bound)
    counts = inside.sum(axis=0) + inside.sum(axis=1)
    del inside
    rows, cols, dist = _settle(g, est, pairs, d2 - bound, d2 + bound)
    near = dist < d
    counts += np.bincount(rows[near], minlength=n)
    counts += np.bincount(cols[near], minlength=n)
    return counts, d


def select_cm(batch: Batch, e: int, geometry: np.ndarray) -> np.ndarray:
    """Per class, the e candidates with the fewest other-class neighbors
    within the median cross-class distance (they sit in sparsely contested
    regions)."""
    groups = _candidate_classes(batch, e)
    counts, _ = coverage_counts(batch, geometry)
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
    step = np.empty_like(rhs)  # alpha * p, then alpha * Ap: x, r and p update in place
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
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
        rr_new = float(r @ r)
        if not np.isfinite(rr_new):
            raise RuntimeError(f"CG residual became non-finite at iteration {iteration}")
        if np.sqrt(rr_new) <= settings.residual_tol * rhs_norm:
            return CgResult(x, float(np.sqrt(rr_new)), iteration, True)
        p *= rr_new / rr
        p += r
        rr = rr_new
    return CgResult(x, float(np.sqrt(rr)), limit, False)


def influence_scores(model, train: Batch, probes: Batch,
                     settings: CgSettings | None = None, mask=None,
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

    ``settings=None`` means ``MLP_CG`` for a model with hidden layers, else
    ``LINEAR_CG``. Every gradient and the curvature run over ``mask``'s
    classes; ``mask=None`` is every class of the model.
    """
    if len(probes) == 0:
        raise ValueError("probe set is empty")
    if settings is None:
        settings = MLP_CG if len(model.layers) > 1 else LINEAR_CG
    pop = population if population is not None else train
    g_probe = replace(model, weight_decay=0.0).gradient(probes, mask)
    probe_norm = float(np.linalg.norm(g_probe))
    if probe_norm == 0.0:
        return np.zeros(len(train))
    result = cg_solve(model.curvature(pop, mask, settings.damping), g_probe, settings)
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
              settings: CgSettings | None = None, mask=None,
              population: Batch | None = None) -> np.ndarray:
    """Per class, the e candidates with the largest |influence| on the probes.

    Influence is signed, and a strongly negative row shapes the decision
    boundary as much as a strongly positive one. Candidates are scored as
    unit-weight rows in class order, over ``mask``'s classes (``None``: every
    class of the model).
    """
    groups = _candidate_classes(batch, e)
    order = np.concatenate([rows for _, rows in groups])
    scores = np.empty(len(batch))
    scores[order] = influence_scores(model, Batch(batch.x[order], batch.y[order]), probes,
                                     settings, mask, population)
    return np.concatenate([_take_lowest(rows, -np.abs(scores[rows]), e)
                           for _, rows in groups])


# -- retraining oracle --


def fit_to_stationarity(template: MlpModel, batch: Batch, mask=None) -> MlpModel:
    """Fit a depth-0 (convex) template to optimizer-grade stationarity.

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


def _fit_with_and_without(template: MlpModel, train: Batch, index: int, mask):
    """Optima on all of ``train`` and on ``train`` without row ``index``."""
    if not 0 <= index < len(train):
        raise IndexError(f"index {index} outside [0, {len(train)})")
    if len(train) == 1:
        raise ValueError("cannot remove the only training sample")
    full = fit_to_stationarity(template, train, mask)
    reduced = train.take(np.delete(np.arange(len(train)), index))
    return full, fit_to_stationarity(template, reduced, mask)


def loo_retrain_oracle(template: MlpModel, train: Batch, probes: Batch,
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


def loo_parameter_change(template: MlpModel, train: Batch, index: int,
                         mask=None) -> np.ndarray:
    """Actual parameter displacement from dropping one training row."""
    full, loo = _fit_with_and_without(template, train, index, mask)
    return loo.get_flat() - full.get_flat()
