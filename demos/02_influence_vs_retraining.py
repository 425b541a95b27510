"""
Influence functions against the retraining oracle
=================================================

The influence score promises the effect of a training sample without
retraining: one Hessian-inverse-vector product (by conjugate gradients, the
Hessian only ever applied to vectors) and one inner product per sample.
Here we pay for the ground truth instead, retraining once per left-out
sample, and compare.
"""

import numpy as np
from scipy.stats import spearmanr

from replaygraph.linear import Batch, LinearModel
from replaygraph.selection import (CgSettings, fit_to_stationarity,
                                   influence_scores, loo_retrain_oracle,
                                   predicted_loss_change)

rng = np.random.default_rng(10)
dim, n_per_class, sep = 4, 15, 1.5

# two gaussian blobs; decay 0.3 keeps the optimum well-conditioned so that
# removing one point is a small perturbation, the regime the Taylor
# expansion behind the score assumes; no mask is passed below, so the fit
# and the scores run over both classes
template = LinearModel.zeros(2, dim, weight_decay=0.3)
centers = {0: np.full(dim, -sep / 2), 1: np.full(dim, sep / 2)}


def draw(count):
    labels = [label for label in (0, 1) for _ in range(count)]
    return Batch(np.vstack([centers[label] + rng.standard_normal(dim) for label in labels]),
                 labels)


train = draw(n_per_class)
probes = draw(5)

model = fit_to_stationarity(template, train)
scores = influence_scores(model, train, probes, CgSettings(damping=0.0))
predicted = predicted_loss_change(scores, len(train))

print(f"retraining {len(train)} leave-one-out models for the ground truth...")
actual = np.array([loo_retrain_oracle(template, train, probes, i)
                   for i in range(len(train))])

print(f"\n{'sample':>6} {'predicted':>12} {'retrained':>12}")
order = np.argsort(-np.abs(actual))
for i in order[:8]:
    print(f"{i:>6} {predicted[i]:>+12.6f} {actual[i]:>+12.6f}")
print("   ... (largest true effects shown)")

rho = spearmanr(predicted, actual).statistic
rel = np.linalg.norm(predicted - actual) / np.linalg.norm(actual)
print(f"\nspearman correlation {rho:.4f}   relative l2 error {rel:.3f}")
# a first-order prediction undershoots finite removals, so magnitudes drift;
# selection only consumes the ranking, and that is what the score nails
print("one CG solve replaces", len(train), "full retrainings")
