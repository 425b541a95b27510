"""
Replay without a graph: permuted image tasks
============================================

The replay loop does not care where samples come from. Here the model is a
two-hidden-layer MLP trained with Adam on mini-batches, and each task is the
same 10-class image problem under a fresh pixel permutation, so every task
reuses labels 0..9 and only the input distribution shifts. The buffer keys
experiences by (origin task, label), which is what keeps the per-task quota
meaningful when label sets collide.
"""

import numpy as np

from replaygraph.datasets import make_permuted_tasks, synthetic_image_dataset
from replaygraph.metrics import forgetting_mean, performance_mean
from replaygraph.replay import ReplayConfig, run_image_tasks

# 10 template images plus pixel noise stand in for digits; swap in
# load_mnist(...) for the real thing
images, labels = synthetic_image_dataset(num_classes=10, per_class=200,
                                         noise=0.6, seed=0)
tasks = make_permuted_tasks(images, labels, num_tasks=5,
                            per_task_train=1000, per_task_test=400, seed=0)
config = ReplayConfig(e=10, epochs=20, lr=5e-3, decay=1e-5,
                      batch_size=64, seed=0)

for strategy in ("none", "im"):
    state = run_image_tasks(tasks, strategy, config, hidden_dim=64)
    matrix = state.matrix()
    fm, _ = forgetting_mean(matrix)
    first_task = matrix.values[:, 0]
    print(f"strategy {strategy:>4}: PM {performance_mean(matrix):.4f}  "
          f"FM {fm:+.4f}  buffer {len(state.buffer)}")
    print("   task-0 accuracy over time: "
          + " ".join(f"{v:.3f}" for v in first_task))

print("\nwith replay the earliest permutation stays solved; without it the "
      "network trades it away for the current one")
