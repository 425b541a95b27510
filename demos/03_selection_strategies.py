"""
What each selection strategy keeps
==================================

One task, one candidate pool, three answers to "which e nodes are worth
remembering": the node nearest its class mean (mf), the node with the fewest
other-class neighbors within distance d (cm), and the node whose removal
would move the trained model most (im).
"""

import numpy as np

from replaygraph.datasets import build_task_sequence, synthetic_sbm_graph
from replaygraph.linear import LinearModel
from replaygraph.replay import prepare_task_data
from replaygraph.selection import (coverage_counts, fit_to_stationarity,
                                   select_cm, select_im, select_mf)

graph = synthetic_sbm_graph([40] * 4, intra_p=0.25, inter_p=0.03,
                            feature_noise=0.5, seed=1)
task = build_task_sequence(graph, classes_per_task=2, num_tasks=1,
                           train_per_class=20, seed=1).tasks[0]
data = prepare_task_data(graph, task, k=2)
candidates = data.train  # propagated inputs plus raw attributes, one row per node
print(f"task over classes {task.classes}, {len(candidates)} candidates")

# im needs a trained model and probe samples to measure influence against;
# here we train on the full pool and probe with a few of its own members. The
# model has a row for each of the graph's classes; fitting and scoring name
# the task's classes as the mask, since mask=None would mean every class
template = LinearModel.zeros(graph.class_count, graph.features.shape[1],
                             weight_decay=0.1)
model = fit_to_stationarity(template, candidates, mask=task.classes)
probes = candidates.take(np.arange(6))

# mf and cm measure distances in attribute space; each strategy returns row
# indices into the candidate batch
e = 3
picks = {
    "mf": select_mf(candidates, e, candidates.attributes),
    "cm": select_cm(candidates, e, candidates.attributes),
    "im": select_im(model, candidates, e, probes, mask=task.classes),
}

counts, d_val = coverage_counts(candidates, candidates.attributes)
print(f"cm neighborhood radius d = {d_val:.3f} "
      "(median cross-class pairwise distance)")

for name, rows in picks.items():
    nodes, labels = candidates.node[rows], candidates.y[rows]
    desc = "   ".join(f"class {label}: nodes {nodes[labels == label].tolist()}"
                      for label in task.classes)
    print(f"{name:>4} keeps  {desc}")

overlap = set(candidates.node[picks["mf"]].tolist()) \
    & set(candidates.node[picks["im"]].tolist())
print(f"\nmf and im agree on {len(overlap)} of {e * len(task.classes)} picks; "
      "centrality and influence measure different things")
