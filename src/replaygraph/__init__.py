"""Continual node classification with experience replay.

A task sequence is learned one task at a time; after each task a few training
examples per class are selected (at random, nearest the class mean, by
coverage of the attribute space, or by influence on a probe loss) and kept in
a buffer that is mixed into every later task's objective through a
count-balanced weight factor. One model class, ``MlpModel``: with no hidden
layer the linear softmax classifier over K-step propagated graph features
(``LinearModel``), with two ReLU layers the net for permuted images.
Forgetting is read off the task-by-task accuracy matrix.
"""

from .datasets import (ImageTask, TaskSequence, TaskSpec, build_task_sequence,
                       load_citation_dataset, load_mnist, make_permuted_tasks,
                       synthetic_image_dataset, synthetic_sbm_graph)
from .experiment import (ExperimentConfig, ExperimentError, run_experiment,
                         run_single_seed, sweep_e, validate_config_file)
from .graph import (Graph, NormalizedAdjacency, PropagatedFeatures,
                    graph_from_edges, induced_subgraph, normalize_adjacency,
                    propagate)
from .linear import Batch, LinearModel, LossGroup, MaskError
from .metrics import (AccuracyMatrix, accuracy, forgetting_mean, micro_f1,
                      performance_mean)
from .mlp import MlpModel
from .optim import AdamState, TrainConfig, TrainingDiverged, adam_minimize
from .replay import (ExperienceBuffer, ReplayConfig, RunState, TaskData,
                     learn_task, prepare_image_task, prepare_sequence,
                     prepare_task_data, run_image_tasks, run_sequence,
                     weight_factor)
from .selection import (CgResult, CgSettings, cg_solve, coverage_counts,
                        fit_to_stationarity, influence_scores, loo_parameter_change,
                        loo_retrain_oracle, predicted_loss_change, select_cm,
                        select_im, select_mf, select_random)

__version__ = "0.1.0"

__all__ = [
    "AccuracyMatrix", "AdamState", "Batch", "CgResult", "CgSettings",
    "ExperienceBuffer", "ExperimentConfig", "ExperimentError",
    "Graph", "ImageTask", "LinearModel", "LossGroup", "MaskError",
    "MlpModel", "NormalizedAdjacency", "PropagatedFeatures",
    "ReplayConfig", "RunState", "TaskData",
    "TaskSequence", "TaskSpec", "TrainConfig", "TrainingDiverged",
    "accuracy", "adam_minimize", "build_task_sequence", "cg_solve",
    "coverage_counts", "fit_to_stationarity",
    "forgetting_mean", "graph_from_edges",
    "induced_subgraph", "influence_scores", "learn_task",
    "load_citation_dataset", "load_mnist", "loo_parameter_change",
    "loo_retrain_oracle", "make_permuted_tasks", "micro_f1",
    "normalize_adjacency", "performance_mean", "predicted_loss_change",
    "prepare_image_task", "prepare_sequence", "prepare_task_data", "propagate",
    "run_experiment", "run_image_tasks", "run_sequence",
    "run_single_seed", "select_cm", "select_im", "select_mf", "select_random",
    "sweep_e", "synthetic_image_dataset", "synthetic_sbm_graph",
    "validate_config_file", "weight_factor",
]
