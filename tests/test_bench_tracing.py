"""The benchmark's traced run wraps program names from outside; every name it
lists must still exist where it looks for it, and its spans must still count
what they name."""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracing):
    for module_name, attr, _ in tracing.FUNCTIONS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_traced_methods_are_defined_on_their_class(tracing):
    # install() reads cls.__dict__[method]; an inherited method would raise
    for module_name, class_name, method, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        assert method in cls.__dict__, f"{class_name}.{method}"


def test_install_counts_one_update_span_per_adam_step(tracing):
    from replaygraph import AdamState, Batch, LossGroup, MlpModel, TrainConfig
    update, fit = AdamState.__dict__["update"], MlpModel.__dict__["fit"]
    rng = np.random.default_rng(0)
    model = MlpModel.init(input_dim=5, hidden_dim=3, class_count=3)
    batch = Batch(rng.standard_normal((10, 5)), rng.integers(0, 3, 10))
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        tracer.run = 0
        model.fit([LossGroup(batch, None, 1.0)], TrainConfig(epochs=3, lr=1e-2, batch_size=4))
    finally:
        tracer.run = None
        tracing.uninstall(patches)
    names = [span[0] for span in tracer.spans]
    assert names.count("optim.update") == 3 * 3  # epochs x batches of 4, 4 and 2 rows
    assert names.count("mlp.fit") == 1
    assert AdamState.__dict__["update"] is update
    assert MlpModel.__dict__["fit"] is fit


def test_update_spans_count_steps_when_idle_head_rows_are_skipped(tracing):
    # fit leaves idle zero head rows out of Adam; --trace 1's optim.adam_steps
    # must still count one update span per step
    from replaygraph import Batch, LossGroup, MlpModel, TrainConfig
    rng = np.random.default_rng(0)
    model = MlpModel.zeros(5, 4, weight_decay=0.01)
    batch = Batch(rng.standard_normal((10, 4)), rng.choice([1, 3], 10))
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        tracer.run = 0
        model.fit([LossGroup(batch, (1, 3), 1.0)], TrainConfig(epochs=3, lr=1e-2, batch_size=4))
    finally:
        tracer.run = None
        tracing.uninstall(patches)
    names = [span[0] for span in tracer.spans]
    assert names.count("optim.update") == 3 * 3  # epochs x batches of 4, 4 and 2 rows


def test_install_counts_the_iterations_of_one_influence_solve(tracing):
    # --trace 1 reads selection.cg_iters off the cg_solve span: an im
    # selection must still reach cg_solve through the traced name, once.
    from replaygraph import Batch, MlpModel, selection
    rng = np.random.default_rng(0)
    model = MlpModel.init(input_dim=5, hidden_dim=3, class_count=3, weight_decay=0.01)
    train, probes = (Batch(rng.standard_normal((n, 5)), rng.integers(0, 3, n)) for n in (9, 6))
    settings = selection.MLP_CG
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        tracer.run = 0
        selection.select_im(model, train, 2, probes, settings, population=train)
    finally:
        tracer.run = None
        tracing.uninstall(patches)
    names = [span[0] for span in tracer.spans]
    assert names.count("selection.cg") == 1
    g_probe = dataclasses.replace(model, weight_decay=0.0).gradient(probes)
    solve = selection.cg_solve(model.curvature(train, None, settings.damping), g_probe,
                               settings)
    assert solve.iterations > 0
    assert tracer.counts[0]["selection.cg_iters"] == solve.iterations


def test_graph_spans_and_spmm_flops_recorded(tracing):
    # --trace 1 reads the adjacency's nnz and the propagated width in the
    # graph.propagate counter; a graph-layer change that breaks it fails here.
    from replaygraph import build_task_sequence, replay, synthetic_sbm_graph
    graph = synthetic_sbm_graph([12] * 4, 0.3, 0.05, 0.2, seed=0)
    task = build_task_sequence(graph, 2, 2, 4, seed=0).tasks[0]
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        tracer.run = 0
        replay.prepare_task_data(graph, task, k=2)
    finally:
        tracer.run = None
        tracing.uninstall(patches)
    names = [span[0] for span in tracer.spans]
    for name in ("replay.prepare", "graph.subgraph", "graph.normalize", "graph.propagate"):
        assert names.count(name) == 1, name
    assert tracer.counts[0]["graph.spmm_flops"] > 0


@pytest.mark.parametrize("strategy, pairs", [("none", 0), ("random", 4)])
def test_buffer_rows_count_the_final_buffer(tracing, strategy, pairs):
    # --trace 1 reads replay.buffer_rows as len(state.buffer) after each
    # learn_task: e rows per (task, class) pair once the run ends.
    from replaygraph import ReplayConfig, build_task_sequence, replay, synthetic_sbm_graph
    graph = synthetic_sbm_graph([12] * 4, 0.3, 0.05, 0.2, seed=0)
    seq = build_task_sequence(graph, 2, 2, 4, seed=0)  # 2 tasks x 2 classes
    e = 2
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        tracer.run = 0
        replay.run_sequence(seq, strategy, ReplayConfig(e=e, epochs=2, seed=0))
    finally:
        tracer.run = None
        tracing.uninstall(patches)
    assert [span[0] for span in tracer.spans].count("replay.learn_task") == 2
    assert "replay.buffer_rows" in tracer.counts[0]
    assert tracer.counts[0]["replay.buffer_rows"] == e * pairs
