"""The continual loop: weight factor, loss groups, buffer bookkeeping, and
full runs on a stochastic-block-model fixture."""

import re

import numpy as np
import pytest

from replaygraph import experiment, replay
from replaygraph.datasets import (build_task_sequence, make_permuted_tasks,
                                  synthetic_image_dataset, synthetic_sbm_graph)
from replaygraph.experiment import ExperimentConfig
from replaygraph.graph import (PropagatedRows, graph_from_edges, induced_subgraph,
                               normalize_adjacency, propagate)
from replaygraph.linear import Batch, stack_samples
from replaygraph.metrics import accuracy, forgetting_mean
from replaygraph.mlp import MlpModel
from replaygraph.replay import (EVAL_MODES, STRATEGIES, ExperienceBuffer, ReplayConfig,
                                RunState, learn_task, loss_groups, prepare_image_task,
                                prepare_sequence, prepare_task_data, run_image_tasks,
                                run_sequence, weight_factor)
from replaygraph.selection import select_cm, select_mf

from conftest import traced_peak


class FakeModel:
    """loss() sums the first feature component; lets the combination
    arithmetic be checked with hand-picked values."""

    def loss(self, batch, mask=None):
        return float(batch.x[:, 0].sum())


def values(*vs, label=0):
    """A one-feature batch holding the given values."""
    return Batch(np.array(vs, dtype=np.float64)[:, None], [label] * len(vs))


def sbm_sequence(num_tasks=3, classes_per_task=2, train_per_class=5,
                 block_size=20, feature_noise=0.3, seed=0):
    graph = synthetic_sbm_graph([block_size] * (num_tasks * classes_per_task),
                                intra_p=0.3, inter_p=0.02,
                                feature_noise=feature_noise, seed=seed)
    return build_task_sequence(graph, classes_per_task, num_tasks,
                               train_per_class, seed=seed + 1)


class TestWeightFactor:
    def test_forty_train_two_buffer(self):
        assert weight_factor(40, 2) == pytest.approx(2 / 42)

    def test_empty_buffer(self):
        assert weight_factor(40, 0) == 0.0

    def test_equal_counts(self):
        assert weight_factor(7, 7) == 0.5

    def test_input_validation(self):
        with pytest.raises(ValueError, match="train_count"):
            weight_factor(0, 1)
        with pytest.raises(ValueError, match="buffer_count"):
            weight_factor(1, -1)


class TestCombinedLoss:
    def test_empty_buffer_returns_train_loss_exactly(self):
        for buf in (None, values()):
            groups = loss_groups(values(2), buf, None, None)
            assert len(groups) == 1
            assert sum(g.coeff * FakeModel().loss(g.batch) for g in groups) == 2.0

    def test_balance_identity_for_sum_reduction(self):
        # beta * |D| == (1 - beta) * |B| == |D||B| / (|D| + |B|)
        train = values(*[1] * 40)
        buf = values(1, 1)
        groups = loss_groups(train, buf, None, None)
        train_total = groups[0].coeff * len(train)
        buffer_total = groups[1].coeff * len(buf)
        assert train_total == pytest.approx(buffer_total)
        assert train_total == pytest.approx(40 / 21)

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="train batch is empty"):
            loss_groups(values(), values(1), None, None)

    def test_masks_forwarded_to_groups(self):
        groups = loss_groups(values(1), values(2, label=9), (0, 1), (9,))
        assert groups[0].mask == (0, 1)
        assert groups[1].mask == (9,)


def item(task, label, node=0, value=0.0):
    """One buffer row."""
    return Batch(np.array([[value]]), [label], node=[node], task=[task])


def items(*rows):
    return stack_samples(rows)


class TestExperienceBuffer:
    def test_capacity_enforced_per_task_class_pair(self):
        buf = ExperienceBuffer(capacity=2)
        buf.add(items(item(0, 0, node=1), item(0, 0, node=2)))
        with pytest.raises(ValueError, match="capacity 2 exceeded"):
            buf.add(item(0, 0, node=3))

    def test_same_label_from_distinct_tasks_kept_separately(self):
        buf = ExperienceBuffer(capacity=1)
        buf.add(item(0, 5, node=1))
        buf.add(item(1, 5, node=2))
        assert len(buf) == 2
        rows = buf.batch()
        assert list(zip(rows.task.tolist(), rows.y.tolist())) == [(0, 5), (1, 5)]
        assert buf.classes() == (5,)

    def test_oversized_single_add_rejected_atomically(self):
        buf = ExperienceBuffer(capacity=1)
        with pytest.raises(ValueError):
            buf.add(items(item(0, 0, node=1), item(0, 0, node=2)))
        assert len(buf) == 0  # nothing partially added
        assert buf.batch() is None

    def test_items_accumulate_in_key_order(self):
        buf = ExperienceBuffer(capacity=2)
        buf.add(item(1, 3, node=9))
        buf.add(item(0, 1, node=4))
        rows = buf.batch()
        assert list(zip(rows.task.tolist(), rows.y.tolist())) == [(0, 1), (1, 3)]
        assert rows.node.tolist() == [4, 9]

    def test_samples_carry_stored_representation(self):
        buf = ExperienceBuffer(capacity=1)
        buf.add(item(0, 2, node=7, value=3.5))
        rows = buf.batch()
        assert rows.y[0] == 2
        assert rows.x[0, 0] == 3.5

    def test_empty_add_changes_nothing(self):
        buf = ExperienceBuffer(capacity=1)
        nothing = item(0, 0).take(np.zeros(0, dtype=np.int64))
        buf.add(nothing)
        assert len(buf) == 0
        assert buf.batch() is None
        assert buf.classes() == ()
        buf.add(item(1, 3, node=9))
        stored = buf.batch()
        buf.add(nothing)
        assert buf.batch() is stored

    def test_capacity_message_names_pair_and_counts(self):
        buf = ExperienceBuffer(capacity=2)
        buf.add(items(item(0, 0, node=1), item(1, 4, node=2)))
        with pytest.raises(ValueError, match=r"\(task, class\) \(1, 4\): 1 stored \+ 2 new"):
            buf.add(items(item(1, 4, node=3), item(0, 0, node=5), item(1, 4, node=4)))
        assert buf.batch().node.tolist() == [1, 2]

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            ExperienceBuffer(0)

    def test_non_finite_input_rejected(self):
        buf = ExperienceBuffer(capacity=2)
        with pytest.raises(ValueError, match="node 3: non-finite"):
            buf.add(items(item(0, 0, node=1), item(0, 0, node=3, value=np.nan)))
        assert len(buf) == 0


class TestReplayConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="e must be >= 1"):
            ReplayConfig(e=0)
        with pytest.raises(ValueError, match="eval_mode"):
            ReplayConfig(eval_mode="both")
        for bad, message in ((dict(lr=-1.0), "lr must be > 0"),
                             (dict(epochs=-3), "epochs must be >= 0"),
                             (dict(decay=-1.0), "decay must be >= 0"),
                             (dict(batch_size=0), "batch_size must be >= 1")):
            with pytest.raises(ValueError, match=message):
                ReplayConfig(**bad)


class TestPrepareTaskData:
    def test_task_propagation_ignores_outside_nodes(self):
        seq = sbm_sequence()
        task = seq.tasks[0]
        data = prepare_task_data(seq.graph, task, k=2)
        nodes = np.unique(np.concatenate([task.train_nodes, task.test_nodes]))
        sub = induced_subgraph(seq.graph, nodes)
        expected = propagate(normalize_adjacency(sub), sub.features, 2).values.toarray()
        rows = np.searchsorted(nodes, data.train.node)
        assert np.allclose(data.train.x, expected[rows])

    def test_candidates_keep_raw_attributes(self):
        seq = sbm_sequence()
        data = prepare_task_data(seq.graph, seq.tasks[0], k=2)
        train = data.train
        assert np.array_equal(train.attributes, seq.graph.features.toarray()[train.node])
        assert np.array_equal(train.y, seq.graph.labels[train.node])
        assert np.all(train.task == 0)


    def test_split_rows_come_straight_out_of_propagation(self, rng):
        seq = sbm_sequence()
        task = seq.tasks[2]
        data = prepare_task_data(seq.graph, task, k=2)
        nodes = np.unique(np.concatenate([task.train_nodes, task.test_nodes]))
        sub = induced_subgraph(seq.graph, nodes)
        full = propagate(normalize_adjacency(sub), sub.features, 2).values.toarray()
        # training rows keep the float64 bytes
        train = data.train.x
        assert train.flags.c_contiguous and train.dtype == np.float64
        assert train.tobytes() == full[np.searchsorted(nodes, task.train_nodes)].tobytes()
        # test rows are never made; their logits are those of the dense float64 rows
        test = full[np.searchsorted(nodes, task.test_nodes)]
        assert data.test_inputs.shape == test.shape
        w = rng.standard_normal((4, test.shape[1]))
        z = data.test_inputs @ w.T
        assert z.dtype == np.float64
        assert np.max(np.abs(z - test @ w.T)) <= 1e-12 * np.max(np.abs(z))

    def test_cora_width_peak_is_near_the_dense_output(self):
        # neither all of S^K X nor a gathered copy of its rows is made: that
        # peaked at 2.06x the splits
        rng = np.random.default_rng(0)
        n, d = 1000, 1433
        g = graph_from_edges(n, rng.integers(0, n, (2 * n, 2)),
                             (rng.random((n, d)) < 0.0127).astype(np.float64),
                             rng.integers(0, 2, n), class_count=2)
        task = build_task_sequence(g, 2, 1, 20, seed=0).tasks[0]
        data, peak = traced_peak(prepare_task_data, g, task, 2)
        # the bound that held while the test rows were dense float32
        assert peak < 1.5 * (data.train.x.nbytes + len(task.test_nodes) * d * 4)
        # the test rows are never made: the peak measured 1.56 MB against 8.79
        # MB when they were; 2 MB leaves 28% headroom
        assert peak < 2_000_000

    def test_one_propagation_per_task_for_its_training_rows(self, monkeypatch):
        # scoring multiplies the held operators and never propagates again
        asked = []

        def counted(s, x, k, rows=None):
            asked.append(len(rows))
            return propagate(s, x, k, rows)

        monkeypatch.setattr(replay, "propagate", counted)
        seq = sbm_sequence()
        run_sequence(seq, "random", ReplayConfig(e=1, epochs=5, seed=0))
        assert asked == [len(task.train_nodes) for task in seq.tasks]

    def test_train_attributes_are_dense_feature_rows(self):
        seq = sbm_sequence()
        task = seq.tasks[1]
        attributes = prepare_task_data(seq.graph, task, k=2).train.attributes
        assert type(attributes) is np.ndarray and attributes.dtype == np.float64
        expected = seq.graph.features.toarray()[task.train_nodes]
        assert attributes.tobytes() == expected.tobytes()


class TestFloat32Scoring:
    @pytest.mark.parametrize("eval_mode", EVAL_MODES)
    @pytest.mark.parametrize("strategy", ["none", "random", "im"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_recorded_accuracies_match_float64_rows(self, seed, strategy, eval_mode):
        # scoring the unmade test rows flips no prediction on the fixture:
        # each recorded accuracy is that of the same snapshot on float64 rows
        config = ExperimentConfig(dataset="synthetic-sbm", eval_mode=eval_mode)
        seq = build_task_sequence(experiment._load_graph(config, seed), config.classes_per_task,
                                  config.tasks, config.train_per_class, seed=seed)
        state = run_sequence(seq, strategy, config.replay_config(seed))
        float64_rows = []
        for task in seq.tasks:
            nodes = np.unique(np.concatenate([task.train_nodes, task.test_nodes]))
            sub = induced_subgraph(seq.graph, nodes)
            full = propagate(normalize_adjacency(sub), sub.features, config.k).values.toarray()
            float64_rows.append(full[np.searchsorted(nodes, task.test_nodes)])
        for i, snap in enumerate(state.snapshots):
            frozen = state.model.with_arrays(snap)
            seen = sorted(c for past in state.history[:i + 1] for c in past.classes)
            for j, past in enumerate(state.history[:i + 1]):
                assert isinstance(past.test_inputs, PropagatedRows)
                mask = past.classes if eval_mode == "task-aware" else seen
                preds = frozen.predict(float64_rows[j], mask)
                assert accuracy(preds, past.test_labels) == state.rows[i][j]


class TestLearnTaskBookkeeping:
    def test_buffer_grows_e_per_class_per_task(self):
        seq = sbm_sequence()
        config = ReplayConfig(e=2, epochs=20, seed=0)
        state = run_sequence(seq, "mf", config)
        assert len(state.buffer) == 2 * 2 * 3  # e * classes_per_task * tasks
        sizes = [ev["buffer_after"] for ev in state.events]
        assert sizes == [4, 8, 12]
        assert [ev["buffer_before"] for ev in state.events] == [0, 4, 8]

    def test_first_task_event_shape(self):
        seq = sbm_sequence()
        config = ReplayConfig(e=1, epochs=20, seed=0)
        state = run_sequence(seq, "random", config)
        first = state.events[0]
        assert first["beta"] == 0.0
        assert first["loss_buffer"] is None
        assert first["loss_combined"] == first["loss_train"]
        assert len(first["accuracies"]) == 1
        assert state.events[2]["beta"] == pytest.approx(
            weight_factor(10, 4))  # 2 classes * 5 train vs 2 tasks * 2 buffered

    def test_empty_buffer_add_leaves_next_task_learnable(self):
        seq = sbm_sequence(num_tasks=2)
        config = ReplayConfig(e=1, epochs=5, seed=0)
        first, second = prepare_sequence(seq, config)
        state = RunState(model=MlpModel.zeros(seq.graph.class_count, seq.graph.feature_dim),
                         buffer=ExperienceBuffer(config.e))
        state.buffer.add(first.train.take(np.zeros(0, dtype=np.int64)))
        learn_task(state, second, "random", config)
        assert state.events[0]["buffer_before"] == 0
        assert len(state.buffer) == 2

    def test_single_task_run_is_plain_training(self):
        graph = synthetic_sbm_graph([20, 20], intra_p=0.3, inter_p=0.02,
                                    feature_noise=0.3, seed=3)
        seq = build_task_sequence(graph, 2, 1, 5, seed=4)
        state = run_sequence(seq, "none", ReplayConfig(epochs=50, seed=0))
        assert state.matrix().num_tasks == 1
        assert len(state.buffer) == 0
        assert state.rows[0][0] > 0.8  # two clean blocks are easy to separate

    def test_matrix_rows_reproducible_from_snapshots(self):
        seq = sbm_sequence()
        config = ReplayConfig(e=1, epochs=30, seed=1)
        state = run_sequence(seq, "mf", config)
        for i, snap in enumerate(state.snapshots):
            frozen = state.model.with_arrays(snap)
            for j, past in enumerate(state.history[:i + 1]):
                preds = frozen.predict(past.test_inputs, past.classes)
                got = float(np.mean(preds == past.test_labels))
                assert got == pytest.approx(state.rows[i][j])

    def test_mask_discipline_without_decay(self):
        # rows of classes never seen must stay at exactly zero
        seq = sbm_sequence()
        config = ReplayConfig(e=1, epochs=30, decay=0.0, seed=0)
        state = run_sequence(seq, "none", config)
        snap_after_first = state.snapshots[0]
        assert np.all(snap_after_first["w1"][2:] == 0.0)
        assert np.all(snap_after_first["b1"][2:] == 0.0)
        assert np.any(snap_after_first["w1"][:2] != 0.0)

    def test_unknown_strategy_rejected(self):
        seq = sbm_sequence()
        with pytest.raises(ValueError, match="unknown strategy"):
            run_sequence(seq, "newest", ReplayConfig())

    @pytest.mark.parametrize("entry", ["learn_task", "run_sequence", "run_image_tasks"])
    def test_unknown_strategy_rejected_before_any_fit(self, monkeypatch, entry):
        # every run path goes through learn_task, which checks the strategy
        # before it records the task or trains
        def no_fit(*args, **kwargs):
            pytest.fail("fit ran before the strategy was checked")

        monkeypatch.setattr(MlpModel, "fit", no_fit)
        config = ReplayConfig(epochs=1, batch_size=8)
        seq = sbm_sequence(num_tasks=1)
        state = RunState(model=MlpModel.zeros(seq.graph.class_count, seq.graph.feature_dim),
                         buffer=ExperienceBuffer(config.e))
        images, labels = synthetic_image_dataset(num_classes=2, per_class=10,
                                                 noise=0.3, seed=0, dim=16)
        tasks = make_permuted_tasks(images, labels, num_tasks=1,
                                    per_task_train=10, per_task_test=5, seed=1)
        runs = {"learn_task": lambda: learn_task(state, prepare_sequence(seq, config)[0],
                                                 "newest", config),
                "run_sequence": lambda: run_sequence(seq, "newest", config),
                "run_image_tasks": lambda: run_image_tasks(tasks, "newest", config,
                                                           hidden_dim=4)}
        message = f"unknown strategy 'newest'; expected one of {STRATEGIES}"
        with pytest.raises(ValueError, match=re.escape(message)):
            runs[entry]()
        assert state.history == [] and state.events == []


class TestRunSequenceBehavior:
    def test_vanilla_run_forgets_first_task(self):
        seq = sbm_sequence()
        state = run_sequence(seq, "none", ReplayConfig(epochs=100, seed=0))
        a = state.matrix().values
        assert a[2, 0] < a[0, 0]

    def test_keeping_every_training_node_prevents_forgetting(self):
        seq = sbm_sequence(train_per_class=5)
        state = run_sequence(seq, "mf", ReplayConfig(e=5, epochs=100, seed=0))
        fm, _ = forgetting_mean(state.matrix())
        assert fm <= 0.02

    def test_replay_beats_vanilla_on_first_task_retention(self):
        seq = sbm_sequence()
        config = ReplayConfig(e=3, epochs=100, seed=0)
        vanilla = run_sequence(seq, "none", config)
        replayed = run_sequence(seq, "mf", config)
        assert replayed.matrix().values[2, 0] > vanilla.matrix().values[2, 0]

    def test_identical_seeds_identical_matrices(self):
        seq = sbm_sequence()
        config = ReplayConfig(e=2, epochs=40, seed=5)
        a = run_sequence(seq, "random", config)
        b = run_sequence(seq, "random", config)
        assert np.array_equal(a.matrix().values, b.matrix().values,
                              equal_nan=True)
        for s1, s2 in zip(a.snapshots, b.snapshots):
            assert np.array_equal(s1["w1"], s2["w1"])

    def test_every_strategy_runs_and_fills_buffer(self):
        seq = sbm_sequence(num_tasks=2)
        config = ReplayConfig(e=1, epochs=15, seed=0)
        for strategy in STRATEGIES:
            state = run_sequence(seq, strategy, config)
            expected = 0 if strategy == "none" else 1 * 2 * 2
            assert len(state.buffer) == expected, strategy
            assert state.matrix().num_tasks == 2

    @pytest.mark.parametrize("strategy, select", [
        ("mf-embed", lambda train, e: select_mf(train, e, train.x)),
        ("cm-embed", lambda train, e: select_cm(train, e, train.x))])
    def test_embed_variants_select_on_propagated_inputs(self, strategy, select):
        # the linear model's embedding is its input: the propagated features
        seq = sbm_sequence()
        config = ReplayConfig(e=2, epochs=15, seed=0)
        state = run_sequence(seq, strategy, config)
        for event, data in zip(state.events, prepare_sequence(seq, config)):
            expected = data.train.node[select(data.train, config.e)]
            assert event["selected_nodes"] == expected.tolist()

    def test_buffer_rows_are_the_selected_training_rows(self):
        seq = sbm_sequence()
        state = run_sequence(seq, "im", ReplayConfig(e=2, epochs=15, seed=0))
        rows = state.buffer.batch()
        selected = [node for ev in state.events for node in ev["selected_nodes"]]
        assert sorted(rows.node.tolist()) == sorted(selected)
        for data in state.history:
            mine = rows.task == data.task_id
            where = {node: i for i, node in enumerate(data.train.node.tolist())}
            idx = [where[node] for node in rows.node[mine].tolist()]
            assert np.array_equal(rows.x[mine], data.train.x[idx])
            assert np.array_equal(rows.y[mine], data.train.y[idx])

    def test_population_stacked_at_most_twice_per_task(self, monkeypatch):
        # one stack grows the buffer, one builds the train + buffer
        # population for im; nothing restacks rows per Hessian product
        import replaygraph.linear as linear
        import replaygraph.replay as replay
        calls = []

        def counted(batches):
            calls.append(1)
            return stack_samples(batches)

        for module in (linear, replay):
            monkeypatch.setattr(module, "stack_samples", counted)
        seq = sbm_sequence()
        run_sequence(seq, "im", ReplayConfig(e=1, epochs=15, seed=0))
        assert 0 < len(calls) <= 2 * len(seq.tasks)

    def test_im_probe_holdout_excludes_probes_from_training(self):
        seq = sbm_sequence(train_per_class=8)
        state = run_sequence(seq, "im", ReplayConfig(e=1, epochs=15, seed=0))
        ev = state.events[0]
        assert ev["probe_count"] == 4  # 2 per class from 8
        assert ev["train_count"] == 12
        assert ev["probe_count"] + ev["train_count"] == 16

    def test_im_with_one_row_per_class_probes_its_candidates(self):
        # no class can spare a probe, so the candidates double as the probes
        # and nothing is held out of training
        seq = sbm_sequence(train_per_class=1)
        state = run_sequence(seq, "im", ReplayConfig(e=1, epochs=15, seed=0))
        for ev, task in zip(state.events, seq.tasks):
            assert ev["probe_count"] == ev["train_count"] == len(task.train_nodes) == 2
        assert state.buffer.batch().y.tolist() == [0, 1, 2, 3, 4, 5]

    def test_class_incremental_mode_scores_over_all_seen(self):
        seq = sbm_sequence()
        aware = run_sequence(seq, "mf", ReplayConfig(e=2, epochs=60, seed=0))
        wide = run_sequence(seq, "mf", ReplayConfig(e=2, epochs=60, seed=0,
                                                    eval_mode="class-incremental"))
        # widening the candidate label set can only make scoring harder
        assert wide.matrix().values[2, 0] <= aware.matrix().values[2, 0] + 1e-9


class TestRunMasks:
    """``learn_task`` names every class mask; the model holds none."""

    @staticmethod
    def seen_after_each_task(seq):
        seen, out = set(), []
        for task in seq.tasks:
            seen.update(task.classes)
            out.append(tuple(sorted(seen)))
        return out

    @staticmethod
    def record_fit_masks(monkeypatch):
        fit, masks = MlpModel.fit, []

        def recording(model, groups, config):
            masks.append([tuple(int(c) for c in g.mask) for g in groups])
            return fit(model, groups, config)

        monkeypatch.setattr(MlpModel, "fit", recording)
        return masks

    @pytest.mark.parametrize("eval_mode", ["task-aware", "class-incremental"])
    def test_loss_groups_and_events_use_the_mode_masks(self, monkeypatch, eval_mode):
        # class-incremental, both loss groups compete over every class seen
        # so far, the current task's included, as its scoring does
        masks = self.record_fit_masks(monkeypatch)
        seq = sbm_sequence()
        config = ReplayConfig(e=1, epochs=10, seed=0, eval_mode=eval_mode)
        state = run_sequence(seq, "random", config)
        tasks = [tuple(task.classes) for task in seq.tasks]
        seen = self.seen_after_each_task(seq)
        if eval_mode == "task-aware":
            expected = [[tasks[0]], [tasks[1], seen[0]], [tasks[2], seen[1]]]
        else:
            expected = [[seen[0]], [seen[1]] * 2, [seen[2]] * 2]
        assert masks == expected
        for ev, snap, data, (train_mask, *_) in zip(state.events, state.snapshots,
                                                    state.history, expected):
            trained = state.model.with_arrays(snap)
            assert ev["loss_train"] == trained.loss(data.train, train_mask)

    @pytest.mark.parametrize("eval_mode", ["task-aware", "class-incremental"])
    def test_im_scores_over_the_seen_classes(self, monkeypatch, eval_mode):
        import replaygraph.replay as replay
        masks, select_im = [], replay.select_im

        def recording(*args, mask=None, **kwargs):
            masks.append(None if mask is None else tuple(mask))
            return select_im(*args, mask=mask, **kwargs)

        monkeypatch.setattr(replay, "select_im", recording)
        seq = sbm_sequence(train_per_class=8)
        run_sequence(seq, "im", ReplayConfig(e=1, epochs=10, seed=0, eval_mode=eval_mode))
        assert masks == self.seen_after_each_task(seq)


class TestImageRuns:
    def test_shared_label_space_buffer_capacities(self):
        images, labels = synthetic_image_dataset(num_classes=2, per_class=40,
                                                 noise=0.3, seed=0, dim=16)
        tasks = make_permuted_tasks(images, labels, num_tasks=2,
                                    per_task_train=30, per_task_test=20, seed=1)
        config = ReplayConfig(e=2, epochs=3, lr=1e-2, batch_size=8, decay=1e-5, seed=0)
        state = run_image_tasks(tasks, "random", config, hidden_dim=8)
        # both tasks use labels {0, 1}; per-(task, class) keying keeps 2 each
        assert len(state.buffer) == 2 * 2 * 2
        assert state.buffer.classes() == (0, 1)
        assert state.matrix().num_tasks == 2

    def test_image_run_deterministic(self):
        images, labels = synthetic_image_dataset(num_classes=2, per_class=30,
                                                 noise=0.3, seed=2, dim=16)
        tasks = make_permuted_tasks(images, labels, num_tasks=2,
                                    per_task_train=20, per_task_test=10, seed=3)
        config = ReplayConfig(e=1, epochs=3, lr=1e-2, batch_size=8, decay=1e-5, seed=4)
        a = run_image_tasks(tasks, "mf", config, hidden_dim=8)
        b = run_image_tasks(tasks, "mf", config, hidden_dim=8)
        assert np.array_equal(a.matrix().values, b.matrix().values, equal_nan=True)

    def test_class_count_follows_the_labels(self):
        images, labels = synthetic_image_dataset(num_classes=3, per_class=10,
                                                 noise=0.3, seed=0, dim=16)
        tasks = make_permuted_tasks(images, labels, num_tasks=2,
                                    per_task_train=20, per_task_test=10, seed=1)
        config = ReplayConfig(e=1, epochs=1, lr=1e-2, batch_size=8, seed=0)
        state = run_image_tasks(tasks, "none", config, hidden_dim=4)
        assert state.model.class_count == 3

    def test_prepared_task_keeps_the_task_arrays(self):
        images, labels = synthetic_image_dataset(num_classes=2, per_class=20,
                                                 noise=0.3, seed=0, dim=16)
        task = make_permuted_tasks(images, labels, num_tasks=2,
                                   per_task_train=25, per_task_test=10, seed=1)[1]
        data = prepare_image_task(task)
        assert np.shares_memory(data.train.x, task.train_images)
        assert np.shares_memory(data.train.y, task.train_labels)
        assert data.test_inputs is task.test_images
        assert data.test_labels is task.test_labels

    def test_empty_task_list_rejected(self):
        with pytest.raises(ValueError, match="no image tasks"):
            run_image_tasks([], "none", ReplayConfig())
