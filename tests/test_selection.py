"""Selection strategies, the CG solver, and the influence machinery, checked
against hand oracles, dense solves, and actual leave-one-out retraining."""

import dataclasses
import json

import numpy as np
import pytest
from scipy.stats import spearmanr

from replaygraph import selection
from replaygraph.linear import Batch, LinearModel, stack_samples
from replaygraph.mlp import MlpModel
from replaygraph.selection import (LINEAR_CG, MLP_CG, CgSettings, cg_solve, class_rows,
                                   coverage_counts, fit_to_stationarity, influence_scores,
                                   loo_parameter_change, loo_retrain_oracle,
                                   predicted_loss_change, select_cm, select_im,
                                   select_mf, select_random)

from conftest import batch_of


def cands(nodes, vecs, labels, attributes=None):
    """Candidate batch; one input vector (or scalar) per node."""
    x = np.asarray(vecs, dtype=np.float64)
    return Batch(x[:, None] if x.ndim == 1 else x, labels, node=nodes,
                 task=np.zeros(len(nodes)), attributes=attributes)


def weighted(batch, weight):
    return Batch(batch.x, batch.y, np.full(len(batch), weight))


def with_row(batch, x, label, weight=1.0, first=False):
    """``batch`` with one more row appended (or prepended)."""
    extra = Batch(np.asarray(x, dtype=np.float64)[None], [label], [weight])
    return stack_samples([extra, batch] if first else [batch, extra])


def picked(batch, rows):
    return batch.node[rows].tolist()


def two_blob_problem(seed, n_per_class=15, dim=4, weight_decay=0.3,
                     separation=1.5, probes_per_class=5):
    """Overlapping Gaussian blobs: template model, train samples, probes.

    The decay keeps single-sample removals inside the linear-response regime
    the influence approximation assumes.
    """
    rng = np.random.default_rng(seed)
    template = LinearModel.zeros(2, dim, weight_decay)
    centers = {0: np.full(dim, -separation / 2), 1: np.full(dim, separation / 2)}

    def draw(count):
        return batch_of([(centers[label] + rng.standard_normal(dim), label)
                         for label in (0, 1) for _ in range(count)])

    return template, draw(n_per_class), draw(probes_per_class)


class TestGroupByClass:
    # class_rows is the grouping every strategy iterates
    def test_groups_sorted_by_label_and_node(self):
        batch = cands([5, 2, 1], [0.0, 0.0, 0.0], [1, 0, 1])
        grouped = class_rows(batch)
        assert [label for label, _ in grouped] == [0, 1]
        assert picked(batch, grouped[1][1]) == [1, 5]

    def test_empty_input_gives_empty_mapping(self):
        assert class_rows(cands([], np.zeros((0, 1)), [])) == []


class TestSelectRandom:
    def test_e_covering_class_selects_everything(self):
        batch = cands([0, 1, 2], [0.0, 1.0, 2.0], [0, 0, 0])
        rows = select_random(batch, e=10, seed=0)
        assert sorted(picked(batch, rows)) == [0, 1, 2]

    def test_singleton_class(self):
        batch = cands([7], [1.0], [0])
        rows = select_random(batch, e=1, seed=3)
        assert picked(batch, rows) == [7]

    def test_seed_determinism(self):
        batch = cands(list(range(20)), np.arange(20.0), [0] * 20)
        a = select_random(batch, e=5, seed=11)
        b = select_random(batch, e=5, seed=11)
        c = select_random(batch, e=5, seed=12)
        assert picked(batch, a) == picked(batch, b)
        assert picked(batch, a) != picked(batch, c)

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError, match="no candidate classes"):
            select_random(cands([], np.zeros((0, 1)), []), e=1, seed=0)

    def test_e_below_one_rejected(self):
        with pytest.raises(ValueError, match="e must be >= 1"):
            select_random(cands([0], [0.0], [0]), e=0, seed=0)


class TestSelectMf:
    def test_prototype_at_middle_point(self):
        batch = cands([0, 1, 2], [[0.0, 0.0], [2.0, 2.0], [1.0, 1.0]], [0, 0, 0])
        rows = select_mf(batch, e=1, geometry=batch.x)
        assert picked(batch, rows) == [2]

    def test_identical_vectors_tie_to_lowest_node(self):
        batch = cands([9, 4, 6], [1.0, 1.0, 1.0], [0, 0, 0])
        rows = select_mf(batch, e=1, geometry=batch.x)
        assert picked(batch, rows) == [4]

    def test_line_example_orders_by_distance(self):
        # positions 0, 1, 10: prototype 11/3, distances 3.67, 2.67, 6.33
        batch = cands([0, 1, 2], [0.0, 1.0, 10.0], [0, 0, 0])
        rows = select_mf(batch, e=2, geometry=batch.x)
        assert picked(batch, rows) == [1, 0]

    def test_attribute_and_embedding_paths_identical_on_same_vectors(self, rng):
        vecs = rng.standard_normal((6, 3))
        batch = cands(list(range(6)), vecs, [0] * 6, attributes=vecs)
        a = select_mf(batch, e=2, geometry=batch.attributes)
        b = select_mf(batch, e=2, geometry=batch.x)
        assert picked(batch, a) == picked(batch, b)

    def test_embedding_geometry_can_override_attribute_geometry(self):
        # node 0 is the attribute-space prototype, node 2 the embedding-space one
        batch = cands([0, 1, 2], [0.0, 0.0, 0.0], [0, 0, 0],
                      attributes=[[1.0], [0.0], [2.0]])
        embedding = np.array([[5.0], [0.0], [1.0]])
        by_attr = select_mf(batch, e=1, geometry=batch.attributes)
        by_emb = select_mf(batch, e=1, geometry=embedding)
        assert picked(batch, by_attr) == [0]
        assert picked(batch, by_emb) == [2]

    def test_item_carries_model_input_not_geometry_vector(self):
        inputs = np.array([3.0, 3.0])
        batch = cands([0], [inputs], [0], attributes=[[1.0, 0.0]])
        kept = batch.take(select_mf(batch, e=1, geometry=batch.attributes))
        assert np.array_equal(kept.x[0], inputs)


class TestCoverage:
    def test_counts_exclude_same_class_and_respect_radius(self):
        # classes on a line, A at {0, 5}, B at {1}; d = median of {1, 4}
        batch = cands([10, 11, 20], [0.0, 5.0, 1.0], [0, 0, 1])
        counts, d = coverage_counts(batch, batch.x)
        assert d == 2.5
        assert counts.tolist() == [1, 0, 1]
        rows = select_cm(batch, e=1, geometry=batch.x)
        by_label = dict(zip(batch.y[rows].tolist(), picked(batch, rows)))
        assert by_label[0] == 11

    def test_distance_exactly_d_does_not_count(self):
        batch = cands([0, 1], [0.0, 2.0], [0, 1])
        counts, d = coverage_counts(batch, batch.x)
        assert d == 2.0
        assert counts.tolist() == [0, 0]

    def test_every_cross_distance_at_d_makes_counts_zero_and_ties_by_node(self):
        # B at 1 is exactly d = 1 from both A points
        batch = cands([3, 1, 5], [0.0, 2.0, 1.0], [0, 0, 1])
        counts, d = coverage_counts(batch, batch.x)
        assert d == 1.0
        assert counts.tolist() == [0, 0, 0]
        rows = select_cm(batch, e=1, geometry=batch.x)
        by_label = dict(zip(batch.y[rows].tolist(), picked(batch, rows)))
        assert by_label[0] == 1

    def test_single_class_counts_are_zero(self):
        batch = cands([0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0], [0] * 4)
        counts, d = coverage_counts(batch, batch.x)
        assert counts.tolist() == [0, 0, 0, 0]
        assert d == 0.0
        rows = select_cm(batch, e=2, geometry=batch.x)
        assert picked(batch, rows) == [0, 1]

    def test_auto_d_is_median_cross_class_distance(self):
        batch = cands([0, 1, 2], [0.0, 4.0, 10.0], [0, 0, 1])
        _, d = coverage_counts(batch, batch.x)
        assert d == pytest.approx(8.0)  # median of {10, 6}

    @staticmethod
    def pdist_reference(batch, geometry):
        from scipy.spatial.distance import pdist, squareform
        dist = squareform(pdist(geometry))
        other = batch.y[:, None] != batch.y[None, :]
        d = float(np.median(dist[other])) if other.any() else 0.0
        return np.sum((dist < d) & other, axis=1), d

    @staticmethod
    def fuzzed_geometry(rng, kind, n, dim):
        scale = 10.0 ** rng.uniform(-3, 3)
        if kind == 0:  # binary rows: many exact ties
            return (rng.random((n, dim)) < rng.uniform(0.05, 0.5)).astype(np.float64)
        if kind == 1:  # duplicated rows
            base = rng.standard_normal((max(1, n // 3), dim)) * scale
            return base[rng.integers(0, len(base), n)]
        if kind == 2:  # small-integer grid
            return rng.integers(-3, 4, (n, dim)) * scale
        if kind == 3:  # far from the origin: large norms, small distances
            return (rng.standard_normal((n, dim)) + 100 * rng.standard_normal(dim)) * scale
        if kind == 4:  # squares that underflow
            return rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-170, -150)
        return rng.standard_normal((n, dim)) * scale * 10.0 ** rng.uniform(-3, 3, (n, 1))

    def test_counts_and_d_equal_pdist_on_fuzzed_geometries(self):
        rng = np.random.default_rng(0)
        for trial in range(400):
            n = 2 if trial % 41 == 0 else int(rng.integers(2, 60))
            dim = int(rng.choice([1, 2, 3, 7, 16, 64, 300, 784, 1433]))
            geometry = self.fuzzed_geometry(rng, trial % 6, n, dim)
            classes = 1 if trial % 37 == 0 else int(rng.integers(2, 6))
            batch = Batch(geometry, rng.integers(0, classes, n))
            counts, d = coverage_counts(batch, geometry)
            ref_counts, ref_d = self.pdist_reference(batch, geometry)
            assert d == ref_d, trial
            assert counts.tolist() == ref_counts.tolist(), trial

    def test_counts_and_d_equal_pdist_on_image_sized_geometry(self):
        rng = np.random.default_rng(1)
        for n, dim in [(300, 784), (40, 1433), (64, 64)]:
            batch = Batch(rng.random((n, dim)), rng.integers(0, 10, n))
            counts, d = coverage_counts(batch, batch.x)
            ref_counts, ref_d = self.pdist_reference(batch, batch.x)
            assert d == ref_d
            assert counts.tolist() == ref_counts.tolist()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_is_named(self, value):
        batch = cands([0, 1, 2, 3], [0.0, 1.0, 2.0, 3.0], [0, 0, 1, 1])
        geometry = batch.x.copy()
        geometry[2, 0] = value
        geometry[3, 0] = value
        with pytest.raises(ValueError, match="row 2 "):
            coverage_counts(batch, geometry)

    def test_cm_run_loads_no_scipy(self, tmp_path):
        import subprocess
        import sys
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dict(
            dataset="synthetic-images", model="mlp", e=1, epochs=1, lr=1e-2, batch_size=16,
            tasks=2, hidden_dim=8, syn_images_per_class=20, mnist_train_per_task=60,
            mnist_test_per_task=30)))
        args = ["run", "--config", str(config), "--strategy", "cm", "--seeds", "0",
                "--out", str(tmp_path / "out")]
        code = ("import json, sys; from replaygraph import cli; "
                f"cli.main({args!r}); "
                "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_package_import_leaves_scipy_spatial_unloaded(self):
        # nothing in the package needs it, and it is slow to import
        import subprocess
        import sys
        code = ("import sys, replaygraph; "
                "print(any(m.startswith('scipy.spatial') for m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "False"

    def test_package_import_leaves_scipy_sparse_and_process_pool_unloaded(self):
        # only graph runs need scipy.sparse, and only jobs > 1 a process pool
        import subprocess
        import sys
        code = ("import sys, replaygraph; print([m for m in "
                "('scipy.sparse', 'concurrent.futures.process') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "[]"


class TestCgSolve:
    def test_identity_system_converges_in_one_iteration(self, rng):
        rhs = rng.standard_normal(8)
        result = cg_solve(lambda v: v, rhs)
        assert result.converged
        assert result.iterations == 1
        assert np.allclose(result.solution, rhs, atol=1e-12)

    def test_diagonal_system(self):
        h = np.diag([2.0, 4.0])
        result = cg_solve(lambda v: h @ v, np.array([2.0, 4.0]))
        assert result.converged
        assert np.allclose(result.solution, [1.0, 1.0], atol=1e-9)

    def test_random_spd_system_matches_dense_solve(self, rng):
        m = rng.standard_normal((5, 5))
        h = m @ m.T + np.eye(5)
        rhs = rng.standard_normal(5)
        result = cg_solve(lambda v: h @ v, rhs, CgSettings(residual_tol=1e-12))
        assert np.linalg.norm(result.solution - np.linalg.solve(h, rhs)) < 1e-6

    def test_zero_rhs_short_circuits(self):
        result = cg_solve(lambda v: v, np.zeros(4))
        assert result.converged
        assert result.iterations == 0
        assert np.array_equal(result.solution, np.zeros(4))

    def test_iteration_cap_reported_not_raised(self, rng):
        m = rng.standard_normal((20, 20))
        h = m @ m.T + 0.01 * np.eye(20)
        result = cg_solve(lambda v: h @ v, rng.standard_normal(20),
                          CgSettings(max_iters=1, residual_tol=1e-14))
        assert not result.converged
        assert result.iterations == 1

    def test_non_finite_operator_aborts(self):
        with pytest.raises(RuntimeError, match="non-finite"):
            cg_solve(lambda v: np.full_like(v, np.nan), np.ones(3))

    def test_zero_curvature_stops_unconverged(self):
        result = cg_solve(lambda v: np.zeros_like(v), np.ones(3))
        assert not result.converged
        assert result.iterations == 0
        assert np.array_equal(result.solution, np.zeros(3))
        assert result.residual_norm == pytest.approx(np.sqrt(3.0))


class TestInfluenceScores:
    def test_identical_training_points_get_identical_scores(self):
        template, train, probes = two_blob_problem(seed=0)
        train = with_row(train, train.x[0].copy(), train.y[0])
        model = fit_to_stationarity(template, train)
        scores = influence_scores(model, train, probes)
        assert scores[0] == scores[-1]

    def test_empty_probe_set_rejected(self):
        template, train, _ = two_blob_problem(seed=0)
        model = fit_to_stationarity(template, train)
        with pytest.raises(ValueError, match="probe set is empty"):
            influence_scores(model, train, train.take([]))

    def test_zero_probe_gradient_gives_zero_scores(self):
        template, train, probes = two_blob_problem(seed=1)
        model = fit_to_stationarity(template, train)
        silent = weighted(probes, 0.0)
        assert np.array_equal(influence_scores(model, train, silent),
                              np.zeros(len(train)))

    def test_linear_in_probe_gradient(self):
        template, train, probes = two_blob_problem(seed=2)
        model = fit_to_stationarity(template, train)
        doubled = weighted(probes, 2.0)
        base = influence_scores(model, train, probes)
        scaled = influence_scores(model, train, doubled)
        assert np.allclose(scaled, 2.0 * base, rtol=1e-9)

    def test_unconverged_solve_logs_warning(self, caplog):
        template, train, probes = two_blob_problem(seed=4)
        model = fit_to_stationarity(template, train)
        capped = CgSettings(max_iters=1)
        g_probe = dataclasses.replace(model, weight_decay=0.0).gradient(probes)
        solve = cg_solve(lambda v: model.hvp(train, v=v, damping=capped.damping),
                         g_probe, capped)
        assert not solve.converged
        with caplog.at_level("WARNING", logger="replaygraph.selection"):
            influence_scores(model, train, probes, capped)
        [record] = caplog.records
        assert record.levelname == "WARNING"
        relative = solve.residual_norm / np.linalg.norm(g_probe)
        assert record.getMessage() == (
            "influence CG solve stopped unconverged after 1 iteration(s), "
            f"relative residual {relative:.3g}")
        caplog.clear()
        with caplog.at_level("WARNING", logger="replaygraph.selection"):
            influence_scores(model, train, probes)
        assert caplog.records == []

    def test_rank_agreement_with_loo_retraining(self):
        # the quantity -score/N approximates actual probe-loss change from
        # removing each sample; rank correlation against full retraining
        template, train, probes = two_blob_problem(seed=7, n_per_class=15)
        model = fit_to_stationarity(template, train)
        scores = influence_scores(model, train, probes, CgSettings(damping=0.0))
        predicted = predicted_loss_change(scores, len(train))
        actual = np.array([loo_retrain_oracle(template, train, probes, i)
                           for i in range(len(train))])
        rho = spearmanr(predicted, actual).statistic
        assert rho >= 0.8

    def test_parameter_change_direction_matches_retraining(self):
        # removing sample k moves the optimum by about (1/N) H^-1 grad_CE_k
        cosines = []
        for seed in range(20):
            template, train, _ = two_blob_problem(seed=seed, n_per_class=15)
            model = fit_to_stationarity(template, train)
            rng = np.random.default_rng(seed)
            k = int(rng.integers(len(train)))
            bare = dataclasses.replace(model, weight_decay=0.0)
            g_k = bare.gradient(train.take([k]))
            solve = cg_solve(lambda v: model.hvp(train, v=v, damping=0.0), g_k,
                             CgSettings(residual_tol=1e-10, damping=0.0))
            predicted = solve.solution / len(train)
            actual = loo_parameter_change(template, train, k)
            cos = float(predicted @ actual
                        / (np.linalg.norm(predicted) * np.linalg.norm(actual)))
            cosines.append(cos)
        assert min(cosines) >= 0.9


class TestInfluenceOperator:
    """``influence_scores`` builds the curvature operator once per solve."""

    @staticmethod
    def mlp_problem():
        rng = np.random.default_rng(3)
        model = MlpModel.init(input_dim=6, hidden_dim=5, class_count=4, weight_decay=0.01,
                              seed=1)
        model.set_flat(0.5 * rng.standard_normal(model.num_params))

        def rows(n):
            return Batch(rng.standard_normal((n, 6)), rng.choice([0, 2, 3], n),
                         rng.uniform(0.5, 2.0, n))

        return model, rows(12), rows(5), rows(20), (0, 2, 3)

    @pytest.mark.parametrize("max_iters", [1, 20])
    def test_three_forward_passes_whatever_the_iteration_count(self, monkeypatch, max_iters):
        model, train, probes, population, mask = self.mlp_problem()
        settings = CgSettings(max_iters=max_iters, residual_tol=1e-12)
        g_probe = dataclasses.replace(model, weight_decay=0.0).gradient(probes, mask)
        solve = cg_solve(model.curvature(population, mask, settings.damping), g_probe, settings)
        assert solve.iterations == max_iters  # the cap, not convergence, ends both solves
        forward = MlpModel._forward
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(1)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(MlpModel, "_forward", counted)
        influence_scores(model, train, probes, settings, mask, population)
        assert len(calls) == 3  # probe gradient, curvature operator, gradient dots

    def test_scores_match_per_product_hvp_bit_for_bit(self):
        model, train, probes, population, mask = self.mlp_problem()
        settings = CgSettings(residual_tol=1e-8)
        g_probe = dataclasses.replace(model, weight_decay=0.0).gradient(probes, mask)
        solve = cg_solve(lambda v: model.hvp(population, mask, v, settings.damping),
                         g_probe, settings)
        assert solve.converged and solve.iterations > 1
        assert np.array_equal(influence_scores(model, train, probes, settings, mask, population),
                              -model.gradient_dots(train, mask, solve.solution))


class TestCgDefault:
    """With no ``settings``, the influence solve runs at the model's tolerance;
    explicit settings still win."""

    def test_hidden_layers_solve_at_mlp_tolerance(self, cg_solves):
        model, train, probes, population, mask = TestInfluenceOperator.mlp_problem()
        influence_scores(model, train, probes, mask=mask, population=population)
        select_im(model, train, 2, probes, mask=mask, population=population)
        assert len(cg_solves) == 2 and all(s is MLP_CG for s in cg_solves)
        assert MLP_CG.residual_tol == 1e-3

    def test_depth_zero_solves_at_linear_tolerance(self, cg_solves):
        template, train, probes = two_blob_problem(seed=0)
        model = fit_to_stationarity(template, train)
        influence_scores(model, train, probes)
        select_im(model, train, 2, probes)
        assert len(cg_solves) == 2 and all(s is LINEAR_CG for s in cg_solves)
        assert LINEAR_CG.residual_tol == 1e-6

    def test_explicit_settings_win(self, cg_solves):
        model, train, probes, population, mask = TestInfluenceOperator.mlp_problem()
        capped = CgSettings(max_iters=1)
        influence_scores(model, train, probes, capped, mask, population)
        select_im(model, train, 2, probes, capped, mask, population)
        assert len(cg_solves) == 2 and all(s is capped for s in cg_solves)


class TestSelectIm:
    def test_e_covering_class_selects_everything(self):
        template, train, probes = two_blob_problem(seed=3, n_per_class=4)
        model = fit_to_stationarity(template, train)
        class0 = train.take(np.flatnonzero(train.y == 0))
        rows = select_im(model, class0, e=10, probes=probes)
        assert len(rows) == 4

    def test_outlier_dominates_and_oracle_agrees(self):
        # a class-0 point planted inside the class-1 cluster carries the most
        # influence; the LOO oracle confirms it has the largest |loss change|
        rng = np.random.default_rng(5)
        dim = 3
        template = LinearModel.zeros(2, dim, 0.1)
        tight = [(np.full(dim, -1.0) + 0.05 * rng.standard_normal(dim), 0)
                 for _ in range(8)]
        other = [(np.full(dim, 1.0) + 0.05 * rng.standard_normal(dim), 1)
                 for _ in range(8)]
        outlier = (np.full(dim, 1.0), 0)
        train = batch_of(tight + other + [outlier])
        probes = batch_of([(np.full(dim, -1.0), 0), (np.full(dim, 1.0), 1)])
        model = fit_to_stationarity(template, train)

        rows = select_im(model, train, e=1, probes=probes)
        picked_class0 = next(r for r in rows if train.y[r] == 0)
        assert picked_class0 == len(train) - 1

        class0_indices = np.flatnonzero(train.y == 0)
        changes = [abs(loo_retrain_oracle(template, train, probes, i))
                   for i in class0_indices]
        assert class0_indices[int(np.argmax(changes))] == len(train) - 1

    def test_probe_weight_doubling_leaves_selection_unchanged(self):
        template, train, probes = two_blob_problem(seed=4)
        model = fit_to_stationarity(template, train)
        doubled = weighted(probes, 2.0)
        a = select_im(model, train, e=3, probes=probes)
        b = select_im(model, train, e=3, probes=doubled)
        assert a.tolist() == b.tolist()

    def test_absolute_ranking_follows_scores(self):
        template, train, probes = two_blob_problem(seed=6)
        model = fit_to_stationarity(template, train)
        scores = influence_scores(model, train, probes)  # rows already class-sorted

        rows = select_im(model, train, e=1, probes=probes)
        for label in (0, 1):
            idx = np.flatnonzero(train.y == label)
            expected = idx[int(np.argmax(np.abs(scores[idx])))]
            assert next(r for r in rows if train.y[r] == label) == expected


class TestLooOracle:
    def test_zero_weight_sample_changes_nothing(self):
        template, train, probes = two_blob_problem(seed=9, n_per_class=6)
        train = with_row(train, np.ones(4), 0, weight=0.0)
        change = loo_retrain_oracle(template, train, probes, len(train) - 1)
        assert abs(change) < 1e-6

    def test_duplicate_samples_are_interchangeable(self):
        template, train, probes = two_blob_problem(seed=10, n_per_class=6)
        # index 0 and 1 are now exact duplicates
        train = with_row(train, train.x[0].copy(), train.y[0], first=True)
        a = loo_retrain_oracle(template, train, probes, 0)
        b = loo_retrain_oracle(template, train, probes, 1)
        assert a == pytest.approx(b, abs=1e-6)

    def test_index_bounds_checked(self):
        template, train, probes = two_blob_problem(seed=0, n_per_class=2)
        with pytest.raises(IndexError):
            loo_retrain_oracle(template, train, probes, len(train))

    def test_cannot_remove_only_sample(self):
        template, _, probes = two_blob_problem(seed=0)
        sole = Batch(np.ones((1, 4)), [0])
        with pytest.raises(ValueError, match="only training sample"):
            loo_retrain_oracle(template, sole, probes, 0)

    def test_sole_sample_rejected_before_any_solve(self, monkeypatch):
        template, _, probes = two_blob_problem(seed=0)
        solves = []
        monkeypatch.setattr(selection, "fit_to_stationarity",
                            lambda *args: solves.append(args))
        with pytest.raises(ValueError, match="only training sample"):
            loo_retrain_oracle(template, Batch(np.ones((1, 4)), [0]), probes, 0)
        assert solves == []


class TestPredictedLossChange:
    def test_sign_and_scale(self):
        out = predicted_loss_change(np.array([1.0, -2.0]), 4)
        assert np.allclose(out, [-0.25, 0.5])

    def test_population_size_checked(self):
        with pytest.raises(ValueError, match="population_size"):
            predicted_loss_change(np.array([1.0]), 0)
