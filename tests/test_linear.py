import dataclasses
import warnings

import numpy as np
import pytest
import scipy.special

from replaygraph import Batch, LinearModel, LossGroup, MaskError, TrainConfig
from replaygraph.linear import logsumexp, stack_samples

from conftest import finite_difference_gradient, random_instance


class TestLogsumexp:
    def assert_matches_scipy(self, z):
        for keepdims in (False, True):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ours = logsumexp(z, keepdims=keepdims)
            ref = scipy.special.logsumexp(z, axis=1, keepdims=keepdims)
            assert ours.shape == ref.shape
            assert np.array_equal(np.isnan(ours), np.isnan(ref))
            assert np.array_equal(ours, ref, equal_nan=True)

    def test_finite_rows_equal_scipy_bit_for_bit(self):
        rng = np.random.default_rng(0)
        for scale in (1e-3, 1.0, 30.0, 1e3):
            z = scale * rng.standard_normal((200, 7))
            self.assert_matches_scipy(z)
            self.assert_matches_scipy(np.round(z / scale, 1) * scale)  # ties
        self.assert_matches_scipy(np.array([[1e3, 1e3, -1e3], [0.0, 0.0, 0.0],
                                            [-1e3, -1e3, -1e3], [5.0, -np.inf, 5.0]]))

    def test_one_column(self):
        z = np.array([[0.0], [-3.5], [1e3], [-1e3]])
        self.assert_matches_scipy(z)
        assert np.array_equal(logsumexp(z), z[:, 0])

    def test_non_finite_rows_match_scipy(self):
        inf, nan = np.inf, np.nan
        z = np.array([[1.0, nan, 2.0], [inf, 1.0, 0.0], [-inf, -inf, -inf],
                      [inf, -inf, 0.0], [nan, inf, 1.0], [-inf, 2.0, -inf],
                      [inf, inf, 1.0], [nan, nan, nan], [0.5, -1.0, 3.0]])
        self.assert_matches_scipy(z)
        out = logsumexp(z)
        assert np.array_equal(np.isnan(out), [1, 0, 0, 0, 1, 0, 0, 1, 0])
        assert np.array_equal(np.isposinf(out), [0, 1, 0, 1, 0, 0, 1, 0, 0])
        assert np.array_equal(np.isneginf(out), [0, 0, 1, 0, 0, 0, 0, 0, 0])


class TestLossAndGradient:
    def test_gradient_matches_finite_differences(self):
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(trial)
            model, samples = random_instance(rng, weight_decay=float(rng.uniform(0, 0.2)))
            scratch = model.copy()

            def loss_at(theta):
                scratch.set_flat(theta)
                return scratch.loss(samples)

            grad = model.gradient(samples)
            fd = finite_difference_gradient(loss_at, model.get_flat())
            worst = max(worst, np.max(np.abs(grad - fd)) / (1 + np.max(np.abs(fd))))
        assert worst < 1e-6

    def test_loss_includes_half_decay_norm(self, rng):
        model, samples = random_instance(rng, weight_decay=0.5)
        bare = dataclasses.replace(model, weight_decay=0.0)
        theta = model.get_flat()
        assert np.isclose(model.loss(samples),
                          bare.loss(samples) + 0.25 * float(theta @ theta))

    def test_sum_reduction_duplicate_sample(self, rng):
        model, samples = random_instance(rng, n=1)
        single = model.gradient(samples)
        double = model.gradient(stack_samples([samples, samples]))
        assert np.allclose(double, 2 * single)

    def test_sample_weight_scales_contribution(self, rng):
        model, _ = random_instance(rng)
        x = rng.standard_normal(model.feature_dim)
        lo = model.loss(Batch(x[None], [1], [1.0]))
        hi = model.loss(Batch(x[None], [1], [3.0]))
        assert np.isclose(hi, 3 * lo)

    def test_empty_samples_rejected(self, rng):
        model, _ = random_instance(rng)
        with pytest.raises(ValueError, match="at least one sample"):
            model.loss(Batch(np.zeros((0, model.feature_dim)), []))

    def test_label_outside_mask_rejected(self, rng):
        model, _ = random_instance(rng, class_count=4)
        bad = Batch(np.zeros((1, model.feature_dim)), [3])
        with pytest.raises(MaskError, match=r"\[3\]"):
            model.loss(bad, mask=(0, 1))

    def test_empty_mask_rejected(self, rng):
        model, samples = random_instance(rng)
        with pytest.raises(MaskError, match="empty"):
            model.loss(samples, mask=())

    def test_mask_outside_class_range_rejected(self, rng):
        model, samples = random_instance(rng, class_count=3)
        with pytest.raises(MaskError):
            model.predict(np.zeros(model.feature_dim), mask=(0, 5))

    def test_dimension_mismatch_rejected(self, rng):
        model, _ = random_instance(rng, feature_dim=4)
        with pytest.raises(ValueError, match="shape"):
            model.loss(Batch(np.zeros((1, 7)), [0]))

    def test_mask_restricts_softmax_support(self, rng):
        # with a two-class mask the loss is binary cross-entropy over those rows
        model, _ = random_instance(rng, class_count=5)
        x = rng.standard_normal(model.feature_dim)
        z = model.weights[[1, 3]] @ x + model.bias[[1, 3]]
        expected = np.log(np.exp(z).sum()) - z[0]
        assert np.isclose(model.loss(Batch(x[None], [1]), mask=(1, 3)), expected)


class TestHvp:
    def test_matches_finite_difference_of_mean_gradient(self):
        worst = 0.0
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            model, samples = random_instance(rng, weight_decay=float(rng.uniform(0, 0.1)))
            v = rng.standard_normal(model.num_params)
            hv = model.hvp(samples, v=v, damping=0.0)
            scratch = model.copy()
            theta = model.get_flat()
            h = 1e-6

            def grad_at(t):
                scratch.set_flat(t)
                return scratch.gradient(samples)

            fd = (grad_at(theta + h * v) - grad_at(theta - h * v)) / (2 * h * len(samples))
            worst = max(worst, np.max(np.abs(hv - fd)) / (1 + np.max(np.abs(fd))))
        assert worst < 1e-4

    def test_damping_adds_identity(self, rng):
        model, samples = random_instance(rng)
        v = rng.standard_normal(model.num_params)
        plain = model.hvp(samples, v=v, damping=0.0)
        damped = model.hvp(samples, v=v, damping=0.3)
        assert np.allclose(damped, plain + 0.3 * v)

    def test_linearity_exact(self, rng):
        model, samples = random_instance(rng)
        v1 = rng.standard_normal(model.num_params)
        v2 = rng.standard_normal(model.num_params)
        lhs = model.hvp(samples, v=2 * v1 + v2, damping=0.01)
        rhs = 2 * model.hvp(samples, v=v1, damping=0.01) + model.hvp(samples, v=v2,
                                                                     damping=0.01)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_positive_semidefinite_quadratic_form(self, rng):
        model, samples = random_instance(rng)
        for _ in range(10):
            v = rng.standard_normal(model.num_params)
            assert float(v @ model.hvp(samples, v=v, damping=0.0)) >= -1e-10

    def test_wrong_vector_size_rejected(self, rng):
        model, samples = random_instance(rng)
        with pytest.raises(ValueError, match="entries"):
            model.hvp(samples, v=np.zeros(3))


class TestGradientDots:
    def test_matches_per_sample_ce_gradients(self, rng):
        model, samples = random_instance(rng, n=5, weight_decay=0.2)
        vec = rng.standard_normal(model.num_params)
        dots = model.gradient_dots(samples, vec=vec)
        bare = dataclasses.replace(model, weight_decay=0.0)
        expected = [float(bare.gradient(samples.take([i])) @ vec)
                    for i in range(len(samples))]
        assert np.allclose(dots, expected)

    def test_linearity_in_vector(self, rng):
        model, samples = random_instance(rng)
        v = rng.standard_normal(model.num_params)
        assert np.allclose(model.gradient_dots(samples, vec=3 * v),
                           3 * model.gradient_dots(samples, vec=v))


class TestPredict:
    def test_prediction_restricted_to_mask(self, rng):
        model, _ = random_instance(rng, class_count=6)
        x = rng.standard_normal((10, model.feature_dim))
        preds = model.predict(x, mask=(2, 4))
        assert set(preds.tolist()) <= {2, 4}

    def test_tie_breaks_to_lowest_class_id(self):
        model = LinearModel.zeros(4, 3, active_classes=(0, 1, 2, 3))
        preds = model.predict(np.ones((5, 3)))
        assert np.array_equal(preds, np.zeros(5))

    def test_single_vector_input(self, rng):
        model, _ = random_instance(rng)
        pred = model.predict(np.zeros(model.feature_dim))
        assert pred.shape == (1,)


class TestFit:
    def test_loss_decreases_monotonically_on_single_sample(self, rng):
        model = LinearModel.zeros(3, 4, active_classes=(0, 1, 2))
        sample = Batch(rng.standard_normal((1, 4)), [1])
        losses = []
        current = model
        for _ in range(30):
            current = current.fit([LossGroup(sample, None, 1.0)],
                                  TrainConfig(epochs=1, lr=0.05))
            losses.append(current.loss(sample))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_fit_reduces_combined_objective(self, rng):
        model, samples = random_instance(rng, n=12, weight_decay=1e-4)
        groups = [LossGroup(samples.take(np.arange(6)), (0, 1, 2), 0.6),
                  LossGroup(samples.take(np.arange(6, 12)), (0, 1, 2), 0.4)]
        fitted = model.fit(groups, TrainConfig(epochs=50, lr=0.1))
        before = sum(g.coeff * model.loss(g.batch, g.mask) for g in groups)
        after = sum(g.coeff * fitted.loss(g.batch, g.mask) for g in groups)
        assert after < before

    def test_receiver_untouched_and_deterministic(self, rng):
        model, samples = random_instance(rng)
        theta_before = model.get_flat()
        config = TrainConfig(epochs=20, lr=0.1, seed=4)
        a = model.fit([LossGroup(samples, None, 1.0)], config)
        b = model.fit([LossGroup(samples, None, 1.0)], config)
        assert np.array_equal(model.get_flat(), theta_before)
        assert np.array_equal(a.get_flat(), b.get_flat())

    def test_rows_outside_mask_only_decay(self, rng):
        # with zero decay, classes absent from every group's mask cannot move
        model = LinearModel.zeros(5, 3, active_classes=range(5))
        samples = Batch(rng.standard_normal((6, 3)), [0, 0, 0, 1, 1, 1])
        fitted = model.fit([LossGroup(samples, (0, 1), 1.0)],
                           TrainConfig(epochs=40, lr=0.2))
        assert np.array_equal(fitted.weights[2:], np.zeros((3, 3)))
        assert np.array_equal(fitted.bias[2:], np.zeros(3))
        assert not np.allclose(fitted.weights[:2], 0.0)

    def test_zero_epochs_is_identity(self, rng):
        model, samples = random_instance(rng)
        fitted = model.fit([LossGroup(samples, None, 1.0)], TrainConfig(epochs=0))
        assert np.array_equal(fitted.get_flat(), model.get_flat())


class TestPlumbing:
    def test_flat_roundtrip(self, rng):
        model, _ = random_instance(rng)
        other = LinearModel.zeros(model.class_count, model.feature_dim)
        other.set_flat(model.get_flat())
        assert np.array_equal(other.weights, model.weights)
        assert np.array_equal(other.bias, model.bias)

    def test_activate_accumulates(self):
        model = LinearModel.zeros(6, 2)
        grown = model.activate((0, 1)).activate((4,))
        assert grown.active_classes == frozenset({0, 1, 4})
        assert model.active_classes == frozenset()

    def test_activate_rejects_out_of_range(self):
        model = LinearModel.zeros(3, 2)
        with pytest.raises(ValueError):
            model.activate((5,))

    def test_stack_samples_rejects_empty(self):
        with pytest.raises(ValueError):
            stack_samples([])

    def test_arrays_roundtrip(self, rng):
        model, _ = random_instance(rng)
        rebuilt = LinearModel.zeros(model.class_count, model.feature_dim,
                                    active_classes=model.active_classes)
        rebuilt = rebuilt.with_arrays(model.to_arrays())
        assert np.array_equal(rebuilt.weights, model.weights)

    def test_savez_round_trip(self, rng, tmp_path):
        model = LinearModel.zeros(3, 5, active_classes=(0, 1, 2))
        model.set_flat(rng.standard_normal(model.num_params))
        path = tmp_path / "linear.npz"
        np.savez(path, **model.to_arrays())
        restored = model.with_arrays(np.load(path))
        assert np.array_equal(restored.get_flat(), model.get_flat())

    def test_stack_keeps_shared_columns_in_order(self):
        a = Batch(np.ones((2, 3)), [0, 1], node=[4, 5], attributes=np.zeros((2, 2)))
        b = Batch(np.zeros((1, 3)), [2], node=[9])
        both = stack_samples([a, b])
        assert both.node.tolist() == [4, 5, 9]
        assert both.y.tolist() == [0, 1, 2]
        assert both.attributes is None
        assert both.x.flags.c_contiguous and both.x.dtype == np.float64

    def test_take_keeps_every_column_in_row_order(self):
        batch = Batch(np.arange(6.0).reshape(3, 2), [0, 1, 2], [1.0, 2.0, 3.0],
                      node=[7, 8, 9], task=[0, 0, 1])
        picked = batch.take([2, 0])
        assert picked.x.tolist() == [[4.0, 5.0], [0.0, 1.0]]
        assert picked.w.tolist() == [3.0, 1.0]
        assert picked.node.tolist() == [9, 7]
        assert picked.task.tolist() == [1, 0]
        assert picked.attributes is None

    def test_batch_rejects_mismatched_columns(self):
        with pytest.raises(ValueError, match="column y"):
            Batch(np.zeros((2, 3)), [0])
