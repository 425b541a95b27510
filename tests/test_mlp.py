import dataclasses

import numpy as np
import pytest

from replaygraph import (AdamState, Batch, LinearModel, LossGroup, MaskError, MlpModel,
                         TrainConfig, TrainingDiverged, mlp, synthetic_image_dataset)
from replaygraph.linear import label_positions, logsumexp, stack_samples

from conftest import (batch_of, dense_gauss_newton, finite_difference_gradient,
                      folded_adam_step, model_of_depth)


def tiny_net(seed=0, input_dim=10, hidden_dim=4, class_count=3, weight_decay=0.0,
             generic=False):
    """``generic=True`` randomizes every parameter (biases included) so no
    pre-activation sits exactly on a ReLU kink, where two-sided differences
    and the subgradient convention legitimately disagree."""
    model = MlpModel.init(input_dim=input_dim, hidden_dim=hidden_dim,
                          class_count=class_count, weight_decay=weight_decay,
                          seed=seed)
    if generic:
        rng = np.random.default_rng(seed + 1000)
        model.set_flat(0.5 * rng.standard_normal(model.num_params))
    return model


def random_samples(rng, model, n, classes=None):
    classes = classes if classes is not None else range(model.class_count)
    return batch_of([(rng.standard_normal(model.feature_dim), int(rng.choice(classes)),
                      float(rng.uniform(0.5, 2.0))) for _ in range(n)])


def reference_pass(model, x, mask_arr, error):
    """The forward pass and the backward carry written out of place: each
    layer's input and the error at each layer's output, first layer first.
    ``error`` maps the logits of the classes in ``mask_arr`` to their error,
    which is carried down through each layer and its ReLU."""
    layers = model.layers[:-1] + [tuple(a[mask_arr] for a in model.layers[-1])]
    acts = [x]
    for w, b in layers[:-1]:
        acts.append(np.maximum(acts[-1] @ w.T + b, 0.0))
    deltas = [error(acts[-1] @ layers[-1][0].T + layers[-1][1])]
    for (w, _), a in zip(layers[:0:-1], acts[:0:-1]):
        deltas.append((deltas[-1] @ w) * (a > 0))
    return acts, deltas[::-1]


def reference_error(pos, w=None, blocked=None):
    """The logits' cross-entropy error out of place: ``-inf`` logits where
    ``blocked``, softmax, 1.0 subtracted at each row's label position by a
    fancy index, then each row scaled by its weight in ``w``."""
    def error(z):
        z = z if blocked is None else np.where(blocked, -np.inf, z)
        g = np.exp(z - logsumexp(z, keepdims=True))
        g[np.arange(len(pos)), pos] -= 1.0
        return g if w is None else g * w[:, None]
    return error


def reference_gradient(model, acts, deltas, mask_arr):
    """The summed gradient from a ``reference_pass`` as a flat vector, zero in
    the output rows outside ``mask_arr``."""
    grads = [(g.T @ a, g.sum(axis=0)) for a, g in zip(acts, deltas)]
    dw, db = (np.zeros_like(a) for a in model.layers[-1])
    dw[mask_arr], db[mask_arr] = grads[-1]
    grads[-1] = (dw, db)
    return np.concatenate([a.ravel() for layer in grads for a in layer])


def reference_fit(model, groups, config):
    """``fit`` written out of place: the groups' rows pooled, each weighted
    ``coeff * w`` and labelled within the union of the masks, the logits of
    union classes outside a row's own mask set to ``-inf``; a new gradient, a
    copy of theta in the scratch model and new Adam vectors on every step.
    Returns theta."""
    masks = [model.resolve_mask(g.mask) for g in groups]
    union = np.unique(np.concatenate(masks))
    x = np.vstack([g.batch.x for g in groups])
    y = np.concatenate([g.batch.y for g in groups])
    w = np.concatenate([g.coeff * g.batch.w for g in groups])
    blocked = np.vstack([np.tile(~np.isin(union, mask_arr), (len(g.batch), 1))
                         for g, mask_arr in zip(groups, masks)])
    total = len(y)
    size = config.batch_size if config.batch_size is not None else total
    decay = sum(g.coeff for g in groups) * model.weight_decay
    rng = np.random.default_rng(config.seed)
    scratch = model.copy()
    theta, m, v, step = model.get_flat(), np.zeros(model.num_params), np.zeros(model.num_params), 0
    for _ in range(config.epochs):
        if size >= total:
            batches = [None]
        else:
            order = rng.permutation(total)
            batches = [order[start:start + size] for start in range(0, total, size)]
        for rows in batches:
            scratch.set_flat(theta)
            grad = ((total if rows is None else len(rows)) / total) * decay * theta
            xs, ys, ws, bs = (x, y, w, blocked) if rows is None else (
                x[rows], y[rows], w[rows], blocked[rows])
            acts, deltas = reference_pass(scratch, xs, union,
                                          reference_error(label_positions(union, ys), ws, bs))
            grad += reference_gradient(scratch, acts, deltas, union)
            step += 1
            theta, m, v = folded_adam_step(theta, m, v, step, grad, config)
    return theta


def per_group_reference_fit(model, groups, config):
    """The objective one group at a time: each step runs a gradient pass per
    group present in it, under that group's own mask, and adds
    ``coeff * term``; out of place, with a new gradient, a copy of theta in
    the scratch model and new Adam vectors on every step. Returns theta."""
    resolved = [(g.batch, model.resolve_mask(g.mask), g.coeff) for g in groups]
    sizes = [len(batch) for batch, _, _ in resolved]
    total = sum(sizes)
    size = config.batch_size if config.batch_size is not None else total
    decay = sum(coeff for _, _, coeff in resolved) * model.weight_decay
    group_of = np.repeat(np.arange(len(sizes)), sizes)
    local_of = np.concatenate([np.arange(n) for n in sizes])
    rng = np.random.default_rng(config.seed)
    scratch = model.copy()
    theta, m, v, step = model.get_flat(), np.zeros(model.num_params), np.zeros(model.num_params), 0
    for _ in range(config.epochs):
        if size >= total:
            batches = [None]
        else:
            order = rng.permutation(total)
            batches = [order[start:start + size] for start in range(0, total, size)]
        for rows in batches:
            scratch.set_flat(theta)
            grad = ((total if rows is None else len(rows)) / total) * decay * theta
            for gi, (batch, mask_arr, coeff) in enumerate(resolved):
                x, y, w = batch.x, batch.y, batch.w
                if rows is not None:
                    members = local_of[rows[group_of[rows] == gi]]
                    if members.size == 0:
                        continue
                    x, y, w = x[members], y[members], w[members]
                acts, deltas = reference_pass(scratch, x, mask_arr,
                                              reference_error(label_positions(mask_arr, y), w))
                grad += coeff * reference_gradient(scratch, acts, deltas, mask_arr)
            step += 1
            theta, m, v = folded_adam_step(theta, m, v, step, grad, config)
    return theta


class TestGradient:
    def test_matches_finite_differences(self):
        worst = 0.0
        for trial in range(10):
            rng = np.random.default_rng(trial)
            model = tiny_net(seed=trial, weight_decay=float(rng.uniform(0, 0.1)),
                             generic=True)
            samples = random_samples(rng, model, 5)
            scratch = model.copy()

            def loss_at(theta):
                scratch.set_flat(theta)
                return scratch.loss(samples)

            grad = model.gradient(samples)
            fd = finite_difference_gradient(loss_at, model.get_flat(), h=1e-6)
            worst = max(worst, np.max(np.abs(grad - fd)) / (1 + np.max(np.abs(fd))))
        assert worst < 1e-5

    def test_dead_relu_unit_gets_no_input_gradient(self, rng):
        model = tiny_net()
        w1, b1 = model.layers[0]
        b1[0] = -1e6  # unit 0 never activates on bounded inputs
        samples = random_samples(rng, model, 6)
        grad = model.gradient(samples)
        dw1 = grad[:w1.size].reshape(w1.shape)
        db1 = grad[w1.size:w1.size + b1.size]
        assert np.allclose(dw1[0], 0.0)
        assert np.isclose(db1[0], 0.0)

    def test_duplicate_sample_doubles_gradient(self, rng):
        model = tiny_net()
        samples = random_samples(rng, model, 1)
        assert np.allclose(model.gradient(stack_samples([samples, samples])),
                           2 * model.gradient(samples))

    def test_label_outside_mask_rejected(self, rng):
        model = tiny_net()
        with pytest.raises(MaskError):
            model.loss(Batch(np.zeros((1, 10)), [2]), mask=(0, 1))


class TestHvp:
    def test_zero_vector_maps_to_zero(self, rng):
        model = tiny_net()
        samples = random_samples(rng, model, 4)
        out = model.hvp(samples, v=np.zeros(model.num_params), damping=0.5)
        assert np.array_equal(out, np.zeros(model.num_params))

    def test_linearity_exact(self, rng):
        model = tiny_net(seed=3)
        samples = random_samples(rng, model, 6)
        v = rng.standard_normal(model.num_params)
        double = model.hvp(samples, v=2 * v, damping=0.0)
        single = model.hvp(samples, v=v, damping=0.0)
        rel = np.linalg.norm(double - 2 * single) / (np.linalg.norm(double) + 1e-12)
        assert rel < 1e-10

    @staticmethod
    def generic_problem(rng):
        # random parameters, row weights != 1 and a strict class mask
        model = tiny_net(seed=4, class_count=4, weight_decay=0.05, generic=True)
        return model, random_samples(rng, model, 7, classes=(0, 2, 3)), (0, 2, 3)

    def test_matches_dense_gauss_newton(self, rng):
        model, samples, mask = self.generic_problem(rng)
        dense = dense_gauss_newton(model, samples, mask)
        for _ in range(5):
            v = rng.standard_normal(model.num_params)
            got = model.hvp(samples, mask, v, damping=0.0)
            rel = np.linalg.norm(got - dense @ v) / np.linalg.norm(dense @ v)
            assert rel < 1e-6

    def test_symmetric(self, rng):
        model, samples, mask = self.generic_problem(rng)
        u, v = rng.standard_normal((2, model.num_params))
        ugv = u @ model.hvp(samples, mask, v, damping=0.0)
        vgu = v @ model.hvp(samples, mask, u, damping=0.0)
        assert np.isclose(ugv, vgu, rtol=1e-12, atol=0.0)

    def test_positive_semidefinite_quadratic_form(self, rng):
        model, samples, mask = self.generic_problem(rng)
        model.weight_decay = 0.0  # the curvature alone, no decay floor
        for _ in range(200):
            v = rng.standard_normal(model.num_params)
            assert v @ model.hvp(samples, mask, v, damping=0.0) >= 0.0

    def test_matches_linear_closed_form_through_identity_layers(self, rng):
        # identity hidden layers on positive inputs turn the net into a
        # softmax regression; the final-layer Hessian block must agree with
        # the linear model's closed form
        dim, classes = 5, 3
        mlp = tiny_net(input_dim=dim, hidden_dim=dim, class_count=classes,
                       weight_decay=0.01)
        w3, b3 = mlp.layers[2]
        mlp.layers[:2] = [(np.eye(dim), np.zeros(dim)), (np.eye(dim), np.zeros(dim))]
        linear = LinearModel([(w3.copy(), b3.copy())], weight_decay=0.01)
        inputs = rng.uniform(0.5, 2.0, size=(6, dim))  # positive: ReLU stays active
        samples = Batch(inputs, [int(rng.integers(0, classes)) for _ in range(6)])

        v_small = rng.standard_normal(linear.num_params)
        v_full = np.zeros(mlp.num_params)
        head = mlp.num_params - linear.num_params
        v_full[head:] = v_small

        hv_mlp = mlp.hvp(samples, v=v_full, damping=0.0)[head:]
        hv_lin = linear.hvp(samples, v=v_small, damping=0.0)
        rel = np.linalg.norm(hv_mlp - hv_lin) / (np.linalg.norm(hv_lin) + 1e-12)
        assert rel < 1e-3

    def test_wrong_size_rejected(self, rng):
        model = tiny_net()
        with pytest.raises(ValueError):
            model.hvp(random_samples(rng, model, 2), v=np.zeros(5))


def reference_hvp(model, batch, mask, v, damping):
    """The Gauss-Newton-vector product written out of place, forward pass
    included: the arithmetic every curvature product must reproduce."""
    mask_arr = model.resolve_mask(mask)
    acts, z = model._forward(batch.x, mask_arr)
    p = np.exp(z - logsumexp(z, keepdims=True))
    layers = model.layers[:-1] + [tuple(a[mask_arr] for a in model.layers[-1])]
    split = model._split(v)
    split[-1] = tuple(a[mask_arr] for a in split[-1])
    r = None
    for i, ((w, _), (vw, vb)) in enumerate(zip(layers, split)):
        r = (acts[i] @ vw.T if r is None else r @ w.T + acts[i] @ vw.T) + vb
        if i + 1 < len(layers):
            r = r * (acts[i + 1] > 0)
    q = (p * r - p * np.sum(p * r, axis=1, keepdims=True)) * batch.w[:, None]
    flat = model._backprop(acts, q, mask_arr) + model.weight_decay * v
    return flat / len(batch) + damping * v


class TestCurvature:
    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize("mask", [None, (0, 2, 3)])
    @pytest.mark.parametrize("damping", [0.0, 0.3])
    def test_products_match_hvp_and_reference_bit_for_bit(self, rng, depth, mask, damping):
        model = model_of_depth(depth, feature_dim=6, class_count=4, weight_decay=0.05)
        model.set_flat(0.5 * rng.standard_normal(model.num_params))
        samples = random_samples(rng, model, 7, classes=mask)  # weights in [0.5, 2]
        apply = model.curvature(samples, mask, damping)
        for _ in range(3):
            v = rng.standard_normal(model.num_params)
            got = apply(v)
            assert np.array_equal(got, model.hvp(samples, mask, v, damping))
            assert np.array_equal(got, reference_hvp(model, samples, mask, v, damping))

    def test_held_products_stay_distinct_and_correct(self, rng):
        model = tiny_net(seed=2, weight_decay=0.01, generic=True)
        samples = random_samples(rng, model, 5)
        apply = model.curvature(samples, damping=0.1)
        u, v = rng.standard_normal((2, model.num_params))
        gu = apply(u)
        gv = apply(v)
        assert not np.shares_memory(gu, gv)
        assert np.array_equal(gu, reference_hvp(model, samples, None, u, 0.1))
        assert np.array_equal(gv, reference_hvp(model, samples, None, v, 0.1))

    def test_operator_keeps_the_parameters_it_was_built_at(self, rng):
        model = tiny_net(seed=5, generic=True)
        samples = random_samples(rng, model, 5)
        v = rng.standard_normal(model.num_params)
        before = model.hvp(samples, v=v)
        apply = model.curvature(samples)
        theta = model.get_flat()
        model.layers = model._split(theta)  # views, as fit's scratch model holds
        theta += 1.0
        assert np.array_equal(apply(v), before)

    def test_bad_damping_and_labels_rejected_when_built(self, rng):
        model = tiny_net()
        samples = random_samples(rng, model, 3, classes=(0, 1))
        with pytest.raises(ValueError, match="damping"):
            model.curvature(samples, damping=-1.0)
        with pytest.raises(MaskError):
            model.curvature(samples, mask=(2,))
        with pytest.raises(ValueError):
            model.curvature(samples)(np.zeros(5))


class TestGradientDots:
    def test_matches_per_sample_ce_gradients(self, rng):
        model = tiny_net(weight_decay=0.05)
        samples = random_samples(rng, model, 5)
        vec = rng.standard_normal(model.num_params)
        dots = model.gradient_dots(samples, vec=vec)
        bare = model.copy()
        bare.weight_decay = 0.0
        expected = [float(bare.gradient(samples.take([i])) @ vec)
                    for i in range(len(samples))]
        assert np.allclose(dots, expected)


class TestForwardProperties:
    def test_pixel_permutation_equivariance(self, rng):
        model = tiny_net(seed=7)
        x = rng.standard_normal((4, 10))
        perm = rng.permutation(10)
        permuted = model.copy()
        w1, b1 = model.layers[0]
        permuted.layers[0] = (w1[:, perm], b1)
        base = model.predict(x)
        twisted = permuted.predict(x[:, perm])
        assert np.array_equal(base, twisted)

    def test_embed_is_last_hidden_activation(self, rng):
        model = tiny_net()
        x = rng.standard_normal((3, 10))
        emb = model.embed(x)
        assert emb.shape == (3, 4)
        assert np.all(emb >= 0.0)

    @pytest.mark.parametrize("method", ["predict", "embed"])
    @pytest.mark.parametrize("depth", [0, 2])
    def test_one_row_given_1d_is_taken_as_its_2d_form(self, rng, depth, method):
        model = MlpModel.zeros(5, 10) if depth == 0 else tiny_net(class_count=5)
        model.set_flat(rng.standard_normal(model.num_params))
        row = rng.standard_normal(10)
        want = getattr(model, method)(row[None, :])
        for given in (row, row.tolist()):
            got = getattr(model, method)(given)
            assert got.shape == want.shape and len(got) == 1
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_prediction_restricted_to_mask(self, rng):
        model = tiny_net(class_count=5)
        preds = model.predict(rng.standard_normal((8, 10)), mask=(1, 3))
        assert set(preds.tolist()) <= {1, 3}


def reference_predict(model, x, mask_arr, dtype):
    """Argmax of the logits of the classes in ``mask_arr`` with the inputs
    and every layer cast to ``dtype``; ties go to the lowest class id."""
    layers = model.layers[:-1] + [tuple(a[mask_arr] for a in model.layers[-1])]
    a = np.asarray(x, dtype=dtype)
    for i, (w, b) in enumerate(layers):
        a = a @ w.astype(dtype).T + b.astype(dtype)
        assert a.dtype == dtype
        a = np.maximum(a, 0.0) if i < len(layers) - 1 else a
    return mask_arr[np.argmax(a, axis=1)]


class TestPredictPrecision:
    def test_float32_ties_go_to_the_lowest_class_id(self):
        model = MlpModel.zeros(4, 3)
        x = np.ones((2, 3), dtype=np.float32)
        assert model.predict(x).tolist() == [0, 0]
        assert model.predict(x, mask=(3, 1)).tolist() == [1, 1]
        model.layers[0][1][2:] = 1.0  # classes 2 and 3 tie above the rest
        assert model.predict(x).tolist() == [2, 2]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_wrong_width_rejected_alike(self, dtype):
        model = MlpModel.zeros(3, 4)
        with pytest.raises(ValueError, match=r"inputs have shape \(2, 5\), expected \(n, 4\)"):
            model.predict(np.zeros((2, 5), dtype=dtype))

    @pytest.mark.parametrize("depth", [0, 2])
    def test_other_inputs_score_in_float64(self, rng, depth):
        model = MlpModel.zeros(5, 10) if depth == 0 else tiny_net(class_count=5)
        model.set_flat(rng.standard_normal(model.num_params))
        x = rng.standard_normal((200, 10))
        mask_arr = np.array([1, 2, 3])
        for given in (x, x.tolist(), np.asfortranarray(x), x.astype(np.float16)):
            assert np.array_equal(model.predict(given, mask_arr),
                                  reference_predict(model, given, mask_arr, np.float64))


class TestFit:
    def test_small_image_problem_reaches_high_train_accuracy(self):
        images, labels = synthetic_image_dataset(5, 20, 0.15, seed=0, dim=36)
        model = MlpModel.init(input_dim=36, hidden_dim=32, class_count=5,
                              weight_decay=1e-5, seed=0)
        fitted = model.fit([LossGroup(Batch(images, labels), None, 1.0)],
                           TrainConfig(epochs=20, lr=1e-2, batch_size=16, seed=0))
        preds = fitted.predict(images)
        assert float(np.mean(preds == labels)) >= 0.95

    def test_zero_epochs_unchanged(self, rng):
        model = tiny_net()
        samples = random_samples(rng, model, 4)
        fitted = model.fit([LossGroup(samples, None, 1.0)], TrainConfig(epochs=0))
        assert np.array_equal(fitted.get_flat(), model.get_flat())

    def test_fixed_seed_bit_identical(self, rng):
        model = tiny_net(seed=2)
        samples = random_samples(rng, model, 20)
        config = TrainConfig(epochs=5, lr=1e-2, batch_size=8, seed=9)
        a = model.fit([LossGroup(samples, None, 1.0)], config)
        b = model.fit([LossGroup(samples, None, 1.0)], config)
        assert np.array_equal(a.get_flat(), b.get_flat())

    def test_groups_with_distinct_masks(self, rng):
        model = tiny_net(class_count=4)
        current = random_samples(rng, model, 10, classes=(2, 3))
        buffered = random_samples(rng, model, 4, classes=(0, 1))
        groups = [LossGroup(current, (2, 3), 0.7),
                  LossGroup(buffered, (0, 1), 0.3)]
        fitted = model.fit(groups, TrainConfig(epochs=10, lr=1e-2, batch_size=4))
        assert not np.array_equal(fitted.get_flat(), model.get_flat())

    @pytest.mark.parametrize("depth", [0, 2])
    def test_divergence_detected(self, rng, depth):
        # a NaN feature poisons the gradient, and the per-epoch finite check
        # must refuse to return the corrupted parameters
        model = model_of_depth(depth, feature_dim=10, class_count=3)
        samples = random_samples(rng, model, 4)
        samples = stack_samples([samples, Batch(np.full((1, 10), np.nan), [0])])
        with pytest.raises(TrainingDiverged):
            model.fit([LossGroup(samples, None, 1.0)], TrainConfig(epochs=5, lr=1e-2))

    @pytest.mark.parametrize("depth", [0, 2])
    def test_full_batch_epoch_is_one_adam_step_on_the_objective(self, rng, depth):
        # sum_g coeff_g * loss(g) weights the decay term by sum_g coeff_g,
        # here 1.3, whatever the depth
        model = model_of_depth(depth, feature_dim=6, class_count=4, weight_decay=0.1)
        model.set_flat(rng.standard_normal(model.num_params))
        groups = [LossGroup(random_samples(rng, model, 5, classes=(2, 3)), (2, 3), 0.7),
                  LossGroup(random_samples(rng, model, 3, classes=(0, 1)), (0, 1), 0.6)]
        config = TrainConfig(epochs=1, lr=0.05)
        fitted = model.fit(groups, config)
        objective_grad = sum(g.coeff * model.gradient(g.batch, g.mask) for g in groups)
        expected = AdamState.zeros(model.num_params).update(model.get_flat(),
                                                            objective_grad, config)
        assert np.allclose(fitted.get_flat(), expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("batch_size", [None, 3])
    @pytest.mark.parametrize("depth", [0, 2])
    def test_matches_out_of_place_loop_bit_for_bit(self, rng, depth, batch_size):
        model = model_of_depth(depth, feature_dim=6, class_count=4, weight_decay=0.1)
        model.set_flat(rng.standard_normal(model.num_params))
        groups = [LossGroup(random_samples(rng, model, 7, classes=(1, 2, 3)), (1, 2, 3), 0.7),
                  LossGroup(random_samples(rng, model, 4, classes=(0, 1)), (0, 1), 0.45)]
        config = TrainConfig(epochs=6, lr=0.05, batch_size=batch_size, seed=3)
        fitted = model.fit(groups, config)
        assert np.array_equal(fitted.get_flat(), reference_fit(model, groups, config))

    @pytest.mark.parametrize("mask", [None, (1, 2, 3)])
    @pytest.mark.parametrize("batch_size", [None, 3])
    @pytest.mark.parametrize("depth", [0, 2])
    def test_one_unit_coefficient_group_matches_per_group_loop_bit_for_bit(
            self, rng, depth, batch_size, mask):
        # a lone group with coefficient 1 runs the per-group loop's operations
        model = model_of_depth(depth, feature_dim=6, class_count=4, weight_decay=0.1)
        model.set_flat(rng.standard_normal(model.num_params))
        groups = [LossGroup(random_samples(rng, model, 9, classes=(1, 2, 3)), mask, 1.0)]
        config = TrainConfig(epochs=6, lr=0.05, batch_size=batch_size, seed=3)
        fitted = model.fit(groups, config)
        assert np.array_equal(fitted.get_flat(), per_group_reference_fit(model, groups, config))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("batch_size", [None, 3])
    @pytest.mark.parametrize("depth", [0, 2])
    def test_two_groups_match_per_group_loop_up_to_rounding(self, depth, batch_size, seed):
        # pooling sums each step's rows in one pass instead of one per group,
        # which moves the last bits and nothing else
        rng = np.random.default_rng(seed)
        model = model_of_depth(depth, feature_dim=6, class_count=4, weight_decay=0.1)
        model.set_flat(rng.standard_normal(model.num_params))
        groups = [LossGroup(random_samples(rng, model, 7, classes=(1, 2, 3)), (1, 2, 3), 0.7),
                  LossGroup(random_samples(rng, model, 4, classes=(0, 1)), (0, 1), 0.45)]
        config = TrainConfig(epochs=6, lr=0.05, batch_size=batch_size, seed=seed)
        fitted = model.fit(groups, config).get_flat()
        expected = per_group_reference_fit(model, groups, config)
        assert np.max(np.abs(fitted - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("batch_size", [4, None])
    @pytest.mark.parametrize("case", ["0", "0-gap", "0-around", "2"])
    def test_idle_zero_head_rows_are_not_stepped(self, rng, monkeypatch, case, batch_size):
        # a row outside every mask holding only ±0 gets the gradient decay * 0
        # and Adam's step 0 / (sqrt(0) + eps'), so fit leaves it out of Adam;
        # a row holding values outside every mask still decays. The union's
        # rows (1 and 3) come first among the trained rows wherever the others
        # sit (between them in "0-gap", below and above them in "0-around"),
        # so every step reads them as views of the theta Adam steps
        depth = int(case[0])
        model = model_of_depth(depth, feature_dim=6, class_count=6 if case == "0-around" else 5,
                               weight_decay=0.1)
        head_w, head_b = model.layers[-1]
        held = [0, 5] if case == "0-around" else [0]  # rows holding values, outside the union
        if depth == 0:
            head_w[0], head_b[0] = rng.standard_normal(6), 0.5  # an earlier task's row
            if case == "0-gap":
                head_w[2], head_b[2] = rng.standard_normal(6), -0.5
            else:
                head_w[2], head_b[2] = -0.0, -0.0
            if case == "0-around":  # row 4, between it and the union, stays zero
                head_w[5], head_b[5] = rng.standard_normal(6), -0.5
        else:
            head_w[4], head_b[4] = 0.0, 0.0
        idle = {"0": [2, 4], "0-gap": [4], "0-around": [2, 4], "2": [4]}[case]
        groups = [LossGroup(random_samples(rng, model, 7, classes=(1, 3)), (1, 3), 0.7),
                  LossGroup(random_samples(rng, model, 3, classes=(3,)), (3,), 0.45)]
        config = TrainConfig(epochs=6, lr=0.05, batch_size=batch_size, seed=3)
        dims, zeros = [], AdamState.zeros.__func__
        monkeypatch.setattr(AdamState, "zeros",
                            classmethod(lambda cls, dim: dims.append(dim) or zeros(cls, dim)))
        thetas, update = [], AdamState.update
        monkeypatch.setattr(AdamState, "update", lambda self, theta, grad, config:
                            thetas.append(theta) or update(self, theta, grad, config))
        steps, backward = [], mlp._backward_pass
        monkeypatch.setattr(mlp, "_backward_pass", lambda layers, acts, g, grads:
                            steps.append(layers) or backward(layers, acts, g, grads))
        fitted = model.fit(groups, config)
        assert len(steps) == len(thetas) > 0 and all(t is thetas[0] for t in thetas)
        assert all(len(layers[-1][0]) == 2 for layers in steps)  # the union's rows
        assert all(np.shares_memory(a, thetas[0])
                   for layers in steps for layer in layers for a in layer)
        assert fitted.get_flat().tobytes() == reference_fit(model, groups, config).tobytes()
        assert dims == [model.num_params - len(idle) * (head_w.shape[1] + 1)]
        fitted_w, fitted_b = fitted.layers[-1]
        assert fitted_w[idle].tobytes() == head_w[idle].tobytes()
        assert fitted_b[idle].tobytes() == head_b[idle].tobytes()
        for row in held:
            assert not np.array_equal(fitted_w[row], head_w[row])

    def test_label_in_another_groups_mask_only_rejected(self, rng):
        # class 0 is in the pooled union, but not in the first group's mask
        model = tiny_net(class_count=4)
        current = random_samples(rng, model, 5, classes=(2, 3))
        current = stack_samples([current, Batch(np.ones((1, model.feature_dim)), [0])])
        buffered = random_samples(rng, model, 3, classes=(0, 1))
        groups = [LossGroup(current, (2, 3), 0.5), LossGroup(buffered, (0, 1), 0.5)]
        with pytest.raises(MaskError):
            model.fit(groups, TrainConfig(epochs=1, lr=1e-2, batch_size=4))

    @staticmethod
    def count_passes_and_steps(monkeypatch):
        """Calls of the forward pass, the backward pass and the Adam step."""
        calls = {"forward": 0, "backward": 0, "step": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(mlp, "_forward_pass", counted("forward", mlp._forward_pass))
        monkeypatch.setattr(mlp, "_backward_pass", counted("backward", mlp._backward_pass))
        monkeypatch.setattr(AdamState, "update", counted("step", AdamState.update))
        return calls

    def test_one_gradient_pass_per_adam_step(self, rng, monkeypatch):
        model = tiny_net(class_count=4)
        groups = [LossGroup(random_samples(rng, model, 10, classes=(2, 3)), (2, 3), 0.3),
                  LossGroup(random_samples(rng, model, 5, classes=(0, 1)), (0, 1), 0.7)]
        calls = self.count_passes_and_steps(monkeypatch)
        model.fit(groups, TrainConfig(epochs=3, lr=1e-2, batch_size=4))
        assert calls == {"forward": 12, "backward": 12, "step": 12}  # 3 epochs of ceil(15 / 4)

    def test_one_gradient_pass_per_full_batch_step_at_depth_0(self, rng, monkeypatch):
        model = model_of_depth(0, feature_dim=6, class_count=4, weight_decay=0.1)
        groups = [LossGroup(random_samples(rng, model, 10, classes=(2, 3)), (2, 3), 0.3),
                  LossGroup(random_samples(rng, model, 5, classes=(0, 1)), (0, 1), 0.7)]
        calls = self.count_passes_and_steps(monkeypatch)
        model.fit(groups, TrainConfig(epochs=3, lr=1e-2))
        assert calls == {"forward": 3, "backward": 3, "step": 3}  # one step per epoch

    def test_receiver_unchanged_and_fits_share_no_memory(self, rng):
        model = tiny_net(seed=1, weight_decay=0.01)
        before = model.get_flat()
        groups = [LossGroup(random_samples(rng, model, 12), None, 1.0)]
        config = TrainConfig(epochs=3, lr=1e-2, batch_size=5)
        first, second = model.fit(groups, config), model.fit(groups, config)
        assert np.array_equal(model.get_flat(), before)
        arrays = {name: [a for layer in m.layers for a in layer]
                  for name, m in (("receiver", model), ("first", first), ("second", second))}
        for one, other in (("first", "second"), ("first", "receiver"), ("second", "receiver")):
            for a in arrays[one]:
                for b in arrays[other]:
                    assert not np.shares_memory(a, b), (one, other)

    def test_he_init_seeded(self):
        a = MlpModel.init(seed=5)
        b = MlpModel.init(seed=5)
        c = MlpModel.init(seed=6)
        assert np.array_equal(a.layers[0][0], b.layers[0][0])
        assert not np.array_equal(a.layers[0][0], c.layers[0][0])


class TestOneHotError:
    """Steps, gradients and dots subtract each row's label as a float one-hot;
    the references here subtract 1.0 at a fancy index. The bytes must agree on
    the rows where the two could differ."""

    @staticmethod
    def problem(rng, kind, depth):
        """A model and loss groups of one kind: "tied" makes head rows 1 and 2
        equal, so their logits tie exactly; "signed-zero" makes the head -0.0
        and a third of the inputs -0.0 rows; "blocked" pools two groups whose
        masks differ, so each row's union classes outside its own mask get
        -inf logits."""
        model = model_of_depth(depth, feature_dim=6, class_count=4, weight_decay=0.1)
        model.set_flat(rng.standard_normal(model.num_params))
        head_w, head_b = model.layers[-1]
        if kind == "blocked":
            return model, [
                LossGroup(random_samples(rng, model, 7, classes=(1, 2, 3)), (1, 2, 3), 0.7),
                LossGroup(random_samples(rng, model, 4, classes=(0, 1)), (0, 1), 0.45)]
        batch = random_samples(rng, model, 9, classes=(1, 2, 3))
        if kind == "tied":
            head_w[2], head_b[2] = head_w[1], head_b[1]
        else:
            head_w[...], head_b[...] = -0.0, -0.0
            batch.x[::3] = -0.0
        return model, [LossGroup(batch, (1, 2, 3), 0.7)]

    @pytest.mark.parametrize("kind", ["tied", "signed-zero", "blocked"])
    @pytest.mark.parametrize("depth, batch_size", [(0, None), (2, 4)])  # 4: a short last batch
    def test_fit_matches_fancy_index_reference_bit_for_bit(self, rng, kind, depth, batch_size):
        model, groups = self.problem(rng, kind, depth)
        config = TrainConfig(epochs=6, lr=0.05, batch_size=batch_size, seed=3)
        fitted = model.fit(groups, config)
        assert fitted.get_flat().tobytes() == reference_fit(model, groups, config).tobytes()

    @pytest.mark.parametrize("kind", ["tied", "signed-zero", "blocked"])
    @pytest.mark.parametrize("depth", [0, 2])
    def test_gradient_and_dots_match_out_of_place_expressions(self, rng, kind, depth):
        model, groups = self.problem(rng, kind, depth)
        v = rng.standard_normal(model.num_params)
        along = model.copy()
        along.set_flat(v)
        for g in groups:
            batch, mask_arr = g.batch, model.resolve_mask(g.mask)
            pos = label_positions(mask_arr, batch.y)
            acts, deltas = reference_pass(model, batch.x, mask_arr, reference_error(pos, batch.w))
            expected = (reference_gradient(model, acts, deltas, mask_arr)
                        + model.weight_decay * model.get_flat())
            assert model.gradient(batch, g.mask).tobytes() == expected.tobytes()
            acts, deltas = reference_pass(model, batch.x, mask_arr, reference_error(pos))
            vs = along.layers[:-1] + [tuple(a[mask_arr] for a in along.layers[-1])]
            dots = sum(np.sum(d * (a @ vw.T + vb), axis=1)
                       for a, d, (vw, vb) in zip(acts, deltas, vs)) * batch.w
            assert model.gradient_dots(batch, g.mask, v).tobytes() == dots.tobytes()

    def test_error_matches_fancy_index_on_signed_zero_tied_and_blocked_logits(self):
        # BLAS sums from +0.0, so logits computed from -0.0 operands are +0.0;
        # here the logits themselves hold -0.0
        z = np.array([[-0.0, 0.0, -0.0], [1.5, 1.5, -np.inf],
                      [-np.inf, -0.0, 2.0], [0.0, -np.inf, -np.inf]])
        pos = np.array([0, 1, 1, 0])
        got = mlp._ce_error(z.copy(), np.eye(3)[pos])
        assert got.tobytes() == reference_error(pos)(z).tobytes()


class TestPlumbing:
    def test_arrays_roundtrip(self, tmp_path):
        model = MlpModel.init(input_dim=6, hidden_dim=4, class_count=3, seed=2)
        path = tmp_path / "mlp.npz"
        np.savez(path, **model.to_arrays())
        restored = MlpModel.init(input_dim=6, hidden_dim=4, class_count=3,
                                 seed=3).with_arrays(np.load(path))
        assert np.array_equal(restored.get_flat(), model.get_flat())
