"""Adam's in-place step against the out-of-place folded step, and the folded
step against the textbook one."""

import numpy as np

from replaygraph import AdamState, TrainConfig

from conftest import folded_adam_step, textbook_adam_step


def test_in_place_step_matches_textbook_bit_for_bit(rng):
    dim = 50
    config = TrainConfig(lr=0.03)
    theta = rng.standard_normal(dim)
    adam = AdamState.zeros(dim)
    ref_theta, ref_m, ref_v = theta.copy(), np.zeros(dim), np.zeros(dim)
    for step in range(1, 26):
        # magnitudes from 1e-6 to 1e2, so eps and the bias corrections matter
        grad = rng.standard_normal(dim) * 10.0 ** rng.uniform(-6, 2, dim)
        adam.update(theta, grad, config)
        ref_theta, ref_m, ref_v = folded_adam_step(ref_theta, ref_m, ref_v, step, grad,
                                                   config)
        assert np.array_equal(theta, ref_theta)
        assert np.array_equal(adam.m, ref_m)
        assert np.array_equal(adam.v, ref_v)
    assert adam.step == 25


def test_update_steps_the_given_theta_and_leaves_grad_alone(rng):
    adam = AdamState.zeros(8)
    m, v = adam.m, adam.v
    theta, grad = rng.standard_normal(8), rng.standard_normal(8)
    before, grad_before = theta.copy(), grad.copy()
    assert adam.update(theta, grad, TrainConfig()) is theta
    assert not np.array_equal(theta, before)
    assert np.array_equal(grad, grad_before)
    assert adam.m is m and adam.v is v


def test_folded_step_matches_textbook_displacement(rng):
    # Folding the bias corrections into the step size and eps changes only
    # rounding: from the same (theta, m, v), the two steps move theta alike.
    dim = 50
    config = TrainConfig(lr=0.03)
    theta, m, v = rng.standard_normal(dim), np.zeros(dim), np.zeros(dim)
    for step in range(1, 26):
        grad = rng.standard_normal(dim) * 10.0 ** rng.uniform(-6, 2, dim)
        folded, _, _ = folded_adam_step(theta, m, v, step, grad, config)
        textbook, m, v = textbook_adam_step(theta, m, v, step, grad, config)
        np.testing.assert_allclose(folded - theta, textbook - theta, rtol=1e-11, atol=0)
        theta = textbook
