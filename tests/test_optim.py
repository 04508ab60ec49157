"""AdamW contract tests against a hand-rolled scalar recurrence."""

import numpy as np
import pytest

from icc.errors import NumericError, ShapeError
from icc.optim import AdamW


def scalar_adamw_reference(p0, grads, lr, b1, b2, eps, wd):
    """The published decoupled-weight-decay recurrence, one scalar parameter."""
    p, m, v = p0, 0.0, 0.0
    trajectory = []
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        p = p - lr * wd * p
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
        trajectory.append(p)
    return trajectory


def test_zero_gradient_zero_decay_leaves_parameters():
    p = {"w": np.array([1.0, -2.0, 3.0])}
    opt = AdamW(p, lr=1e-2, weight_decay=0.0)
    for _ in range(5):
        opt.step({"w": np.zeros(3)})
    assert np.array_equal(p["w"], [1.0, -2.0, 3.0])


def test_matches_scalar_reference_trajectory():
    rng = np.random.default_rng(0)
    grads = rng.normal(size=40)
    lr, wd = 1e-2, 0.05
    ref = scalar_adamw_reference(0.7, grads, lr, 0.9, 0.999, 1e-8, wd)
    p = {"w": np.array([0.7])}
    opt = AdamW(p, lr=lr, weight_decay=wd)
    for g, expected in zip(grads, ref):
        opt.step({"w": np.array([g])})
        assert abs(p["w"][0] - expected) < 1e-10


def test_nan_gradient_rejects_step_without_state_change():
    p = {"w": np.array([1.0]), "b": np.array([2.0])}
    opt = AdamW(p, lr=1e-2)
    with pytest.raises(NumericError, match="step rejected"):
        opt.step({"w": np.array([0.5]), "b": np.array([np.nan])})
    assert p["w"][0] == 1.0 and p["b"][0] == 2.0
    assert opt.step_count == 0
    assert np.all(opt.m["w"] == 0.0)


def test_shape_mismatch_rejected():
    opt = AdamW({"w": np.zeros((2, 2))})
    with pytest.raises(ShapeError):
        opt.step({"w": np.zeros(3)})


def test_weight_decay_is_decoupled():
    # with zero gradients forever, decay shrinks parameters geometrically
    p = {"w": np.array([10.0])}
    opt = AdamW(p, lr=0.1, weight_decay=0.5)
    opt.step({"w": np.zeros(1)})
    assert abs(p["w"][0] - 10.0 * (1 - 0.1 * 0.5)) < 1e-12


def test_parameters_update_in_place():
    arr = np.array([1.0, 1.0])
    opt = AdamW({"w": arr}, lr=1e-2)
    opt.step({"w": np.ones(2)})
    assert arr[0] != 1.0  # same buffer mutated


@pytest.mark.parametrize("lr", [0.0, -1e-3, float("nan"), float("inf")])
def test_learning_rate_must_be_finite_and_positive(lr):
    p = {"w": np.array([1.0])}
    with pytest.raises(ValueError, match="learning rate"):
        AdamW(p, lr=lr)
    opt = AdamW(p, lr=1e-2)
    with pytest.raises(ValueError, match="learning rate"):
        opt.set_lr(lr)
    assert opt.lr == 1e-2
    opt.step({"w": np.array([0.5])})
    assert np.isfinite(p["w"]).all()


@pytest.mark.parametrize("wd", [-5.0, float("nan"), float("inf")])
def test_weight_decay_must_be_finite_and_non_negative(wd):
    with pytest.raises(ValueError, match="weight decay"):
        AdamW({"w": np.array([1.0])}, lr=1e-2, weight_decay=wd)
