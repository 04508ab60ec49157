"""Finite-difference checks for every differentiable op, at 64-bit.

Each op's gradient is compared against central differences (step 1e-4) of a
fixed random projection of its output, on random tensors no larger than
2 x 4 x 8 x 8.
"""

import numpy as np
import pytest

from conftest import check_op_gradients, maxpool_grad_loop, numeric_gradient, rel_error
from icc import tensor as T
from icc.errors import ShapeError


@pytest.fixture(autouse=True)
def _float64():
    T.set_default_dtype(np.float64)
    yield


def t(arr):
    return T.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def rand(*shape, seed=0, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, shape)


class TestConvGradients:
    def test_conv2d_basic(self):
        x, w, b = t(rand(2, 3, 6, 6, seed=1)), t(rand(4, 3, 3, 3, seed=2)), t(rand(4, seed=3))
        check_op_gradients(lambda: T.conv2d(x, w, stride=1, padding=1, bias=b), [x, w, b])

    def test_conv2d_strided(self):
        x, w = t(rand(1, 2, 8, 8, seed=4)), t(rand(3, 2, 3, 3, seed=5))
        check_op_gradients(lambda: T.conv2d(x, w, stride=2, padding=1), [x, w])

    def test_conv2d_asymmetric_kernel(self):
        x, w = t(rand(1, 2, 6, 8, seed=6)), t(rand(2, 2, 1, 7, seed=7))
        check_op_gradients(lambda: T.conv2d(x, w, padding=(0, 3)), [x, w])

    def test_conv2d_pointwise(self):
        # 1x1, stride 1, no padding: each sample's columns are a view of its input
        x, w, b = t(rand(2, 3, 5, 4, seed=11)), t(rand(4, 3, 1, 1, seed=12)), t(rand(4, seed=13))
        check_op_gradients(lambda: T.conv2d(x, w, bias=b), [x, w, b])

    def test_separable_conv2d(self):
        x = t(rand(1, 2, 7, 7, seed=8))
        kv = t(rand(3, 2, 5, 1, seed=9))
        kh = t(rand(2, 3, 1, 5, seed=10))
        check_op_gradients(lambda: T.separable_conv2d(x, kv, kh, padding=(2, 2)), [x, kv, kh])


class TestPoolGradients:
    def test_maxpool(self):
        # distinct values keep the argmax stable under the FD step
        base = np.arange(2 * 2 * 8 * 8, dtype=np.float64).reshape(2, 2, 8, 8)
        x = t(base + rand(2, 2, 8, 8, seed=11) * 0.1)
        check_op_gradients(lambda: T.maxpool2d(x, 2, 2), [x])

    def test_maxpool_padded(self):
        base = np.arange(1 * 2 * 7 * 7, dtype=np.float64).reshape(1, 2, 7, 7)
        x = t(base * 0.37 + 1.0)
        check_op_gradients(lambda: T.maxpool2d(x, 3, 2, padding=1), [x])

    def test_maxpool_ties_go_to_first_maximum(self):
        # values from {0, 1, 2} repeat inside most of the overlapping windows
        x = np.random.default_rng(46).integers(0, 3, (2, 3, 9, 8)).astype(np.float64)
        xt = t(x)
        out = T.maxpool2d(xt, 3, 2, padding=1)
        g = np.random.default_rng(47).standard_normal(out.shape)
        out.backward(g)
        ref = maxpool_grad_loop(x, g, (3, 3), (2, 2), (1, 1))
        assert np.abs(xt.grad - ref).max() <= 1e-12

    def test_avgpool(self):
        x = t(rand(2, 3, 8, 8, seed=12))
        check_op_gradients(lambda: T.avgpool2d(x, 3, 2, padding=1), [x])

    def test_adaptive_avgpool(self):
        x = t(rand(1, 3, 7, 5, seed=13))
        check_op_gradients(lambda: T.adaptive_avgpool2d(x, 3, 2), [x])


class TestNormActGradients:
    def test_batchnorm_train(self):
        x = t(rand(4, 3, 4, 4, seed=14))
        gamma, beta = t(rand(3, seed=15, lo=0.5, hi=1.5)), t(rand(3, seed=16))

        def build():
            return T.batchnorm2d(x, gamma, beta, np.zeros(3), np.ones(3),
                                 mode="train", eps=1e-3)

        check_op_gradients(build, [x, gamma, beta])

    def test_batchnorm_eval(self):
        x = t(rand(2, 3, 4, 4, seed=17))
        gamma, beta = t(rand(3, seed=18, lo=0.5, hi=1.5)), t(rand(3, seed=19))
        rm = rand(3, seed=20)
        rv = rand(3, seed=21, lo=0.5, hi=2.0)

        def build():
            return T.batchnorm2d(x, gamma, beta, rm.copy(), rv.copy(), mode="eval", eps=1e-3)

        check_op_gradients(build, [x, gamma, beta])

    def test_relu_away_from_kink(self):
        x = t(rand(2, 4, 8, 8, seed=22, lo=0.2, hi=1.0) * np.sign(rand(2, 4, 8, 8, seed=23)))
        check_op_gradients(lambda: T.relu(x), [x])

    def test_sigmoid(self):
        x = t(rand(2, 4, 6, 6, seed=24, lo=-2, hi=2))
        check_op_gradients(lambda: T.sigmoid(x), [x])


class TestResampleGradients:
    def test_bilinear_upsample(self):
        x = t(rand(1, 3, 4, 5, seed=25))
        check_op_gradients(lambda: T.upsample(x, 2, "bilinear"), [x])

    def test_bilinear_arbitrary_resize(self):
        x = t(rand(1, 2, 3, 3, seed=26))
        check_op_gradients(lambda: T.interpolate(x, 8, 7, "bilinear"), [x])

    def test_bilinear_downsize(self):
        x = t(rand(1, 2, 8, 8, seed=27))
        check_op_gradients(lambda: T.interpolate(x, 3, 5, "bilinear"), [x])

    def test_nearest(self):
        x = t(rand(1, 2, 4, 4, seed=28))
        check_op_gradients(lambda: T.upsample(x, 3, "nearest"), [x])

    def test_nearest_non_integer_ratio(self):
        x = t(rand(1, 2, 5, 4, seed=48))
        check_op_gradients(lambda: T.interpolate(x, 7, 9, "nearest"), [x])


class TestChannelAndElementwiseGradients:
    def test_concat_channels(self):
        a, b, c = t(rand(2, 2, 4, 4, seed=29)), t(rand(2, 3, 4, 4, seed=30)), t(rand(2, 1, 4, 4, seed=31))
        check_op_gradients(lambda: T.concat_channels([a, b, c]), [a, b, c])

    def test_channel_sum(self):
        x = t(rand(2, 4, 5, 5, seed=32))
        check_op_gradients(lambda: T.channel_sum(x), [x])

    def test_add_sub(self):
        a, b = t(rand(2, 3, 4, 4, seed=33)), t(rand(2, 3, 4, 4, seed=34))
        check_op_gradients(lambda: T.add(a, b), [a, b])
        check_op_gradients(lambda: T.sub(a, b), [a, b])

    def test_mul_div(self):
        a = t(rand(2, 3, 4, 4, seed=35))
        b = t(rand(2, 3, 4, 4, seed=36, lo=0.5, hi=2.0))
        check_op_gradients(lambda: T.mul(a, b), [a, b])
        check_op_gradients(lambda: T.div(a, b), [a, b])

    def test_scalar_add(self):
        a = t(rand(1, 2, 3, 3, seed=37))
        check_op_gradients(lambda: T.add(a, 1e-6), [a])

    def test_contextual_fusion_composite(self):
        # the gate arithmetic of the contextual module, end to end
        base = t(rand(1, 3, 6, 6, seed=38))
        gate_w = t(rand(3, 3, 1, 1, seed=39))

        def build():
            pooled = T.adaptive_avgpool2d(base, 2, 2)
            up = T.interpolate(pooled, 6, 6, "bilinear")
            gate = T.sigmoid(T.conv2d(T.sub(up, base), gate_w))
            denom = T.add(gate, 1e-6)
            return T.concat_channels([base, T.div(T.mul(gate, up), denom)])

        check_op_gradients(build, [base, gate_w])

    def test_shared_first_gradient_then_accumulation(self):
        # add passes one upstream array to a and b as their first gradient;
        # a's gradient through the relu is added afterwards
        a, b = t(rand(2, 3, seed=28)), t(rand(2, 3, seed=29))
        check_op_gradients(lambda: T.add(T.add(a, b), T.relu(a)), [a, b])


class TestBackwardContract:
    def test_sum_of_parameter_gives_ones(self):
        p = t(rand(3, 4, seed=40))
        T.tensor_sum(p).backward()
        assert np.array_equal(p.grad, np.ones((3, 4)))

    def test_zero_scaling_gives_zero_gradients(self):
        p = t(rand(2, 2, seed=41))
        loss = T.tensor_sum(T.mul(p, 0.0))
        loss.backward()
        assert np.all(p.grad == 0.0)

    def test_unreached_tensor_has_no_gradient(self):
        a, b = t(rand(2, 2, seed=42)), t(rand(2, 2, seed=43))
        T.tensor_sum(a).backward()
        assert b.grad is None

    def test_backward_requires_scalar_without_seed(self):
        a = t(rand(2, 2, seed=44))
        with pytest.raises(ShapeError, match="scalar"):
            T.mul(a, 2.0).backward()

    def test_grad_accumulates_across_reuse(self):
        a = t(np.array([3.0]))
        loss = T.add(T.mul(a, a), a)  # a^2 + a -> grad 2a + 1
        loss.backward(np.array([1.0]))
        assert np.allclose(a.grad, [7.0])

    def test_numeric_gradient_helper_self_check(self):
        x = rand(3, seed=45)
        f = lambda: float((x**2).sum())
        fd = numeric_gradient(f, x)
        assert rel_error(fd, 2 * x) < 1e-8
