"""Finite-difference checks for every differentiable op, at 64-bit.

Each op's gradient is compared against central differences (step 1e-4) of a
fixed random projection of its output, on random tensors no larger than
2 x 4 x 8 x 8.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


@st.composite
def conv_geometries(draw):
    """(x shape, w shape, stride, padding): kernels 1-5, strides 1-3 and pads
    0-3 per axis, pads at or above the kernel extent included, and extents
    up to 12 whose last padded rows the stride may never read."""
    kh, kw, sh, sw = (draw(st.integers(1, hi)) for hi in (5, 5, 3, 3))
    ph, pw = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    h = draw(st.integers(max(1, kh - 2 * ph), 12))
    w = draw(st.integers(max(1, kw - 2 * pw), 12))
    n, cin, cout = (draw(st.integers(1, 3)) for _ in range(3))
    return (n, cin, h, w), (cout, cin, kh, kw), (sh, sw), (ph, pw)


def strided_geometries():
    """Every pad 0..k-1 of square kernels 1-7 at strides 2 and 3, over an odd
    height and an even width."""
    return [((1, 2, 2 * k + 1, 2 * k + 2), (2, 2, k, k), (s, s), (p, p))
            for s in (2, 3) for k in range(1, 8) for p in range(k)]


def with_examples(geometries):
    def apply(test):
        for geometry in geometries:
            test = example(geometry=geometry)(test)
        return test
    return apply


def conv_input_grad_scatter(g, w, x_shape, stride, padding):
    """conv2d's input gradient as a scatter: each output's gradient times each
    tap, added at the padded input cell that tap read; pad cells dropped."""
    n, cin, h, wd = x_shape
    kh, kw = w.shape[2:]
    (sh, sw), (ph, pw), (ho, wo) = stride, padding, g.shape[2:]
    gx = np.zeros((n, cin, max(h + 2 * ph, (ho - 1) * sh + kh),
                   max(wd + 2 * pw, (wo - 1) * sw + kw)))
    for i in range(kh):
        for j in range(kw):
            gx[:, :, i : i + (ho - 1) * sh + 1 : sh, j : j + (wo - 1) * sw + 1 : sw] += np.einsum(
                "nohw,oc->nchw", g, w[:, :, i, j])
    return gx[:, :, ph : ph + h, pw : pw + wd]


def assert_conv_adjoint(geometry):
    # conv is bilinear, so <conv(x, w), g> = <x, dx> = <w, dw> for the
    # gradients of <conv(x, w), g>, each to rounding of the sum of the
    # absolute products, <conv(|x|, |w|), |g|>
    x_shape, w_shape, stride, padding = geometry
    rng = np.random.default_rng(sum(x_shape + w_shape + stride + padding))
    x, w = t(rng.standard_normal(x_shape)), t(rng.standard_normal(w_shape))
    out = T.conv2d(x, w, stride=stride, padding=padding)
    g = rng.standard_normal(out.shape)
    out.backward(g)
    scale = np.vdot(T.conv2d(np.abs(x.data), np.abs(w.data), stride, padding).data, np.abs(g))
    forward = np.vdot(out.data, g)
    assert abs(np.vdot(x.data, x.grad) - forward) <= 1e-12 * scale
    assert abs(np.vdot(w.data, w.grad) - forward) <= 1e-12 * scale


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

    @settings(max_examples=60, deadline=None)
    @given(geometry=conv_geometries())
    @example(geometry=((2, 3, 6, 5), (2, 3, 2, 3), (3, 3), (3, 2)))  # pad >= kernel, rows unread
    @example(geometry=((1, 2, 8, 9), (3, 2, 5, 4), (2, 3), (0, 1)))  # (h + 2p - k) % s != 0
    @example(geometry=((2, 2, 1, 1), (2, 2, 1, 1), (3, 2), (3, 3)))  # a 1x1 input inside its pad
    @example(geometry=((2, 3, 4, 6), (2, 3, 1, 1), (2, 2), (0, 0)))  # 1x1 strided, even extents
    @example(geometry=((1, 2, 3, 5), (2, 2, 5, 5), (3, 3), (2, 2)))  # empty offset spans
    def test_conv2d_backward_is_adjoint(self, geometry):
        assert_conv_adjoint(geometry)

    @settings(max_examples=30, deadline=None)
    @given(geometry=conv_geometries())
    @example(geometry=((2, 3, 4, 6), (2, 3, 1, 1), (2, 2), (0, 0)))
    @example(geometry=((1, 2, 3, 5), (2, 2, 5, 5), (3, 3), (2, 2)))
    @example(geometry=((1, 1, 4, 1), (1, 1, 1, 1), (2, 1), (2, 0)))  # a band's rows all in the pad
    def test_conv2d_backward_is_adjoint_in_one_row_bands(self, geometry):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_COL_BUFFER_BYTES", 1)  # every band is one output row
            assert_conv_adjoint(geometry)

    @settings(max_examples=20, deadline=None)
    @given(geometry=conv_geometries())
    @with_examples(strided_geometries())
    def test_strided_conv2d_backward_by_stride_phase(self, geometry):
        # each stride phase's correlation fills its rows and columns of the
        # input gradient, and inputs no tap reaches get zero
        assert_conv_adjoint(geometry)
        x_shape, w_shape, stride, padding = geometry
        rng = np.random.default_rng(len(x_shape + w_shape) + sum(stride + padding))
        x, w = t(rng.standard_normal(x_shape)), t(rng.standard_normal(w_shape))
        out = T.conv2d(x, w, stride=stride, padding=padding)
        g = rng.standard_normal(out.shape)
        out.backward(g)
        ref = conv_input_grad_scatter(g, w.data, x_shape, stride, padding)
        scale = conv_input_grad_scatter(np.abs(g), np.abs(w.data), x_shape, stride, padding)
        assert np.all(np.abs(x.grad - ref) <= 1e-12 * scale.max())

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

    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.integers(1, 3), st.integers(1, 5), st.integers(1, 9),
                           st.integers(1, 9)),
           block_bytes=st.sampled_from([1, 40, 256, 1 << 20]),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
    @example(shape=(3, 4, 5, 6), block_bytes=200, dtype=np.float32, seed=0)  # channel groups
    @example(shape=(3, 2, 4, 4), block_bytes=300, dtype=np.float64, seed=1)  # 2-sample blocks
    def test_batchnorm_train_backward_in_blocks(self, shape, block_bytes, dtype, seed):
        # the blocked two-pass backward against the whole-map formula, with
        # blocks of one channel, channel groups, several samples or all
        rng = np.random.default_rng(seed)
        c = shape[1]
        x = rng.standard_normal(shape) * rng.uniform(0.1, 3) + rng.uniform(-2, 2)
        gamma, beta = rng.uniform(0.5, 1.5, c), rng.standard_normal(c)
        g = rng.standard_normal(shape)

        def whole_map(dt):
            xd, gd, gam = x.astype(dt), g.astype(dt), gamma.astype(dt)
            m = xd.mean(axis=(0, 2, 3), keepdims=True)
            inv = 1.0 / np.sqrt(xd.var(axis=(0, 2, 3), keepdims=True) + 1e-3)
            xhat = (xd - m) * inv
            gscaled = gd * gam.reshape(1, c, 1, 1)
            mean_g = gscaled.mean(axis=(0, 2, 3), keepdims=True)
            mean_gx = (gscaled * xhat).mean(axis=(0, 2, 3), keepdims=True)
            gx = inv * (gscaled - mean_g - xhat * mean_gx)
            terms = np.abs(inv * gam.reshape(1, c, 1, 1)) * (
                np.abs(gd) + np.abs(mean_g / gam.reshape(1, c, 1, 1))
                + np.abs(xhat * mean_gx / gam.reshape(1, c, 1, 1)))
            return gx, (gd * xhat).sum(axis=(0, 2, 3)), np.abs(gd * xhat).sum(axis=(0, 2, 3)), terms

        xt, gt, bt = (T.Tensor(a.astype(dtype), requires_grad=True) for a in (x, gamma, beta))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_BLOCK_BYTES", block_bytes)
            out = T.batchnorm2d(xt, gt, bt, np.zeros(c), np.ones(c), mode="train", eps=1e-3)
            out.backward(g.astype(dtype))
        assert np.array_equal(bt.grad, g.astype(dtype).sum(axis=(0, 2, 3)))
        ref_gx, ref_gamma, gamma_scale, gx_terms = whole_map(np.float64)
        old_gx, old_gamma = whole_map(dtype)[:2]
        if dtype == np.float64:
            assert np.abs(xt.grad - ref_gx).max() <= 1e-12 * gx_terms.max()
            assert np.all(np.abs(gt.grad - ref_gamma) <= 1e-12 * gamma_scale)
        else:
            old_err = np.abs(old_gx - ref_gx).max()
            assert np.abs(xt.grad - ref_gx).max() <= old_err + 1e-5 * gx_terms.max()
            old_err = np.abs(old_gamma - ref_gamma).max()
            assert np.abs(gt.grad - ref_gamma).max() <= old_err + 1e-5 * gamma_scale.max()

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

    def test_channel_slice(self):
        w = t(rand(4, 6, 1, 1, seed=40))
        check_op_gradients(lambda: T.channel_slice(w, 1, 4), [w])

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
