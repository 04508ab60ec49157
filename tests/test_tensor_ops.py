"""Forward contracts of the tensor ops against loop references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    adaptive_avgpool_loop,
    bilinear_loop,
    conv2d_loop,
    nearest_loop,
    pool_loop,
)
from icc import model as M
from icc import tensor as T
from icc.errors import NumericError, ShapeError


def t64(arr, grad=False):
    return T.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestConv2d:
    def test_identity_1x1(self):
        out = T.conv2d(t64(np.full((1, 1, 1, 1), 5.0)), t64(np.ones((1, 1, 1, 1))))
        assert out.data.item() == 5.0

    def test_all_ones_27(self):
        out = T.conv2d(t64(np.ones((1, 3, 4, 4))), t64(np.ones((64, 3, 3, 3))))
        assert out.shape == (1, 64, 2, 2)
        assert np.all(out.data == 27.0)

    @pytest.mark.parametrize(
        "stride,padding,bias",
        [((1, 1), (0, 0), False), ((2, 2), (1, 1), True), ((1, 2), (2, 0), True)],
    )
    def test_matches_loop_reference(self, stride, padding, bias):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 8, 9))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4) if bias else None
        ref = conv2d_loop(x, w, stride, padding, b)
        out = T.conv2d(t64(x), t64(w), stride=stride, padding=padding,
                       bias=t64(b) if bias else None)
        assert out.shape == ref.shape
        assert np.abs(out.data - ref).max() < 1e-6

    def test_shape_preserving_same_padding(self):
        rng = np.random.default_rng(1)
        for k in (1, 3, 5, 7):
            x = rng.normal(size=(1, 2, 10, 12))
            w = rng.normal(size=(2, 2, k, k))
            out = T.conv2d(t64(x), t64(w), stride=1, padding=(k - 1) // 2)
            assert out.shape == x.shape

    def test_channel_mismatch_names_dimension(self):
        with pytest.raises(ShapeError, match="dim 1"):
            T.conv2d(t64(np.ones((1, 3, 4, 4))), t64(np.ones((2, 4, 3, 3))))

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(ShapeError, match="height"):
            T.conv2d(t64(np.ones((1, 1, 2, 8))), t64(np.ones((1, 1, 5, 1))))

    def test_non_finite_input_rejected(self):
        x = np.ones((1, 1, 2, 2))
        x[0, 0, 0, 0] = np.nan
        with pytest.raises(NumericError):
            T.conv2d(t64(x), t64(np.ones((1, 1, 1, 1))))


class TestSeparableConv2d:
    def test_1x1_identity_pair(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 1, 5, 5))
        eye = np.ones((1, 1, 1, 1))
        out = T.separable_conv2d(t64(x), t64(eye), t64(eye))
        assert np.allclose(out.data, x)

    def test_rank_one_7x7_equals_full(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=7)
        v = rng.normal(size=7)
        x = rng.normal(size=(1, 1, 12, 12))
        full = np.outer(u, v).reshape(1, 1, 7, 7)
        ref = T.conv2d(t64(x), t64(full))
        out = T.separable_conv2d(t64(x), t64(u.reshape(1, 1, 7, 1)), t64(v.reshape(1, 1, 1, 7)))
        assert np.abs(out.data - ref.data).max() < 1e-6

    def test_multichannel_matches_two_stage_loop(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 9, 9))
        kv = rng.normal(size=(4, 3, 5, 1))
        kh = rng.normal(size=(2, 4, 1, 5))
        mid = conv2d_loop(x, kv, (1, 1), (0, 0))
        ref = conv2d_loop(mid, kh, (1, 1), (0, 0))
        out = T.separable_conv2d(t64(x), t64(kv), t64(kh))
        assert np.abs(out.data - ref).max() < 1e-6


class TestPooling:
    def test_2x2_block(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        assert T.maxpool2d(x, 2, 2).data.item() == 4.0
        assert T.avgpool2d(x, 2, 2).data.item() == 2.5

    def test_constant_input(self):
        x = t64(np.full((1, 2, 6, 6), 3.25))
        assert np.all(T.maxpool2d(x, 3, 2, padding=0).data == 3.25)
        assert np.allclose(T.avgpool2d(x, 3, 3).data, 3.25)

    @pytest.mark.parametrize("op", ["max", "avg"])
    def test_matches_loop_reference(self, op):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(2, 3, 9, 7))
        fn = T.maxpool2d if op == "max" else T.avgpool2d
        for window, stride, pad in [((2, 2), (2, 2), (0, 0)), ((3, 3), (2, 2), (1, 1)),
                                    ((3, 2), (1, 2), (1, 0))]:
            ref = pool_loop(x, window, stride, pad, op)
            out = fn(t64(x), window, stride, padding=pad)
            assert np.abs(out.data - ref).max() < 1e-12

    def test_empty_window_rejected(self):
        with pytest.raises(ShapeError, match="window"):
            T.maxpool2d(t64(np.ones((1, 1, 4, 4))), 0, 1)

    @pytest.mark.parametrize("op", [T.maxpool2d, T.avgpool2d])
    def test_non_positive_stride_rejected(self, op):
        with pytest.raises(ShapeError, match="stride must be positive"):
            op(t64(np.ones((1, 1, 4, 4))), 2, (1, 0))

    def test_window_exceeding_padded_extent(self):
        with pytest.raises(ShapeError):
            T.avgpool2d(t64(np.ones((1, 1, 3, 3))), 5, 1)

    def test_adaptive_avgpool_partitions(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(1, 2, 12, 12))
        out = T.adaptive_avgpool2d(t64(x), 3, 3)
        ref = x.reshape(1, 2, 3, 4, 3, 4).mean(axis=(3, 5))
        assert np.allclose(out.data, ref)
        # non-divisible extents still cover every input element
        out2 = T.adaptive_avgpool2d(t64(x[:, :, :11, :7]), 3, 2)
        assert out2.shape == (1, 2, 3, 2)

    def test_adaptive_avgpool_matches_loop_reference(self):
        x = np.random.default_rng(14).normal(size=(2, 3, 11, 7))
        for oh, ow in [(3, 2), (6, 6), (11, 1), (4, 7)]:
            out = T.adaptive_avgpool2d(t64(x), oh, ow)
            assert np.abs(out.data - adaptive_avgpool_loop(x, oh, ow)).max() <= 1e-12


# (window, stride, padding, axis the error names) over a 4x5 input
BAD_GEOMETRY = {
    "empty-window": ((0, 2), (1, 1), (0, 0), "height"),
    "zero-stride": ((2, 2), (1, 0), (0, 0), "width"),
    "negative-padding": ((2, 2), (1, 1), (-1, 0), "height"),
    "window-past-padded-extent": ((2, 6), (1, 1), (0, 0), "width"),
}


def _kernel(cin: int, window) -> np.ndarray:
    return np.random.default_rng(23).normal(size=(2, cin) + tuple(window))


def _windowed(op: str, x, window, stride, padding):
    """``op`` ("conv2d", "maxpool2d" or "avgpool2d") over ``x`` with the given window."""
    if op == "conv2d":
        return T.conv2d(x, t64(_kernel(x.shape[1], window)), stride=stride, padding=padding)
    return getattr(T, op)(x, window, stride, padding=padding)


class TestWindowGeometry:
    @pytest.mark.parametrize("case", BAD_GEOMETRY)
    @pytest.mark.parametrize("op", ["conv2d", "maxpool2d", "avgpool2d"])
    def test_bad_geometry_names_op_and_axis(self, op, case):
        window, stride, padding, axis = BAD_GEOMETRY[case]
        with pytest.raises(ShapeError, match=rf"^{op}: .*along {axis}"):
            _windowed(op, t64(np.ones((1, 1, 4, 5))), window, stride, padding)

    @pytest.mark.parametrize("case", BAD_GEOMETRY)
    def test_shape_inference_refuses_conv_and_pool_alike(self, case):
        (wh, ww), (sh, sw), (ph, pw), axis = BAD_GEOMETRY[case]
        geometry = dict(stride_h=sh, stride_w=sw, pad_h=ph, pad_w=pw)
        layers = {
            "conv": dict(cin=1, cout=1, kh=wh, kw=ww, **geometry),
            "maxpool": dict(window_h=wh, window_w=ww, **geometry),
        }
        messages = []
        for kind, attrs in layers.items():
            graph = M.GraphDescription(
                layers=[M.Layer("input", "input", (), {"channels": 1}),
                        M.Layer("bad", kind, ("input",), attrs)],
                taps={"output": "bad"},
            )
            with pytest.raises(ShapeError, match=f"^bad: .*along {axis}") as err:
                M.infer_shapes(graph, (1, 4, 5))
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("window, padding, axis", [
        ((3, 3), (2, 1), "height"), ((1, 2), (0, 2), "width"), ((2, 1), (1, 1), "width"),
    ])
    def test_max_pooling_refuses_pad_over_half_the_window(self, window, padding, axis):
        # PyTorch's rule: a pad of the window or more leaves windows wholly in
        # the -inf padding, and any pad over half the window is refused.
        message = rf"max pooling pad \d exceeds half the window \d along {axis}"
        with pytest.raises(ShapeError, match=rf"^maxpool2d: {message}"):
            T.maxpool2d(t64(np.ones((1, 1, 4, 5))), window, 1, padding=padding)
        graph = M.GraphDescription(
            layers=[M.Layer("input", "input", (), {"channels": 1}),
                    M.Layer("pool", "maxpool", ("input",), dict(
                        window_h=window[0], window_w=window[1], stride_h=1, stride_w=1,
                        pad_h=padding[0], pad_w=padding[1]))],
            taps={"output": "pool"},
        )
        with pytest.raises(ShapeError, match=rf"^pool: {message}"):
            M.infer_shapes(graph, (1, 4, 5))
        T.avgpool2d(t64(np.ones((1, 1, 4, 5))), window, 1, padding=padding)

    @settings(max_examples=150, deadline=None)
    @given(
        extent=st.tuples(st.integers(1, 12), st.integers(1, 12)),
        window=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        padding=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    def test_one_rule_for_inference_and_execution(self, extent, window, stride, padding):
        x = np.random.default_rng(29).normal(size=(1, 2) + extent)
        for op in ("conv2d", "maxpool2d", "avgpool2d"):
            try:
                out = tuple(T.window_out(*geometry, "axis", max_pool=op == "maxpool2d")
                            for geometry in zip(extent, window, stride, padding))
            except ShapeError:
                with pytest.raises(ShapeError):
                    _windowed(op, t64(x), window, stride, padding)
                continue
            if op == "conv2d":
                ref = conv2d_loop(x, _kernel(2, window), stride, padding)
            else:
                ref = pool_loop(x, window, stride, padding, op[:3])
            assert ref.shape[2:] == out
            assert np.isfinite(ref).all()  # no max window lies wholly in the padding
            got = _windowed(op, t64(x), window, stride, padding)
            assert got.shape[2:] == out
            assert np.abs(got.data - ref).max() <= 1e-12


class TestBatchNorm:
    def test_identity_on_standardized_input(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(8, 3, 6, 6))
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        rm, rv = np.zeros(3), np.ones(3)
        out = T.batchnorm2d(t64(x), t64(np.ones(3)), t64(np.zeros(3)), rm, rv,
                            mode="train", eps=1e-8)
        assert np.abs(out.data - x).max() < 1e-5

    def test_zero_gamma_returns_beta(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(4, 2, 5, 5))
        rm, rv = np.zeros(2), np.ones(2)
        out = T.batchnorm2d(t64(x), t64(np.zeros(2)), t64(np.full(2, 2.5)), rm, rv)
        assert np.allclose(out.data, 2.5)

    def test_train_statistics_match_gamma_beta(self):
        rng = np.random.default_rng(19)
        x = rng.normal(2.0, 3.0, size=(16, 4, 8, 8))
        gamma = rng.uniform(0.5, 2.0, 4)
        beta = rng.uniform(-1.0, 1.0, 4)
        rm, rv = np.zeros(4), np.ones(4)
        out = T.batchnorm2d(t64(x), t64(gamma), t64(beta), rm, rv, mode="train", eps=1e-12)
        assert np.abs(out.data.mean(axis=(0, 2, 3)) - beta).max() < 1e-5
        assert np.abs(out.data.std(axis=(0, 2, 3)) - gamma).max() < 1e-5
        # running statistics moved toward the batch statistics
        assert np.abs(rm - 0.1 * x.mean(axis=(0, 2, 3))).max() < 1e-9

    def test_eval_uses_running_statistics(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=(2, 2, 4, 4))
        rm = np.array([1.0, -1.0])
        rv = np.array([4.0, 0.25])
        out = T.batchnorm2d(t64(x), t64(np.ones(2)), t64(np.zeros(2)), rm, rv,
                            mode="eval", eps=0.0)
        ref = (x - rm.reshape(1, 2, 1, 1)) / np.sqrt(rv).reshape(1, 2, 1, 1)
        assert np.abs(out.data - ref).max() < 1e-12

    def test_single_element_batch_guarded_by_eps(self):
        x = np.full((1, 1, 1, 1), 7.0)
        rm, rv = np.zeros(1), np.ones(1)
        out = T.batchnorm2d(t64(x), t64(np.ones(1)), t64(np.zeros(1)), rm, rv,
                            mode="train", eps=1e-3)
        assert np.isfinite(out.data).all()

    def test_wrong_gamma_length(self):
        rm, rv = np.zeros(3), np.ones(3)
        with pytest.raises(ShapeError, match="dim 1"):
            T.batchnorm2d(t64(np.ones((1, 3, 2, 2))), t64(np.ones(2)), t64(np.zeros(3)), rm, rv)


class TestActivations:
    def test_relu_values(self):
        out = T.relu(t64([-1.0, 0.0, 3.0]))
        assert out.data.tolist() == [0.0, 0.0, 3.0]

    def test_sigmoid_at_zero(self):
        assert T.sigmoid(t64([0.0])).data[0] == 0.5

    def test_sigmoid_range(self):
        out = T.sigmoid(t64(np.linspace(-30, 30, 101)))
        assert np.all(out.data > 0) and np.all(out.data < 1)


class TestScalarOperands:
    def test_number_takes_the_tensor_dtype(self):
        t = T.Tensor(np.ones((2, 3), np.float32))
        for out in (T.add(t, 1e-6), T.add(1e-6, t), T.sub(t, 1.0), T.sub(1.0, t),
                    T.mul(t, 0.5), T.mul(-1.0, t), T.div(t, 2.0), T.div(2.0, t)):
            assert out.dtype == np.float32


class TestResampling:
    def test_factor_one_identity(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(1, 2, 4, 4))
        for method in ("bilinear", "nearest"):
            assert np.allclose(T.upsample(t64(x), 1, method).data, x)

    def test_constant_preserved(self):
        x = np.full((1, 1, 3, 3), 0.75)
        for method in ("bilinear", "nearest"):
            out = T.upsample(t64(x), 3, method)
            assert np.abs(out.data - 0.75).max() < 1e-12

    def test_nearest_factor_2_replicates(self):
        x = t64([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = T.upsample(x, 2, "nearest").data[0, 0]
        expected = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=float)
        assert np.array_equal(out, expected)

    def test_bilinear_matches_loop_reference(self):
        rng = np.random.default_rng(29)
        x = rng.normal(size=(2, 3, 5, 7))
        for oh, ow in [(10, 14), (7, 9), (5, 7), (13, 4)]:
            ref = bilinear_loop(x, oh, ow)
            out = T.interpolate(t64(x), oh, ow, "bilinear")
            assert np.abs(out.data - ref).max() < 1e-9

    def test_nearest_matches_loop_reference(self):
        rng = np.random.default_rng(31)
        for (h, w), (oh, ow) in [((5, 4), (7, 9)), ((7, 9), (3, 4)), ((6, 5), (6, 13))]:
            x = rng.normal(size=(2, 3, h, w))
            out = T.interpolate(t64(x), oh, ow, "nearest")
            assert np.abs(out.data - nearest_loop(x, oh, ow)).max() <= 1e-12

    @settings(max_examples=150, deadline=None)
    @given(
        method=st.sampled_from(["bilinear", "nearest", "adaptive"]),
        h=st.integers(1, 12), w=st.integers(1, 12),
        oh=st.integers(1, 12), ow=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_backward_is_the_adjoint(self, method, h, w, oh, ow, seed):
        # <R x, g> == <x, R^T g> for the linear map R of each resampling op
        if method == "adaptive":  # pools onto at most the input's extent
            h, oh = max(h, oh), min(h, oh)
            w, ow = max(w, ow), min(w, ow)
        rng = np.random.default_rng(seed)
        x = t64(rng.normal(size=(2, 3, h, w)), grad=True)
        if method == "adaptive":
            out = T.adaptive_avgpool2d(x, oh, ow)
        else:
            out = T.interpolate(x, oh, ow, method)
        g = rng.normal(size=out.shape)
        out.backward(g)
        lhs, rhs = (out.data * g).sum(), (x.data * x.grad).sum()
        assert abs(lhs - rhs) <= 1e-12 * np.abs(out.data * g).sum()

    def test_factor_zero_rejected(self):
        with pytest.raises(ShapeError, match="factor"):
            T.upsample(t64(np.ones((1, 1, 2, 2))), 0)


class TestChannelOps:
    def test_concat_single_input_identity(self):
        x = np.arange(8.0).reshape(1, 2, 2, 2)
        out = T.concat_channels([t64(x)])
        assert np.array_equal(out.data, x)

    def test_channel_sum_of_identical_channels(self):
        x = np.full((1, 5, 3, 3), 2.0)
        out = T.channel_sum(t64(x))
        assert out.shape == (1, 1, 3, 3)
        assert np.all(out.data == 10.0)

    def test_concat_then_sum_is_linear(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(2, 3, 4, 4))
        b = rng.normal(size=(2, 5, 4, 4))
        lhs = T.channel_sum(T.concat_channels([t64(a), t64(b)])).data
        rhs = T.channel_sum(t64(a)).data + T.channel_sum(t64(b)).data
        assert np.abs(lhs - rhs).max() < 1e-6

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="dim 2"):
            T.concat_channels([t64(np.ones((1, 1, 4, 4))), t64(np.ones((1, 1, 5, 4)))])


class TestDeterminism:
    def test_forward_is_bit_identical(self):
        def run():
            rng = np.random.default_rng(99)
            x = T.Tensor(rng.normal(size=(2, 3, 8, 8)).astype(np.float32))
            w = T.Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
            out = T.maxpool2d(T.relu(T.conv2d(x, w, padding=1)), 2, 2)
            return out.data.tobytes()

        assert run() == run()
