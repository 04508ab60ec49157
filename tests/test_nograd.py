"""The no-grad path of conv2d, pooling and eval batch norm, and conv2d's bands.

An op records its backward exactly when one of its operands requires grad;
otherwise it keeps nothing for the reverse sweep. Every op runs one forward
either way, and each test runs it both ways on the same data: once on
operands that do not require grad and once on operands that do. A model
forward without ``requires_grad`` gives its parameters no grad, so no op in
the graph records anything, and its result refuses ``backward``.

conv2d fills a fixed-size column buffer one band of output rows at a time,
and its backward fills each band's columns again; a 1x1 stride-1 conv's band
is a whole sample, whose columns are a view of its padded input. Both
outputs are held to the loop convolution of conftest. A conv over several
bands, with the buffer monkeypatched down to two output rows, is held to the
same conv in one band, forward and backward: each band is its own GEMM, and
the BLAS may block a narrower GEMM differently, so these comparisons use the
float32 and float64 tolerances fixed for inference (1e-5 and 1e-12 of the
largest magnitude).

A recorded pooling op holds its output and no padded copy of its input
between the passes. Pooling and batch norm are held to an independent reference: the loop
pooling of conftest, bit for bit for max pooling and within 1e-6 of the
input's largest magnitude for average pooling, whose float32 sums round; and
the batch-norm formula written out in numpy, bit for bit.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conv2d_loop, pool_loop
from icc import model as M
from icc import tensor as T
from icc.errors import NumericError

DTYPES = (np.float32, np.float64)


def both_paths(op, arrays, **kw):
    """(no-grad output, grad-path output) of ``op`` on Tensors of ``arrays``."""
    fast = op(*[T.Tensor(a) for a in arrays], **kw)
    slow = op(*[T.Tensor(a, requires_grad=True) for a in arrays], **kw)
    assert slow._parents and slow._backward is not None
    return fast, slow


def assert_unrecorded(t: T.Tensor):
    assert t._parents == () and t._backward is None and not t.requires_grad


def conv_case(rng, dtype, k, bias, cin=5, cout=7, h=13, w=11):
    arrays = [rng.standard_normal((2, cin, h, w)), rng.standard_normal((cout, cin) + k)]
    if bias:
        arrays.append(rng.standard_normal(cout))
    return [a.astype(dtype) for a in arrays]


def conv(x, w, b=None, **kw):
    return T.conv2d(x, w, bias=b, **kw)


def tolerance(dtype):
    return 1e-5 if dtype == np.float32 else 1e-12


class TestConv2d:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("padding", [(0, 0), (1, 2)])
    @pytest.mark.parametrize("stride", [(1, 1), (2, 2), (1, 2)])
    @pytest.mark.parametrize("k", [(1, 1), (3, 3), (3, 1)])
    def test_one_band_is_bit_identical(self, k, stride, padding, bias, dtype):
        arrays = conv_case(np.random.default_rng(3), dtype, k, bias)
        fast, slow = both_paths(conv, arrays, stride=stride, padding=padding)
        assert_unrecorded(fast)
        assert fast.dtype == slow.dtype == dtype
        np.testing.assert_array_equal(fast.data, slow.data)
        ref = conv2d_loop(*arrays[:2], stride, padding, *arrays[2:])
        assert np.abs(fast.data - ref).max() <= tolerance(dtype) * np.abs(ref).max()

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("k, stride", [
        ((3, 3), (1, 1)), ((3, 3), (2, 2)), ((3, 3), (1, 2)),
        ((1, 1), (2, 2)), ((1, 1), (1, 2)), ((1, 1), (1, 1)),
    ])
    def test_bands_match_grad_path(self, k, stride, dtype, monkeypatch):
        arrays = conv_case(np.random.default_rng(4), dtype, k, True, cin=6, h=29, w=17)
        # "same" padding (none for a 1x1 kernel), then more than that
        for padding in ((k[0] // 2, k[1] // 2), (k[0] // 2 + 1, k[1] // 2 + 2)):
            _, one_band = both_paths(conv, arrays, stride=stride, padding=padding)
            ho, wo = one_band.shape[2:]
            # two output rows per band: a call crosses 3 or more band boundaries
            row_bytes = 6 * k[0] * k[1] * wo * np.dtype(dtype).itemsize
            with monkeypatch.context() as m:
                m.setattr(T, "_COL_BUFFER_BYTES", 2 * row_bytes)
                assert -(-ho // 2) - 1 >= 3
                fast, slow = both_paths(conv, arrays, stride=stride, padding=padding)
            assert_unrecorded(fast)
            np.testing.assert_array_equal(fast.data, slow.data)
            scale = np.abs(one_band.data).max()
            assert np.abs(fast.data - one_band.data).max() <= tolerance(dtype) * scale

    @pytest.mark.parametrize("grads", ["w", "x", "xwb"])
    @pytest.mark.parametrize("k, stride, padding", [
        ((3, 3), (1, 1), (1, 1)), ((3, 3), (2, 2), (1, 1)),
        ((1, 7), (1, 1), (0, 3)), ((7, 1), (1, 1), (3, 0)),
        # a strided 1x1 conv goes through bands too
        ((1, 1), (2, 2), (0, 0)),
        ((1, 1), (1, 1), (0, 0)), ((1, 1), (1, 1), (1, 2)),
    ])
    def test_banded_backward_matches_one_band(self, k, stride, padding, grads, monkeypatch):
        arrays = conv_case(np.random.default_rng(7), np.float64, k, True, cin=6, h=29, w=17)

        def gradients():
            x, w, b = (T.Tensor(a, requires_grad=name in grads)
                       for a, name in zip(arrays, "xwb"))
            out = T.conv2d(x, w, stride=stride, padding=padding, bias=b)
            out.backward(np.random.default_rng(8).standard_normal(out.shape))
            return out.shape, {name: t.grad for name, t in zip("xwb", (x, w, b)) if name in grads}

        (_, _, ho, wo), one_band = gradients()
        # two output rows per band: the backward crosses 3 or more band boundaries
        monkeypatch.setattr(T, "_COL_BUFFER_BYTES", 2 * 6 * k[0] * k[1] * wo * 8)
        assert -(-ho // 2) - 1 >= 3
        _, banded = gradients()
        assert banded.keys() == one_band.keys() == set(grads)
        for name, g in one_band.items():
            assert np.abs(banded[name] - g).max() <= 1e-12 * np.abs(g).max(), name

    @pytest.mark.parametrize("padding", [(0, 0), (1, 2)])
    def test_pointwise_columns_are_views_of_the_padded_input(self, padding):
        x = np.random.default_rng(10).standard_normal((2, 5, 13, 11))
        xp = T._padded(x, *padding)
        ho, wo = xp.shape[2:]
        bands = list(T._conv_bands(xp, 1, 1, 1, 1, ho, wo))
        assert [band[:3] for band in bands] == [(0, 0, ho), (1, 0, ho)]
        for s, _, _, cols in bands:
            assert np.shares_memory(cols, xp[s])
            np.testing.assert_array_equal(cols, xp[s].reshape(5, ho * wo))

    def test_grad_enabled_without_grad_operands_records_nothing(self):
        x, w = conv_case(np.random.default_rng(5), np.float32, (3, 3), False)
        out = T.conv2d(T.Tensor(x), T.Tensor(w), padding=1)
        assert_unrecorded(out)
        rec = T.conv2d(T.Tensor(x), T.Tensor(w, requires_grad=True), padding=1)
        np.testing.assert_array_equal(out.data, rec.data)
        assert rec._backward is not None


def test_mixed_dtypes_promote_as_on_the_grad_path():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 2, 6, 5)).astype(np.float32)
    w = rng.standard_normal((3, 2, 3, 3))
    fast, slow = both_paths(conv, [x, w], padding=1)
    assert fast.dtype == slow.dtype == np.float64
    np.testing.assert_array_equal(fast.data, slow.data)
    g = 0.5 + rng.random(2)

    def bn(x, g, b):
        return T.batchnorm2d(x, g, b, np.zeros(2), np.ones(2), mode="eval")

    fast, slow = both_paths(bn, [x, g, g])
    assert fast.dtype == slow.dtype == np.float64
    np.testing.assert_array_equal(fast.data, slow.data)


POOL_CASES = [
    ((2, 2), (2, 2), (0, 0)),  # VGG
    ((3, 3), (2, 2), (1, 1)),
    ((3, 3), (1, 1), (1, 1)),
    ((2, 3), (1, 2), (1, 1)),
    ((5, 1), (3, 1), (2, 0)),
]


class TestPooling:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("window, stride, padding", POOL_CASES)
    def test_maxpool_is_bit_identical(self, window, stride, padding, dtype):
        x = np.random.default_rng(6).standard_normal((2, 3, 14, 11)).astype(dtype)
        fast, slow = both_paths(T.maxpool2d, [x], window=window, stride=stride, padding=padding)
        assert_unrecorded(fast)
        assert fast.dtype == slow.dtype == dtype
        ref = pool_loop(x, window, stride, padding, "max")
        np.testing.assert_array_equal(fast.data, ref)
        np.testing.assert_array_equal(slow.data, ref)

    @pytest.mark.parametrize("op", [T.maxpool2d, T.avgpool2d])
    def test_recorded_pooling_holds_only_its_output(self, op):
        # Both backwards pad again rather than keep the padded input, so
        # between the passes the op holds its output and no padded copy.
        x = T.Tensor(np.random.default_rng(8).standard_normal((4, 16, 64, 64)).astype(np.float32),
                     requires_grad=True)
        tracemalloc.start()
        try:
            out = op(x, 3, 2, padding=1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 1.1 * out.data.nbytes
        out.backward(np.ones(out.shape, np.float32))
        assert x.grad.shape == x.shape

    @settings(max_examples=60, deadline=None)
    @given(
        # up to 3x3: the worst-case float32 rounding of a 9-term sum stays
        # under the 1e-6 bound
        wh=st.integers(1, 3), ww=st.integers(1, 3),
        sh=st.integers(1, 3), sw=st.integers(1, 3),
        ph=st.integers(0, 2), pw=st.integers(0, 2),
        h=st.integers(4, 12), w=st.integers(4, 12),
        seed=st.integers(0, 2**16),
    )
    def test_avgpool_within_tolerance(self, wh, ww, sh, sw, ph, pw, h, w, seed):
        x = np.random.default_rng(seed).standard_normal((2, 2, h, w)).astype(np.float32)
        fast, slow = both_paths(
            T.avgpool2d, [x], window=(wh, ww), stride=(sh, sw), padding=(ph, pw)
        )
        assert_unrecorded(fast)
        assert fast.shape == slow.shape and fast.dtype == slow.dtype == np.float32
        ref = pool_loop(x, (wh, ww), (sh, sw), (ph, pw), "avg")
        for out in (fast, slow):
            assert np.abs(out.data - ref).max() <= 1e-6 * np.abs(x).max()


class TestBatchNorm:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_eval_is_bit_identical(self, dtype):
        rng = np.random.default_rng(8)
        c = 6
        x = rng.standard_normal((2, c, 9, 7)).astype(dtype)
        gamma = (0.5 + rng.random(c)).astype(dtype)
        beta = rng.standard_normal(c).astype(dtype)
        mean = rng.standard_normal(c).astype(dtype)
        var = (0.2 + rng.random(c)).astype(dtype)

        def bn(x, g, b):
            return T.batchnorm2d(x, g, b, mean, var, mode="eval")

        fast, slow = both_paths(bn, [x, gamma, beta])
        assert_unrecorded(fast)
        assert fast.dtype == slow.dtype == dtype

        def r(a):
            return a.reshape(1, c, 1, 1)

        ref = (x - r(mean)) * r(1.0 / np.sqrt(var + 1e-3)) * r(gamma) + r(beta)
        assert ref.dtype == dtype
        np.testing.assert_array_equal(fast.data, ref)
        np.testing.assert_array_equal(slow.data, ref)


class TestFiniteCheck:
    def test_overflowing_sum_of_finite_values_passes(self):
        big = np.array([3e38, 3e38], dtype=np.float32)
        T._check_finite(big, "op")
        x = big.reshape(1, 1, 1, 2)
        for grad in (False, True):
            out = T.maxpool2d(T.Tensor(x, requires_grad=grad), 1)
            np.testing.assert_array_equal(out.data, x)

    @pytest.mark.parametrize("op, a, b", [
        ("div", 1.0, 0.0), ("div", 0.0, 0.0), ("mul", 3e38, 10.0), ("sub", -3e38, 3e38),
    ])
    def test_elementwise_non_finite_raises_without_a_warning(self, op, a, b):
        x, y = (T.Tensor(np.full((2, 2), v, np.float32)) for v in (a, b))
        with pytest.raises(NumericError, match=f"^{op}: "):
            getattr(T, op)(x, y)

    OPS = {
        "conv2d": lambda x, grad: T.conv2d(
            x, T.Tensor(np.ones((2, 3, 3, 3), np.float32), requires_grad=grad), padding=1),
        # a 1x1 window, so that a -inf is not dropped by the max over its window
        "maxpool2d": lambda x, grad: T.maxpool2d(x, 1),
        "avgpool2d": lambda x, grad: T.avgpool2d(x, 3, stride=1, padding=1),
        "batchnorm2d": lambda x, grad: T.batchnorm2d(
            x, T.Tensor(np.ones(3, np.float32), requires_grad=grad),
            T.Tensor(np.zeros(3, np.float32), requires_grad=grad),
            np.zeros(3, np.float32), np.ones(3, np.float32), mode="eval"),
    }

    @pytest.mark.parametrize("grad", [False, True], ids=["no-grad", "grad"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("op", sorted(OPS))
    @settings(max_examples=10, deadline=None)
    @given(position=st.integers(0, 2 * 3 * 5 * 6 - 1))
    def test_non_finite_raises_naming_the_op(self, op, value, grad, position):
        x = np.random.default_rng(position).standard_normal((2, 3, 5, 6)).astype(np.float32)
        x.reshape(-1)[position] = value
        with pytest.raises(NumericError, match=f"^{op}: "):
            self.OPS[op](T.Tensor(x, requires_grad=grad), grad)


class TestForward:
    def run(self, requires_grad):
        graph = M.build_icc(M.ModelConfig(width_scale=0.25))
        graph.taps.update({l.name: l.name for l in graph.layers})
        x = np.random.default_rng(10).uniform(0, 1, (2, 3, 64, 64))
        return M.forward(graph, M.init_parameters(graph, 0), x, requires_grad=requires_grad)

    def test_without_requires_grad_nothing_is_recorded(self):
        run = self.run(False)
        assert len(run.taps) > 100
        for t in [run.output, *run.taps.values()]:
            assert_unrecorded(t)
        with pytest.raises(RuntimeError, match="requires_grad=True"):
            run.backward(np.ones(run.output.shape))

    def test_with_requires_grad_the_output_is_recorded(self):
        run = self.run(True)
        assert run.output._parents and run.output._backward is not None
        grads = run.backward(np.ones(run.output.shape))
        assert grads.keys() == run.param_tensors.keys()
        assert any(np.any(g != 0) for g in grads.values())
