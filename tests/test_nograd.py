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

A model forward plans its buffers: a layer that a concat reads once writes
into its channel slice of the concat's output, and an elementwise or
batch-norm layer writes over a dead input. Without grad its output and taps
are held to the recorded forward bit for bit, Feature1 to a view of
context.out's buffer and Feature2 to inception_a3's concat buffer. A concat
read only by a pointwise conv is not built, nor an upsample that only it
reads; the conv's sum of per-part products is held to one product over the
built concat within the inference tolerance, forward and gradients, and its
no-grad peak memory to a stated fraction of the built one's. The recorded
forward plans too, under one rule: no op writes over data that a recorded
backward reads. Its output, taps, running statistics and parameter
gradients are held bit for bit to the same forward with the plan switched
off, and its memory held after the forward to at most 0.8x of that
forward's. An op's ``out=`` is accepted
under grad, with the values and gradients of a fresh output, unless it
shares memory with an operand that a recorded backward reads: each in-place
layer kind accepts or refuses its own operand as ``KINDS`` states.

An op's output is checked for NaN and Inf unless its operands prove it
finite: relu, sigmoid, max pooling and channel concat skip the check when
every operand was made by an op (is verified), which is counted through the
calls to ``_check_finite``, and raise on a caller-built operand exactly as
a check of their output does. Batch norm and max pooling run over
cache-sized blocks, and conv2d adds its bias to each band and checks it
there; with ``_BLOCK_BYTES`` monkeypatched so that blocks split channels,
hold one sample or span several, and conv bands of 1-4 rows, their outputs
are held bit for bit to the whole-map formulas, and a value planted in the
last block or band still raises. The separable linear maps (average and
adaptive pooling, resizing) run on the same blocks and scan each one; their
W-axis GEMM is split by block, so they are held to a float64 Rh·x·Rwᵀ within
the rounding bound of their dtype, and an upsample holds no whole-map
intermediate.

A recorded pooling op holds its output and no padded copy of its input
between the passes. Pooling and batch norm are held to an independent reference: the loop
pooling of conftest, bit for bit for max pooling and within 1e-6 of the
input's largest magnitude for average pooling, whose float32 sums round; and
the batch-norm formula written out in numpy, bit for bit.
"""

import gc
import tracemalloc
import warnings

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

    def test_pointwise_columns_are_views_of_the_input(self):
        x = np.random.default_rng(10).standard_normal((2, 5, 13, 11))
        bands = list(T._conv_bands(x, 1, 1, 1, 1, 0, 0, 13, 11))
        assert [band[:3] for band in bands] == [(0, 0, 13), (1, 0, 13)]
        for s, _, _, cols in bands:
            assert np.shares_memory(cols, x[s])
            np.testing.assert_array_equal(cols, x[s].reshape(5, 13 * 11))

    @pytest.mark.parametrize("band_rows", [15, 4])
    def test_padded_pointwise_bands_read_zeros_at_the_pads(self, band_rows, monkeypatch):
        x = np.random.default_rng(10).standard_normal((2, 5, 13, 11))
        ph, pw, ho, wo = 1, 2, 15, 15
        xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        monkeypatch.setattr(T, "_COL_BUFFER_BYTES", band_rows * 5 * wo * x.itemsize)
        starts = list(range(0, ho, band_rows))
        bands = [(s, r0, r, cols.copy())
                 for s, r0, r, cols in T._conv_bands(x, 1, 1, 1, 1, ph, pw, ho, wo)]
        assert [band[:2] for band in bands] == [(s, r0) for s in range(2) for r0 in starts]
        for s, r0, r, cols in bands:
            np.testing.assert_array_equal(cols, xp[s, :, r0 : r0 + r].reshape(5, r * wo))

    def test_grad_enabled_without_grad_operands_records_nothing(self):
        x, w = conv_case(np.random.default_rng(5), np.float32, (3, 3), False)
        out = T.conv2d(T.Tensor(x), T.Tensor(w), padding=1)
        assert_unrecorded(out)
        rec = T.conv2d(T.Tensor(x), T.Tensor(w, requires_grad=True), padding=1)
        np.testing.assert_array_equal(out.data, rec.data)
        assert rec._backward is not None


def test_mixed_dtypes_are_refused():
    # Each op, with each tensor operand in turn holding the other dtype, in
    # both orders: a ValueError naming the op and both dtypes, raised before
    # anything is written to ``out`` or the running statistics.
    rng = np.random.default_rng(9)
    x, stats = (2, 3, 6, 5), [np.zeros(3), np.ones(3)]
    ops = {  # op: (call, shapes of its tensor operands, shape of its output)
        **{op: (lambda a, b, out, op=op: getattr(T, op)(a, b, out=out), [x, x], x)
           for op in ("add", "sub", "mul", "div")},
        "conv2d": (lambda x, w, b, out: T.conv2d(x, w, padding=1, bias=b),
                   [x, (4, 3, 3, 3), (4,)], x),
        "batchnorm2d": (lambda x, g, b, out: T.batchnorm2d(x, g, b, *stats, mode="train", out=out),
                        [x, (3,), (3,)], x),
        "concat_channels": (lambda a, b, out: T.concat_channels([a, b], out=out), [x, x],
                            (2, 6, 6, 5)),
    }
    for op, (fn, shapes, out_shape) in ops.items():
        for first, other in ((np.float32, np.float64), (np.float64, np.float32)):
            for odd in range(len(shapes)):
                operands = [T.Tensor((0.5 + rng.random(shape)).astype(other if i == odd else first))
                            for i, shape in enumerate(shapes)]
                out = np.full(out_shape, 7.0, first)
                with pytest.raises(ValueError, match=f"^{op}: operands mix "
                                   "(float32 and float64|float64 and float32)$"):
                    fn(*operands, out=out)
                assert (out == 7.0).all(), op
                assert (stats[0] == 0.0).all() and (stats[1] == 1.0).all()
    # a number takes the dtype of the Tensor beside it
    for dtype in DTYPES:
        assert T.add(T.Tensor(np.ones(3, dtype)), 1.5).dtype == dtype
        assert T.mul(0.5, T.Tensor(np.ones(3, dtype))).dtype == dtype
    # a Tensor holds float32 or float64 data only
    for data in (np.arange(3), np.ones(3, np.float16), np.ones(3, bool), [1, 2]):
        with pytest.raises(ValueError, match="^Tensor data must be float32 or float64, not "):
            T.Tensor(data)


ARITHMETIC = {"add": np.add, "sub": np.subtract, "mul": np.multiply, "div": np.divide}


@pytest.mark.parametrize("op", sorted(ARITHMETIC))
def test_a_number_beside_a_list(op):
    # the list becomes a Tensor before the number reads its dtype
    for a, b in ((1.5, [1.0, 2.0]), ([1.0, 2.0], 3)):
        out = getattr(T, op)(a, b)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out.data, ARITHMETIC[op](a, np.asarray(b, float)))


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
        # Max pooling's backward reads the unpadded input through clipped
        # views and average pooling's is a matmul by the adjoint, so between
        # the passes the op holds its output and no padded copy.
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


@pytest.fixture
def scanned(monkeypatch):
    """The op names ``_check_finite`` is called with, in order."""
    ops = []
    check = T._check_finite
    monkeypatch.setattr(T, "_check_finite", lambda data, op: (ops.append(op), check(data, op)))
    return ops


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
        "interpolate": lambda x, grad: T.interpolate(x, 7, 4),
        "interpolate-nearest": lambda x, grad: T.interpolate(x, 3, 8, "nearest"),
        "upsample": lambda x, grad: T.upsample(x, 2),
        "adaptive_avgpool2d": lambda x, grad: T.adaptive_avgpool2d(x, 2, 3),
    }
    # the op that names itself in the error, where it is not the case's key
    RAISED_AS = {"interpolate-nearest": "interpolate", "upsample": "interpolate"}

    @pytest.mark.parametrize("grad", [False, True], ids=["no-grad", "grad"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("op", sorted(OPS))
    @settings(max_examples=10, deadline=None)
    @given(position=st.integers(0, 2 * 3 * 5 * 6 - 1))
    def test_non_finite_raises_naming_the_op(self, op, value, grad, position):
        x = np.random.default_rng(position).standard_normal((2, 3, 5, 6)).astype(np.float32)
        x.reshape(-1)[position] = value
        with pytest.raises(NumericError, match=f"^{self.RAISED_AS.get(op, op)}: "):
            self.OPS[op](T.Tensor(x, requires_grad=grad), grad)


    # Each op on a caller-built Tensor holding one non-finite value raises
    # exactly where it did when every op scanned its output: relu of -inf,
    # sigmoid of either infinity and a 2x2 max pool of -inf are finite.
    VERIFIED_OPS = {
        "relu": (lambda x: T.relu(x), {"nan", "+inf"}),
        "sigmoid": (lambda x: T.sigmoid(x), {"nan"}),
        "maxpool2d": (lambda x: T.maxpool2d(x, 2), {"nan", "+inf"}),
        "concat_channels": (lambda x: T.concat_channels([T.relu(T.Tensor(np.ones((2, 1, 4, 6), np.float32))), x]),
                            {"nan", "+inf", "-inf"}),
    }

    @pytest.mark.parametrize("grad", [False, True], ids=["no-grad", "grad"])
    @pytest.mark.parametrize("value", ["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("op", sorted(VERIFIED_OPS))
    def test_unverified_operand_is_scanned(self, op, value, grad):
        fn, raising = self.VERIFIED_OPS[op]
        x = np.random.default_rng(3).standard_normal((2, 3, 4, 6)).astype(np.float32)
        x[1, 2, 3, 5] = float(value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if value in raising:
                with pytest.raises(NumericError, match=f"^{op}: non-finite values in output$"):
                    fn(T.Tensor(x, requires_grad=grad))
            else:
                assert np.isfinite(fn(T.Tensor(x, requires_grad=grad)).data).all()

    def test_verified_operands_skip_the_scan(self, scanned):
        rng = np.random.default_rng(4)
        x = T.Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
        w = T.Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32))
        assert not x._verified
        y = T.conv2d(x, w, padding=1)
        assert scanned == ["conv2d"] * 2 and y._verified  # one scan per band, a sample each
        del scanned[:]
        chain = T.concat_channels([T.maxpool2d(T.relu(y), 2), T.sigmoid(T.maxpool2d(y, 2))])
        assert scanned == [] and chain._verified
        # a caller-built operand anywhere brings the scan back
        T.concat_channels([chain, T.Tensor(chain.data)])
        T.relu(T.Tensor(y.data))
        assert scanned == ["concat_channels", "relu"]

    def test_overflowing_sum_passes_the_verified_ops(self):
        big = T.Tensor(np.full((1, 1, 1, 2), 3e38, np.float32))
        for out in (T.relu(big), T.concat_channels([big, big]), T.relu(T.relu(big))):
            assert out._verified and (out.data == np.float32(3e38)).all()


def _block_bytes(sample_bytes, channel_bytes, layout):
    """A block size under which ``_blocks`` splits channels, holds one sample
    or spans several samples."""
    return {"channels": max(1, 2 * channel_bytes - 1), "sample": sample_bytes,
            "samples": 2 * sample_bytes + 1}[layout]


class TestBlocks:
    """Per-element passes over cache-sized blocks give the whole-map values."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 5), c=st.integers(1, 7), h=st.integers(1, 6), w=st.integers(1, 6),
           itemsize=st.sampled_from([4, 8]), block=st.integers(1, 2000))
    def test_blocks_tile_the_map(self, n, c, h, w, itemsize, block):
        seen = np.zeros((n, c, h, w), int)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_BLOCK_BYTES", block)
            blocks = T._blocks((n, c, h, w), itemsize)
        for samples, chans in blocks:
            seen[samples, chans] += 1
            part = seen[samples, chans]
            if c * h * w * itemsize <= block:  # whole samples
                assert part.shape[1] == c and part.size * itemsize <= block
            else:  # a channel group of one sample
                assert part.shape[0] == 1 and (part.shape[1] == 1 or part.size * itemsize <= block)
        assert (seen == 1).all()

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4), c=st.integers(1, 5), h=st.integers(1, 7), w=st.integers(1, 7),
           layout=st.sampled_from(["channels", "sample", "samples"]),
           dtype=st.sampled_from(DTYPES), mode=st.sampled_from(["train", "eval"]),
           seed=st.integers(0, 2**16))
    def test_batchnorm_matches_the_whole_map(self, n, c, h, w, layout, dtype, mode, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, c, h, w)).astype(dtype)
        gamma = (0.5 + rng.random(c)).astype(dtype)
        beta = rng.standard_normal(c).astype(dtype)
        mean, var = rng.standard_normal(c).astype(dtype), (0.2 + rng.random(c)).astype(dtype)

        def r(a):
            return a.reshape(1, c, 1, 1)

        if mode == "train":
            m, v = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
            count = n * h * w
            unbiased = v * count / (count - 1) if count > 1 else v
            want_mean, want_var = mean * (1.0 - 0.1) + 0.1 * m, var * (1.0 - 0.1) + 0.1 * unbiased
        else:
            m, v, want_mean, want_var = mean, var, mean, var
        ref = (x - r(m)) * r(1.0 / np.sqrt(v + 1e-3)) * r(gamma) + r(beta)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_BLOCK_BYTES", _block_bytes(x[0].nbytes, h * w * x.itemsize, layout))
            out = T.batchnorm2d(T.Tensor(x), T.Tensor(gamma), T.Tensor(beta), mean, var, mode=mode)
        assert out.dtype == ref.dtype
        np.testing.assert_array_equal(out.data, ref)
        np.testing.assert_array_equal(mean, want_mean)
        np.testing.assert_array_equal(var, want_var)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), c=st.integers(1, 4), h=st.integers(3, 9), w=st.integers(3, 9),
           wh=st.integers(1, 3), ww=st.integers(1, 3), sh=st.integers(1, 2), sw=st.integers(1, 2),
           layout=st.sampled_from(["channels", "sample", "samples"]),
           dtype=st.sampled_from(DTYPES), seed=st.integers(0, 2**16))
    def test_maxpool_matches_the_whole_map(self, n, c, h, w, wh, ww, sh, sw, layout, dtype, seed):
        x = np.random.default_rng(seed).standard_normal((n, c, h, w)).astype(dtype)
        geometry = dict(window=(wh, ww), stride=(sh, sw), padding=(wh // 2, ww // 2))
        whole = T.maxpool2d(T.Tensor(x), **geometry)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_BLOCK_BYTES", _block_bytes(x[0].nbytes, h * w * x.itemsize, layout))
            out = T.maxpool2d(T.Tensor(x), **geometry)
        np.testing.assert_array_equal(out.data, whole.data)
        np.testing.assert_array_equal(out.data, pool_loop(x, (wh, ww), (sh, sw),
                                                          geometry["padding"], "max"))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), cin=st.integers(1, 3), cout=st.integers(1, 4),
           h=st.integers(3, 9), w=st.integers(3, 9), k=st.sampled_from([1, 3]),
           stride=st.integers(1, 2), band_rows=st.integers(1, 4), bias=st.booleans(),
           dtype=st.sampled_from(DTYPES), seed=st.integers(0, 2**16))
    def test_conv_spans_match_the_whole_output(self, n, cin, cout, h, w, k, stride, band_rows,
                                               bias, dtype, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, cin, h, w)).astype(dtype)
        wt = rng.standard_normal((cout, cin, k, k)).astype(dtype)
        b = rng.standard_normal(cout).astype(dtype) if bias else None
        pad = k // 2
        ho, wo = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_COL_BUFFER_BYTES", band_rows * cin * k * k * wo * x.itemsize)
            # the same bands, without bias or scan, and the bias added whole
            whole = T._correlate(x, wt.reshape(cout, -1), k, k, stride, stride, pad, pad,
                                 ho, wo).reshape(n, cout, ho, wo)
            if b is not None:
                whole = whole + b.reshape(1, cout, 1, 1)
            out = T.conv2d(T.Tensor(x), T.Tensor(wt), stride=stride, padding=pad,
                           bias=None if b is None else T.Tensor(b))
        assert out.dtype == whole.dtype
        np.testing.assert_array_equal(out.data, whole)

    ONES = T.Tensor(np.ones(3, np.float32))
    LAST_BLOCK_OPS = {
        "conv2d": lambda x: T.conv2d(x, T.Tensor(np.ones((3, 3, 3, 3), np.float32)), padding=1,
                                     bias=TestBlocks.ONES),
        "batchnorm2d-train": lambda x: T.batchnorm2d(
            x, TestBlocks.ONES, TestBlocks.ONES, np.zeros(3, np.float32), np.ones(3, np.float32),
            mode="train"),
        "batchnorm2d-eval": lambda x: T.batchnorm2d(
            x, TestBlocks.ONES, TestBlocks.ONES, np.zeros(3, np.float32), np.ones(3, np.float32),
            mode="eval"),
        "avgpool2d": lambda x: T.avgpool2d(x, 3, stride=1, padding=1),
        "adaptive_avgpool2d": lambda x: T.adaptive_avgpool2d(x, 2, 3),
        "interpolate": lambda x: T.interpolate(x, 7, 4),
    }

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("op", sorted(LAST_BLOCK_OPS))
    def test_non_finite_in_the_last_block_raises(self, op, value, scanned, monkeypatch):
        monkeypatch.setattr(T, "_BLOCK_BYTES", 64)
        monkeypatch.setattr(T, "_COL_BUFFER_BYTES", 3 * 9 * 6 * 4)  # bands of one row
        x = np.random.default_rng(5).standard_normal((2, 3, 5, 6)).astype(np.float32)
        x[-1, -1, -1, -1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=f"^{op.split('-')[0]}: non-finite values"):
                self.LAST_BLOCK_OPS[op](T.Tensor(x))
        # every block before the last passed its scan
        assert len(scanned) > 2 and len(set(scanned)) == 1
        if op in ("avgpool2d", "adaptive_avgpool2d", "interpolate"):  # and no whole-map scan
            assert len(scanned) == len(T._blocks(x.shape, x.itemsize))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), c=st.integers(1, 4), h=st.integers(1, 7), w=st.integers(1, 7),
           ho=st.integers(1, 9), wo=st.integers(1, 9),
           layout=st.sampled_from(["channels", "sample", "samples"]),
           dtype=st.sampled_from(DTYPES), seed=st.integers(0, 2**16))
    def test_separable_matches_the_whole_map(self, n, c, h, w, ho, wo, layout, dtype, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n, c, h, w)).astype(dtype)
        rh, rw = rng.standard_normal((ho, h)).astype(dtype), rng.standard_normal((wo, w)).astype(dtype)
        ref = rh.astype(np.float64) @ a.astype(np.float64) @ rw.T.astype(np.float64)
        # a bound on both sums' rounding in ``dtype``, element by element
        bound = 2 * (h + w) * np.finfo(dtype).eps * (np.abs(rh) @ np.abs(a) @ np.abs(rw).T)
        # a contiguous ``out`` and a channel slice of a larger buffer
        whole, buf = np.empty((n, c, ho, wo), dtype), np.full((n, c + 3, ho, wo), np.nan, dtype)
        sliced = buf[:, 2 : 2 + c]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(T, "_BLOCK_BYTES", _block_bytes(a[0].nbytes, h * w * a.itemsize, layout))
            fresh = T._separable(rh, rw, a)
            assert T._separable(rh, rw, a, whole) is whole
            assert T._separable(rh, rw, a, sliced) is sliced
        assert np.isnan(buf[:, :2]).all() and np.isnan(buf[:, 2 + c :]).all()
        for out in (fresh, whole, sliced):
            assert out.dtype == dtype
            assert (np.abs(out - ref) <= bound).all()
            np.testing.assert_array_equal(out, fresh)

    def test_separable_makes_no_whole_map_intermediate(self):
        # An upsample's output is 16 MiB; each 1 MiB block of the input makes
        # a 2 MiB product along H, freed as soon as its W-axis GEMM returns.
        x = T.Tensor(np.random.default_rng(6).standard_normal((1, 256, 64, 64)).astype(np.float32))
        tracemalloc.start()
        try:
            out = T.upsample(x, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.data.nbytes + (5 << 20)


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


HAND_GRAPH = """ICCGRAPH 1
ablation none
tap output top
tap gate s
tap placed ga
tap dying k4
layer input kind=input channels=3
layer a.conv kind=conv inputs=input cin=3 cout=4 kh=3 kw=3 stride_h=1 stride_w=1 pad_h=1 pad_w=1
layer a.bn kind=batchnorm inputs=a.conv channels=4
layer a.relu kind=relu inputs=a.bn
layer p kind=maxpool inputs=a.relu window_h=3 window_w=3 stride_h=1 stride_w=1 pad_h=1 pad_w=1
layer s kind=sigmoid inputs=p
layer c1 kind=concat inputs=p,a.relu,input
layer c2 kind=concat inputs=s,p,s
layer q kind=adaptive_avgpool inputs=c2 out_h=2 out_w=3
layer up kind=interpolate inputs=q match=input method=bilinear
layer e kind=scalar_add inputs=c2 value=0.5
layer f0 kind=div inputs=e,up
layer f kind=relu inputs=f0
layer ga kind=sigmoid inputs=input
layer gb kind=sigmoid inputs=input
layer gc kind=concat inputs=ga,gb
layer gd kind=scalar_add inputs=gc value=1
layer gs kind=channel_sum inputs=gd
layer ge kind=add inputs=ga,gb
layer z kind=scalar_add inputs=input value=-0.25
layer z2 kind=mul inputs=input,z
layer z3 kind=relu inputs=z2
layer k1 kind=sigmoid inputs=input
layer k2 kind=relu inputs=input
layer k3 kind=sub inputs=k1,k2
layer k4 kind=div inputs=k3,k1
layer top kind=concat inputs=c1,up,f,z3,gs,ge
"""


class TestBufferPlan:
    """The no-grad forward's buffer plan against the recorded forward."""

    @staticmethod
    def both(graph, params, x):
        fast = M.forward(graph, params, x)
        slow = M.forward(graph, params, x, requires_grad=True)
        assert slow.output._backward is not None
        assert fast.taps.keys() == slow.taps.keys() == graph.taps.keys()
        for tap in graph.taps:
            assert_unrecorded(fast.taps[tap])
            np.testing.assert_array_equal(fast.taps[tap].data, slow.taps[tap].data, err_msg=tap)
        return fast, slow

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("ablation", M.ABLATIONS, ids=["full", "no-context", "no-inception"])
    @pytest.mark.parametrize("width", [0.25, 1.0])
    def test_no_grad_forward_is_bit_identical(self, width, ablation, dtype):
        graph = M.build_icc(M.ModelConfig(width_scale=width, ablation=ablation))
        params = M.init_parameters(graph, 1, dtype)
        x = np.random.default_rng(2).uniform(0, 1, (2, 3, 64, 96)).astype(dtype)
        self.both(graph, params, x)

    def test_every_layer_tapped_is_bit_identical(self):
        # taps take no donation, and each placed tap is a view of its concat
        graph = M.build_icc(M.ModelConfig(width_scale=0.25))
        graph.taps.update({l.name: l.name for l in graph.layers})
        x = np.random.default_rng(3).uniform(0, 1, (1, 3, 96, 64))
        self.both(graph, M.init_parameters(graph, 4, np.float64), x)

    def test_caller_arrays_are_not_written(self):
        graph = M.build_icc(M.ModelConfig(width_scale=0.25))
        params = M.init_parameters(graph, 5, np.float32)
        x = np.random.default_rng(6).uniform(0, 1, (2, 3, 64, 96)).astype(np.float32)
        before = x.copy(), {k: v.copy() for k, v in params.items()}
        M.forward(graph, params, x)
        np.testing.assert_array_equal(x, before[0])
        for name, value in params.items():
            np.testing.assert_array_equal(value, before[1][name], err_msg=name)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_hand_written_graph(self, dtype):
        # p feeds two concats, c2 reads s twice, concat c1 lands inside top,
        # the input is read by a concat and as z2's first operand, so z2
        # writes over its second, z; gd, the last reader of gc, must not
        # write over ga and gb in gc's buffer: ge and the tap read them
        # afterwards; k3 writes over its second operand, k2, as k1 lives on,
        # and k4, the last reader of both its operands, over the first
        graph = M.GraphDescription.from_text(HAND_GRAPH)
        params = M.init_parameters(graph, 7, dtype)
        x = np.random.default_rng(8).standard_normal((2, 3, 10, 14)).astype(dtype)
        before = x.copy()
        fast, _ = self.both(graph, params, x)
        np.testing.assert_array_equal(x, before)
        assert fast.output.shape == (2, 42, 10, 14)
        last_reader = {src: i for i, l in enumerate(graph.layers) for src in l.reads()}
        plan = M._BufferPlan(graph, M.infer_shapes(graph, x.shape[1:]), 2, dtype,
                             last_reader, set(graph.taps.values()))
        assert plan.placed == {"p": ("c1", 0), "a.relu": ("c1", 4), "c1": ("top", 0),
                               "up": ("top", 11), "f": ("top", 23), "z3": ("top", 35),
                               "ga": ("gc", 0), "gb": ("gc", 3), "ge": ("top", 39)}
        assert plan.donor == {"a.bn": "a.conv", "e": "c2", "f0": "e", "z2": "z", "k3": "k2",
                              "k4": "k3"}

    def test_recorded_hand_written_plan(self):
        # under grad a.bn keeps its conv and f0, z2, k3 and k4 read or write
        # data a backward reads; the taps ga and top are not placed
        graph = M.GraphDescription.from_text(HAND_GRAPH)
        shapes = M.infer_shapes(graph, (3, 10, 14))
        last_reader = {src: i for i, l in enumerate(graph.layers) for src in l.reads()}
        plan = M._BufferPlan(graph, shapes, 2, np.float32, last_reader, set(graph.taps.values()),
                             grad=True)
        assert plan.placed == {"p": ("c1", 0), "a.relu": ("c1", 4), "c1": ("top", 0),
                               "up": ("top", 11), "f": ("top", 23), "z3": ("top", 35),
                               "gb": ("gc", 3), "ge": ("top", 39)}
        assert plan.donor == {"e": "c2"}

    def test_recorded_icc_plan_writes_over_no_data_a_backward_reads(self):
        graph = M.build_icc(M.ModelConfig(width_scale=0.25))
        shapes = M.infer_shapes(graph, (3, 64, 64))
        last_reader = {src: i for i, l in enumerate(graph.layers) for src in l.reads()}
        keep = set(graph.taps.values())
        plan = M._BufferPlan(graph, shapes, 1, np.float32, last_reader, keep, grad=True)
        unrecorded = M._BufferPlan(graph, shapes, 1, np.float32, last_reader, keep)
        assert plan.placed == {k: v for k, v in unrecorded.placed.items() if k not in keep}
        kind = {l.name: l.kind for l in graph.layers}
        assert {kind[l] for l in plan.donor} == {"relu", "sigmoid", "add", "scalar_add"}
        # relu writes over its batch norm, or the decoder's conv, and never
        # batch norm over its conv; the gate sum starts from two sigmoid
        # outputs, which the gates' backward reads, so only its later adds
        # write over the sum so far
        assert plan.donor["stem.conv1.relu"] == "stem.conv1.bn"
        assert plan.donor["decoder.relu1"] == "decoder.conv1"
        assert plan.donor["context.s1.sigmoid"] == "context.s1.gate"
        assert plan.donor["context.den_2"] == "context.den_1"
        assert "context.den_1" not in plan.donor
        assert not any(kind[l] == "batchnorm" for l in plan.donor)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("ablation", M.ABLATIONS, ids=["full", "no-context", "no-inception"])
    def test_recorded_forward_matches_it_without_the_plan(self, ablation, dtype, monkeypatch):
        graph = M.build_icc(M.ModelConfig(width_scale=0.25, ablation=ablation))
        x = np.random.default_rng(14).uniform(0, 1, (2, 3, 64, 96)).astype(dtype)
        seed = np.random.default_rng(15).uniform(-1, 1, (2, 1, 8, 12)).astype(dtype)

        def step():
            """The parameters after a train-mode step (running statistics
            updated), the taps and the parameter gradients."""
            params = M.init_parameters(graph, 13, dtype)
            run = M.forward(graph, params, x, mode="train", requires_grad=True)
            taps = {tap: t.data.copy() for tap, t in run.taps.items()}
            return params, taps, run.backward(seed)

        planned = step()
        monkeypatch.setattr(M._BufferPlan, "out", lambda self, l, values: None)
        unplanned = step()
        assert "output" in planned[1]
        for got, want in zip(planned, unplanned):
            assert got.keys() == want.keys()
            for name in want:
                assert got[name].dtype == want[name].dtype == dtype, name
                np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    def test_icc_plan_donates_a_dying_second_operand(self):
        # context.s{s}.gated = mul(gate, up): the gate lives on into the
        # gate sum, and up, read last there, is written over
        graph = M.build_icc(M.ModelConfig(width_scale=0.25))
        shapes = M.infer_shapes(graph, (3, 64, 64))
        last_reader = {src: i for i, l in enumerate(graph.layers) for src in l.reads()}
        plan = M._BufferPlan(graph, shapes, 1, np.float32, last_reader, set(graph.taps.values()))
        for s in (1, 2, 3, 6):
            assert plan.donor[f"context.s{s}.gated"] == f"context.s{s}.up"

    def test_concat_taps_live_in_their_concat_buffers(self):
        # fusion is not built, so Feature1 is a view of context.out's buffer
        # and Feature2 is inception_a3's own concat buffer; with fusion
        # tapped, and so built, both are views of its buffer
        graph = M.build_icc(M.ModelConfig(width_scale=0.25))
        graph.taps["context.out"] = "context.out"
        params = M.init_parameters(graph, 9)
        x = np.random.default_rng(10).uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)
        fast = M.forward(graph, params, x)
        f1, f2 = fast.taps["Feature1"].data, fast.taps["Feature2"].data
        assert f1.base is fast.taps["context.out"].data
        assert np.shares_memory(f1, f1.base[:, : f1.shape[1]])
        assert f2.base is None and not np.shares_memory(f1, f2)
        graph.taps["fusion"] = "fusion"
        fast = M.forward(graph, params, x)
        f1, f2 = fast.taps["Feature1"].data, fast.taps["Feature2"].data
        assert f1.base is not None and f1.base is f2.base is fast.taps["fusion"].data
        slow = M.forward(graph, params, x, requires_grad=True)
        assert not np.shares_memory(slow.taps["Feature1"].data, slow.taps["Feature2"].data)

    def test_no_grad_forward_leaves_no_cycles(self):
        # a reference cycle would hold the forward's buffers until the cyclic GC ran
        graph = M.build_icc(M.ModelConfig(width_scale=0.25))
        params = M.init_parameters(graph, 11)
        x = np.random.default_rng(12).uniform(0, 1, (1, 3, 64, 64)).astype(np.float32)
        gc.collect()
        gc.disable()
        try:
            M.forward(graph, params, x)
            assert gc.collect() == 0
        finally:
            gc.enable()


RULES_GRAPH = """ICCGRAPH 1
ablation none
tap output m1
tap m2 m2
tap m3 m3
tap c3 c3
tap m4 m4
tap m5 m5
layer input kind=input channels=3
layer a kind=relu inputs=input
layer q kind=avgpool inputs=input window_h=2 window_w=2 stride_h=2 stride_w=2 pad_h=0 pad_w=0
layer up kind=interpolate inputs=q factor=2 method=bilinear
layer big kind=interpolate inputs=input factor=2 method=nearest
layer down kind=interpolate inputs=big match=input method=bilinear
layer c1 kind=concat inputs=a,up,down,a
layer m1 kind=conv inputs=c1 cin=12 cout=4 kh=1 kw=1 stride_h=1 stride_w=1 pad_h=0 pad_w=0 bias=true
layer c2 kind=concat inputs=a,input
layer m2 kind=conv inputs=c2 cin=6 cout=2 kh=1 kw=1 stride_h=2 stride_w=2 pad_h=0 pad_w=0
layer up3 kind=interpolate inputs=q match=input method=nearest
layer c3 kind=concat inputs=up3,a
layer m3 kind=conv inputs=c3 cin=6 cout=2 kh=1 kw=1 stride_h=1 stride_w=1 pad_h=0 pad_w=0
layer up4 kind=interpolate inputs=q factor=2 method=bilinear
layer s4 kind=sigmoid inputs=up4
layer c4 kind=concat inputs=up4,s4
layer m4 kind=conv inputs=c4 cin=6 cout=3 kh=1 kw=1 stride_h=1 stride_w=1 pad_h=0 pad_w=0
layer up5 kind=interpolate inputs=q match=input method=nearest
layer c5 kind=concat inputs=up5,a
layer m5 kind=conv inputs=c5 cin=6 cout=2 kh=1 kw=1 stride_h=1 stride_w=1 pad_h=0 pad_w=0
"""


def all_built(graph):
    """``graph`` with every layer tapped, which builds every concat and resize."""
    return M.GraphDescription(graph.layers, {**{l.name: l.name for l in graph.layers},
                                             **graph.taps}, graph.ablation)


def fusion_built(graph):
    """``graph`` with decoder.conv1's concat and its upsample tapped, which builds them."""
    by_name = graph.layer_map()
    concat = by_name["decoder.conv1"].inputs[0]
    names = [concat] + [s for s in by_name[concat].inputs if by_name[s].kind == "interpolate"]
    return M.GraphDescription(graph.layers, {**graph.taps, **{n: n for n in names}},
                              graph.ablation)


def train_step(graph, params, x, seed):
    """(output, parameter gradients) of a recorded train-mode forward on a copy of ``params``."""
    run = M.forward(graph, {k: v.copy() for k, v in params.items()}, x, mode="train",
                    requires_grad=True)
    return run.output.data.copy(), run.backward(seed)


def assert_close(got, want, bound, what):
    assert np.abs(got - want).max() <= bound * np.abs(want).max(), what


class TestUnbuiltConcats:
    """A concat whose only reader is a pointwise conv is not built, nor an
    upsample that only it reads: the conv sums one product per part, an
    upsample's resized after it. Held to the same forward with the concat
    and upsample tapped, which builds them, within the inference tolerance
    (1e-5 of the map's largest value in float32, 1e-12 in float64), with the
    count within 1e-6 (float32) and 1e-12 (float64) relative; float64
    parameter gradients within 1e-12 of each array's largest value."""

    def test_hand_written_rules(self):
        # c1 is not built and up is mixed before its resize, but down, which
        # shrinks its map, is built; m2 is strided and c3 tapped, so c2 and
        # c3 are built; c4 is not, but s4 also reads up4; up5 is resized to
        # its match's extent after its product
        graph = M.GraphDescription.from_text(RULES_GRAPH)
        shapes = M.infer_shapes(graph, (3, 10, 14))
        layers, mixes = M._unbuilt_concats(graph, shapes, set(graph.taps.values()))
        ran = {l.name: l for l in layers}
        assert graph.layer_map().keys() - ran.keys() == {"c1", "up", "c4", "c5", "up5"}
        assert {n: ran[n].inputs for n in mixes} == {
            "m1": ("a", "q", "down", "a"), "m4": ("up4", "s4"), "m5": ("q", "a")}
        assert {n: [(src, a, b, r and r.name, size) for src, a, b, r, size in parts]
                for n, parts in mixes.items()} == {
            "m1": [("a", 0, 3, None, None), ("q", 3, 6, "up", (10, 14)),
                   ("down", 6, 9, None, None), ("a", 9, 12, None, None)],
            "m4": [("up4", 0, 3, None, None), ("s4", 3, 6, None, None)],
            "m5": [("q", 0, 3, "up5", (10, 14)), ("a", 3, 6, None, None)],
        }
        built = all_built(graph)
        assert M._unbuilt_concats(built, shapes, set(built.taps.values()))[1] == {}

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_hand_written_forward(self, dtype):
        graph = M.GraphDescription.from_text(RULES_GRAPH)
        params = M.init_parameters(graph, 17, dtype)
        params["m1.b"][:] = np.arange(1, 5)
        x = np.random.default_rng(18).standard_normal((2, 3, 10, 14)).astype(dtype)
        fast, _ = TestBufferPlan.both(graph, params, x)
        built = M.forward(all_built(graph), params, x)
        for tap in graph.taps:
            assert_close(fast.taps[tap].data, built.taps[tap].data, tolerance(dtype), tap)

    def test_hand_written_gradients(self):
        graph = M.GraphDescription.from_text(RULES_GRAPH)
        params = M.init_parameters(graph, 19, np.float64)
        params["m1.b"][:] = np.arange(1, 5)
        x = np.random.default_rng(20).standard_normal((2, 3, 10, 14))
        seed = np.random.default_rng(21).standard_normal((2, 4, 10, 14))
        (out, grads), (want, wanted) = (train_step(g, params, x, seed)
                                        for g in (graph, all_built(graph)))
        assert_close(out, want, 1e-12, "output")
        assert np.any(grads["m1.w"] != 0) and grads.keys() == wanted.keys()
        for name in wanted:
            assert_close(grads[name], wanted[name], 1e-12, name)

    @pytest.mark.parametrize("ablation", M.ABLATIONS, ids=["full", "no-context", "no-inception"])
    def test_icc_rules_fire_once(self, ablation):
        # fusion -> decoder.conv1, with feature3_up mixed before its resize;
        # without the inception path context.out -> decoder.conv1
        graph = M.build_icc(M.ModelConfig(width_scale=0.25, ablation=ablation))
        shapes = M.infer_shapes(graph, (3, 64, 96))
        layers, mixes = M._unbuilt_concats(graph, shapes, set(graph.taps.values()))
        unbuilt = {"none": {"fusion", "feature3_up"}, "no-context": {"fusion", "feature3_up"},
                   "no-inception": {"context.out"}}[ablation]
        assert {l.name for l in graph.layers} - {l.name for l in layers} == unbuilt
        assert mixes.keys() == {"decoder.conv1"}
        built = fusion_built(graph)
        assert M._unbuilt_concats(built, shapes, set(built.taps.values()))[1] == {}

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("ablation", M.ABLATIONS, ids=["full", "no-context", "no-inception"])
    @pytest.mark.parametrize("width", [0.25, 1.0])
    def test_icc_forward_within_tolerance(self, width, ablation, dtype):
        graph = M.build_icc(M.ModelConfig(width_scale=width, ablation=ablation))
        params = M.init_parameters(graph, 16, dtype)
        x = np.random.default_rng(17).uniform(0, 1, (2, 3, 64, 96)).astype(dtype)
        got = M.forward(graph, params, x).output.data
        want = M.forward(fusion_built(graph), params, x).output.data
        assert_close(got, want, tolerance(dtype), "map")
        counts = [a.sum(axis=(1, 2, 3), dtype=np.float64) for a in (got, want)]
        np.testing.assert_allclose(*counts, rtol=1e-6 if dtype == np.float32 else 1e-12, atol=0)

    @pytest.mark.parametrize("ablation", M.ABLATIONS, ids=["full", "no-context", "no-inception"])
    @pytest.mark.parametrize("width", [0.25, 1.0])
    def test_icc_gradients_within_tolerance(self, width, ablation):
        graph = M.build_icc(M.ModelConfig(width_scale=width, ablation=ablation))
        params = M.init_parameters(graph, 18, np.float64)
        x = np.random.default_rng(19).uniform(0, 1, (2, 3, 64, 96))
        seed = np.random.default_rng(20).uniform(-1, 1, (2, 1, 8, 12))
        (out, grads), (want, wanted) = (train_step(g, params, x, seed)
                                        for g in (graph, fusion_built(graph)))
        assert_close(out, want, 1e-12, "output")
        assert grads.keys() == wanted.keys()
        for name in wanted:
            assert_close(grads[name], wanted[name], 1e-12, name)

    def test_no_grad_peak_memory(self):
        # width 1.0, float32, 256x480: tracemalloc's peak is 19.3 MiB with
        # fusion unbuilt against 23.4 MiB with it built (0.82x)
        graph = M.build_icc(M.ModelConfig(width_scale=1.0))
        params = M.init_parameters(graph, 21, np.float32)
        x = np.random.default_rng(22).uniform(0, 1, (1, 3, 256, 480)).astype(np.float32)

        def peak(g):
            tracemalloc.start()
            try:
                M.forward(g, params, x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(graph) <= 0.85 * peak(fusion_built(graph))


def _operands(rng, dtype):
    x = rng.standard_normal((2, 3, 6, 5)).astype(dtype)
    return x, rng.standard_normal(x.shape).astype(dtype)


OUT_OPS = {
    "relu": (lambda x, y, out: T.relu(x, out=out), (2, 3, 6, 5)),
    "sigmoid": (lambda x, y, out: T.sigmoid(x, out=out), (2, 3, 6, 5)),
    "add": (lambda x, y, out: T.add(x, y, out=out), (2, 3, 6, 5)),
    "sub": (lambda x, y, out: T.sub(x, y, out=out), (2, 3, 6, 5)),
    "mul": (lambda x, y, out: T.mul(x, y, out=out), (2, 3, 6, 5)),
    "div": (lambda x, y, out: T.div(x, y, out=out), (2, 3, 6, 5)),
    "batchnorm2d": (lambda x, y, out: T.batchnorm2d(
        x, y.data[0, :, 0, 0], y.data[0, :, 1, 0], np.zeros(3, x.dtype), np.ones(3, x.dtype),
        mode="eval", out=out), (2, 3, 6, 5)),
    "maxpool2d": (lambda x, y, out: T.maxpool2d(x, 3, 2, 1, out=out), (2, 3, 3, 3)),
    "interpolate": (lambda x, y, out: T.interpolate(x, 7, 4, out=out), (2, 3, 7, 4)),
    "upsample": (lambda x, y, out: T.upsample(x, 2, out=out), (2, 3, 12, 10)),
    "concat_channels": (lambda x, y, out: T.concat_channels([x, y], out=out), (2, 6, 6, 5)),
}


class TestOut:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("op", sorted(OUT_OPS))
    def test_out_holds_the_fresh_output(self, op, dtype):
        fn, shape = OUT_OPS[op]
        x, y = _operands(np.random.default_rng(13), dtype)
        fresh = fn(T.Tensor(x), T.Tensor(y), None)
        # a channel slice of a larger buffer, as the buffer plan gives
        buf = np.full((shape[0], shape[1] + 3) + shape[2:], np.nan, dtype)
        out = buf[:, 2 : 2 + shape[1]]
        into = fn(T.Tensor(x), T.Tensor(y), out)
        assert into.data is out and fresh.shape == shape
        np.testing.assert_array_equal(into.data, fresh.data)

    @pytest.mark.parametrize("op", sorted(OUT_OPS))
    def test_out_under_grad_holds_the_fresh_output(self, op):
        # a fresh buffer or a concat slice: the values and the gradients of
        # a fresh output
        fn, shape = OUT_OPS[op]
        x, y = _operands(np.random.default_rng(14), np.float32)
        g = np.random.default_rng(15).standard_normal(shape).astype(np.float32)

        def run(out):
            a, b = T.Tensor(x, requires_grad=True), T.Tensor(y, requires_grad=True)
            res = fn(a, b, out)
            assert out is None or res.data is out
            data = res.data.copy()
            res.backward(g)
            return data, a.grad, b.grad

        fresh = run(None)
        buf = np.full((shape[0], shape[1] + 3) + shape[2:], np.nan, np.float32)
        for out in (np.empty(shape, np.float32), buf[:, 2 : 2 + shape[1]]):
            for got, want in zip(run(out), fresh):
                assert (got is None) == (want is None)
                if want is not None:
                    np.testing.assert_array_equal(got, want)
        with pytest.raises(ValueError, match="not float32"):
            fn(T.Tensor(x, requires_grad=True), T.Tensor(y), np.empty(shape, np.float32)[:, :1])

    READERS = {  # ops whose backward reads their operands' data: (call, operands it reads)
        "batchnorm2d": (lambda a, b, out: T.batchnorm2d(
            a, T.Tensor(np.ones(3, np.float32), requires_grad=a.requires_grad),
            T.Tensor(np.zeros(3, np.float32)), np.zeros(3, np.float32), np.ones(3, np.float32),
            mode="train", out=out), (0,)),
        "maxpool2d": (lambda a, b, out: T.maxpool2d(a, 3, 1, 1, out=out), (0,)),
        "mul": (lambda a, b, out: T.mul(a, b, out=out), (0, 1)),
        "div": (lambda a, b, out: T.div(a, b, out=out), (0, 1)),
    }

    @pytest.mark.parametrize("op", sorted(READERS))
    def test_out_refused_over_an_operand_its_backward_reads(self, op):
        fn, read = self.READERS[op]
        x, y = _operands(np.random.default_rng(16), np.float32)
        for i in read:
            a, b = (T.Tensor(v.copy(), requires_grad=True) for v in (x, y))
            target = (a, b)[i].data
            with pytest.raises(ValueError, match=f"^{op}: out shares memory with data a "
                               "recorded backward reads$"):
                fn(a, b, target)
            np.testing.assert_array_equal(target, (x, y)[i])  # nothing written
            # when nothing records, the same buffer may be written over
            a, b = (T.Tensor(v.copy()) for v in (x, y))
            assert fn(a, b, (a, b)[i].data).data is (a, b)[i].data

    @pytest.mark.parametrize("writer", ["relu", "add"])
    @pytest.mark.parametrize("producer", ["sigmoid", "maxpool2d"])
    def test_out_refused_over_a_saved_output(self, producer, writer):
        x, _ = _operands(np.random.default_rng(17), np.float32)
        leaf = T.Tensor(x, requires_grad=True)
        saved = T.sigmoid(leaf) if producer == "sigmoid" else T.maxpool2d(leaf, 3, 1, 1)
        before = saved.data.copy()
        with pytest.raises(ValueError, match=f"^{writer}: out shares memory"):
            if writer == "relu":
                T.relu(saved, out=saved.data)
            else:
                T.add(T.Tensor(np.ones_like(x)), saved, out=saved.data)
        np.testing.assert_array_equal(saved.data, before)

    def test_relu_writes_over_a_batch_norm_output(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((2, 3, 6, 5)).astype(np.float32)
        g = rng.standard_normal(x.shape).astype(np.float32)

        def step(donate):
            leaf, gamma, beta = (T.Tensor(v, requires_grad=True) for v in
                                 (x, np.full(3, 1.5, np.float32), np.full(3, 0.2, np.float32)))
            bn = T.batchnorm2d(leaf, gamma, beta, np.zeros(3, np.float32),
                               np.ones(3, np.float32), mode="train")
            out = T.relu(bn, out=bn.data if donate else None)
            assert (out.data is bn.data) == donate
            data = out.data.copy()
            out.backward(g)
            return data, leaf.grad, gamma.grad, beta.grad

        for got, want in zip(step(True), step(False)):
            np.testing.assert_array_equal(got, want)


# attributes of the in-place layer kinds that need them
KIND_ATTRS = {"batchnorm": {"channels": 3}, "scalar_add": {"value": 0.5}}


@pytest.mark.parametrize("name", sorted(k for k, kind in M.KINDS.items() if kind.in_place))
def test_in_place_kinds_under_grad_follow_kinds(name):
    # Under grad a layer may take its own operand as ``out`` unless KINDS
    # says its backward reads its inputs, and a layer's output may be
    # written over unless KINDS says its backward reads it.
    kind = M.KINDS[name]
    layer = M.Layer("l", name, ("a", "b")[: kind.arity], KIND_ATTRS.get(name, {}))
    params = {"l.gamma": T.Tensor(np.ones(3), requires_grad=True),
              "l.beta": T.Tensor(np.zeros(3), requires_grad=True),
              "l.running_mean": np.zeros(3), "l.running_var": np.ones(3)}
    rng = np.random.default_rng(19)
    for i in range(kind.arity):
        ins = [T.Tensor(0.5 + rng.random((2, 3, 4, 5)), requires_grad=True)
               for _ in range(kind.arity)]
        if "inputs" in kind.saves:
            with pytest.raises(ValueError, match="out shares memory"):
                kind.run(layer, ins, params, "train", ins[i].data)
        else:
            assert kind.run(layer, ins, params, "train", ins[i].data).data is ins[i].data
    out = kind.run(layer, [T.Tensor(0.5 + rng.random((2, 3, 4, 5)), requires_grad=True)
                           for _ in range(kind.arity)], params, "train", None)
    if "output" in kind.saves:
        with pytest.raises(ValueError, match="out shares memory"):
            T.add(out, 1.0, out=out.data)
    else:
        assert T.add(out, 1.0, out=out.data).data is out.data
