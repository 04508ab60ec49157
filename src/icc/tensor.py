"""Dense tensors with reverse-mode differentiation over a fixed operator set.

Everything is numpy underneath. A Tensor wraps one float32 or float64 array
and the operators below record just enough of the forward pass to run the
reverse sweep. The operator set is exactly what the counting network needs:
conv2d (plus the two-stage separable form), max/avg pooling, adaptive average
pooling, batch norm, relu/sigmoid, bilinear/nearest resizing, channel
concat/sum and elementwise arithmetic, each a function (a Tensor has no
arithmetic operators). An op's output has its tensor operands' dtype; a number given to the arithmetic ops takes the dtype of the
Tensor beside it.

Every forward op validates that its output is finite; NaN/Inf raises
NumericError immediately instead of propagating silently.

An op records its backward exactly when one of its operands requires grad.
Each op has one forward, which runs whether or not it records. conv2d fills
a fixed-size column buffer one band of output rows at a time and multiplies
each band straight into its slice of the output (a 1x1 stride-1 conv reads
each sample's padded input as its band's columns, with no copy); its
backward walks the same bands again and fills each band's columns anew, so
no column matrix is held between the forward and the backward pass. Pooling
reduces shifted strided views of the padded input, and its backward adds
into the same views (max pooling pads its input again there). Conv and
pooling share one window rule, ``window_out``, which shape inference in
``icc.model`` uses too, and one set of offset views. Bilinear and nearest
resizing and adaptive average pooling are separable linear maps, Rh·x·Rwᵀ,
with the adjoint Rhᵀ·g·Rw as backward.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .errors import NumericError, ShapeError

_DEFAULT_DTYPE = np.float32
# Byte size of the conv2d column buffer; it holds one band of output rows.
_COL_BUFFER_BYTES = 8 << 20


def set_default_dtype(dtype) -> None:
    """Select the dtype of non-float data in a Tensor and of new parameters."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    _DEFAULT_DTYPE = dt.type


def default_dtype():
    return _DEFAULT_DTYPE


def _check_finite(data: np.ndarray, op: str) -> None:
    # A finite sum rules out NaN and Inf in one pass with no temporary; a
    # non-finite one may be an overflow of finite values, so scan then.
    with np.errstate(over="ignore", invalid="ignore"):
        total = data.sum()
    if not np.isfinite(total) and not np.all(np.isfinite(data)):
        raise NumericError(f"{op}: non-finite values in output")


def _as_pair(v, name: str) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        if len(v) != 2:
            raise ShapeError(f"{name} must be an int or a pair, got {v!r}")
        return int(v[0]), int(v[1])
    return int(v), int(v)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_DEFAULT_DTYPE)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype})"

    # -- reverse sweep ------------------------------------------------------

    def backward(self, seed: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``seed`` is the upstream gradient; it defaults to 1 and is only
        optional when the tensor is scalar.
        """
        if seed is None:
            if self.data.size != 1:
                raise ShapeError("backward() without a seed requires a scalar tensor")
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=self.data.dtype)
            if seed.shape != self.data.shape:
                raise ShapeError(
                    f"backward seed shape {seed.shape} != tensor shape {self.data.shape}"
                )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        _accumulate(self, seed)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # A copy: ``g`` may be a view of an upstream gradient (``_unbroadcast``
        # and ``np.split`` return views), and this buffer is added into later.
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _make(data: np.ndarray, parents: tuple, backward, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as Tensors; a non-Tensor one takes the other's dtype."""
    if not isinstance(a, Tensor):
        a = Tensor(np.asarray(a, dtype=b.dtype))
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.dtype))
    return a, b


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (adjoint of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, s) in enumerate(zip(g.shape, shape)) if s == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _into(ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``ufunc(a, b)``, written over ``a`` unless numpy promotes to a wider dtype."""
    return ufunc(a, b, out=a if np.result_type(a, b) == a.dtype else None)


# -- elementwise ------------------------------------------------------------


def _binary(op: str, a, b, forward, grads) -> Tensor:
    """``forward(a, b)`` on the operands' data. ``grads(g, a, b)`` returns each
    operand's gradient at the broadcast shape; it is summed down to the operand's."""
    a, b = _operands(a, b)

    def backward(g):
        ga, gb = grads(g, a.data, b.data)
        _accumulate(a, _unbroadcast(ga, a.data.shape))
        _accumulate(b, _unbroadcast(gb, b.data.shape))

    # a non-finite result is _make's NumericError, not a numpy warning first
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = forward(a.data, b.data)
    return _make(out, (a, b), backward, op)


def add(a, b) -> Tensor:
    return _binary("add", a, b, np.add, lambda g, x, y: (g, g))


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, np.subtract, lambda g, x, y: (g, -g))


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, np.multiply, lambda g, x, y: (g * y, g * x))


def div(a, b) -> Tensor:
    return _binary("div", a, b, np.divide, lambda g, x, y: (g / y, -g * x / (y * y)))


def tensor_sum(x: Tensor) -> Tensor:
    x = _coerce(x)
    out_data = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def backward(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape).astype(x.data.dtype))

    return _make(out_data, (x,), backward, "sum")


def relu(x: Tensor) -> Tensor:
    x = _coerce(x)
    out_data = np.maximum(x.data, 0)

    def backward(g):
        _accumulate(x, g * (x.data > 0))

    return _make(out_data, (x,), backward, "relu")


def sigmoid(x: Tensor) -> Tensor:
    x = _coerce(x)
    out_data = expit(x.data).astype(x.data.dtype)

    def backward(g):
        _accumulate(x, g * out_data * (1.0 - out_data))

    return _make(out_data, (x,), backward, "sigmoid")


# -- window geometry --------------------------------------------------------


def window_out(extent: int, window: int, stride: int, pad: int, dim: str,
               max_pool: bool = False) -> int:
    """Output extent of ``window`` sliding by ``stride`` over ``extent`` padded
    by ``pad`` on both sides; ShapeError naming ``dim`` for a bad geometry.
    Max pooling refuses a pad over half the window, as PyTorch does."""
    padded = extent + 2 * pad
    if window < 1:
        raise ShapeError(f"empty window {window} along {dim}")
    if stride < 1:
        raise ShapeError(f"stride must be positive, got {stride} along {dim}")
    if pad < 0:
        raise ShapeError(f"padding must be non-negative, got {pad} along {dim}")
    if window > padded:
        raise ShapeError(f"window {window} exceeds padded extent {padded} along {dim}")
    if max_pool and pad > window // 2:
        raise ShapeError(f"max pooling pad {pad} exceeds half the window {window} along {dim}")
    return (padded - window) // stride + 1


def _window(op: str, x: Tensor, window, stride, padding, max_pool: bool = False):
    """(wh, ww, sh, sw, ph, pw, ho, wo) of ``op``'s window over the NCHW ``x``."""
    if x.ndim != 4:
        raise ShapeError(f"{op}: input must be 4-D NCHW, got {x.ndim}-D")
    wh, ww = _as_pair(window, "window")
    sh, sw = _as_pair(stride, "stride")
    ph, pw = _as_pair(padding, "padding")
    try:
        ho = window_out(x.shape[2], wh, sh, ph, "height (dim 2)", max_pool)
        wo = window_out(x.shape[3], ww, sw, pw, "width (dim 3)", max_pool)
    except ShapeError as e:
        raise ShapeError(f"{op}: {e}") from None
    return wh, ww, sh, sw, ph, pw, ho, wo


def _padded(a: np.ndarray, ph: int, pw: int, fill: float = 0.0) -> np.ndarray:
    """``a`` with ``ph`` rows and ``pw`` columns of ``fill`` around its trailing
    axes (``a`` itself when unpadded)."""
    if not (ph or pw):
        return a
    return np.pad(a, ((0, 0), (0, 0), (ph, ph), (pw, pw)), constant_values=fill)


def _window_views(a: np.ndarray, wh, ww, sh, sw, ho, wo) -> list:
    """For each window offset in row-major order, the strided view of ``a``'s
    two trailing axes that the ho x wo windows read at that offset."""
    return [
        a[..., i : i + sh * (ho - 1) + 1 : sh, j : j + sw * (wo - 1) + 1 : sw]
        for i in range(wh)
        for j in range(ww)
    ]


# -- convolution ------------------------------------------------------------


def _conv_bands(xp: np.ndarray, kh, kw, sh, sw, ho, wo):
    """(sample, first output row, rows, columns) for each band of output rows
    of a conv over the padded input ``xp``.

    A band's columns, [C*kh*kw, rows*Wo], are filled into one buffer of
    ``_COL_BUFFER_BYTES`` that every band reuses, so they hold only until the
    next band is drawn. A 1x1 stride-1 conv needs no columns: its output
    extent is the padded extent, so each sample is one band whose columns are
    a view of that sample's padded input.
    """
    n, c = xp.shape[:2]
    if kh == kw == sh == sw == 1:
        for s in range(n):
            yield s, 0, ho, xp[s].reshape(c, ho * wo)
        return
    k = c * kh * kw
    band = max(1, min(ho, _COL_BUFFER_BYTES // (k * wo * xp.itemsize)))
    buf = np.empty(k * band * wo, dtype=xp.dtype)
    for s in range(n):
        for r0 in range(0, ho, band):
            r = min(band, ho - r0)
            cols = buf[: k * r * wo].reshape(c, kh * kw, r, wo)
            for o, view in enumerate(_window_views(xp[s, :, sh * r0 :], kh, kw, sh, sw, r, wo)):
                cols[:, o] = view
            yield s, r0, r, cols.reshape(k, r * wo)


def conv2d(x, weight, stride=1, padding=0, bias=None) -> Tensor:
    """2-D cross-correlation over NCHW input.

    ``weight`` has shape [Cout, Cin, kh, kw]; zero padding, integer strides.
    """
    x, weight = _coerce(x), _coerce(weight)
    if weight.ndim != 4:
        raise ShapeError(f"conv2d: kernel must be 4-D, got {weight.ndim}-D")
    kh, kw, sh, sw, ph, pw, ho, wo = _window("conv2d", x, weight.shape[2:], stride, padding)
    n, cin, h, w = x.shape
    cout, cin_k = weight.shape[:2]
    if cin != cin_k:
        raise ShapeError(
            f"conv2d: input channels {cin} != kernel input channels {cin_k} (dim 1)"
        )
    b = None
    if bias is not None:
        b = _coerce(bias)
        if b.shape != (cout,):
            raise ShapeError(f"conv2d: bias shape {b.shape} != ({cout},) (dim 0)")

    parents = (x, weight) if b is None else (x, weight, b)
    wmat = weight.data.reshape(cout, -1)
    geometry = (kh, kw, sh, sw, ho, wo)
    out = np.empty((n, cout, ho * wo), np.result_type(x.data, wmat))
    for s, r0, r, cols in _conv_bands(_padded(x.data, ph, pw), *geometry):
        np.matmul(wmat, cols, out=out[s, :, r0 * wo : (r0 + r) * wo])
    out_data = out.reshape(n, cout, ho, wo)
    if b is not None:
        out_data = _into(np.add, out_data, b.data.reshape(1, cout, 1, 1))

    def backward(g):
        gmat = g.reshape(n, cout, ho * wo)
        if b is not None and b.requires_grad:
            _accumulate(b, g.sum(axis=(0, 2, 3)))
        # The input is padded and each band's columns filled again here rather
        # than kept from the forward pass, so a step holds neither for long.
        xp = _padded(x.data, ph, pw)
        gw = np.zeros(wmat.shape, g.dtype)
        gxp = np.zeros(xp.shape, g.dtype) if x.requires_grad else None
        for s, r0, r, cols in _conv_bands(xp, *geometry):
            gband = gmat[s, :, r0 * wo : (r0 + r) * wo]
            if weight.requires_grad:
                gw += gband @ cols.T
            if gxp is not None:
                gcols = (wmat.T @ gband).reshape(cin, kh * kw, r, wo)
                views = _window_views(gxp[s, :, sh * r0 :], kh, kw, sh, sw, r, wo)
                for o, view in enumerate(views):
                    view += gcols[:, o]
        _accumulate(weight, gw.reshape(weight.shape))
        if gxp is not None:
            _accumulate(x, gxp[:, :, ph : ph + h, pw : pw + w])

    return _make(out_data, parents, backward, "conv2d")


def separable_conv2d(x, kernel_v, kernel_h, stride=1, padding=(0, 0), bias=None) -> Tensor:
    """n x 1 convolution followed by 1 x n; equals the composed conv2d pair.

    ``padding`` applies per stage: (pad for the vertical stage along H,
    pad for the horizontal stage along W).
    """
    kernel_v, kernel_h = _coerce(kernel_v), _coerce(kernel_h)
    if kernel_v.ndim != 4 or kernel_v.shape[3] != 1:
        raise ShapeError(f"separable_conv2d: vertical kernel must be [C,C,n,1], got {kernel_v.shape}")
    if kernel_h.ndim != 4 or kernel_h.shape[2] != 1:
        raise ShapeError(f"separable_conv2d: horizontal kernel must be [C,C,1,n], got {kernel_h.shape}")
    ph, pw = _as_pair(padding, "padding")
    mid = conv2d(x, kernel_v, stride=(stride, 1) if isinstance(stride, int) else stride,
                 padding=(ph, 0))
    return conv2d(mid, kernel_h, stride=1, padding=(0, pw), bias=bias)


# -- pooling ----------------------------------------------------------------


def _fold(views: list, reduce) -> np.ndarray:
    """``reduce`` over ``views`` left to right, into one fresh array."""
    if len(views) == 1:
        return views[0].copy()
    acc = reduce(views[0], views[1])
    for v in views[2:]:
        reduce(acc, v, out=acc)
    return acc


def _pool_shifted(xp: np.ndarray, wh, ww, sh, sw, ho, wo, reduce) -> np.ndarray:
    """Each window of ``xp`` reduced as a wh x 1 window, then a 1 x ww one."""
    rows = _fold(_window_views(xp, wh, 1, sh, 1, ho, xp.shape[3]), reduce)
    return _fold(_window_views(rows, 1, ww, 1, sw, ho, wo), reduce)


def maxpool2d(x, window, stride=None, padding=0) -> Tensor:
    x = _coerce(x)
    stride = window if stride is None else stride
    wh, ww, sh, sw, ph, pw, ho, wo = _window("maxpool2d", x, window, stride, padding, max_pool=True)
    xp = _padded(x.data, ph, pw, -np.inf)
    out_data = _pool_shifted(xp, wh, ww, sh, sw, ho, wo, np.maximum)

    def backward(g):
        geometry = (wh, ww, sh, sw, ho, wo)
        # Padded again: the forward pass's padded copy is not kept until here.
        xp = _padded(x.data, ph, pw, -np.inf)
        # The gradient goes to each window's first maximum in row-major order.
        taken = np.zeros(out_data.shape, bool)
        firsts = []
        for view in _window_views(xp, *geometry):
            first = (view == out_data) & ~taken
            taken |= first
            firsts.append(first)
        # Offsets run last to first, so that an input shared by several
        # windows sums their gradients in the windows' row-major order.
        gp = np.zeros(xp.shape, g.dtype)
        for view, first in reversed(list(zip(_window_views(gp, *geometry), firsts))):
            view += g * first
        _accumulate(x, gp[:, :, ph : ph + x.shape[2], pw : pw + x.shape[3]])

    return _make(out_data, (x,), backward, "maxpool2d")


def avgpool2d(x, window, stride=None, padding=0) -> Tensor:
    """Mean pooling; zero padding counts toward the window size."""
    x = _coerce(x)
    stride = window if stride is None else stride
    wh, ww, sh, sw, ph, pw, ho, wo = _window("avgpool2d", x, window, stride, padding)
    xp = _padded(x.data, ph, pw)
    out_data = _pool_shifted(xp, wh, ww, sh, sw, ho, wo, np.add)
    out_data /= wh * ww
    padded_shape = xp.shape  # the backward keeps the shape, not the padded copy

    def backward(g):
        gp = np.zeros(padded_shape, g.dtype)
        share = g / (wh * ww)
        for view in _window_views(gp, wh, ww, sh, sw, ho, wo):
            view += share
        _accumulate(x, gp[:, :, ph : ph + x.shape[2], pw : pw + x.shape[3]])

    return _make(out_data, (x,), backward, "avgpool2d")


# -- batch normalization ----------------------------------------------------


def batchnorm2d(
    x,
    gamma,
    beta,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    mode: str = "train",
    eps: float = 1e-3,
    momentum: float = 0.1,
) -> Tensor:
    """Per-channel batch normalization over NCHW.

    Train mode normalizes with batch statistics and updates the running
    arrays in place (unbiased variance, torch-style); eval mode uses the
    running statistics unchanged.
    """
    x, gamma, beta = _coerce(x), _coerce(gamma), _coerce(beta)
    if x.ndim != 4:
        raise ShapeError(f"batchnorm2d: input must be 4-D NCHW, got {x.ndim}-D")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"batchnorm2d: gamma/beta shapes {gamma.shape}/{beta.shape} != ({c},) (dim 1)"
        )
    if mode not in ("train", "eval"):
        raise ValueError(f"batchnorm2d: mode must be 'train' or 'eval', got {mode!r}")

    if mode == "train":
        axes = (0, 2, 3)
        m = x.data.mean(axis=axes)
        v = x.data.var(axis=axes)
        count = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]
        unbiased = v * count / (count - 1) if count > 1 else v
        running_mean *= 1.0 - momentum
        running_mean += momentum * m
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        m = running_mean.astype(x.dtype)
        v = running_var.astype(x.dtype)

    m = m.reshape(1, c, 1, 1)
    inv = (1.0 / np.sqrt(v + eps)).reshape(1, c, 1, 1)
    scale = gamma.data.reshape(1, c, 1, 1)
    out_data = x.data - m
    out_data *= inv
    out_data = _into(np.multiply, out_data, scale)
    out_data = _into(np.add, out_data, beta.data.reshape(1, c, 1, 1))

    def backward(g):
        # the normalized input is recomputed here rather than kept
        if gamma.requires_grad or (mode == "train" and x.requires_grad):
            xhat = (x.data - m) * inv
        if gamma.requires_grad:
            _accumulate(gamma, (g * xhat).sum(axis=(0, 2, 3)))
        if beta.requires_grad:
            _accumulate(beta, g.sum(axis=(0, 2, 3)))
        if not x.requires_grad:
            return
        gscaled = g * scale
        if mode == "eval":
            _accumulate(x, gscaled * inv)
            return
        mean_g = gscaled.mean(axis=(0, 2, 3), keepdims=True)
        mean_gx = (gscaled * xhat).mean(axis=(0, 2, 3), keepdims=True)
        _accumulate(x, inv * (gscaled - mean_g - xhat * mean_gx))

    return _make(out_data, (x, gamma, beta), backward, "batchnorm2d")


# -- resampling -------------------------------------------------------------
#
# Bilinear and nearest resizing and adaptive average pooling are each one
# linear map per spatial axis, an [out, in] matrix R: the output is
# Rh·x·Rwᵀ and the backward its adjoint, Rhᵀ·g·Rw.


def _bilinear_axis(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Blend weights of align_corners=False bilinear resizing along one axis."""
    src = (np.arange(n_out, dtype=np.float64) + 0.5) * n_in / n_out - 0.5
    src = np.clip(src, 0.0, n_in - 1)
    i0 = np.floor(src).astype(np.int64)
    frac = (src - i0).astype(dtype)
    rows = np.arange(n_out)
    r = np.zeros((n_out, n_in), dtype)
    r[rows, i0] = 1.0 - frac
    r[rows, np.minimum(i0 + 1, n_in - 1)] += frac
    return r


def _nearest_axis(n_in: int, n_out: int, dtype) -> np.ndarray:
    """One-hot rows: output o takes input floor(o * n_in / n_out)."""
    r = np.zeros((n_out, n_in), dtype)
    r[np.arange(n_out), np.arange(n_out) * n_in // n_out] = 1.0
    return r


def _adaptive_axis(n_in: int, n_out: int, dtype) -> np.ndarray:
    """Row o averages the inputs in [floor(o n_in / n_out), ceil((o + 1) n_in / n_out))."""
    o = np.arange(n_out)[:, None]
    lo, hi = o * n_in // n_out, -(-(o + 1) * n_in // n_out)
    cols = np.arange(n_in)
    return (((cols >= lo) & (cols < hi)) / (hi - lo)).astype(dtype)


def _separable(rh: np.ndarray, rw: np.ndarray, a: np.ndarray) -> np.ndarray:
    """rh·a·rwᵀ over the two trailing axes of a 4-D array: along H, then W."""
    along_h = np.matmul(rh, a)
    n, c, oh, w = along_h.shape
    return np.matmul(along_h.reshape(n * c * oh, w), rw.T).reshape(n, c, oh, rw.shape[0])


def _resample(x: Tensor, rh: np.ndarray, rw: np.ndarray, op: str) -> Tensor:
    def backward(g):
        _accumulate(x, _separable(rh.T, rw.T, g))

    return _make(_separable(rh, rw, x.data), (x,), backward, op)


def adaptive_avgpool2d(x, out_h: int, out_w: int) -> Tensor:
    """Average pooling onto an out_h x out_w grid with near-equal bins."""
    x = _coerce(x)
    if x.ndim != 4:
        raise ShapeError(f"adaptive_avgpool2d: input must be 4-D NCHW, got {x.ndim}-D")
    h, w = x.shape[2:]
    if out_h < 1 or out_w < 1 or out_h > h or out_w > w:
        raise ShapeError(
            f"adaptive_avgpool2d: target {(out_h, out_w)} invalid for input {(h, w)}"
        )
    rh, rw = _adaptive_axis(h, out_h, x.dtype), _adaptive_axis(w, out_w, x.dtype)
    return _resample(x, rh, rw, "adaptive_avgpool2d")


def interpolate(x, out_h: int, out_w: int, method: str = "bilinear") -> Tensor:
    """Resize the two trailing spatial axes to (out_h, out_w)."""
    x = _coerce(x)
    if x.ndim != 4:
        raise ShapeError(f"interpolate: input must be 4-D NCHW, got {x.ndim}-D")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"interpolate: target size {(out_h, out_w)} must be positive")
    if method not in ("bilinear", "nearest"):
        raise ValueError(f"interpolate: unknown method {method!r}")
    axis = _bilinear_axis if method == "bilinear" else _nearest_axis
    h, w = x.shape[2:]
    return _resample(x, axis(h, out_h, x.dtype), axis(w, out_w, x.dtype), "interpolate")


def upsample(x, factor: int, method: str = "bilinear") -> Tensor:
    """Scale both spatial extents by a positive integer factor."""
    x = _coerce(x)
    if int(factor) != factor or factor < 1:
        raise ShapeError(f"upsample: factor must be a positive integer, got {factor!r}")
    factor = int(factor)
    if x.ndim != 4:
        raise ShapeError(f"upsample: input must be 4-D NCHW, got {x.ndim}-D")
    return interpolate(x, x.shape[2] * factor, x.shape[3] * factor, method=method)


# -- channel plumbing --------------------------------------------------------


def concat_channels(inputs) -> Tensor:
    inputs = [_coerce(t) for t in inputs]
    if not inputs:
        raise ShapeError("concat_channels: need at least one input")
    first = inputs[0]
    for k, t in enumerate(inputs[1:], start=1):
        if t.ndim != 4 or first.ndim != 4:
            raise ShapeError("concat_channels: inputs must be 4-D NCHW")
        for dim in (0, 2, 3):
            if t.shape[dim] != first.shape[dim]:
                raise ShapeError(
                    f"concat_channels: input {k} extent {t.shape[dim]} != "
                    f"{first.shape[dim]} along dim {dim}"
                )
    out_data = np.concatenate([t.data for t in inputs], axis=1)
    splits = np.cumsum([t.shape[1] for t in inputs])[:-1]

    def backward(g):
        for t, gpart in zip(inputs, np.split(g, splits, axis=1)):
            _accumulate(t, gpart)

    return _make(out_data, tuple(inputs), backward, "concat_channels")


def channel_sum(x) -> Tensor:
    x = _coerce(x)
    if x.ndim != 4:
        raise ShapeError(f"channel_sum: input must be 4-D NCHW, got {x.ndim}-D")
    out_data = x.data.sum(axis=1, keepdims=True)

    def backward(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape).astype(g.dtype))

    return _make(out_data, (x,), backward, "channel_sum")
