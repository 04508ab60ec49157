"""Dense tensors with reverse-mode differentiation over a fixed operator set.

Everything is numpy underneath. A Tensor wraps one float32 or float64 array
(any other dtype is a ValueError) and the operators below record just enough
of the forward pass to run the reverse sweep. The operator set is exactly
what the counting network needs: conv2d (plus the two-stage separable form),
max/avg pooling, adaptive average pooling, batch norm, relu/sigmoid,
bilinear/nearest resizing, channel concat/slice/sum and elementwise arithmetic,
each a function (a Tensor has no arithmetic operators). An op takes one
dtype, as PyTorch's do: tensor operands that mix float32 and float64 are a
ValueError naming the op (``_one_dtype``), and the output has their dtype. A
Python number given to the arithmetic ops takes the dtype of the Tensor
beside it; an array keeps its own dtype.

Every forward op's output is finite, or NumericError names the op at once
instead of a NaN or Inf propagating silently. A Tensor records whether its
data was verified: ``_make`` sets this after it scans an op's output or
after the op's proof, and a Tensor the caller builds is never verified.
relu, sigmoid, max pooling and channel concat cannot make a non-finite value
from finite operands (every max-pooling window holds an in-bounds cell), so
they scan nothing when every operand is verified; an unverified operand's
output is scanned. Batch norm's four affine passes and its scan, both axis
passes of max pooling and both GEMMs of a separable linear map and its scan
run block by block over about ``_BLOCK_BYTES`` of the map (``_blocks``: whole
samples when one fits, else channel groups of one sample), and conv2d adds
its bias to each band of output rows and scans it right after the band's
GEMM, so that each pass finds its block still in cache and no whole-map
intermediate is made.
Batch norm's train-mode backward takes two per-channel sums, Σg and Σg·x̂,
and then writes x's gradient, in two passes over the same blocks.

An op records its backward exactly when one of its operands requires grad.
Each op has one forward, which runs whether or not it records. The reverse
sweep consumes the graph it runs: once a node's backward has run, the node
drops its gradient, its backward and its parents, so reference counting
frees each intermediate gradient and activation as the sweep passes it. No
op's backward holds its own output Tensor. Leaves (parameters and any tensor
without a backward) keep their gradients, and a second sweep through a spent
node is a RuntimeError. A node owns its ``.grad`` exclusively
(``_accumulate``): an op hands over an array it made fresh for one operand,
or its own ``g`` once, and that array becomes the operand's gradient with
no copy; a view or an array going to two operands is copied. So relu and
sigmoid write their backward product into their own ``g``, where that keeps
the product's C layout.

relu, sigmoid, the arithmetic ops, batch norm, max pooling, resizing and
channel concat take a numpy-style ``out=`` to write their output into, also
when they record. An op that records marks each operand whose data its
backward reads, and its output if that backward reads it, as ``_saved``:
conv and batch norm their input, max pooling its input and output, mul and
div both operands, relu and sigmoid their output (relu's mask, ``out > 0``,
is ``x > 0`` for finite ``x``). ``out`` may share no memory with an operand
that is ``_saved``, nor, when the op records, with an operand its own
backward reads (ValueError naming the op). So relu may write over its batch
norm, and add over a dying sum, but batch norm never over its conv and no
op over a sigmoid or max-pooling output; a concat checks only the channel
slices it copies into.

Conv and max pooling have one window walk, ``_clipped``: per window offset,
the strided view of the unpadded input's in-bounds cells and the outputs
that read them; no padded copy is made. conv2d copies these views into a
fixed-size column buffer one band of output rows at a time, the pad cells
reading as zeros, and multiplies each band straight into its slice of the
output (an unpadded 1x1 stride-1 conv reads each sample as its columns).
Its weight gradient refills the same bands, and its input gradient runs the
same band loop as forward convs of ``g``, one per stride phase: the input
rows and columns of one phase take a flipped, channel-swapped sub-kernel
at stride 1 (``_phases``; a stride-1 conv has one phase, the whole kernel
under pads ``k-1-p``), and no zeros are spread. Max pooling
reduces the views one axis at a time, and its backward adds into them at
each window's first maximum. Conv and pooling share one window rule,
``window_out``, which shape inference in ``icc.model`` uses too. Average
and adaptive average pooling and bilinear and nearest resizing are
separable linear maps, Rh·x·Rwᵀ, with the adjoint Rhᵀ·g·Rw as backward; all
but bilinear resizing take their weights from one box rule.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .errors import NumericError, ShapeError

_DEFAULT_DTYPE = np.float32
# Byte size of the conv2d column buffer; it holds one band of output rows.
_COL_BUFFER_BYTES = 8 << 20
# Byte size of a block that per-element passes run over while it stays in
# the L2 cache (see ``_blocks``).
_BLOCK_BYTES = 1 << 20


def set_default_dtype(dtype) -> None:
    """Select the dtype ``icc.model.init_parameters`` gives new parameters."""
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    _DEFAULT_DTYPE = dt.type


def default_dtype():
    return _DEFAULT_DTYPE


def _check_finite(data: np.ndarray, op: str) -> None:
    # A finite sum rules out NaN and Inf in one pass with no temporary; a
    # non-finite one may be an overflow of finite values, so scan then. Ops
    # call it on a whole output, on each block of one (batch norm, the
    # separable maps) or on each conv band, and not at all where verified
    # operands prove the output finite.
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


def _blocks(shape: tuple[int, ...], itemsize: int) -> list[tuple[slice, slice]]:
    """(samples, channels) slices that split an NCHW array of ``shape`` into
    blocks of at most ``_BLOCK_BYTES``, or one channel: whole samples when a
    sample fits in a block, else channel groups of one sample."""
    n, c, h, w = shape
    channel = h * w * itemsize
    if c * channel <= _BLOCK_BYTES:
        k = _BLOCK_BYTES // max(1, c * channel)
        return [(slice(s, s + k), slice(None)) for s in range(0, n, k)]
    k = max(1, _BLOCK_BYTES // channel)
    return [(slice(s, s + 1), slice(g, g + k)) for s in range(n) for g in range(0, c, k)]


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_verified",
                 "_saved")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            raise ValueError(f"Tensor data must be float32 or float64, not {arr.dtype}")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self._verified = False  # data known finite; only _make sets it
        self._saved = False  # data a recorded backward reads; only _make sets it

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
        """Run reverse-mode accumulation from this tensor, consuming its graph.

        ``seed`` is the upstream gradient; it defaults to 1 and is only
        optional when the tensor is scalar. Each node with a backward drops
        its gradient, backward and parents once its backward has run, so the
        sweep frees the graph as it goes; leaves keep their ``grad``. A second
        sweep through any node of a swept graph raises RuntimeError.
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
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward, node._parents = None, _spent, ()


def _spent(g: np.ndarray) -> None:
    """The backward a swept node keeps: its graph is gone."""
    raise RuntimeError("backward through a graph whose backward has already run; "
                       "run its forward again")


def _accumulate(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add ``g`` into ``t.grad``, which ``t`` owns exclusively: later
    gradients are added into it in place. With ``owned`` an op hands over an
    array it made fresh for ``t`` alone (or its own ``g``, once), kept as it
    is, layout and all; a view, an array going to two operands or one of
    another dtype is copied first."""
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif owned and g.dtype == t.data.dtype:
        t.grad = g
    else:
        t.grad = np.array(g, dtype=t.data.dtype)


def _make(data: np.ndarray, parents: tuple, backward, op: str, checked: bool = False,
          saves: tuple = (), saves_out: bool = False) -> Tensor:
    """``op``'s output Tensor, verified: scanned here unless ``checked``, which
    says the op scanned ``data`` itself or its verified operands prove it finite.
    When it records ``backward``, it marks ``saves``, the operands whose data
    that backward reads, and with ``saves_out`` the output, as ``_saved``."""
    if not checked:
        _check_finite(data, op)
    out = Tensor(data)
    out._verified = True
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
        out._saved = saves_out
        for t in saves:
            t._saved = True
    return out


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(op: str, a, b) -> tuple[Tensor, Tensor]:
    """Both operands as Tensors; a Python number takes the other's dtype, and
    an array keeps its own. Two numbers have no dtype: ValueError naming ``op``."""
    a_number, b_number = type(a) in (int, float), type(b) in (int, float)
    if a_number and b_number:
        raise ValueError(f"{op}: two Python numbers have no dtype; pass a Tensor or an array")
    if a_number:
        b = _coerce(b)
        return Tensor(np.asarray(a, dtype=b.dtype)), b
    a = _coerce(a)
    return a, Tensor(np.asarray(b, dtype=a.dtype)) if b_number else _coerce(b)


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


def _one_dtype(op: str, *operands: Tensor):
    """The one dtype of ``op``'s tensor operands; ValueError if they mix two."""
    dtype = operands[0].dtype
    for t in operands[1:]:
        if t.dtype != dtype:
            raise ValueError(f"{op}: operands mix {dtype} and {t.dtype}")
    return dtype


def _target(op: str, out, operands, shape, dtype, saves=()):
    """``out``, checked to take ``op``'s output of ``shape`` and ``dtype`` and
    to overwrite no data a recorded backward reads (``_unread``)."""
    if out is None:
        return None
    if out.shape != tuple(shape) or out.dtype != dtype:
        raise ValueError(f"{op}: out is {out.dtype} {out.shape}, not {np.dtype(dtype)} {tuple(shape)}")
    _unread(op, out, operands, saves)
    return out


def _unread(op: str, out: np.ndarray, operands, saves=()) -> None:
    """ValueError naming ``op`` if ``out`` shares memory with an operand that
    is ``_saved`` or, when ``op`` records, with one of ``saves``, the operands
    its own backward will read."""
    recording = any(t.requires_grad for t in operands)
    for t in operands:
        read = t._saved or (recording and t in saves)
        if read and np.shares_memory(out, t.data):
            raise ValueError(f"{op}: out shares memory with data a recorded backward reads")


# -- elementwise ------------------------------------------------------------


def _binary(op: str, a, b, forward, grads, out, reads: bool = False) -> Tensor:
    """``forward(a, b)`` on the operands' data, into ``out`` when given.
    ``grads(g, a, b)`` returns each operand's gradient at the broadcast shape;
    it is summed down to the operand's. ``reads`` says that the backward
    reads the operands' data."""
    a, b = _operands(op, a, b)
    dtype = _one_dtype(op, a, b)
    saves = (a, b) if reads else ()
    if out is not None:
        out = _target(op, out, (a, b), np.broadcast_shapes(a.shape, b.shape), dtype, saves)

    def backward(g):
        # each is fresh or ``g``, this node's own, which goes to one operand
        ga, gb = grads(g, a.data, b.data)
        ga, gb = _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)
        _accumulate(a, ga, owned=True)
        _accumulate(b, gb, owned=gb is not ga)

    # a non-finite result is _make's NumericError, not a numpy warning first
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = forward(a.data, b.data, out=out)
    return _make(out, (a, b), backward, op, saves=saves)


def add(a, b, out=None) -> Tensor:
    return _binary("add", a, b, np.add, lambda g, x, y: (g, g), out)


def sub(a, b, out=None) -> Tensor:
    return _binary("sub", a, b, np.subtract, lambda g, x, y: (g, -g), out)


def mul(a, b, out=None) -> Tensor:
    return _binary("mul", a, b, np.multiply, lambda g, x, y: (g * y, g * x), out, True)


def div(a, b, out=None) -> Tensor:
    return _binary("div", a, b, np.divide, lambda g, x, y: (g / y, -g * x / (y * y)), out,
                   True)


def tensor_sum(x: Tensor) -> Tensor:
    x = _coerce(x)
    out_data = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def backward(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape).astype(x.data.dtype), owned=True)

    return _make(out_data, (x,), backward, "sum")


def relu(x: Tensor, out=None) -> Tensor:
    x = _coerce(x)
    out_data = np.maximum(x.data, 0, out=_target("relu", out, (x,), x.shape, x.dtype))

    def backward(g):
        # ``g`` is this node's own, so the product goes into it when that keeps
        # the product's C layout (channel_sum's gradient is channel-innermost)
        _accumulate(x, np.multiply(g, out_data > 0, out=g if g.flags.c_contiguous else None),
                    owned=True)

    return _make(out_data, (x,), backward, "relu", checked=x._verified, saves_out=True)


def sigmoid(x: Tensor, out=None) -> Tensor:
    x = _coerce(x)
    out_data = expit(x.data, out=_target("sigmoid", out, (x,), x.shape, x.dtype))

    def backward(g):
        # into ``g`` when that keeps the C layout, as relu's
        gx = np.multiply(g, out_data, out=g if g.flags.c_contiguous else None)
        gx *= 1.0 - out_data
        _accumulate(x, gx, owned=True)

    return _make(out_data, (x,), backward, "sigmoid", checked=x._verified, saves_out=True)


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


def _clipped(n_in: int, n_out: int, window: int, stride: int, pad: int) -> list:
    """For each window offset along one axis padded by ``pad``: (outputs, inputs),
    the slice of the outputs whose cell at that offset lies inside [0, n_in)
    and the strided slice of those cells. The pad cells are left out; a
    negative pad skips leading cells."""
    spans = []
    for i in range(window):
        lo = max(0, -((i - pad) // stride))
        hi = max(lo, min(n_out, (n_in - 1 + pad - i) // stride + 1))
        first = lo * stride + i - pad
        spans.append((slice(lo, hi), slice(first, first + stride * (hi - lo), stride)))
    return spans


# -- convolution ------------------------------------------------------------


def _phases(n_in: int, k: int, stride: int, pad: int):
    """For each stride phase p of an axis of ``n_in`` inputs read by a
    ``k``-tap kernel at ``stride`` under ``pad``: (p, i0, taps, p', outputs).
    The inputs p::stride take the taps i0::stride, and their gradient is the
    correlation of the output gradient with those taps flipped, at stride 1
    under pad p' (negative: leading cells skipped), over ``outputs`` cells."""
    for p in range(min(stride, n_in)):
        i0 = (p + pad) % stride
        taps = len(range(i0, k, stride))
        yield p, i0, taps, taps - 1 - (p + pad) // stride, len(range(p, n_in, stride))


def _conv_bands(x: np.ndarray, kh, kw, sh, sw, ph, pw, ho, wo):
    """(sample, first output row, rows, columns) for each band of output rows
    of a conv over the unpadded ``x`` under pads ``ph``, ``pw`` (a negative
    pad skips cells), with ho x wo outputs.

    A band's columns, [C*kh*kw, rows*Wo], are filled into one buffer of
    ``_COL_BUFFER_BYTES`` that every band reuses, so they hold only until the
    next band is drawn. A band's rows are the first ``rows`` outputs of a
    window origin moved down by its first row, and each offset copies only
    its in-bounds cells. The buffer is zeroed, for the pad cells, only when a
    band's rows and row spans differ from the last band's. An unpadded 1x1
    stride-1 conv needs no columns: each sample is one band, viewed.
    """
    n, c, h, w = x.shape
    if kh == kw == sh == sw == 1 and ph == pw == 0 and (ho, wo) == (h, w):
        for s in range(n):
            yield s, 0, ho, x[s].reshape(c, ho * wo)
        return
    k = c * kh * kw
    band = max(1, min(ho, _COL_BUFFER_BYTES // (k * wo * x.itemsize)))
    buf = np.empty(k * band * wo, dtype=x.dtype)
    col_spans = _clipped(w, wo, kw, sw, pw)
    zeroed = None
    for s in range(n):
        for r0 in range(0, ho, band):
            r = min(band, ho - r0)
            cols = buf[: k * r * wo].reshape(c, kh, kw, r, wo)
            row_spans = _clipped(h, r, kh, sh, ph - sh * r0)
            layout = (r, [o for o, _ in row_spans])
            if layout != zeroed:
                cols[...] = 0
                zeroed = layout
            for i, (ro, ri) in enumerate(row_spans):
                for j, (co, ci) in enumerate(col_spans):
                    cols[:, i, j, ro, co] = x[s, :, ri, ci]
            yield s, r0, r, cols.reshape(k, r * wo)


def _correlate(x: np.ndarray, wmat: np.ndarray, kh, kw, sh, sw, ph, pw, ho, wo,
               bias=None, op=None) -> np.ndarray:
    """[N, Cout, ho*wo]: the [Cout, C*kh*kw] ``wmat`` times each band's columns
    of ``x`` under pads ``ph``, ``pw``, written straight into its slice of the
    output. Each band, while the GEMM has just left it in cache, gets ``bias``
    added when one is given and is scanned for ``op`` when one is named.
    """
    out = np.empty((x.shape[0], wmat.shape[0], ho * wo), x.dtype)
    # a non-finite weight times a zero pad is NaN; the scan reports it
    with np.errstate(invalid="ignore", over="ignore"):
        for s, r0, r, cols in _conv_bands(x, kh, kw, sh, sw, ph, pw, ho, wo):
            band = np.matmul(wmat, cols, out=out[s, :, r0 * wo : (r0 + r) * wo])
            if bias is not None:
                band += bias.reshape(-1, 1)
            if op is not None:
                _check_finite(band, op)
    return out


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
    _one_dtype("conv2d", *parents)
    geometry = (kh, kw, sh, sw, ph, pw, ho, wo)
    out = _correlate(x.data, weight.data.reshape(cout, -1), *geometry,
                     bias=None if b is None else b.data, op="conv2d")
    out_data = out.reshape(n, cout, ho, wo)

    def backward(g):
        if b is not None and b.requires_grad:
            _accumulate(b, g.sum(axis=(0, 2, 3)), owned=True)
        if weight.requires_grad:
            # Each band's columns are filled again here rather than kept
            # from the forward pass, so a step does not hold them for long.
            gmat = g.reshape(n, cout, ho * wo)
            gw = np.zeros((cout, cin * kh * kw), g.dtype)
            for s, r0, r, cols in _conv_bands(x.data, *geometry):
                gw += gmat[s, :, r0 * wo : (r0 + r) * wo] @ cols.T
            _accumulate(weight, gw.reshape(weight.shape), owned=True)
        if x.requires_grad:
            # The transposed conv as forward ones, one per stride phase (Shi
            # et al., 2016; see ``_phases``). The kernel, copied once with
            # its input channels innermost, gives each flipped sub-kernel
            # as whole rows, which enter the GEMM transposed.
            wt = np.ascontiguousarray(weight.data.transpose(0, 2, 3, 1))
            gx = np.zeros((n, cin, h, w), g.dtype) if (sh, sw) != (1, 1) else None
            for py, i0, ki, pi, hi in _phases(h, kh, sh, ph):
                for px, j0, kj, pj, wj in _phases(w, kw, sw, pw):
                    if ki == 0 or kj == 0:
                        continue  # no tap reaches these inputs
                    wsub = wt[:, i0::sh, j0::sw][:, ::-1, ::-1].reshape(-1, cin).T
                    part = _correlate(g, wsub, ki, kj, 1, 1, pi, pj, hi, wj).reshape(n, cin, hi, wj)
                    if gx is None:
                        gx = part
                    else:
                        gx[:, :, py::sh, px::sw] = part
            _accumulate(x, gx, owned=True)

    return _make(out_data, parents, backward, "conv2d", checked=True, saves=(x,))


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


def _max_along(a: np.ndarray, axis: int, window, stride, pad, n_out, out=None) -> np.ndarray:
    """Max pooling of the 4-D ``a`` along ``axis`` alone, into ``out`` when given.

    Each output folds its in-bounds cells in offset order, from -inf where
    the first offset's cell is a pad cell: the values of a fold over a
    -inf-padded copy, which is never made.
    """
    def at(sl):
        return (slice(None),) * axis + (sl,)

    if out is None:
        out = np.empty(a.shape[:axis] + (n_out,) + a.shape[axis + 1 :], a.dtype)
    (o, i), *rest = _clipped(a.shape[axis], n_out, window, stride, pad)
    out[at(slice(0, o.start))] = -np.inf
    out[at(slice(o.stop, None))] = -np.inf
    out[at(o)] = a[at(i)]
    for o, i in rest:
        np.maximum(out[at(o)], a[at(i)], out=out[at(o)])
    return out


def maxpool2d(x, window, stride=None, padding=0, out=None) -> Tensor:
    x = _coerce(x)
    stride = window if stride is None else stride
    wh, ww, sh, sw, ph, pw, ho, wo = _window("maxpool2d", x, window, stride, padding, max_pool=True)
    out_data = _target("maxpool2d", out, (x,), x.shape[:2] + (ho, wo), x.dtype, (x,))
    if out_data is None:
        out_data = np.empty(x.shape[:2] + (ho, wo), x.dtype)
    # Each window's maximum as a wh x 1 window's, then a 1 x ww window's,
    # block by block so that the row maxima stay in cache.
    for idx in _blocks(x.shape, x.data.itemsize):
        rows = _max_along(x.data[idx], 2, wh, sh, ph, ho)
        _max_along(rows, 3, ww, sw, pw, wo, out_data[idx])

    def backward(g):
        # The gradient goes to each window's first maximum in row-major offset
        # order. A pad cell, -inf, never equals a finite maximum, so the
        # offsets read the unpadded input through their clipped views.
        firsts = []
        taken = np.zeros(out_data.shape, bool)
        for ro, ri in _clipped(x.shape[2], ho, wh, sh, ph):
            for co, ci in _clipped(x.shape[3], wo, ww, sw, pw):
                first = (x.data[..., ri, ci] == out_data[..., ro, co]) & ~taken[..., ro, co]
                taken[..., ro, co] |= first
                firsts.append((ro, ri, co, ci, first))
        # Offsets run last to first, so that an input shared by several
        # windows sums their gradients in the windows' row-major order.
        gx = np.zeros(x.shape, g.dtype)
        for ro, ri, co, ci, first in reversed(firsts):
            gx[..., ri, ci] += g[..., ro, co] * first
        _accumulate(x, gx, owned=True)

    return _make(out_data, (x,), backward, "maxpool2d", checked=x._verified, saves=(x,),
                 saves_out=True)


# -- batch normalization ----------------------------------------------------


def _channel_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Σ a·b per channel of two NCHW blocks, over samples and pixels: a BLAS
    dot product per sample and channel, summed over the samples in float64."""
    n, c, h, w = a.shape
    dots = np.matmul(a.reshape(n * c, 1, h * w), b.reshape(n * c, h * w, 1))
    return dots.reshape(n, c).sum(axis=0, dtype=np.float64)


def batchnorm2d(
    x,
    gamma,
    beta,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    mode: str = "train",
    eps: float = 1e-3,
    momentum: float = 0.1,
    out=None,
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
    dtype = _one_dtype("batchnorm2d", x, gamma, beta)
    out = _target("batchnorm2d", out, (x, gamma, beta), x.shape, dtype, (x,))

    # a non-finite input is the scan's NumericError, not a numpy warning first
    with np.errstate(invalid="ignore", over="ignore"):
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
        scale, shift = gamma.data.reshape(1, c, 1, 1), beta.data.reshape(1, c, 1, 1)
        out_data = np.empty(x.shape, dtype) if out is None else out
        # Block by block, so that each pass and the scan find the block in cache.
        # ``out`` may be x's own buffer when nothing records: the statistics
        # are taken by now.
        blocks = _blocks(x.shape, x.data.itemsize)
        for samples, chans in blocks:
            block, per_channel = out_data[samples, chans], (slice(None), chans)
            np.subtract(x.data[samples, chans], m[per_channel], out=block)
            block *= inv[per_channel]
            block *= scale[per_channel]
            block += shift[per_channel]
            _check_finite(block, "batchnorm2d")

    def backward(g):
        # Two per-channel sums (Ioffe & Szegedy, 2015): Σg, beta's gradient,
        # and Σg·x̂, gamma's. In train mode x's gradient is
        # γ·inv·(g − Σg/N − x̂·Σg·x̂/N). Both passes run block by block: the
        # first recomputes x̂ into x's fresh gradient array and sums g·x̂, the
        # second turns each block of x̂ into that gradient in place.
        gsum = g.sum(axis=(0, 2, 3))
        train_x = mode == "train" and x.requires_grad
        if gamma.requires_grad or train_x:
            gx = np.empty(x.shape, dtype)
            gxhat = np.zeros(c)
            for samples, chans in blocks:
                per_channel = (slice(None), chans)
                xhat = np.subtract(x.data[samples, chans], m[per_channel],
                                   out=gx[samples, chans])
                xhat *= inv[per_channel]
                gxhat[chans] += _channel_dots(g[samples, chans], xhat)
            if train_x:
                mean_g = (gsum / count).reshape(m.shape)
                mean_gxhat = (gxhat / count).astype(dtype).reshape(m.shape)
                gain = scale * inv
                for samples, chans in blocks:
                    block, per_channel = gx[samples, chans], (slice(None), chans)
                    block *= -mean_gxhat[per_channel]
                    block += g[samples, chans]
                    block -= mean_g[per_channel]
                    block *= gain[per_channel]
                _accumulate(x, gx, owned=True)
            _accumulate(gamma, gxhat.astype(dtype), owned=True)
        if mode == "eval":
            _accumulate(x, g * scale * inv, owned=True)
        _accumulate(beta, gsum, owned=True)

    return _make(out_data, (x, gamma, beta), backward, "batchnorm2d", checked=True, saves=(x,))


# -- resampling -------------------------------------------------------------
#
# Average and adaptive average pooling and bilinear and nearest resizing are
# each one linear map per spatial axis, an [out, in] matrix R: the output is
# Rh·x·Rwᵀ and the backward its adjoint, Rhᵀ·g·Rw. All but bilinear resizing
# take box weights, each output the mean of a range of inputs.


def _box_axis(n_in: int, lo: np.ndarray, hi: np.ndarray, size, dtype) -> np.ndarray:
    """Row o is 1/size_o on [lo_o, hi_o) ∩ [0, n_in); an average pool's size
    counts the zero padding its window covers outside [0, n_in)."""
    cols = np.arange(n_in)
    inside = (cols >= lo[:, None]) & (cols < hi[:, None])
    return (inside / np.reshape(size, (-1, 1))).astype(dtype)


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


def _separable(rh: np.ndarray, rw: np.ndarray, a: np.ndarray, out=None, op=None) -> np.ndarray:
    """rh·a·rwᵀ over the two trailing axes of a 4-D array, into ``out`` when
    given. Block by block over ``_blocks`` of ``a``: each block goes along H,
    then along W straight into its slice of the output (through a temporary
    where that slice is not contiguous), and is scanned for ``op``, when one
    is named, while the W-axis GEMM has just left it in cache."""
    n, c, _, w = a.shape
    wo = rw.shape[0]
    if out is None:
        out = np.empty((n, c, rh.shape[0], wo), a.dtype)
    # a non-finite input meets zero weights (inf·0); the scan reports it
    with np.errstate(invalid="ignore", over="ignore"):
        for idx in _blocks(a.shape, a.itemsize):
            block = out[idx]
            into = block.reshape(-1, wo) if block.flags.c_contiguous else None
            # the H-axis product is freed as soon as the W-axis GEMM returns
            res = np.matmul(np.matmul(rh, a[idx]).reshape(-1, w), rw.T, out=into)
            if into is None:
                block[...] = res.reshape(block.shape)
            if op is not None:
                _check_finite(block, op)
    return out


def _resample(x: Tensor, rh: np.ndarray, rw: np.ndarray, op: str, out=None) -> Tensor:
    out = _target(op, out, (x,), x.shape[:2] + (rh.shape[0], rw.shape[0]), x.dtype)

    def backward(g):
        _accumulate(x, _separable(rh.T, rw.T, g), owned=True)

    return _make(_separable(rh, rw, x.data, out, op), (x,), backward, op, checked=True)


def avgpool2d(x, window, stride=None, padding=0) -> Tensor:
    """Mean pooling; zero padding counts toward the window size."""
    x = _coerce(x)
    stride = window if stride is None else stride
    wh, ww, sh, sw, ph, pw, ho, wo = _window("avgpool2d", x, window, stride, padding)
    axes = []
    for n_in, n_out, k, s, p in ((x.shape[2], ho, wh, sh, ph), (x.shape[3], wo, ww, sw, pw)):
        lo = np.arange(n_out) * s - p
        axes.append(_box_axis(n_in, lo, lo + k, k, x.dtype))
    return _resample(x, *axes, "avgpool2d")


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
    axes = []
    for n_in, n_out in ((h, out_h), (w, out_w)):
        o = np.arange(n_out)
        lo, hi = o * n_in // n_out, -(-(o + 1) * n_in // n_out)
        axes.append(_box_axis(n_in, lo, hi, hi - lo, x.dtype))
    return _resample(x, *axes, "adaptive_avgpool2d")


def interpolate(x, out_h: int, out_w: int, method: str = "bilinear", out=None) -> Tensor:
    """Resize the two trailing spatial axes to (out_h, out_w)."""
    x = _coerce(x)
    if x.ndim != 4:
        raise ShapeError(f"interpolate: input must be 4-D NCHW, got {x.ndim}-D")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"interpolate: target size {(out_h, out_w)} must be positive")
    if method not in ("bilinear", "nearest"):
        raise ValueError(f"interpolate: unknown method {method!r}")
    axes = []
    for n_in, n_out in ((x.shape[2], out_h), (x.shape[3], out_w)):
        if method == "bilinear":
            axes.append(_bilinear_axis(n_in, n_out, x.dtype))
        else:
            lo = np.arange(n_out) * n_in // n_out
            axes.append(_box_axis(n_in, lo, lo + 1, 1, x.dtype))
    return _resample(x, *axes, "interpolate", out)


def upsample(x, factor: int, method: str = "bilinear", out=None) -> Tensor:
    """Scale both spatial extents by a positive integer factor."""
    x = _coerce(x)
    if int(factor) != factor or factor < 1:
        raise ShapeError(f"upsample: factor must be a positive integer, got {factor!r}")
    factor = int(factor)
    if x.ndim != 4:
        raise ShapeError(f"upsample: input must be 4-D NCHW, got {x.ndim}-D")
    return interpolate(x, x.shape[2] * factor, x.shape[3] * factor, method=method, out=out)


# -- channel plumbing --------------------------------------------------------


def concat_channels(inputs, out=None) -> Tensor:
    """Channel concatenation, into ``out`` when given. An input whose data is
    already its channel slice of ``out`` is not copied."""
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
    shape = (first.shape[0], sum(t.shape[1] for t in inputs)) + first.shape[2:]
    dtype = _one_dtype("concat_channels", *inputs)
    out_data = _target("concat_channels", out, (), shape, dtype)
    if out_data is None:
        out_data = np.empty(shape, dtype)
    splits = np.cumsum([t.shape[1] for t in inputs])[:-1]
    copies = [(t, part) for t, part in zip(inputs, np.split(out_data, splits, axis=1))
              if part.__array_interface__ != t.data.__array_interface__]
    if out is not None:  # only the parts it writes must hold no data a backward reads
        for _, part in copies:
            _unread("concat_channels", part, inputs)
    for t, part in copies:
        part[...] = t.data

    def backward(g):
        for t, gpart in zip(inputs, np.split(g, splits, axis=1)):
            _accumulate(t, gpart)

    return _make(out_data, tuple(inputs), backward, "concat_channels",
                 checked=all(t._verified for t in inputs))


def channel_slice(x, start: int, stop: int) -> Tensor:
    """Channels [start, stop) of ``x`` (dim 1), as an array of their own."""
    x = _coerce(x)
    if x.ndim < 2 or not 0 <= start < stop <= x.shape[1]:
        raise ShapeError(f"channel_slice: [{start}, {stop}) is no channel range of {x.shape}")
    out_data = np.ascontiguousarray(x.data[:, start:stop])

    def backward(g):
        gx = np.zeros(x.shape, g.dtype)
        gx[:, start:stop] = g
        _accumulate(x, gx, owned=True)

    return _make(out_data, (x,), backward, "channel_slice", checked=x._verified)


def channel_sum(x) -> Tensor:
    x = _coerce(x)
    if x.ndim != 4:
        raise ShapeError(f"channel_sum: input must be 4-D NCHW, got {x.ndim}-D")
    out_data = x.data.sum(axis=1, keepdims=True)

    def backward(g):
        _accumulate(x, np.broadcast_to(g, x.data.shape).astype(g.dtype), owned=True)

    return _make(out_data, (x,), backward, "channel_sum")
