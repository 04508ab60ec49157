"""The counting network as a declarative layer graph.

``build_icc`` assembles the full model: a 12-block Inception-style stem
(7 plain stem layers, three A blocks, one grid-reduction block, one block
with 7-factorized kernels) tapped at three depths, a multi-scale contextual
module on the shallowest tap, feature fusion, and a decoder that emits a
single-channel density map at 1/8 the input resolution.

The graph is plain data: an ordered list of layer records with named inputs.
Each layer kind is described once, in ``KINDS``, for the executor, the operation
counter and the graph checks. Graphs serialize to a line-oriented text format
so external tools can consume the identical description.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, NumericError, ShapeError

BN_EPS = 1e-3
BN_MOMENTUM = 0.1
CONTEXT_WEIGHT_EPS = 1e-6
PAD_MULTIPLE = 32
OUTPUT_STRIDE = 8
IN_CHANNELS = 3
CONTEXT_SCALES = (1, 2, 3, 6)  # pooled grid sizes of the contextual module
DECODER_CHANNELS = (256, 128, 64)


@dataclass(frozen=True)
class Layer:
    name: str
    kind: str
    inputs: tuple[str, ...] = ()
    attrs: dict = field(default_factory=dict)
    block: str | None = None

    def reads(self) -> tuple[str, ...]:
        """Names of the values this layer reads: its inputs, then its ``match``."""
        match = self.attrs.get("match")
        return self.inputs if match is None else self.inputs + (match,)


@dataclass
class ModelConfig:
    width_scale: float = 1.0
    ablation: str = "none"  # one of ABLATIONS

    def __post_init__(self):
        if not 0 < self.width_scale < math.inf:
            raise ConfigError(f"width scale must be positive and finite, got {self.width_scale}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}")


@dataclass
class ParamSpec:
    name: str
    shape: tuple[int, ...]
    role: str  # conv_weight | conv_bias | bn_gamma | bn_beta | bn_running_mean | bn_running_var
    trainable: bool


@dataclass
class GraphDescription:
    layers: list[Layer]
    taps: dict[str, str]
    ablation: str | None = None

    def layer_map(self) -> dict[str, Layer]:
        return {l.name: l for l in self.layers}

    def parameters(self) -> list[ParamSpec]:
        return [spec for l in self.layers for spec in KINDS[l.kind].params(l)]

    def check_parameters(self, params: dict[str, np.ndarray]) -> np.dtype | None:
        """DataError unless ``params`` is exactly this graph's parameters, all of
        one float dtype; returns that dtype (None for a graph without any)."""
        specs = {s.name: s.shape for s in self.parameters()}
        dtypes = {n: np.asarray(params[n]).dtype for n in specs if n in params}
        counts = Counter(dtypes.values())
        dtype = max(counts, key=counts.get, default=None)
        found = {
            "missing": [n for n in specs if n not in params],
            "extra": [n for n in params if n not in specs],
            "misshapen": [
                f"{n} {np.shape(params[n])} (graph: {specs[n]})"
                for n in specs
                if n in params and np.shape(params[n]) != specs[n]
            ],
            f"not {dtype}": [f"{n} ({d})" for n, d in dtypes.items() if d != dtype],
        }
        problems = [
            f"{len(names)} {what}: {', '.join(names[:4])}{', ...' if len(names) > 4 else ''}"
            for what, names in found.items()
            if names
        ]
        if dtype not in (None, np.float32, np.float64):
            problems.append(f"dtype {dtype} is not float32 or float64")
        if problems:
            raise DataError("parameters do not match the graph: " + "; ".join(problems))
        return dtype

    # -- text serialization ---------------------------------------------

    def to_text(self) -> str:
        lines = ["ICCGRAPH 1", f"ablation {self.ablation or 'none'}"]
        for tap, name in self.taps.items():
            lines.append(f"tap {tap} {name}")
        for l in self.layers:
            parts = [f"layer {l.name} kind={l.kind}"]
            if l.inputs:
                parts.append("inputs=" + ",".join(l.inputs))
            for k in sorted(l.attrs):
                parts.append(f"{k}={_format_attr(l.attrs[k])}")
            if l.block:
                parts.append(f"block={l.block}")
            lines.append(" ".join(parts))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GraphDescription":
        """Parse ``to_text`` output; malformed text raises DataError.

        A ``tap=<name>`` layer token, written by older versions, binds like a
        ``tap <name> <layer>`` line; no tap may be bound to two layers.
        """
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "ICCGRAPH 1":
            raise DataError("not a graph description (missing 'ICCGRAPH 1' header)")
        ablation: str | None = None
        taps: dict[str, str] = {}
        layers: list[Layer] = []

        def bind(tap: str, name: str) -> None:
            if not tap:  # only a token can be empty; to_text would write an unreadable line
                raise DataError(f"layer {name}: empty tap name")
            if taps.setdefault(tap, name) != name:
                raise DataError(f"tap {tap} is bound to two layers ({taps[tap]!r}, {name!r})")

        for ln in lines[1:]:
            fields = ln.split()
            if fields[0] not in _GRAPH_LINE_FIELDS:
                raise DataError(f"unrecognized graph line: {ln!r}")
            if len(fields) < _GRAPH_LINE_FIELDS[fields[0]]:
                raise DataError(f"truncated graph line: {ln!r}")
            if fields[0] == "ablation":
                ablation = None if fields[1] == "none" else fields[1]
            elif fields[0] == "tap":
                bind(fields[1], fields[2])
            else:
                name = fields[1]
                kind = ""
                inputs: tuple[str, ...] = ()
                attrs: dict = {}
                block = None
                for tok in fields[2:]:
                    key, _, val = tok.partition("=")
                    if key == "kind":
                        kind = val
                    elif key == "inputs":
                        inputs = tuple(val.split(","))
                    elif key == "tap":
                        bind(val, name)
                    elif key == "block":
                        block = val
                    else:
                        attrs[key] = _parse_attr(val)
                layers.append(Layer(name, kind, inputs, attrs, block))
        earlier: set[str] = set()
        for l in layers:
            _check_layer(l, earlier)
            earlier.add(l.name)
        if "output" not in taps:
            raise DataError("graph description has no 'tap output' line")
        for tap, name in taps.items():
            if name not in earlier:
                raise DataError(f"tap {tap} names no layer ({name!r})")
        return cls(layers=layers, taps=taps, ablation=ablation)


# fewest whitespace-separated fields of each graph line kind, keyword included
_GRAPH_LINE_FIELDS = {"ablation": 2, "tap": 3, "layer": 2}


def _check_layer(l: Layer, earlier: set[str]) -> None:
    """DataError unless a parsed layer fits its kind and reads only earlier layers."""
    kind = KINDS.get(l.kind)
    if kind is None:
        raise DataError(f"layer {l.name}: unknown kind {l.kind!r}")
    if l.name in earlier:
        raise DataError(f"layer {l.name}: duplicate layer name")
    n = len(l.inputs)
    if n != kind.arity if kind.arity is not None else n < 1:
        wanted = "one or more" if kind.arity is None else kind.arity
        raise DataError(f"layer {l.name}: kind {l.kind} takes {wanted} inputs, got {n}")
    missing = sorted(kind.attrs.keys() - l.attrs.keys())
    if missing:
        raise DataError(f"layer {l.name}: kind {l.kind} needs attribute(s) {', '.join(missing)}")
    allowed = {**kind.attrs, **kind.optional}
    for key, value in l.attrs.items():
        t = allowed.get(key)
        if t is None:
            raise DataError(f"layer {l.name}: kind {l.kind} has no attribute {key!r}")
        if type(value) is not t and not (t is float and type(value) is int):
            raise DataError(f"layer {l.name}: attribute {key}={value!r} is not {t.__name__}")
        if t is float and not abs(value) <= sys.float_info.max:  # nan, inf, or an int past it
            raise DataError(f"layer {l.name}: attribute {key}={value!r} is not a finite float")
    for src in l.reads():
        if src not in earlier:
            raise DataError(f"layer {l.name}: {src!r} names no earlier layer")


def _format_attr(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _parse_attr(s: str):
    if s == "true":
        return True
    if s == "false":
        return False
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        return s


class _Builder:
    def __init__(self, width_scale: float):
        self.layers: list[Layer] = []
        self.width_scale = width_scale
        self.channels: dict[str, int] = {}

    def w(self, c: int) -> int:
        scaled = c * self.width_scale
        if not math.isfinite(scaled):
            raise ConfigError(f"width scale {self.width_scale} makes a {c}-channel layer infinite")
        return max(1, int(round(scaled)))

    def emit(self, name, kind, inputs=(), attrs=None, block=None, channels=None):
        self.layers.append(Layer(name, kind, tuple(inputs), dict(attrs or {}), block))
        if channels is None and inputs:
            channels = self.channels[inputs[0]]
        self.channels[name] = channels
        return name

    def conv(self, name, src, cout, k, stride=1, pad=None, bias=False, block=None):
        kh, kw = (k, k) if isinstance(k, int) else k
        if pad is None:
            pad = ((kh - 1) // 2, (kw - 1) // 2)
        ph, pw = (pad, pad) if isinstance(pad, int) else pad
        sh, sw = (stride, stride) if isinstance(stride, int) else stride
        cin = self.channels[src]
        return self.emit(
            name,
            "conv",
            [src],
            dict(cin=cin, cout=cout, kh=kh, kw=kw, stride_h=sh, stride_w=sw,
                 pad_h=ph, pad_w=pw, bias=bias),
            block=block,
            channels=cout,
        )

    def pool(self, name, kind, src, k, stride, pad, block=None):
        """A k x k ``kind`` ("maxpool" or "avgpool") layer, one stride and pad on both axes."""
        attrs = dict(window_h=k, window_w=k, stride_h=stride, stride_w=stride, pad_h=pad, pad_w=pad)
        return self.emit(name, kind, [src], attrs, block=block)

    def conv_bn_relu(self, name, src, cout, k, stride=1, pad=None, block=None):
        c = self.conv(f"{name}.conv", src, cout, k, stride=stride, pad=pad, block=block)
        b = self.emit(f"{name}.bn", "batchnorm", [c], dict(channels=cout), block=block)
        return self.emit(f"{name}.relu", "relu", [b], block=block)


def _inception_a(b: _Builder, name: str, src: str, pool_features: int) -> str:
    """Four-branch block: 1x1, 5x5 behind a bottleneck, double 3x3, pooled 1x1."""
    b1 = b.conv_bn_relu(f"{name}.b1", src, b.w(64), 1, block=name)
    b5 = b.conv_bn_relu(f"{name}.b5_1", src, b.w(48), 1, block=name)
    b5 = b.conv_bn_relu(f"{name}.b5_2", b5, b.w(64), 5, block=name)
    b3 = b.conv_bn_relu(f"{name}.b3_1", src, b.w(64), 1, block=name)
    b3 = b.conv_bn_relu(f"{name}.b3_2", b3, b.w(96), 3, block=name)
    b3 = b.conv_bn_relu(f"{name}.b3_3", b3, b.w(96), 3, block=name)
    pool = b.pool(f"{name}.pool", "avgpool", src, 3, 1, 1, block=name)
    bp = b.conv_bn_relu(f"{name}.pool_proj", pool, b.w(pool_features), 1, block=name)
    out_c = sum(b.channels[x] for x in (b1, b5, b3, bp))
    return b.emit(f"{name}.concat", "concat", [b1, b5, b3, bp], block=name, channels=out_c)


def _inception_b_reduction(b: _Builder, name: str, src: str) -> str:
    """Grid-reduction block: halves the spatial extents, widens channels."""
    b3 = b.conv_bn_relu(f"{name}.b3", src, b.w(384), 3, stride=2, block=name)
    db = b.conv_bn_relu(f"{name}.db_1", src, b.w(64), 1, block=name)
    db = b.conv_bn_relu(f"{name}.db_2", db, b.w(96), 3, block=name)
    db = b.conv_bn_relu(f"{name}.db_3", db, b.w(96), 3, stride=2, block=name)
    pool = b.pool(f"{name}.pool", "maxpool", src, 3, 2, 1, block=name)
    out_c = sum(b.channels[x] for x in (b3, db, pool))
    return b.emit(f"{name}.concat", "concat", [b3, db, pool], block=name, channels=out_c)


def _inception_c(b: _Builder, name: str, src: str, c7: int = 128) -> str:
    """Block built from 1x1 kernels and 7-factorized (7x1 / 1x7) pairs only."""
    b1 = b.conv_bn_relu(f"{name}.b1", src, b.w(192), 1, block=name)
    b7 = b.conv_bn_relu(f"{name}.b7_1", src, b.w(c7), 1, block=name)
    b7 = b.conv_bn_relu(f"{name}.b7_2", b7, b.w(c7), (1, 7), block=name)
    b7 = b.conv_bn_relu(f"{name}.b7_3", b7, b.w(192), (7, 1), block=name)
    db = b.conv_bn_relu(f"{name}.db_1", src, b.w(c7), 1, block=name)
    db = b.conv_bn_relu(f"{name}.db_2", db, b.w(c7), (7, 1), block=name)
    db = b.conv_bn_relu(f"{name}.db_3", db, b.w(c7), (1, 7), block=name)
    db = b.conv_bn_relu(f"{name}.db_4", db, b.w(c7), (7, 1), block=name)
    db = b.conv_bn_relu(f"{name}.db_5", db, b.w(192), (1, 7), block=name)
    pool = b.pool(f"{name}.pool", "avgpool", src, 3, 1, 1, block=name)
    bp = b.conv_bn_relu(f"{name}.pool_proj", pool, b.w(192), 1, block=name)
    out_c = sum(b.channels[x] for x in (b1, b7, db, bp))
    return b.emit(f"{name}.concat", "concat", [b1, b7, db, bp], block=name, channels=out_c)


def _contextual_module(b: _Builder, src: str, scales: tuple[int, ...]) -> str:
    """Multi-scale context: pooled features, contrast weights, gated fusion.

    For each scale s the base map is average-pooled to an s x s grid, mixed
    by a 1x1 conv, resized back, and compared against the base; a sigmoid
    gate weights each scale and the gated sum is normalized by the total
    gate mass. Output is concat(base, fused) with twice the channels.
    """
    c = b.channels[src]
    scale_feats = []
    gates = []
    for s in scales:
        pool = b.emit(f"context.s{s}.pool", "adaptive_avgpool", [src], dict(out_h=s, out_w=s))
        conv = b.conv(f"context.s{s}.mix", pool, c, 1, bias=False)
        up = b.emit(
            f"context.s{s}.up", "interpolate", [conv], dict(method="bilinear", match=src)
        )
        contrast = b.emit(f"context.s{s}.contrast", "sub", [up, src])
        wconv = b.conv(f"context.s{s}.gate", contrast, c, 1, bias=True)
        gate = b.emit(f"context.s{s}.sigmoid", "sigmoid", [wconv])
        scale_feats.append(b.emit(f"context.s{s}.gated", "mul", [gate, up]))
        gates.append(gate)

    num = scale_feats[0]
    den = gates[0]
    for i in range(1, len(scales)):
        num = b.emit(f"context.num_{i}", "add", [num, scale_feats[i]])
        den = b.emit(f"context.den_{i}", "add", [den, gates[i]])
    den = b.emit("context.den_eps", "scalar_add", [den], dict(value=CONTEXT_WEIGHT_EPS))
    fused = b.emit("context.fused", "div", [num, den])
    return b.emit("context.out", "concat", [src, fused], channels=2 * c)


# the full net, or the net without one of its two context paths
ABLATIONS = ("none", "no-context", "no-inception")


def build_icc(config: ModelConfig) -> GraphDescription:
    """Assemble the full counting network for the given configuration."""
    b = _Builder(config.width_scale)
    b.emit("input", "input", (), dict(channels=IN_CHANNELS), channels=IN_CHANNELS)

    x = b.conv_bn_relu("stem.conv1", "input", b.w(32), 3, stride=2, block="stem.conv1")
    x = b.conv_bn_relu("stem.conv2", x, b.w(32), 3, block="stem.conv2")
    x = b.conv_bn_relu("stem.conv3", x, b.w(64), 3, block="stem.conv3")
    x = b.pool("stem.pool1", "maxpool", x, 3, 2, 1, block="stem.pool1")
    x = b.conv_bn_relu("stem.conv4", x, b.w(80), 1, block="stem.conv4")
    x = b.conv_bn_relu("stem.conv5", x, b.w(192), 3, block="stem.conv5")
    feature1 = b.pool("stem.pool2", "maxpool", x, 3, 2, 1, block="stem.pool2")

    taps = {"Feature1": feature1}
    fusion_inputs: list[str] = []

    if config.ablation != "no-context":
        fusion_inputs.append(_contextual_module(b, feature1, CONTEXT_SCALES))

    if config.ablation != "no-inception":
        a = _inception_a(b, "inception_a1", feature1, 32)
        a = _inception_a(b, "inception_a2", a, 64)
        feature2 = _inception_a(b, "inception_a3", a, 64)
        taps["Feature2"] = feature2
        red = _inception_b_reduction(b, "reduction_b", feature2)
        feature3 = _inception_c(b, "inception_c1", red, c7=128)
        taps["Feature3"] = feature3
        f3_up = b.emit(
            "feature3_up", "interpolate", [feature3],
            dict(method="bilinear", factor=2),
        )
        fusion_inputs.extend([feature2, f3_up])

    if len(fusion_inputs) > 1:
        fused = b.emit(
            "fusion", "concat", fusion_inputs,
            channels=sum(b.channels[n] for n in fusion_inputs),
        )
    else:
        fused = fusion_inputs[0]

    x = fused
    for i, cout in enumerate(DECODER_CHANNELS):
        k = 1 if i == 0 else 3
        x = b.conv(f"decoder.conv{i + 1}", x, b.w(cout), k, bias=True)
        x = b.emit(f"decoder.relu{i + 1}", "relu", [x])
    taps["output"] = b.emit("density", "channel_sum", [x], channels=1)
    ablation = None if config.ablation == "none" else config.ablation
    return GraphDescription(layers=b.layers, taps=taps, ablation=ablation)


def build_vgg16_frontend() -> GraphDescription:
    """The 10-conv front end of a 16-layer VGG, for cost/size comparisons."""
    b = _Builder(1.0)
    b.emit("input", "input", (), dict(channels=IN_CHANNELS), channels=IN_CHANNELS)
    plan = [(64, 2), (128, 2), (256, 3), (512, 3)]
    x = "input"
    for stage, (c, reps) in enumerate(plan, start=1):
        for r in range(1, reps + 1):
            x = b.conv(f"conv{stage}_{r}", x, c, 3, bias=True)
            x = b.emit(f"relu{stage}_{r}", "relu", [x])
        if stage < len(plan):
            x = b.pool(f"pool{stage}", "maxpool", x, 2, 2, 0)
    return GraphDescription(layers=b.layers, taps={"output": x}, ablation=None)


# -- parameters ---------------------------------------------------------------


HEAD_INIT_SCALE = 0.01


def _output_head_convs(graph: GraphDescription) -> set[str]:
    """Conv layers feeding the channel-summed output (through relu, sigmoid, batch norm).

    The density head starts tiny so initial count predictions sit near zero;
    a full-strength head predicts counts orders of magnitude too large and
    the first epochs of count correction crush its rectifier units dead.
    """
    by_name = graph.layer_map()
    heads: set[str] = set()
    for l in graph.layers:
        if l.kind != "channel_sum" or l.name not in graph.taps.values():
            continue
        cur = by_name.get(l.inputs[0])
        while cur is not None and cur.kind in ("relu", "sigmoid", "batchnorm"):
            cur = by_name.get(cur.inputs[0])
        if cur is not None and cur.kind == "conv":
            heads.add(cur.name)
    return heads


def init_parameters(graph: GraphDescription, seed: int, dtype=None) -> dict[str, np.ndarray]:
    """Fan-in-scaled random initialization, deterministic per seed.

    Conv weights draw from N(0, 2/fan_in); biases start at zero, batch-norm
    scale at one, shift at zero, running statistics at (0, 1). The conv
    feeding the summed density output is additionally scaled down (see
    ``_output_head_convs``).
    """
    dtype = np.dtype(dtype or T.default_dtype())
    rng = np.random.default_rng(seed)
    heads = _output_head_convs(graph)
    params: dict[str, np.ndarray] = {}
    for spec in graph.parameters():
        if spec.role == "conv_weight":
            fan_in = int(np.prod(spec.shape[1:]))
            arr = rng.normal(0.0, np.sqrt(2.0 / fan_in), size=spec.shape)
            if spec.name.removesuffix(".w") in heads:
                arr *= HEAD_INIT_SCALE
        elif spec.role in ("conv_bias", "bn_beta", "bn_running_mean"):
            arr = np.zeros(spec.shape)
        else:  # bn_gamma, bn_running_var
            arr = np.ones(spec.shape)
        params[spec.name] = arr.astype(dtype)
    return params


def parameter_count(graph: GraphDescription) -> int:
    """Number of trainable parameter values."""
    return sum(int(np.prod(s.shape)) for s in graph.parameters() if s.trainable)


# -- layer kinds ----------------------------------------------------------------
#
# Rules get the values a layer reads: its inputs, then its ``match``; a layer
# without inputs reads the graph input. Shapes are (C, H, W); costs are
# (multiplies, adds) under ``flops.CONVENTION``. Forward ops look their
# ``icc.tensor`` function up when they run, never at import, and get the
# buffer their output goes into, or None for a fresh one.


@dataclass(frozen=True)
class Kind:
    attrs: dict[str, type]  # required attributes
    arity: int | None  # number of inputs; None means one or more
    shape: Callable  # (attrs, input shapes) -> output shape
    cost: Callable  # (attrs, input shapes, output shape) -> (multiplies, adds)
    run: Callable  # (layer, input tensors, parameters, mode, out) -> output tensor
    params: Callable = lambda l: []  # layer -> list[ParamSpec]
    optional: dict[str, type] = field(default_factory=dict)
    into: bool = False  # run writes into an ``out`` buffer it is given
    in_place: bool = False  # that buffer may be one of its inputs' own
    saves: tuple[str, ...] = ()  # what its backward reads: "inputs", "output"


def count_conv(
    cin: int, cout: int, kh: int, kw: int, hout: int, wout: int, bias: bool = False
) -> tuple[int, int]:
    """(multiplies, adds) for one convolution with the given output extent."""
    if min(cin, cout, kh, kw, hout, wout) < 1:
        raise ValueError("count_conv: all extents must be positive")
    outputs = hout * wout * cout
    k = kh * kw * cin
    return outputs * k, outputs * (k - 1 + (1 if bias else 0))


def _same_shape(a, ins):
    if any(s != ins[0] for s in ins[1:]):
        raise ShapeError(f"input shapes differ: {ins}")
    return ins[0]


def _channels_shape(a, ins):
    if ins[0][0] != a["channels"]:
        raise ShapeError(f"expects {a['channels']} channels, got {ins[0][0]} (dim 1)")
    return ins[0]


def _conv_shape(a, ins):
    c, h, w = ins[0]
    if c != a["cin"] or a["cout"] < 1:
        raise ShapeError(f"{a['cin']} -> {a['cout']} channels does not fit {c} input channels")
    return (a["cout"], T.window_out(h, a["kh"], a["stride_h"], a["pad_h"], "height"),
            T.window_out(w, a["kw"], a["stride_w"], a["pad_w"], "width"))


def _pool_shape(max_pool: bool):
    def shape(a, ins):
        c, h, w = ins[0]
        return (c, T.window_out(h, a["window_h"], a["stride_h"], a["pad_h"], "height", max_pool),
                T.window_out(w, a["window_w"], a["stride_w"], a["pad_w"], "width", max_pool))

    return shape


def _adaptive_shape(a, ins):
    c, h, w = ins[0]
    if not (1 <= a["out_h"] <= h and 1 <= a["out_w"] <= w):
        raise ShapeError(f"target {(a['out_h'], a['out_w'])} exceeds input extent {(h, w)}")
    return (c, a["out_h"], a["out_w"])


def _interpolate_shape(a, ins):
    if a["method"] not in ("bilinear", "nearest"):
        raise ShapeError(f"unknown method {a['method']!r}")
    c, h, w = ins[0]
    if a.get("factor", 1) < 1:
        raise ShapeError(f"factor must be positive, got {a['factor']}")
    if "factor" in a:
        return (c, h * a["factor"], w * a["factor"])
    if "match" not in a:
        raise ShapeError("needs a factor or a match attribute")
    return (c, ins[1][1], ins[1][2])


def _concat_shape(a, ins):
    _, h, w = ins[0]
    for k, (_, hh, ww) in enumerate(ins[1:], start=1):
        if (hh, ww) != (h, w):
            raise ShapeError(f"input {k} spatial {hh}x{ww} != {h}x{w}")
    return (sum(s[0] for s in ins), h, w)


def _per_element(mult: int, add: int):
    """Cost rule: ``mult`` multiplies and ``add`` adds per output element."""
    return lambda a, ins, out: (mult * out[0] * out[1] * out[2], add * out[0] * out[1] * out[2])


def _conv_cost(a, ins, out):
    return count_conv(a["cin"], a["cout"], a["kh"], a["kw"], out[1], out[2], a.get("bias", False))


def _interpolate_cost(a, ins, out):
    return _per_element(4, 3)(a, ins, out) if a["method"] == "bilinear" else (0, 0)


def _pool_cost(a, ins, out):
    return 0, out[0] * out[1] * out[2] * (a["window_h"] * a["window_w"] - 1)


def _adaptive_cost(a, ins, out):
    c, h, w = ins[0]
    oh, ow = a["out_h"], a["out_w"]
    add = 0
    for i in range(oh):
        rh = -(-(i + 1) * h // oh) - (i * h // oh)
        for j in range(ow):
            rw = -(-(j + 1) * w // ow) - (j * w // ow)
            add += c * (rh * rw - 1)
    return 0, add


_BN_PARAMS = ("gamma", "beta", "running_mean", "running_var")


def _conv_params(l: Layer) -> list[ParamSpec]:
    a = l.attrs
    w = ParamSpec(f"{l.name}.w", (a["cout"], a["cin"], a["kh"], a["kw"]), "conv_weight", True)
    return [w, ParamSpec(f"{l.name}.b", (a["cout"],), "conv_bias", True)] if a.get("bias") else [w]


def _batchnorm_params(l: Layer) -> list[ParamSpec]:
    c = (l.attrs["channels"],)
    return [ParamSpec(f"{l.name}.{p}", c, f"bn_{p}", p in ("gamma", "beta")) for p in _BN_PARAMS]


def _input_run(l, ins, p, mode, out):
    _channels_shape(l.attrs, [ins[0].shape[1:]])
    return T.Tensor(ins[0])


def _conv_run(l, ins, p, mode, out):
    a, bias = l.attrs, p[f"{l.name}.b"] if l.attrs.get("bias") else None
    return T.conv2d(ins[0], p[f"{l.name}.w"], stride=(a["stride_h"], a["stride_w"]),
                    padding=(a["pad_h"], a["pad_w"]), bias=bias)


def _batchnorm_run(l, ins, p, mode, out):
    g, b, m, v = (p[f"{l.name}.{k}"] for k in _BN_PARAMS)
    return T.batchnorm2d(ins[0], g, b, m, v, mode=mode, eps=BN_EPS, momentum=BN_MOMENTUM, out=out)


def _pool_run(op: str):
    def run(l, ins, p, mode, out):
        a = l.attrs
        stride, pad = (a["stride_h"], a["stride_w"]), (a["pad_h"], a["pad_w"])
        into = {} if out is None else {"out": out}  # only maxpool is given a buffer
        return getattr(T, op)(ins[0], (a["window_h"], a["window_w"]), stride=stride, padding=pad,
                              **into)

    return run


def _interpolate_run(l, ins, p, mode, out):
    a = l.attrs
    if "factor" in a:
        return T.upsample(ins[0], a["factor"], method=a["method"], out=out)
    return T.interpolate(ins[0], ins[1].shape[2], ins[1].shape[3], method=a["method"], out=out)


def _op(name: str):
    """Forward op calling ``icc.tensor.<name>(*inputs, out=out)``."""
    return lambda l, ins, p, mode, out: getattr(T, name)(*ins, out=out)


_STRIDE_PAD = dict(stride_h=int, stride_w=int, pad_h=int, pad_w=int)
_POOL = dict(window_h=int, window_w=int, **_STRIDE_PAD)

# name: Kind(attrs, arity, shape, cost, run[, params][, optional][, into][, in_place][, saves])
_INTO = dict(into=True)
_IN_PLACE = dict(into=True, in_place=True)
_INPUTS, _OUTPUT = ("inputs",), ("output",)
KINDS: dict[str, Kind] = {
    "input": Kind({"channels": int}, 0, _channels_shape, _per_element(0, 0), _input_run),
    "conv": Kind(dict(cin=int, cout=int, kh=int, kw=int, **_STRIDE_PAD), 1, _conv_shape,
                 _conv_cost, _conv_run, _conv_params, optional={"bias": bool}, saves=_INPUTS),
    "batchnorm": Kind({"channels": int}, 1, _channels_shape, _per_element(1, 1), _batchnorm_run,
                      _batchnorm_params, **_IN_PLACE, saves=_INPUTS),
    "relu": Kind({}, 1, _same_shape, _per_element(0, 1), _op("relu"), **_IN_PLACE,
                 saves=_OUTPUT),
    "sigmoid": Kind({}, 1, _same_shape, _per_element(0, 1), _op("sigmoid"), **_IN_PLACE,
                    saves=_OUTPUT),
    "maxpool": Kind(_POOL, 1, _pool_shape(True), _pool_cost, _pool_run("maxpool2d"), **_INTO,
                    saves=_INPUTS + _OUTPUT),
    "avgpool": Kind(_POOL, 1, _pool_shape(False), _pool_cost, _pool_run("avgpool2d")),
    "adaptive_avgpool": Kind(
        {"out_h": int, "out_w": int}, 1, _adaptive_shape, _adaptive_cost,
        lambda l, ins, p, mode, out: T.adaptive_avgpool2d(ins[0], l.attrs["out_h"],
                                                          l.attrs["out_w"])),
    "interpolate": Kind({"method": str}, 1, _interpolate_shape, _interpolate_cost,
                        _interpolate_run, optional={"factor": int, "match": str}, **_INTO),
    "concat": Kind({}, None, _concat_shape, _per_element(0, 0),
                   lambda l, ins, p, mode, out: T.concat_channels(ins, out=out), **_INTO),
    "channel_sum": Kind({}, 1, lambda a, ins: (1, ins[0][1], ins[0][2]),
                        lambda a, ins, out: (0, out[1] * out[2] * (ins[0][0] - 1)),
                        lambda l, ins, p, mode, out: T.channel_sum(ins[0])),
    "add": Kind({}, 2, _same_shape, _per_element(0, 1), _op("add"), **_IN_PLACE),
    "sub": Kind({}, 2, _same_shape, _per_element(0, 1), _op("sub"), **_IN_PLACE),
    "mul": Kind({}, 2, _same_shape, _per_element(1, 0), _op("mul"), **_IN_PLACE, saves=_INPUTS),
    "div": Kind({}, 2, _same_shape, _per_element(1, 0), _op("div"), **_IN_PLACE, saves=_INPUTS),
    "scalar_add": Kind({"value": float}, 1, _same_shape, _per_element(0, 1),
                       lambda l, ins, p, mode, out: T.add(ins[0], float(l.attrs["value"]), out=out),
                       **_IN_PLACE),
}


def padded_shape(shape: tuple[int, int, int]) -> tuple[int, int, int]:
    """(C, H, W) with H and W rounded up to the execution pad multiple."""
    c, h, w = (int(v) for v in shape)
    return (c, h + (-h) % PAD_MULTIPLE, w + (-w) % PAD_MULTIPLE)


def infer_shapes(graph: GraphDescription, shape: tuple[int, int, int]) -> dict[str, tuple]:
    """Each layer's output (C, H, W) for a graph input of ``shape``; ShapeError names the layer."""
    shapes: dict[str, tuple] = {}
    for l in graph.layers:
        try:
            ins = [shapes[s] for s in l.reads()] if l.inputs else [tuple(shape)]
            shapes[l.name] = KINDS[l.kind].shape(l.attrs, ins)
        except KeyError as e:
            raise ShapeError(f"{l.name} ({l.kind}): {e.args[0]!r} is not defined") from None
        except ShapeError as e:
            raise ShapeError(f"{l.name}: {e}") from None
    return shapes


# -- execution ----------------------------------------------------------------


class _BufferPlan:
    """Where each layer of a forward writes its output.

    Made from the graph and ``infer_shapes`` before the layer loop:
    - placement: a layer whose kind writes into a given buffer, and which a
      concat reads once, writes straight into its channel slice of that
      concat's output (the first such concat's). A placed concat's slice
      holds its own inputs' slices, so nested concats share one buffer, and
      a concat copies only the inputs not already in place.
    - donation: an in-place kind writes over the first of its inputs whose
      last reader it is, which it reads once, and which is neither the graph
      input, a tap, placed, nor a concat holding placed inputs (their slices
      of its buffer may still be read).
    With ``grad`` the forward records, and a backward may read a layer's
    data again: only a kind whose backward reads none of its inputs takes a
    donation, and only from a layer whose output no backward reads (see
    ``Kind.saves``). Placement writes a fresh buffer and needs no such rule,
    but it leaves taps out: a tap outlives the sweep, and as a view it would
    keep its concat's whole buffer alive after the backward.
    A concat's buffer is made when its first placed input runs and dropped
    from the plan when the concat takes it. The plan holds no reference
    cycle, which would keep its buffers until the cyclic GC ran.
    """

    def __init__(self, graph: GraphDescription, shapes: dict[str, tuple], n: int, dtype,
                 last_reader: dict[str, int], keep: set[str], grad: bool = False):
        kind = {l.name: KINDS[l.kind] for l in graph.layers}
        read_back: set[str] = set()  # layers whose output a recorded backward reads
        if grad:
            for l in graph.layers:
                if "inputs" in kind[l.name].saves:
                    read_back.update(l.reads())
                if "output" in kind[l.name].saves:
                    read_back.add(l.name)
        self.placed: dict[str, tuple[str, int]] = {}  # layer -> (concat, first channel)
        for l in graph.layers:
            if l.kind == "concat":
                c = 0
                for src in l.inputs:
                    if kind[src].into and l.inputs.count(src) == 1 and not (grad and src in keep):
                        self.placed.setdefault(src, (l.name, c))
                    c += shapes[src][0]
        hosts = {concat for concat, _ in self.placed.values()}
        self.donor: dict[str, str] = {}  # layer -> the input it writes over
        for i, l in enumerate(graph.layers):
            k = kind[l.name]
            if not k.in_place or l.name in self.placed or grad and "inputs" in k.saves:
                continue
            reads = l.reads()
            dying = [src for src in reads if last_reader[src] == i and reads.count(src) == 1
                     and src not in self.placed and src not in hosts and src not in keep
                     and src not in read_back and kind[src].arity != 0]
            if dying:
                self.donor[l.name] = dying[0]
        self.shapes, self.n, self.dtype = shapes, n, dtype
        self.buffers: dict[str, np.ndarray] = {}  # outputs made before their layer runs

    def out(self, l: Layer, values: dict[str, T.Tensor]) -> np.ndarray | None:
        """The buffer ``l`` writes into, or None for a fresh one."""
        if l.name in self.donor:
            return values[self.donor[l.name]].data
        if l.kind != "concat" and l.name not in self.placed:
            return None
        buf = self._slot(l.name)
        del self.buffers[l.name]  # from here its output tensor holds it
        return buf

    def _slot(self, name: str) -> np.ndarray:
        """``name``'s output buffer, kept until it runs: its channel slice of
        its concat's buffer when placed, else a new array."""
        if name not in self.buffers:
            if name in self.placed:
                concat, c = self.placed[name]
                self.buffers[name] = self._slot(concat)[:, c : c + self.shapes[name][0]]
            else:
                self.buffers[name] = np.empty((self.n,) + self.shapes[name], self.dtype)
        return self.buffers[name]


@dataclass
class ForwardResult:
    output: T.Tensor
    taps: dict[str, T.Tensor]
    param_tensors: dict[str, T.Tensor]

    def backward(self, seed: np.ndarray) -> dict[str, np.ndarray]:
        """Reverse sweep from the output; returns the parameter gradient map.

        Parameters the output does not depend on report zero gradients. The
        sweep consumes the graph: it frees every intermediate gradient and
        every activation not held by ``output`` or a tap, and the parameter
        tensors keep their gradients. A second call raises RuntimeError.
        """
        if not self.output.requires_grad:
            raise RuntimeError("backward() needs a forward run with requires_grad=True")
        self.output.backward(seed)
        return {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in self.param_tensors.items()
        }


def forward(
    graph: GraphDescription,
    params: dict[str, np.ndarray],
    x: np.ndarray,
    mode: str = "eval",
    requires_grad: bool = False,
) -> ForwardResult:
    """Execute the graph on a batch [N, C, H, W].

    ``mode`` selects batch-norm behaviour (train updates running statistics
    in place). With ``requires_grad`` the parameters require grad, so every
    op that reads one records its backward and the result supports
    ``backward``; without it no op records anything. Either way a
    ``_BufferPlan`` made before the layer loop writes concat inputs into
    their channel slices and lets elementwise and batch-norm layers write
    over a dead input, with the same values. When the forward records, no
    layer writes over data a backward reads (relu writes over its batch
    norm, never batch norm over its conv) and no tap is placed; without grad
    a tap may be a view into a larger concat buffer, which it keeps alive.
    An intermediate is kept only when a tap names its layer. ``params`` must
    match the graph (DataError otherwise), and ``x`` is cast to their dtype
    and never written. A NumericError or ValueError (ShapeError, DataError)
    raised by a layer is raised again as its own type, prefixed with the
    layer's name.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    x = np.asarray(x, dtype=graph.check_parameters(params))
    if x.ndim != 4:
        raise ShapeError(f"forward: input must be [N, C, H, W], got shape {x.shape}")
    param_tensors = {
        s.name: T.Tensor(params[s.name], requires_grad=requires_grad)
        for s in graph.parameters()
        if s.trainable
    }
    p = {**params, **param_tensors}

    keep = set(graph.taps.values())
    last_reader = {src: i for i, l in enumerate(graph.layers) for src in l.reads()}
    plan = _BufferPlan(graph, infer_shapes(graph, x.shape[1:]), x.shape[0], x.dtype,
                       last_reader, keep, requires_grad)
    values: dict[str, T.Tensor] = {}
    taps: dict[str, T.Tensor] = {}
    for i, l in enumerate(graph.layers):
        ins = [values[s] for s in l.reads()] if l.inputs else [x]
        try:
            out = KINDS[l.kind].run(l, ins, p, mode, plan.out(l, values))
        except (NumericError, ValueError) as e:
            raise type(e)(f"{l.name}: {e}") from e
        values[l.name] = out
        for t, n in graph.taps.items():
            if n == l.name:
                taps[t] = out
        for src in l.reads():
            if last_reader[src] == i and src not in keep:
                values.pop(src, None)

    output = taps.get("output") or values[graph.layers[-1].name]
    return ForwardResult(output=output, taps=taps, param_tensors=param_tensors)


# -- whole-image prediction ----------------------------------------------------


def pad_to_multiple(image: np.ndarray, multiple: int = PAD_MULTIPLE) -> np.ndarray:
    """Reflect-pad the trailing two axes up to the next multiple."""
    h, w = image.shape[-2:]
    ph = (-h) % multiple
    pw = (-w) % multiple
    if ph == 0 and pw == 0:
        return image
    pad = [(0, 0)] * (image.ndim - 2) + [(0, ph), (0, pw)]
    mode = "reflect" if ph < h and pw < w else "edge"
    return np.pad(image, pad, mode=mode)


def predict_density(
    graph: GraphDescription, params: dict[str, np.ndarray], image: np.ndarray
) -> np.ndarray:
    """Run one [C, H, W] image through the net; returns the stride-8 map.

    The image is reflect-padded to a multiple of 32 and the output cropped
    back to ceil(H/8) x ceil(W/8). An image the graph cannot take, or a graph
    whose output is not a one-channel stride-8 map, raises DataError naming
    the size or shape and the layer.
    """
    if image.ndim != 3:
        raise ShapeError(f"predict_density: image must be [C, H, W], got {image.shape}")
    h, w = image.shape[1:]
    c, hp, wp = padded_shape(image.shape)
    try:
        shapes = infer_shapes(graph, (c, hp, wp))
    except ShapeError as e:
        raise DataError(f"a {h}x{w} image (padded to {hp}x{wp}) does not fit: {e}") from None
    tap, map_shape = graph.taps["output"], (1, hp // OUTPUT_STRIDE, wp // OUTPUT_STRIDE)
    if shapes[tap] != map_shape:
        raise DataError(f"output tap {tap} gives {shapes[tap]}, not a {map_shape} density map")
    padded = pad_to_multiple(image)
    result = forward(graph, params, padded[None], mode="eval", requires_grad=False)
    out = result.output.data[0, 0]
    return out[: -(-h // OUTPUT_STRIDE), : -(-w // OUTPUT_STRIDE)].copy()
