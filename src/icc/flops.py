"""Exact integer operation counts for a layer graph.

The counting convention prices a length-k inner product at k multiplies plus
k-1 adds (a bias adds one more), which is the unique rule reproducing the
worked single-conv example this module is calibrated against. Multiplies and
adds are tracked separately in every record: the multiply total also serves
as the fused multiply-accumulate count, the unit used by common complexity
reporting tools (one MAC per inner-product term), while ``total_ops`` is the
full multiply+add figure.

Secondary per-element rules (documented in the report's convention tag):
batch norm costs 2 ops/element in inference form (1 mul + 1 add), pooling
costs window-1 compares-or-adds per output, bilinear resampling 7 ops per
output element (4 mul + 3 add), relu and sigmoid 1 op/element, channel summation
C-1 adds/element; a few percent at most. The rules live in ``icc.model.KINDS``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import KINDS, GraphDescription, count_conv, infer_shapes, padded_shape

CONVENTION = (
    "length-k inner product = k mul + (k-1) add (+1 add with bias); "
    "bn eval 1 mul + 1 add/elem; pool (window-1) add/elem; "
    "bilinear 4 mul + 3 add/elem; nearest 0; activation 1 add/elem; "
    "elementwise 1 op/elem; channel_sum (C-1) add/elem. "
    "Fused multiply-accumulate total = multiply total."
)


@dataclass
class LayerCount:
    name: str
    kind: str
    out_shape: tuple[int, int, int]  # (C, H, W)
    multiplies: int
    adds: int

    @property
    def total(self) -> int:
        return self.multiplies + self.adds


@dataclass
class FlopReport:
    layers: list[LayerCount]
    input_shape: tuple[int, int, int]
    padded_shape: tuple[int, int, int]
    convention: str = CONVENTION

    @property
    def total_multiplies(self) -> int:
        return sum(l.multiplies for l in self.layers)

    @property
    def total_adds(self) -> int:
        return sum(l.adds for l in self.layers)

    @property
    def total_ops(self) -> int:
        return self.total_multiplies + self.total_adds

    def table(self) -> str:
        rows = [("layer", "kind", "output", "multiplies", "adds", "total")]
        for l in self.layers:
            c, h, w = l.out_shape
            rows.append(
                (l.name, l.kind, f"{c}x{h}x{w}", f"{l.multiplies:,}", f"{l.adds:,}", f"{l.total:,}")
            )
        widths = [max(len(r[i]) for r in rows) for i in range(6)]
        lines = []
        for i, r in enumerate(rows):
            lines.append(
                "  ".join(
                    cell.ljust(widths[j]) if j < 3 else cell.rjust(widths[j])
                    for j, cell in enumerate(r)
                )
            )
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        lines.append("")
        lines.append(f"input {self.input_shape} padded to {self.padded_shape}")
        lines.append(f"convention: {self.convention}")
        lines.append(
            f"total multiplies (fused-MAC units): {self.total_multiplies:,} "
            f"({gformat(self.total_multiplies)})"
        )
        lines.append(f"total adds: {self.total_adds:,} ({gformat(self.total_adds)})")
        lines.append(
            f"total operations (mul+add): {self.total_ops:,} ({gformat(self.total_ops)})"
        )
        return "\n".join(lines)

    def lines(self) -> str:
        """One machine-parsable record per layer, for diffing."""
        out = []
        for l in self.layers:
            c, h, w = l.out_shape
            out.append(
                f"{l.name} {l.kind} {c} {h} {w} {l.multiplies} {l.adds} {l.total}"
            )
        out.append(f"TOTAL - - - - {self.total_multiplies} {self.total_adds} {self.total_ops}")
        return "\n".join(out) + "\n"


def gformat(ops: int) -> str:
    """Format an operation count in units of 10^9 with two decimals."""
    return f"{ops / 1e9:.2f} G"


def factorization_savings(n: int, cin: int, cout: int, h: int, w: int) -> float:
    """Fraction of operations saved by the bottleneck factorization.

    Compares an n x n convolution (cin -> cout, valid) against a 1 x 1
    channel-collapsing convolution (cin -> 1) followed by the n x n
    convolution from the single channel (1 -> cout). Negative when the
    extra pass costs more than it saves (e.g. n = 1 on a single channel).
    """
    if n % 2 != 1:
        raise ValueError(f"factorization_savings: kernel extent must be odd, got {n}")
    if h < n or w < n:
        raise ValueError(f"factorization_savings: {n}x{n} kernel does not fit {h}x{w}")
    standard = sum(count_conv(cin, cout, n, n, h - n + 1, w - n + 1))
    collapsed = sum(count_conv(cin, 1, 1, 1, h, w))
    expanded = sum(count_conv(1, cout, n, n, h - n + 1, w - n + 1))
    return 1.0 - (collapsed + expanded) / standard


def count_graph(
    graph: GraphDescription,
    input_shape: tuple[int, int, int],
    pad_rule: bool = True,
) -> FlopReport:
    """Resolve every layer's shape, then price it with its kind's cost rule.

    ``input_shape`` is (C, H, W). With ``pad_rule`` the spatial extents are
    first rounded up to the execution pad multiple, matching what the runtime
    actually computes on.
    """
    shape = tuple(int(v) for v in input_shape)
    padded = padded_shape(shape) if pad_rule else shape
    shapes = infer_shapes(graph, padded)
    counts: list[LayerCount] = []
    for l in graph.layers:
        out = shapes[l.name]
        mult, add = KINDS[l.kind].cost(l.attrs, [shapes[s] for s in l.reads()], out)
        counts.append(LayerCount(l.name, l.kind, out, int(mult), int(add)))
    return FlopReport(layers=counts, input_shape=shape, padded_shape=padded)
