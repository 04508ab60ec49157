"""Benchmark machinery that does not depend on the program under test.

Summary statistics, in-memory span tracing with self time, the synthetic
input generators and the output checks live here. Nothing in this module
imports ``icc``, so the tests can exercise the harness logic on its own.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# -- summary statistics ----------------------------------------------------------

TAIL_LADDER_PERMILLE = (500, 750, 900, 950, 990, 999)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    values = sorted(values)
    if not values:
        raise ValueError("median of no samples")
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else 0.5 * (values[mid - 1] + values[mid])


def tail_percentile(values) -> tuple[float, float] | None:
    """Highest ladder percentile with at least ten samples beyond it.

    Uses nearest rank: the p-th percentile is the sample at 1-based rank
    ceil(p/100 * n), and the samples beyond it are the n - rank larger ones.
    Returns (p, value), or None when even the median has fewer than ten.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for permille in TAIL_LADDER_PERMILLE:
        rank = -(-permille * n // 1000)  # exact integer ceil
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            best = (permille / 10.0, ordered[rank - 1])
    return best


def describe(values, unit: str) -> str:
    """'median <v> <unit> (n=<k>, p<P> <v>)' with the tail rule applied."""
    text = f"median {median(values):.6g} {unit} (n={len(values)}"
    tail = tail_percentile(values)
    if tail is None:
        text += ", no tail percentile: too few samples"
    else:
        text += f", p{tail[0]:g} {tail[1]:.6g} {unit}"
    return text + ")"


# -- tracing -----------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    call: int  # workload call the span belongs to; -1 during set-up

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans around calls into module and class attributes.

    ``install`` replaces each registered attribute with one wrapper per
    attribute (never per instance) and ``uninstall`` puts the originals
    back, so untraced calls run the program's own code unchanged. Wrappers
    keep span records and scalars pulled out of results by an observer;
    they hold no reference to any returned object.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.observed: dict[str, list[tuple[int, object]]] = {}
        self._targets: list[tuple[object, str, str, object]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self._call = -1

    def register(self, owner, attr: str, name: str, observe=None) -> None:
        """Trace ``owner.attr`` as span ``name``.

        ``observe(args, kwargs, result)`` may return a scalar or tuple of
        scalars to record under ``name``; it must not keep ``result``.
        """
        self._targets.append((owner, attr, name, observe))

    def install(self, call: int) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._call = call
        for owner, attr, name, observe in self._targets:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, observe))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, original, name: str, observe):
        spans, stack, observed = self.spans, self._stack, self.observed
        call = self._call

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, call)
            if observe is not None:
                observed.setdefault(name, []).append((call, observe(args, kwargs, result)))
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        traced.__doc__ = getattr(original, "__doc__", None)
        return traced

    def write(self, path: Path) -> None:
        """One JSON line per span, with the run id on every line."""
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "run": self.run_id, "call": s.call, "id": i, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end,
                }) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its direct children."""
    children: list[list[Span]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        reach = s.start
        for k in sorted(kids, key=lambda k: k.start):
            lo, hi = max(k.start, reach, s.start), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


# -- synthetic inputs --------------------------------------------------------------

HEAD_MARGIN = 4.0


def synth_scene(rng: np.random.Generator, h: int, w: int, count: int):
    """Gaussian head blobs on a smooth textured background.

    Returns a [3, h, w] float32 image in [0, 1] and the head centres as
    (x, y) pixel coordinates. Each blob is drawn only inside a window of
    three standard deviations, which keeps 1080x1920 scenes cheap to make.
    """
    coarse = rng.uniform(-0.15, 0.15, size=(6, 6))
    wy = _linear_weights(h, coarse.shape[0])
    wx = _linear_weights(w, coarse.shape[1])
    scene = rng.uniform(0.25, 0.55) + wy @ coarse @ wx.T
    scene += rng.normal(0.0, 0.015, size=(h, w))
    points = []
    for _ in range(count):
        x = float(rng.uniform(HEAD_MARGIN, w - HEAD_MARGIN))
        y = float(rng.uniform(HEAD_MARGIN, h - HEAD_MARGIN))
        sigma = rng.uniform(1.5, 3.0)
        amp = rng.uniform(0.45, 0.8)
        r = int(math.ceil(3.0 * sigma))
        y0, y1 = max(0, int(y) - r), min(h, int(y) + r + 1)
        x0, x1 = max(0, int(x) - r), min(w, int(x) + r + 1)
        yy, xx = np.mgrid[y0:y1, x0:x1]
        scene[y0:y1, x0:x1] += amp * np.exp(-((xx - x) ** 2 + (yy - y) ** 2) / (2 * sigma**2))
        points.append((x, y))
    tint = rng.uniform(0.85, 1.0, size=(3, 1, 1))
    return np.clip(scene[None] * tint, 0.0, 1.0).astype(np.float32), points


def _linear_weights(n: int, knots: int) -> np.ndarray:
    """[n, knots] matrix that linearly interpolates knots spread over n samples."""
    pos = np.linspace(0.0, knots - 1, n)
    lo = np.minimum(np.floor(pos).astype(int), knots - 2)
    frac = pos - lo
    weights = np.zeros((n, knots))
    weights[np.arange(n), lo] = 1.0 - frac
    weights[np.arange(n), lo + 1] = frac
    return weights


def write_ppm(path: Path, image: np.ndarray) -> None:
    """Binary P6 PPM, maxval 255, from a [3, H, W] image in [0, 1]."""
    h, w = image.shape[1:]
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    Path(path).write_bytes(f"P6\n{w} {h}\n255\n".encode("ascii") + pixels.transpose(1, 2, 0).tobytes())


def write_points(path: Path, points) -> None:
    """ICCPTS 1 annotation file: one 'x y' head centre per line."""
    lines = ["ICCPTS 1"] + [f"{x!r} {y!r}" for x, y in points]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_iccd(path: Path) -> np.ndarray:
    """Read an ICCD density map written by the program as a float32 grid."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"ICCD":
        raise ValueError(f"{path}: not an ICCD file")
    version, h, w = (int(v) for v in np.frombuffer(raw[4:16], dtype="<u4"))
    if version != 1 or len(raw) != 16 + 4 * h * w:
        raise ValueError(f"{path}: unexpected ICCD version {version} or size {len(raw)}")
    return np.frombuffer(raw[16:], dtype="<f4").reshape(h, w).copy()


# -- output checks -----------------------------------------------------------------


def check_density(dmap: np.ndarray, count: float, image_hw: tuple[int, int],
                  reference: np.ndarray | None = None, rtol: float = 1e-3) -> list[str]:
    """Problems with one inference output; an empty list means it passed.

    The map must be ceil(H/8) x ceil(W/8), finite and non-negative, and the
    returned count must be its sum. Against a reference map, both the map
    and the count must agree to ``rtol`` of the reference's largest cell and
    of its count.
    """
    h, w = image_hw
    expected = (-(-h // 8), -(-w // 8))
    if dmap.shape != expected:
        return [f"map shape {dmap.shape} != {expected}"]
    problems = []
    if not np.all(np.isfinite(dmap)) or not math.isfinite(count):
        return ["non-finite map or count"]
    if dmap.min() < 0:
        problems.append(f"negative density {dmap.min():.3g}")
    total = float(dmap.sum(dtype=np.float64))
    if abs(total - count) > rtol * max(abs(count), 1e-12):
        problems.append(f"count {count!r} is not the map sum {total!r}")
    if reference is not None:
        err = float(np.abs(dmap.astype(np.float64) - reference).max())
        scale = float(np.abs(reference).max())
        if err > rtol * scale:
            problems.append(f"map differs from reference by {err:.3g} > {rtol} * {scale:.3g}")
        ref_count = float(reference.sum(dtype=np.float64))
        if abs(count - ref_count) > rtol * abs(ref_count):
            problems.append(f"count {count:.6g} differs from reference {ref_count:.6g}")
    return problems


def check_losses(losses, final: float, envelope: tuple[float, float]) -> list[str]:
    """Every loss finite, and the loss after the run inside the seed envelope."""
    if not all(math.isfinite(v) for v in losses) or not math.isfinite(final):
        return ["non-finite loss"]
    lo, hi = envelope
    if not lo <= final <= hi:
        return [f"final loss {final:.6g} outside the across-seed envelope [{lo:.6g}, {hi:.6g}]"]
    return []


def envelope(values, k: float = 4.0) -> tuple[float, float]:
    """mean +- k standard deviations of per-seed results (sample deviation)."""
    values = np.asarray(values, dtype=np.float64)
    m, s = float(values.mean()), float(values.std(ddof=1))
    return m - k * s, m + k * s
