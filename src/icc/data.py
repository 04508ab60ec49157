"""Dot-annotated images to training samples, plus the on-disk formats.

Ground truth starts as a binary occupancy grid (one per head center, two
heads landing in one cell simply sum) and is downsampled by non-overlapping
8x8 sum pooling, which is the unique count-preserving reduction. Formats:
PPM (P6) images, ICCPTS point annotations, ICCD density maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ShapeError

DOWNSAMPLE = 8
# per-channel statistics applied before the network (ImageNet convention)
NORM_MEAN = np.array([0.485, 0.456, 0.406], dtype=np.float64)
NORM_STD = np.array([0.229, 0.224, 0.225], dtype=np.float64)

POINTS_HEADER = "ICCPTS 1"
DENSITY_MAGIC = b"ICCD"
DENSITY_VERSION = 1


@dataclass
class DensityMap:
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2:
            raise ShapeError(f"density map must be 2-D, got shape {self.values.shape}")
        if np.any(self.values < 0):
            raise ValueError("density map values must be non-negative")

    @property
    def count(self) -> float:
        return float(self.values.sum())


@dataclass
class AnnotatedImage:
    image: np.ndarray  # [3, H, W] floats in [0, 1]
    points: list[tuple[float, float]]  # (x=column, y=row) head centers
    id: str

    def __post_init__(self):
        h, w = self.image.shape[1:]
        for k, (x, y) in enumerate(self.points):
            if not (0 <= x < w and 0 <= y < h):
                raise DataError(
                    f"image {self.id!r}: point {k} at ({x}, {y}) outside bounds {w}x{h}"
                )

    @property
    def count(self) -> int:
        return len(self.points)


@dataclass
class Sample:
    image: np.ndarray  # [3, hc, wc] crop
    target: DensityMap  # (hc/8) x (wc/8)
    source_id: str
    offset: tuple[int, int]  # (top, left)


def rasterize(points, h: int, w: int) -> DensityMap:
    """Binary occupancy map from head centers; colliding heads accumulate."""
    values = np.zeros((h, w), dtype=np.float32)
    for k, (x, y) in enumerate(points):
        if not (0 <= x < w and 0 <= y < h):
            raise DataError(f"point {k} at ({x}, {y}) outside bounds {w}x{h}")
        values[int(np.floor(y)), int(np.floor(x))] += 1.0
    return DensityMap(values)


def downsample_by_8(dmap: DensityMap | np.ndarray) -> DensityMap:
    """Non-overlapping 8x8 sum pooling; ragged edges are zero-padded."""
    values = np.asarray(getattr(dmap, "values", dmap))
    h, w = values.shape
    ho, wo = -(-h // DOWNSAMPLE), -(-w // DOWNSAMPLE)
    padded = np.zeros((ho * DOWNSAMPLE, wo * DOWNSAMPLE), dtype=values.dtype)
    padded[:h, :w] = values
    pooled = padded.reshape(ho, DOWNSAMPLE, wo, DOWNSAMPLE).sum(axis=(1, 3))
    return DensityMap(pooled)


def random_crop(ann: AnnotatedImage, hc: int, wc: int, rng: np.random.Generator) -> Sample:
    """Crop image and rebuild the downsampled target from in-crop points."""
    if hc % DOWNSAMPLE or wc % DOWNSAMPLE:
        raise ValueError(f"crop size {(hc, wc)} must be a multiple of {DOWNSAMPLE}")
    h, w = ann.image.shape[1:]
    if hc > h or wc > w:
        raise DataError(f"crop {(hc, wc)} larger than image {(h, w)} for {ann.id!r}")
    top = int(rng.integers(0, h - hc + 1))
    left = int(rng.integers(0, w - wc + 1))
    crop = ann.image[:, top : top + hc, left : left + wc].copy()
    inside = [
        (x - left, y - top)
        for x, y in ann.points
        if left <= x < left + wc and top <= y < top + hc
    ]
    target = downsample_by_8(rasterize(inside, hc, wc))
    return Sample(image=crop, target=target, source_id=ann.id, offset=(top, left))


def normalize(image: np.ndarray) -> np.ndarray:
    """Per-channel (value - mean) / std with the documented constants."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ShapeError(f"normalize: image must be [3, H, W], got {image.shape}")
    mean = NORM_MEAN.reshape(3, 1, 1).astype(image.dtype)
    std = NORM_STD.reshape(3, 1, 1).astype(image.dtype)
    return (image - mean) / std


# -- synthetic scenes --------------------------------------------------------


def generate_synthetic(
    count_range: tuple[int, int],
    h: int,
    w: int,
    n_images: int,
    seed: int,
) -> list[AnnotatedImage]:
    """Gaussian head blobs on a smooth textured background, one rng per seed.

    Heads keep a 4-pixel margin from the border, so an image needs at least
    8x8 pixels; ConfigError names an image count, count range, size or seed
    that cannot be made.
    """
    lo, hi = count_range
    margin = 4.0
    if n_images < 0:
        raise ConfigError(f"invalid image count {n_images}: need n >= 0")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if lo < 0 or hi < lo:
        raise ConfigError(f"invalid count range {lo}..{hi}: need 0 <= count-min <= count-max")
    if min(h, w) < 2 * margin:
        raise ConfigError(f"image size {h}x{w} is below the 8x8 minimum (4-pixel head margin)")
    rng = np.random.default_rng(seed)
    images = []
    yy, xx = np.mgrid[0:h, 0:w]
    for k in range(n_images):
        base = rng.uniform(0.25, 0.55)
        coarse = rng.uniform(-0.15, 0.15, size=(6, 6))
        tex = _bilinear_grid(coarse, h, w)
        scene = base + tex + rng.normal(0.0, 0.015, size=(h, w))
        count = int(rng.integers(lo, hi + 1))
        points = []
        for _ in range(count):
            x = float(rng.uniform(margin, w - margin))
            y = float(rng.uniform(margin, h - margin))
            points.append((x, y))
            sigma = rng.uniform(1.5, 3.0)
            amp = rng.uniform(0.45, 0.8)
            r2 = (xx - x) ** 2 + (yy - y) ** 2
            scene = scene + amp * np.exp(-r2 / (2.0 * sigma * sigma))
        tint = rng.uniform(0.85, 1.0, size=3)
        img = np.clip(scene[None] * tint.reshape(3, 1, 1), 0.0, 1.0).astype(np.float32)
        images.append(AnnotatedImage(image=img, points=points, id=f"synth_{seed}_{k:04d}"))
    return images


def _bilinear_grid(coarse: np.ndarray, h: int, w: int) -> np.ndarray:
    gh, gw = coarse.shape
    ry = np.linspace(0, gh - 1, h)
    rx = np.linspace(0, gw - 1, w)
    y0 = np.floor(ry).astype(int)
    x0 = np.floor(rx).astype(int)
    y1 = np.minimum(y0 + 1, gh - 1)
    x1 = np.minimum(x0 + 1, gw - 1)
    fy = (ry - y0)[:, None]
    fx = (rx - x0)[None, :]
    return (
        coarse[np.ix_(y0, x0)] * (1 - fy) * (1 - fx)
        + coarse[np.ix_(y1, x0)] * fy * (1 - fx)
        + coarse[np.ix_(y0, x1)] * (1 - fy) * fx
        + coarse[np.ix_(y1, x1)] * fy * fx
    )


# -- PPM (P6) -----------------------------------------------------------------


def write_ppm(path, image: np.ndarray) -> None:
    """Write a [3, H, W] float image in [0, 1] as binary PPM, maxval 255."""
    if image.ndim != 3 or image.shape[0] != 3:
        raise ShapeError(f"write_ppm: image must be [3, H, W], got {image.shape}")
    h, w = image.shape[1:]
    pixels = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.transpose(1, 2, 0).tobytes())


def read_ppm(path) -> np.ndarray:
    """Read a binary PPM into a [3, H, W] float32 image in [0, 1]."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read image {path}: {e}") from e
    if not raw.startswith(b"P6"):
        raise DataError(f"{path}: not a binary PPM (P6) file")
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # '#' comments allowed through the end of line
    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos < len(raw) and raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated PPM header")
        tokens.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError:
        raise DataError(f"{path}: malformed PPM header") from None
    if maxval != 255:
        raise DataError(f"{path}: unsupported PPM maxval {maxval}")
    if w < 0 or h < 0:
        raise DataError(f"{path}: negative PPM extents {w}x{h}")
    data = raw[pos : pos + 3 * h * w]
    if len(data) != 3 * h * w:
        raise DataError(f"{path}: truncated PPM pixel data")
    arr = np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3)
    return (arr.transpose(2, 0, 1).astype(np.float32)) / 255.0


# -- ICCPTS annotations --------------------------------------------------------


def write_points(path, points) -> None:
    lines = [POINTS_HEADER]
    for x, y in points:
        lines.append(f"{x!r} {y!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_points(path) -> list[tuple[float, float]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read annotations {path}: {e}") from e
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != POINTS_HEADER:
        raise DataError(f"{path}: missing '{POINTS_HEADER}' header")
    points = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise DataError(f"{path}: malformed point line {ln!r}")
        try:
            points.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise DataError(f"{path}: malformed point line {ln!r}") from None
    return points


# -- ICCD density maps -----------------------------------------------------------


def write_density(path, dmap: DensityMap | np.ndarray) -> None:
    values = np.asarray(getattr(dmap, "values", dmap), dtype="<f4")
    if values.ndim != 2:
        raise ShapeError(f"write_density: map must be 2-D, got {values.shape}")
    h, w = values.shape
    with open(path, "wb") as f:
        f.write(DENSITY_MAGIC)
        f.write(np.array([DENSITY_VERSION, h, w], dtype="<u4").tobytes())
        f.write(np.ascontiguousarray(values).tobytes())


def read_density(path) -> DensityMap:
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read density map {path}: {e}") from e
    if raw[:4] != DENSITY_MAGIC:
        raise DataError(f"{path}: not an ICCD density file")
    header = np.frombuffer(raw[4:16], dtype="<u4")
    if len(header) != 3:
        raise DataError(f"{path}: truncated ICCD header")
    version, h, w = (int(v) for v in header)
    if version != DENSITY_VERSION:
        raise DataError(f"{path}: unsupported ICCD version {version}")
    body = raw[16 : 16 + 4 * h * w]
    if len(body) != 4 * h * w:
        raise DataError(f"{path}: truncated ICCD data")
    return DensityMap(np.frombuffer(body, dtype="<f4").reshape(h, w).copy())


# -- dataset directories ----------------------------------------------------------


def save_dataset(images: list[AnnotatedImage], out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for ann in images:
        write_ppm(out / f"{ann.id}.ppm", ann.image)
        write_points(out / f"{ann.id}.pts", ann.points)


def load_dataset(data_dir) -> list[AnnotatedImage]:
    root = Path(data_dir)
    if not root.is_dir():
        raise DataError(f"dataset directory {data_dir} does not exist")
    images = []
    for ppm in sorted(root.glob("*.ppm")):
        pts = ppm.with_suffix(".pts")
        if not pts.exists():
            raise DataError(f"{ppm}: missing annotation file {pts.name}")
        image = read_ppm(ppm)
        points = read_points(pts)
        images.append(AnnotatedImage(image=image, points=points, id=ppm.stem))
    if not images:
        raise DataError(f"no .ppm images found in {data_dir}")
    return images
