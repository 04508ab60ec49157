"""Training with validation-based checkpoint selection, evaluation, inference."""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import data as D
from . import loss as L
from . import model as M
from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, NumericError
from .optim import AdamW

PRED_MASS_FLOOR = 1e-8
ABLATIONS = ("none", "no-context", "no-inception")


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 8
    crop_size: int = 256
    learning_rate: float = 1e-4
    lr_gamma: float = 0.995  # applied per epoch
    lambda1: float = 0.1
    lambda2: float = 0.01
    ot_epsilon: float = 0.0  # 0 means the loss default (0.01 * mean cost)
    sinkhorn_iters: int = 200
    weight_decay: float = 1e-4
    seed: int = 0
    precision: int = 32
    width_scale: float = 1.0
    ablation: str = "none"  # one of ABLATIONS
    train_dir: str = ""
    val_dir: str = ""
    out_dir: str = "runs/default"

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        for key in ("ot_epsilon", "lambda1", "lambda2", "weight_decay"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0, got {getattr(self, key)}")
        if self.sinkhorn_iters < 1:
            raise ConfigError(f"sinkhorn_iters must be >= 1, got {self.sinkhorn_iters}")
        if not 0.0 < self.lr_gamma <= 1.0:
            raise ConfigError(f"lr gamma must lie in (0, 1], got {self.lr_gamma}")
        if self.crop_size < 1 or self.crop_size % M.PAD_MULTIPLE:
            raise ConfigError(
                f"crop size must be a positive multiple of {M.PAD_MULTIPLE}, got {self.crop_size}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.precision not in (32, 64):
            raise ConfigError(f"precision must be 32 or 64, got {self.precision}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"unknown ablation {self.ablation!r}")
        needed = max(M.CONTEXT_SCALES) * M.OUTPUT_STRIDE
        if self.model_config().use_contextual_module and self.crop_size < needed:
            raise ConfigError(
                f"crop size {self.crop_size} too small for contextual scales "
                f"{M.CONTEXT_SCALES} (needs >= {needed})"
            )

    def model_config(self) -> M.ModelConfig:
        return M.ModelConfig(
            use_contextual_module=self.ablation != "no-context",
            use_inception_blocks=self.ablation != "no-inception",
            width_scale=self.width_scale,
        )

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        return cls().apply_pairs(_parse_pairs(text.splitlines()))

    def apply_pairs(self, pairs: dict[str, str]) -> "TrainConfig":
        values = dataclasses.asdict(self)
        for key, raw in pairs.items():
            if key not in values:
                raise ConfigError(f"unknown config key {key!r}")
            current = getattr(self, key)
            try:
                if isinstance(current, int):
                    values[key] = int(raw)
                elif isinstance(current, float):
                    values[key] = float(raw)
                else:
                    values[key] = raw
            except ValueError:
                raise ConfigError(f"bad value {raw!r} for config key {key!r}") from None
        return TrainConfig(**values)


def _parse_pairs(lines) -> dict[str, str]:
    pairs = {}
    for ln in lines:
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        key, sep, val = ln.partition("=")
        if not sep:
            raise ConfigError(f"config line is not key=value: {ln!r}")
        pairs[key.strip()] = val.strip()
    return pairs


@dataclass
class EpochStats:
    epoch: int
    loss: float
    count_term: float
    ot_term: float
    tv_term: float
    val_mae: float
    lr: float
    solves: int  # Sinkhorn solves of the epoch
    unconverged: int  # of them, those stopped at the iteration cap
    marginal_error_max: float

    def line(self) -> str:
        return (
            f"epoch={self.epoch} loss={self.loss:.6f} l_c={self.count_term:.6f} "
            f"l_ot={self.ot_term:.6f} l_tv={self.tv_term:.6f} "
            f"val_mae={self.val_mae:.6f} lr={self.lr:.3e}"
        )


@dataclass
class TrainResult:
    history: list[EpochStats]
    best_epoch: int
    best_val_mae: float
    checkpoint_path: Path
    graph_path: Path
    log_path: Path


def _sample_loss(target: np.ndarray, pred: np.ndarray, cfg: TrainConfig):
    """Per-crop loss value, components, gradient w.r.t. the raw prediction
    and the Sinkhorn solve's (iterations, converged, marginal error).

    Empty ground truth degrades to the counting loss alone, with no solve
    (None); an all-zero prediction gets a uniform mass floor so transport
    stays defined.
    """
    if target.sum() <= 0:
        value, grad = L.counting_loss(target, pred)
        return value, (value, 0.0, 0.0), grad, None
    eps = cfg.ot_epsilon if cfg.ot_epsilon > 0 else None
    res = L.dm_count_loss(
        target,
        pred + PRED_MASS_FLOOR,
        lambda1=cfg.lambda1,
        lambda2=cfg.lambda2,
        epsilon=eps,
        max_iters=cfg.sinkhorn_iters,
    )
    solve = (res.iterations, res.converged, res.marginal_error)
    return res.total, (res.count_term, res.ot_term, res.tv_term), res.grad, solve


def train(config: TrainConfig) -> TrainResult:
    """Run the training loop; keeps the checkpoint with the best validation MAE."""
    train_images = D.load_dataset(config.train_dir)
    val_images = D.load_dataset(config.val_dir)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "model.iccw"
    graph_path = out_dir / "model.graph"
    log_path = out_dir / "train.log"

    graph = M.build_icc(config.model_config())
    graph_path.write_text(graph.to_text(), encoding="utf-8")
    params = M.init_parameters(graph, config.seed, dtype=f"float{config.precision}")
    opt = AdamW(params, lr=config.learning_rate, weight_decay=config.weight_decay)

    rng = np.random.default_rng(config.seed)
    normalized = [
        dataclasses.replace(ann, image=D.normalize(ann.image)) for ann in train_images
    ]
    val_normalized = [
        dataclasses.replace(ann, image=D.normalize(ann.image)) for ann in val_images
    ]

    history: list[EpochStats] = []
    best_val = np.inf
    best_epoch = -1
    log_lines: list[str] = []
    hc = wc = config.crop_size

    for epoch in range(config.epochs):
        epoch_lr = config.learning_rate * config.lr_gamma**epoch
        opt.set_lr(epoch_lr)
        order = rng.permutation(len(normalized))
        sums = np.zeros(4)  # loss, l_c, l_ot, l_tv
        n_samples = 0
        solves = []  # (iterations, converged, marginal error) of each solve
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            samples = [random_crop_padded(normalized[i], hc, wc, rng) for i in idx]
            batch = np.stack([s.image for s in samples])
            run = M.forward(graph, params, batch, mode="train", requires_grad=True)
            out = run.output.data  # [B, 1, h', w']
            seed_grad = np.zeros_like(out)
            for i, s in enumerate(samples):
                value, (lc, lot, ltv), grad, solve = _sample_loss(
                    s.target.values.astype(np.float64), out[i, 0].astype(np.float64), config
                )
                if not np.isfinite(value):
                    raise NumericError(
                        f"training loss diverged at epoch {epoch} (sample {s.source_id}); "
                        f"last good checkpoint retained at {ckpt_path}"
                    )
                if solve is not None:
                    solves.append(solve)
                seed_grad[i, 0] = grad / len(samples)
                sums += (value, lc, lot, ltv)
                n_samples += 1
            grads = run.backward(seed_grad)
            opt.step(grads)

        val_mae = _validation_mae(graph, params, val_normalized)
        stats = EpochStats(
            epoch=epoch,
            loss=sums[0] / n_samples,
            count_term=sums[1] / n_samples,
            ot_term=sums[2] / n_samples,
            tv_term=sums[3] / n_samples,
            val_mae=val_mae,
            lr=epoch_lr,
            solves=len(solves),
            unconverged=sum(not converged for _, converged, _ in solves),
            marginal_error_max=max((err for *_, err in solves), default=0.0),
        )
        history.append(stats)
        log_lines.append(stats.line())
        log_path.write_text("\n".join(log_lines) + "\n", encoding="utf-8")
        if val_mae < best_val:
            best_val = val_mae
            best_epoch = epoch
            save_checkpoint(ckpt_path, params)

    return TrainResult(
        history=history,
        best_epoch=best_epoch,
        best_val_mae=best_val,
        checkpoint_path=ckpt_path,
        graph_path=graph_path,
        log_path=log_path,
    )


def random_crop_padded(ann: D.AnnotatedImage, hc: int, wc: int, rng) -> D.Sample:
    """random_crop, padding the source first when it is smaller than the crop."""
    h, w = ann.image.shape[1:]
    if h < hc or w < wc:
        image = np.pad(ann.image, ((0, 0), (0, max(0, hc - h)), (0, max(0, wc - w))))
        ann = dataclasses.replace(ann, image=image)
    return D.random_crop(ann, hc, wc, rng)


def _validation_mae(graph, params, images) -> float:
    errors = []
    for ann in images:
        pred = M.predict_density(graph, params, ann.image)
        errors.append(abs(float(pred.sum()) - len(ann.points)))
    return float(np.mean(errors))


# -- evaluation ----------------------------------------------------------------


@dataclass
class EvalResult:
    records: list[tuple[str, float, float]]  # (id, true count, predicted count)
    mae: float
    rmse: float
    seconds_per_image: float  # mean
    seconds_median: float
    seconds_max: float

    def line(self) -> str:
        return (
            f"n={len(self.records)} mae={self.mae:.4f} rmse={self.rmse:.4f} "
            f"sec_per_image={self.seconds_per_image:.3f} "
            f"sec_median={self.seconds_median:.3f} sec_max={self.seconds_max:.3f}"
        )


def aggregate_metrics(z: np.ndarray, zhat: np.ndarray) -> tuple[float, float]:
    """Mean absolute error and root mean squared error over count pairs."""
    z = np.asarray(z, dtype=np.float64)
    zhat = np.asarray(zhat, dtype=np.float64)
    if z.shape != zhat.shape or z.size == 0:
        raise DataError(f"metrics need matching non-empty counts, got {z.shape}, {zhat.shape}")
    err = z - zhat
    return float(np.abs(err).mean()), float(np.sqrt((err * err).mean()))


def evaluate(graph: M.GraphDescription, params: dict, data_dir) -> EvalResult:
    """Whole-image evaluation: predicted count is the sum of the output map."""
    images = D.load_dataset(data_dir)
    records = []
    seconds = []
    for ann in images:
        x = D.normalize(ann.image)
        t0 = time.perf_counter()
        pred = M.predict_density(graph, params, x)
        seconds.append(time.perf_counter() - t0)
        records.append((ann.id, float(len(ann.points)), float(pred.sum())))
    z = np.array([r[1] for r in records])
    zhat = np.array([r[2] for r in records])
    mae, rmse = aggregate_metrics(z, zhat)
    return EvalResult(
        records=records,
        mae=mae,
        rmse=rmse,
        seconds_per_image=sum(seconds) / len(seconds),
        seconds_median=float(np.median(seconds)),
        seconds_max=max(seconds),
    )


def load_model(checkpoint_path, graph_path=None):
    """Load (graph, params) from an ICCW checkpoint and its graph description."""
    ckpt = Path(checkpoint_path)
    gpath = Path(graph_path) if graph_path else ckpt.with_suffix(".graph")
    if not gpath.exists():
        raise DataError(f"graph description {gpath} not found (expected beside checkpoint)")
    try:
        text = gpath.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read graph description {gpath}: {e}") from None
    graph = M.GraphDescription.from_text(text)
    params = load_checkpoint(ckpt)
    graph.check_parameters(params)
    return graph, params


def infer(
    graph: M.GraphDescription,
    params: dict,
    image_path,
    output_path,
    upsample: bool = False,
) -> float:
    """Predict one image; writes the density map file and returns the count.

    With ``upsample`` the stride-8 map is bilinearly resized to the image
    resolution and rescaled so its sum still matches the predicted count.
    """
    image = D.read_ppm(image_path)
    h, w = image.shape[1:]
    dmap = M.predict_density(graph, params, D.normalize(image))
    count = float(dmap.sum())
    if upsample:
        t = T.interpolate(T.Tensor(dmap[None, None].astype(np.float64)), h, w, "bilinear")
        full = t.data[0, 0]
        s = full.sum()
        if s > 0:
            full = full * (count / s)
        out = full.astype(np.float32)
    else:
        out = dmap.astype(np.float32)
    D.write_density(output_path, out)
    return count
