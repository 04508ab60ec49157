"""Command-line entry point: train / eval / infer / flops / synth.

Exit codes: 0 success, 2 configuration error, 3 data error (or a file that
cannot be written), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import sys

from . import data as D
from . import flops as F
from . import model as M
from . import train as TR
from .errors import ConfigError, DataError, NumericError, ShapeError


def _add_train_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config key (repeatable)")
    p.add_argument("--seed", type=int)
    p.add_argument("--precision", type=int, choices=(32, 64))
    p.add_argument("--ablation", choices=M.ABLATIONS)
    p.add_argument("--width-scale", type=float, dest="width_scale")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="icc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model, keeping the best-validation checkpoint")
    _add_train_overrides(t)
    t.add_argument("--train-dir")
    t.add_argument("--val-dir")
    t.add_argument("--out-dir")

    e = sub.add_parser("eval", help="MAE/RMSE of a checkpoint over a dataset directory")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--graph", help="graph description (default: beside the checkpoint)")
    e.add_argument("--data-dir", required=True)

    i = sub.add_parser("infer", help="predict one image's density map and count")
    i.add_argument("--checkpoint", required=True)
    i.add_argument("--graph")
    i.add_argument("--image", required=True)
    i.add_argument("--output", required=True, help="ICCD density map output path")
    i.add_argument("--upsample", action="store_true", help="write a full-resolution map")

    f = sub.add_parser("flops", help="operation-count report for a model configuration")
    f.add_argument("--height", type=int, default=1080)
    f.add_argument("--width", type=int, default=1920)
    f.add_argument("--ablation", choices=M.ABLATIONS, default="none")
    f.add_argument("--width-scale", type=float, dest="width_scale", default=1.0)
    f.add_argument("--per-layer", action="store_true", help="print the per-layer table")
    f.add_argument("--records", action="store_true", help="print machine-readable records")

    s = sub.add_parser("synth", help="generate a synthetic dot-annotated dataset")
    s.add_argument("--out-dir", required=True)
    s.add_argument("--n", type=int, default=16)
    s.add_argument("--count-min", type=int, default=5)
    s.add_argument("--count-max", type=int, default=50)
    s.add_argument("--height", type=int, default=256)
    s.add_argument("--width", type=int, default=256)
    s.add_argument("--seed", type=int, default=0)
    return p


def _train_config(args) -> TR.TrainConfig:
    cfg = TR.TrainConfig.from_file(args.config) if args.config else TR.TrainConfig()
    pairs = {}
    for item in args.set:
        key, sep, val = item.partition("=")
        if not sep:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        pairs[key.strip()] = val.strip()
    for key in ("seed", "precision", "ablation", "width_scale", "train_dir", "val_dir", "out_dir"):
        val = getattr(args, key, None)
        if val is not None:
            pairs[key] = str(val)
    return cfg.apply_pairs(pairs)


def _cmd_train(args) -> int:
    cfg = _train_config(args)
    if not cfg.train_dir or not cfg.val_dir:
        raise ConfigError("train requires train_dir and val_dir (flags or config file)")
    result = TR.train(cfg)
    for stats in result.history:
        print(stats.line())
    print(
        f"best epoch {result.best_epoch} val_mae={result.best_val_mae:.4f} "
        f"checkpoint={result.checkpoint_path}"
    )
    return 0


def _cmd_eval(args) -> int:
    graph, params = TR.load_model(args.checkpoint, args.graph)
    result = TR.evaluate(graph, params, D.load_dataset(args.data_dir))
    for rec_id, z, zhat in result.records:
        print(f"{rec_id} true={z:.1f} predicted={zhat:.2f}")
    print(result.line())
    return 0


def _cmd_infer(args) -> int:
    graph, params = TR.load_model(args.checkpoint, args.graph)
    count = TR.infer(graph, params, args.image, args.output, upsample=args.upsample)
    print(f"count={count:.3f}")
    return 0


def _cmd_flops(args) -> int:
    graph = M.build_icc(M.ModelConfig(width_scale=args.width_scale, ablation=args.ablation))
    try:
        report = F.count_graph(graph, (3, args.height, args.width))
    except ShapeError as e:
        _, hp, wp = M.padded_shape((3, args.height, args.width))
        raise ConfigError(
            f"a {args.height}x{args.width} input (padded to {hp}x{wp}) does not fit: {e}"
        ) from None
    if args.records:
        print(report.lines(), end="")
    elif args.per_layer:
        print(report.table())
    else:
        print(f"input 3x{args.height}x{args.width} (padded to {report.padded_shape[1]}x{report.padded_shape[2]})")
        print(f"multiplies (fused-MAC units): {F.gformat(report.total_multiplies)}")
        print(f"operations (mul+add):          {F.gformat(report.total_ops)}")
    return 0


def _cmd_synth(args) -> int:
    images = D.generate_synthetic(
        (args.count_min, args.count_max), args.height, args.width, args.n, args.seed
    )
    D.save_dataset(images, args.out_dir)
    print(f"wrote {2 * len(images)} files ({len(images)} images) to {args.out_dir}")
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "infer": _cmd_infer,
    "flops": _cmd_flops,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except OSError as e:  # readers raise DataError; this is an output path
        print(f"file error: {e}", file=sys.stderr)
        return 3
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
