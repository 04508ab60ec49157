"""The benchmark workloads, driven in-process through the ``icc`` library API.

Each workload makes its input files from a seed, loads the model and data
(the timed set-up), then calls the program in a closed loop with a single
caller: the next call starts when the previous one has returned.
"""

from __future__ import annotations

import json
import resource
import time
import traceback
from pathlib import Path

import numpy as np

from icc import checkpoint as C
from icc import data as D
from icc import loss as L
from icc import model as M
from icc import optim as O
from icc import tensor as T
from icc import train as TR
from icc.flops import count_graph

import harness as H

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SETUP_REPS = 15
RTOL = 1e-3  # float32 tolerance of the inference output against its reference

# criterion-7 training config on 256x256 sources; one train() call is one
# epoch over one shard: SHARD_TRAIN crops (one step of batch 8), then
# validation on SHARD_VAL images. Calls rotate through the shards in pairs.
SHARDS = 4
SHARD_TRAIN = 8
SHARD_VAL = 2
SOURCE_EXTENT = 256
COUNT_RANGE = (5, 50)

INFER_HW = (1080, 1920)
INFER_COUNT_RANGE = (50, 500)
INFER_SEED_IMAGES = 2
REFERENCE_SEED = 20221018  # the fixed scene whose output map is stored


class TrainWorkload:
    """One train() call: an epoch over one shard's 8 crops, then validation."""

    samples_per_call = SHARD_TRAIN

    def __init__(self, name: str, width: float):
        self.name = name
        self.width = width

    def make_inputs(self, seed: int, work: Path) -> None:
        # Every shard's head counts spread evenly over the range, in an order
        # the seed shuffles. Crops holding 0 or 1 heads skip most of the
        # Sinkhorn work; drawing counts at random made their number, and so
        # the step time, vary from seed to seed by more than the bounds allow.
        rng = np.random.default_rng(seed)
        for shard in range(SHARDS):
            for split, n in (("train", SHARD_TRAIN), ("val", SHARD_VAL)):
                out = work / f"shard{shard}" / split
                out.mkdir(parents=True)
                counts = rng.permutation(np.round(np.linspace(*COUNT_RANGE, n)).astype(int))
                for k, count in enumerate(counts):
                    image, points = H.synth_scene(rng, SOURCE_EXTENT, SOURCE_EXTENT, int(count))
                    H.write_ppm(out / f"scene_{k:04d}.ppm", image)
                    H.write_points(out / f"scene_{k:04d}.pts", points)
        self.work = work

    def config(self, shard: int = 0) -> TR.TrainConfig:
        data = self.work / f"shard{shard}"
        return TR.TrainConfig(
            epochs=1, batch_size=8, crop_size=128, width_scale=self.width,
            sinkhorn_iters=100, seed=3, train_dir=str(data / "train"),
            val_dir=str(data / "val"), out_dir=str(self.work / "run"),
        )

    def setup(self) -> None:
        """The data and model load train() does before its first step."""
        cfg = self.config()
        D.load_dataset(cfg.train_dir)
        D.load_dataset(cfg.val_dir)
        M.init_parameters(M.build_icc(cfg.model_config()), cfg.seed)

    def call(self, i: int):
        # calls 2k-1 and 2k share a shard, so that a traced call and the
        # untraced call after it do the same work
        history = TR.train(self.config((i + 1) // 2 % SHARDS)).history
        losses = [v for s in history for v in (s.loss, s.count_term, s.ot_term, s.tv_term, s.val_mae)]
        return losses, history[-1].loss

    def check(self, i: int, outcome) -> list[str]:
        losses, final = outcome
        stored = json.loads((REFERENCE_DIR / "train_loss.json").read_text(encoding="utf-8"))
        return H.check_losses(losses, final, tuple(stored[self.name]["envelope"]))

    def graph(self) -> M.GraphDescription:
        return M.build_icc(self.config().model_config())


class InferWorkload:
    """One infer() call on a 1080x1920 image with a full-width checkpoint at fixed init."""

    name = "infer-1080p"
    samples_per_call = 1

    def make_inputs(self, seed: int, work: Path) -> None:
        work.mkdir(parents=True)
        seeds = [REFERENCE_SEED] + [[seed, k] for k in range(INFER_SEED_IMAGES)]
        self.images = []
        for k, s in enumerate(seeds):
            rng = np.random.default_rng(s)
            count = int(rng.integers(INFER_COUNT_RANGE[0], INFER_COUNT_RANGE[1] + 1))
            image, _ = H.synth_scene(rng, *INFER_HW, count)
            path = work / f"scene_{k}.ppm"
            H.write_ppm(path, image)
            self.images.append(path)
        T.set_default_dtype(np.float32)
        graph = self.graph()
        C.save_checkpoint(work / "model.iccw", M.init_parameters(graph, 0))
        (work / "model.graph").write_text(graph.to_text(), encoding="utf-8")
        self.work = work
        self.outputs: dict[int, np.ndarray] = {}

    def setup(self) -> None:
        """Load the checkpoint and its graph, as ``icc infer`` does first."""
        self.model = TR.load_model(self.work / "model.iccw")

    def call(self, i: int):
        graph, params = self.model
        return TR.infer(graph, params, self.images[i % len(self.images)], self.work / "out.iccd")

    def check(self, i: int, count) -> list[str]:
        k = i % len(self.images)
        dmap = H.read_iccd(self.work / "out.iccd")
        reference = np.load(REFERENCE_DIR / "infer_ref.npy") if k == 0 else None
        problems = H.check_density(dmap, count, INFER_HW, reference, RTOL)
        # a repeated image must give the same map as its first pass
        first = self.outputs.setdefault(k, dmap)
        if first is not dmap:
            problems += H.check_density(dmap, count, INFER_HW, first, RTOL)
        return problems

    def graph(self) -> M.GraphDescription:
        return M.build_icc(M.ModelConfig(width_scale=1.0))


WORKLOADS = {
    "train-w025": TrainWorkload("train-w025", 0.25),
    "train-w100": TrainWorkload("train-w100", 1.0),
    "infer-1080p": InferWorkload(),
}


# -- the run -----------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool, work: Path):
    """Set up, then call the workload until ``seconds`` have passed.

    In a traced run, odd-numbered calls are traced and even ones run the
    untraced program. The latency median takes every untraced call, the
    first one included: it runs slower (allocator and page-fault warm-up),
    and a user of ``icc infer`` pays it on every run. The tracing overhead
    ratio is the median over pairs of a traced call and the untraced call
    after it, so the warm-up call is in no pair. A traced run ends on an
    untraced call, with at least one complete pair.
    Returns the result record and the tracer (None when untraced).
    """
    wl = WORKLOADS[name]
    wl.make_inputs(seed, work / "inputs")
    tracer = H.Tracer(f"{name}-seed{seed}") if trace else None
    if tracer is not None:
        register_layers(tracer)

    setup_s = []
    for _ in range(SETUP_REPS):
        if tracer is not None:
            tracer.install(-1)
        t0 = time.perf_counter()
        try:
            wl.setup()
        finally:
            setup_s.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.uninstall()

    calls = []  # (seconds, traced, problems)
    start = time.perf_counter()
    min_calls = 3 if tracer is not None else 1
    while (len(calls) < min_calls or tracer is not None and len(calls) % 2 == 0
           or time.perf_counter() - start < seconds):
        i = len(calls)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install(i)
        t0 = time.perf_counter()
        try:
            try:
                outcome = wl.call(i)
            finally:
                dt = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            problems = wl.check(i, outcome)
        except Exception:  # a failed call is counted, and the loop goes on
            problems = [traceback.format_exc(limit=3)]
        calls.append((dt, traced, problems))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sgemm = sgemm_gmac_per_s()

    untraced = [dt for dt, traced, _ in calls if not traced]
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "samples_per_call": wl.samples_per_call,
        "setup_s": setup_s,
        "call_s": [dt for dt, _, _ in calls],
        "traced": [traced for _, traced, _ in calls],
        "problems": [p for _, _, p in calls],
        "attempted": len(calls),
        "failed": sum(1 for _, _, p in calls if p),
        "sgemm_gmac_per_s": sgemm,
        "end_to_end": {
            "setup_s": H.median(setup_s),
            "latency_s": H.median(untraced),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if tracer is not None:
        pairs = [calls[i][0] / calls[i + 1][0] for i in range(1, len(calls) - 1, 2)]
        result["per_layer"] = layer_metrics(tracer, wl.graph(), sgemm, H.median(pairs))
        solves = [v for _, v in tracer.observed.get("loss.sinkhorn", [])]
        result["trace_bases"] = {
            "traced_calls": sum(1 for _, traced, _ in calls if traced),
            "overhead_pairs": len(pairs), "spans": len(tracer.spans),
            "sinkhorn_solves": len(solves),
            "sinkhorn_converged": sum(1 for _, ok, _ in solves if ok),
        }
    return result, tracer


def sgemm_gmac_per_s(n: int = 1024, seconds: float = 0.5) -> float:
    """Median rate of n x n float32 matmuls, in 10^9 multiply-adds per second."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n), dtype=np.float32)
    b = rng.standard_normal((n, n), dtype=np.float32)
    np.matmul(a, b)
    rates = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        np.matmul(a, b)
        rates.append(n**3 / (time.perf_counter() - t0) / 1e9)
    return H.median(rates)


# -- tracing ------------------------------------------------------------------------

TENSOR_KINDS = {
    "conv2d": ("conv2d", "separable_conv2d"),
    "maxpool2d": ("maxpool2d",),
    "avgpool2d": ("avgpool2d", "adaptive_avgpool2d"),
    "batchnorm2d": ("batchnorm2d",),
    "interpolate": ("interpolate", "upsample"),
    "concat_channels": ("concat_channels",),
    "elementwise": ("add", "sub", "mul", "div", "relu", "sigmoid", "channel_sum", "tensor_sum"),
}


def _forward_shape(args, kwargs, result):
    return tuple(np.shape(args[2] if len(args) > 2 else kwargs["x"]))


def _solve(args, kwargs, plan):
    return plan.iterations, plan.converged, plan.marginal_error


def register_layers(tracer: H.Tracer) -> None:
    """Spans for the public functions of every layer the workloads reach.

    ``icc.train`` imports the checkpoint functions by name, so both
    bindings are wrapped. ``icc.cli`` is argument dispatch and is not.
    """
    for fns in TENSOR_KINDS.values():
        for fn in fns:
            tracer.register(T, fn, f"tensor.{fn}")
    tracer.register(M, "forward", "model.forward", _forward_shape)
    for fn in ("predict_density", "build_icc", "init_parameters"):
        tracer.register(M, fn, f"model.{fn}")
    tracer.register(M.ForwardResult, "backward", "model.backward")
    tracer.register(L, "sinkhorn", "loss.sinkhorn", _solve)
    for fn in ("dm_count_loss", "counting_loss", "ot_loss", "tv_loss", "grid_cost_matrix"):
        tracer.register(L, fn, f"loss.{fn}")
    tracer.register(O.AdamW, "step", "optim.step")
    for fn in ("load_dataset", "read_ppm", "read_points", "normalize", "random_crop",
               "write_density"):
        tracer.register(D, fn, f"data.{fn}")
    for owner in (C, TR):
        tracer.register(owner, "save_checkpoint", "checkpoint.save")
        tracer.register(owner, "load_checkpoint", "checkpoint.load")
    for fn in ("train", "infer", "load_model", "random_crop_padded"):
        tracer.register(TR, fn, f"train.{fn}")


def layer_metrics(tracer: H.Tracer, graph: M.GraphDescription, sgemm: float,
                  overhead: float) -> dict[str, float]:
    """Per-layer figures from the traced calls (and the traced set-up).

    Per-invocation times are medians over every span of that name; self
    times and op counts are totals per traced workload call, medianed over
    the traced calls.
    """
    spans = tracer.spans
    selfs = H.self_times(spans)
    calls = sorted({s.call for s in spans if s.call >= 0})
    roots = {"train.train", "train.infer"}

    def each(name):
        return [s.duration for s in spans if s.name == name]

    def med(values):
        return H.median(values) if values else 0.0

    def per_call(names, values):
        return med([sum(v for s, v in zip(spans, values) if s.call == c and s.name in names)
                    for c in calls])

    def under_root(name):
        return [s for s in spans if s.name == name and s.parent >= 0
                and spans[s.parent].name == "train.train"]

    ones = [1.0] * len(spans)
    durations = [s.duration for s in spans]
    m: dict[str, float] = {}

    solves = [v for _, v in tracer.observed.get("loss.sinkhorn", [])]
    loss_self = per_call({s.name for s in spans if s.name.startswith("loss.")}, selfs)
    root_time = per_call(roots, durations)
    m["loss.dm_count_s"] = med(each("loss.dm_count_loss"))
    m["loss.sinkhorn_s"] = med(each("loss.sinkhorn"))
    m["loss.sinkhorn_iters"] = med([it for it, _, _ in solves])
    m["loss.converged_ratio"] = sum(1 for _, ok, _ in solves if ok) / len(solves) if solves else 0.0
    m["loss.marginal_err_max"] = max((e for _, _, e in solves), default=0.0)
    m["loss.self_share"] = loss_self / root_time if root_time else 0.0

    m["model.forward_train_s"] = med([s.duration for s in under_root("model.forward")])
    m["model.backward_s"] = med(each("model.backward"))
    m["model.predict_s"] = med(each("model.predict_density"))
    m["model.self_s"] = per_call({"model.forward", "model.predict_density"}, selfs)
    m["model.build_s"] = per_call({"model.build_icc", "model.init_parameters"}, durations)

    conv_self = 0.0
    for kind, fns in TENSOR_KINDS.items():
        names = {f"tensor.{fn}" for fn in fns}
        m[f"tensor.{kind}_s"] = per_call(names, selfs)
        m[f"tensor.{kind}.calls"] = per_call(names, ones)
        if kind == "conv2d":
            conv_self = sum(v for s, v in zip(spans, selfs) if s.call >= 0 and s.name in names)

    # multiplies of every forward pass the traced calls ran, from icc.flops
    reports = {}
    conv_mults = 0
    per_call_mults = {c: 0 for c in calls}
    for c, (n, ch, h, w) in tracer.observed.get("model.forward", []):
        if c < 0:
            continue
        if (ch, h, w) not in reports:
            reports[ch, h, w] = count_graph(graph, (ch, h, w), pad_rule=False)
        report = reports[ch, h, w]
        conv_mults += n * sum(l.multiplies for l in report.layers if l.kind == "conv")
        per_call_mults[c] += n * report.total_multiplies
    m["tensor.conv2d.gmac_per_s"] = conv_mults / conv_self / 1e9 if conv_self else 0.0
    m["flops.gmac"] = med(list(per_call_mults.values())) / 1e9

    m["optim.step_s"] = med(each("optim.step"))
    m["data.load_s"] = med(each("data.load_dataset"))
    m["data.crop_s"] = med(each("data.random_crop"))
    m["data.read_ppm_s"] = med(each("data.read_ppm"))
    m["checkpoint.save_s"] = med(each("checkpoint.save"))
    m["checkpoint.load_s"] = med(each("checkpoint.load"))
    # one train() call runs one epoch, so validation time per call is per epoch
    val = [sum(s.duration for s in under_root("model.predict_density") if s.call == c)
           for c in calls]
    m["train.val_s"] = med(val) if any(val) else 0.0
    m["train.self_s"] = per_call(roots, selfs)

    m["machine.sgemm_gmac_per_s"] = sgemm
    m["trace.overhead_ratio"] = overhead
    return m
