"""Regenerate the stored references that the output checks compare against.

    python3 perfbench/make_reference.py [infer] [train-w025] [train-w100]

``reference/infer_ref.npy`` is the density map infer() gives for the fixed
reference scene with the full-width checkpoint at init seed 0.
``reference/train_loss.json`` holds, for each train workload, the loss after
one train() call on each shard of the inputs of each of REFERENCE_SEEDS, and
the envelope (mean +- 4 standard deviations) that a run's loss must fall
within. Make them only on a commit whose outputs are trusted; they are the
yardstick for later changes, so regenerating them on changed code defeats
the check.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

REFERENCE_SEEDS = range(1001, 1009)


def main(which) -> None:
    run.pin_blas_threads()
    import numpy as np

    import harness as H
    import workloads as W

    W.REFERENCE_DIR.mkdir(exist_ok=True)
    work = run.WORK / "reference"
    if "infer" in which:
        wl = W.WORKLOADS["infer-1080p"]
        shutil.rmtree(work, ignore_errors=True)
        wl.make_inputs(0, work)
        wl.setup()
        wl.call(0)  # image 0 is the fixed reference scene
        np.save(W.REFERENCE_DIR / "infer_ref.npy", H.read_iccd(work / "out.iccd"))
    path = W.REFERENCE_DIR / "train_loss.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    for name in ("train-w025", "train-w100"):
        if name not in which:
            continue
        wl = W.WORKLOADS[name]
        finals = []
        for seed in REFERENCE_SEEDS:
            shutil.rmtree(work, ignore_errors=True)
            wl.make_inputs(seed, work)
            for shard in range(W.SHARDS):
                finals.append(W.TR.train(wl.config(shard)).history[-1].loss)
                print(name, seed, shard, finals[-1], flush=True)
        stored[name] = {"seeds": list(REFERENCE_SEEDS), "final_loss": finals,
                        "envelope": list(H.envelope(finals))}
        path.write_text(json.dumps(stored, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:] or ["infer", "train-w025", "train-w100"])
