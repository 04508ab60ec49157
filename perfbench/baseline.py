"""Measure every workload on several seeds and write the medians and quartiles.

    python3 perfbench/baseline.py --seeds 11-20 --out perfbench/baseline.json

Each seed is one untraced run of run.py in a process of its own, one after
another; after them, one traced run per workload on the first seed gives
the per-layer figures. For every end-to-end metric the file holds the runs'
values, their median and quartiles (``statistics.quantiles(n=4)``) and the
spread, the interquartile distance over the median, which is what the
metric's bound in BENCHMARK.json is compared against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: failed {line['failed']}/{line['attempted']}"
          + "".join(f", {k} {v['value']:.5g}" for k, v in line["metrics"].items() if not trace),
          flush=True)
    return line


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("11-20"))
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)

    out = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for wl in args.workload or [w["name"] for w in spec["workloads"]]:
        lines = [run_once(wl, s, spec["run_seconds"], 0) for s in args.seeds]
        traced = run_once(wl, args.seeds[0], spec["run_seconds"], 1)
        record = json.loads((ROOT / ".perfbench" / "results" / f"{wl}-trace1.json")
                            .read_text(encoding="utf-8"))
        out["workloads"][wl] = {
            "attempted": sum(line["attempted"] for line in lines),
            "failed": sum(line["failed"] for line in lines),
            "end_to_end": {m["name"]: summarize([line["metrics"][m["name"]]["value"]
                                                 for line in lines])
                           for m in spec["end_to_end"]},
            "per_layer_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "trace_bases": record["trace_bases"],
        }
        out["machine"] = record["machine"]
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for wl, res in out["workloads"].items():
        for name, s in res["end_to_end"].items():
            print(f"{wl} {name}: median {s['median']:.5g}, spread {s['spread']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
