"""Benchmark of the icc pipeline: training with the DM-Count loss, 1080p inference.

    python3 perfbench/run.py --workload train-w025 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, one process each

One workload per process, so that peak RSS belongs to one workload. BLAS
threads are pinned to the number of usable cores before numpy loads. Inputs
are generated from ``--seed`` under ``.perfbench/`` in the checkout and
removed afterwards; the result record (with the machine it ran on) and, for
a traced run, the spans are kept in ``.perfbench/results/``.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics of BENCHMARK.json with
``--trace 0`` and its per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "icc" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: needs src/icc and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="default: each workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(names, args)

    pin_blas_threads()
    import workloads as W

    work = WORK / f"{args.workload}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        result, tracer = W.run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["machine"] = machine_record(result.pop("sgemm_gmac_per_s"))
    stem = f"{args.workload}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(results / f"{stem}.spans.jsonl")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": measured[m["name"]], "unit": m["unit"]}
    report(result, metrics)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def pin_blas_threads() -> None:
    """Pin BLAS threads to the usable cores and put src/ on the path.

    Must run before numpy is imported: BLAS reads the variables when it loads.
    """
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = threads
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]


def report(result: dict, metrics: dict) -> None:
    """Human-readable lines: every metric, then the user-facing figures with their samples."""
    import harness as H

    print(f"workload {result['workload']} seed {result['seed']} trace {result['trace']}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    calls = result["call_s"]
    untraced = [dt for dt, traced in zip(calls, result["traced"]) if not traced]
    per_call = result["samples_per_call"]
    print(f"  setup_s {H.describe(result['setup_s'], 's')}")
    if per_call == 1:
        print(f"  infer.latency_s {H.describe(untraced, 's')}, one 1080x1920 image per call")
    else:
        rates = [per_call / dt for dt in untraced]
        print(f"  train.samples_per_s {H.describe(rates, '1/s')}, {per_call} samples per call")
    print(f"  first call {calls[0]:.6g} s")
    print(f"  peak_rss_mb {result['end_to_end']['peak_rss_mb']:.6g} MB")
    print(f"  failed_ratio {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.3g}")
    if "trace_bases" in result:
        print("  bases of the per-layer figures: " + json.dumps(result["trace_bases"]))
    for i, problems in enumerate(result["problems"]):
        for p in problems:
            print(f"  call {i} FAILED: {p}")
    print("machine " + json.dumps(result["machine"]))


def run_all(names: list[str], args) -> int:
    """Each workload in a child process of its own, one after another."""
    status = 0
    summary = []
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            summary.append((name, json.loads(lines[-1])))
    for name, res in summary:
        figures = ", ".join(f"{k} {v['value']:.4g} {v['unit']}" for k, v in res["metrics"].items())
        print(f"{name}: failed {res['failed']}/{res['attempted']}; {figures}")
    return status


def machine_record(sgemm_gmac_per_s: float) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "sgemm_gmac_per_s": sgemm_gmac_per_s,
        "commit": git_commit(),
        "src_sha256": tree_digest(ROOT / "src"),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read without running git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of the source files."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*.py") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
