"""Record a baseline: every workload on several seeds, plus one traced run.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Run from the root of a checkout.  For each workload it runs run.py untraced
once per seed and reports each end-to-end metric's median, quartiles and
spread (quartile distance over median), then one traced run on the default
seed for the per-layer metrics and trace.overhead_ratio.  The machine
(nproc, Python, effective worker count) is recorded beside the figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops\n{out.stderr}")
    return result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sys.path.insert(0, "src")
    os.environ.pop("MATROIDLAB_THREADS", None)
    from matroidlab import suites
    sys.path.insert(0, str(HERE))
    import workloads

    report = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "worker_count": suites.worker_count(), "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "size_bound": {"max_rank": workloads.MAX_RANK, "max_elements": workloads.MAX_ELEMENTS,
                       "excluded_sources": list(workloads.EXCLUDED_SOURCES),
                       "reason": workloads.SIZE_BOUND_REASON},
        "workloads": {},
    }
    for name in names:
        per_metric: dict[str, list[float]] = {}
        attempted = 0
        for seed in args.seeds:
            result = run(name, seed, spec["run_seconds"], 0)
            attempted += result["attempted"]
            for metric, v in result["metrics"].items():
                per_metric.setdefault(metric, []).append(v["value"])
        traced = run(name, workloads.DEFAULT_SEED, spec["run_seconds"], 1)
        entry = {
            "attempted": attempted,
            "end_to_end": {m: summary(v) for m, v in per_metric.items()},
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
        }
        report["workloads"][name] = entry
        for metric, s in entry["end_to_end"].items():
            flag = "" if metric == "setup_s" or s["spread"] <= bounds[metric] / 3 else "  (spread above a third of the bound)"
            print(f"{name:15s} {metric:12s} median {s['median']:.6g} spread {s['spread']:.3f}{flag}", flush=True)
        print(f"{name:15s} trace.overhead_ratio {entry['per_layer']['trace.overhead_ratio']:.3f}", flush=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
