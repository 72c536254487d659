"""Write a BENCH_*.json file from perfbench runs of a parent and a change.

    python3 tools/bench_file.py --out BENCH_7.json RUN [RUN ...]

Each RUN is SIDE:WORKLOAD:PATH.  SIDE is ``parent`` or ``change``, WORKLOAD
is the workload the run measured, and PATH holds the stdout of one
``python3 perfbench/run.py`` run, whose last line is its JSON result.  A run
made with ``--trace 1`` adds its per-layer counters; every other run adds one
sample of each end-to-end metric.  List the runs of each side in the order
they were made: the i-th parent run and the i-th change run of a workload
form pair i, and a pair is won by the side whose value is better in the
direction that BENCHMARK.json gives the metric.  Both sides must have the
same number of untraced runs of each workload; otherwise the tool exits 2.

Ten alternating pairs of one workload, from two checkouts: the parent runs
first in odd pairs and the change first in even pairs.  Make both checkouts
the same way (``git clone`` or ``git archive``) and give them the same
bytecode state before any pair is run, since ``setup_s`` follows
``__pycache__``: with compiled, missing or stale bytecode (a ``cp -r`` copy)
the same checkout's ``setup_s`` differs by more than its bound.

    for side in parent change; do (cd $side && python3 -m compileall -q src perfbench); done
    for i in $(seq 10); do
      if [ $((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
      for side in $order; do
        (cd $side && python3 perfbench/run.py --workload verify_all --seconds 50) > ${side:0:1}$i.txt
      done
    done

The file holds, per workload and metric, each side's samples, median and
quartiles and the change's wins; each side's traced counters, and the
counters of unit ``count`` in BENCHMARK.json whose medians moved; and the
machine the runs were made on.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def machine() -> dict:
    """CPU model, core count, OS and Python of this machine."""
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": model or platform.processor() or platform.machine(),
        "cores": os.cpu_count(),
        "os": platform.platform(),
        "python": platform.python_version(),
    }


def read_result(path: str) -> dict:
    """The JSON result on the last non-empty line of a run's stdout: an
    object with at least ``correct``, ``failed`` and ``metrics``, an object
    whose every entry is an object with ``value`` and ``unit``."""
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty output")
    result = json.loads(lines[-1])
    metrics = result.get("metrics") if isinstance(result, dict) else None
    if not (
        isinstance(metrics, dict)
        and {"correct", "failed"} <= result.keys()
        and all(isinstance(m, dict) and {"value", "unit"} <= m.keys() for m in metrics.values())
    ):
        raise ValueError(f"{path}: last line is not a perfbench result")
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "samples": values}


def build(runs: list[tuple[str, str, str]], better: dict[str, str]) -> dict:
    workloads: dict[str, dict] = {}
    for side, workload, path in runs:
        result = read_result(path)
        w = workloads.setdefault(workload, {
            "runs": {s: 0 for s in SIDES},
            "traced_runs": {s: 0 for s in SIDES},
            "failed": {s: 0 for s in SIDES},
            "correct": True,
            "samples": {s: {} for s in SIDES},
            "units": {},
            "trace": {s: {} for s in SIDES},
        })
        w["failed"][side] += result["failed"]
        w["correct"] = w["correct"] and bool(result["correct"])
        metrics = result["metrics"]
        if "trace.overhead_ratio" in metrics:
            w["traced_runs"][side] += 1
            for name, m in metrics.items():
                w["trace"][side].setdefault(name, []).append(m["value"])
            continue
        w["runs"][side] += 1
        for name, m in metrics.items():
            w["samples"][side].setdefault(name, []).append(m["value"])
            w["units"][name] = m["unit"]
    out = {}
    for workload, w in sorted(workloads.items()):
        if w["runs"]["parent"] != w["runs"]["change"]:
            raise ValueError(f"workload {workload}: {w['runs']['parent']} parent runs but "
                             f"{w['runs']['change']} change runs; pairs need equal counts")
        metrics = {}
        for name, unit in w["units"].items():
            parent, change = w["samples"]["parent"].get(name, []), w["samples"]["change"].get(name, [])
            entry = {"unit": unit}
            for side, values in (("parent", parent), ("change", change)):
                if values:
                    entry[side] = summary(values)
            direction = better.get(name)
            if parent and change and direction:
                pairs = list(zip(parent, change))
                lower = direction == "lower"
                entry["better"] = direction
                entry["pairs"] = len(pairs)
                entry["change_wins"] = sum((c < p) if lower else (c > p) for p, c in pairs)
                gap = entry["parent"]["median"] - entry["change"]["median"]
                entry["median_gap"] = gap if lower else -gap
                entry["parent_quartile_distance"] = entry["parent"]["q3"] - entry["parent"]["q1"]
            metrics[name] = entry
        trace = {
            side: {name: statistics.median(values) for name, values in sorted(w["trace"][side].items())}
            for side in SIDES if w["trace"][side]
        }
        out[workload] = {
            "runs": w["runs"],
            "traced_runs": w["traced_runs"],
            "correct": w["correct"],
            "failed": w["failed"],
            "metrics": metrics,
            "trace": trace,
        }
    return out


def count_changes(trace: dict, counts: set[str]) -> dict[str, list]:
    """name -> [parent median, change median] for each counter in counts
    whose two traced medians differ (None on a side that lacks it)."""
    parent, change = trace.get("parent", {}), trace.get("change", {})
    names = sorted(counts & (parent.keys() | change.keys()))
    return {name: [parent.get(name), change.get(name)] for name in names if parent.get(name) != change.get(name)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    ap.add_argument("--note", default="", help="what the change is, in one line")
    ap.add_argument("runs", nargs="+", metavar="RUN", help="SIDE:WORKLOAD:PATH")
    args = ap.parse_args(argv)
    runs = []
    for spec in args.runs:
        side, _, rest = spec.partition(":")
        workload, _, path = rest.partition(":")
        if side not in SIDES or not workload or not path:
            ap.error(f"bad run {spec!r}: expected parent|change:WORKLOAD:PATH")
        runs.append((side, workload, path))
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in config["end_to_end"] + config["per_layer"]}
    counts = {m["name"] for m in config["per_layer"] if m["unit"] == "count"}
    try:
        workloads = build(runs, better)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for w in workloads.values():
        w["count_changes"] = count_changes(w["trace"], counts)
    bench = {
        "benchmark": " ".join(config["command"]),
        "note": args.note,
        "machine": machine(),
        "workloads": workloads,
    }
    try:
        Path(args.out).write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
