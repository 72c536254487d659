"""matroidlab benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload iso_certify --seed 1 --seconds 50 --trace 0

Run from the root of a checkout; the program is imported from ./src.  With
--trace 0 the run repeats the workload's fixed job (a pass) until --seconds
have elapsed and reports the end-to-end metrics.  With --trace 1 it runs one
untraced and one traced pass and reports the per-layer metrics.  Every
answer is checked; the last line of stdout is the JSON result.

    python3 perfbench/run.py --write-golden

regenerates perfbench/golden.json from the current program.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"
SETUP_SAMPLES = 5
TAIL_BEYOND = 10


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples
    above it: (value, percentile, samples beyond).  Below 2 * TAIL_BEYOND
    samples that percentile would not be above the median, so the median is
    reported as p50: the extremes of a handful of repeats of one command
    measure only machine noise."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0, n // 2
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def load_program(root: Path):
    """Import matroidlab from root/src and nowhere else."""
    src = root / "src"
    if not (src / "matroidlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no matroidlab sources under {src}")
    sys.path.insert(0, str(src))
    os.environ.pop("MATROIDLAB_THREADS", None)  # run the pool as shipped
    import matroidlab

    if Path(matroidlab.__file__).resolve().parent != (src / "matroidlab").resolve():
        raise SystemExit(f"error: matroidlab imported from {matroidlab.__file__}, not {src}")
    return matroidlab


class Runner:
    """Runs passes over a workload's ops and checks every answer."""

    def __init__(self, workload: str, seed: int, golden: dict):
        import workloads

        self.w = workloads
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.ops = workloads.generate(workload, seed, golden)
        workloads.warm_up(workload)
        self.first: list[str | None] | None = None
        self.failures: list[str] = []

    def expected(self, i: int) -> str | None:
        """Golden text or digest of op i, when this seed has one."""
        if self.workload == "verify_all":
            return "\n".join(self.golden["verify_all"])
        if self.seed == self.w.DEFAULT_SEED:
            return self.golden["digests"][self.workload][i]
        return None

    def check(self, i: int, op, answer: str) -> str:
        text = self.w.verify_answer(op, answer)
        if self.workload == "verify_all":
            if text != self.expected(i):
                raise self.w.OpFailure("report differs from the golden check-id/witness columns")
            return text
        got = self.w.digest(op, text)
        want = self.expected(i)
        if want is not None and got != want:
            raise self.w.OpFailure(f"answer digest {got} differs from golden {want}")
        return got

    def run_pass(self, tracer=None) -> dict:
        """One pass over the fixed job: wall, CPU and per-op latencies."""
        latencies, answers, failed = [], [], 0
        cpu0, t0 = time.process_time(), time.perf_counter()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            start = time.perf_counter()
            try:
                answer = self.w.run_op(op, str(OUT), tracer)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                answer, error = None, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - start)
            if error is None:
                try:
                    answer = self.check(i, op, answer)
                except self.w.OpFailure as exc:
                    answer, error = None, str(exc)
            if error is None and self.first is not None and self.first[i] != answer:
                error = "answer differs from the first pass of this run"
            if error is not None:
                failed += 1
                self.failures.append(f"{op.name}: {error}")
            answers.append(answer)
        wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        if self.first is None:
            self.first = answers
        return {"wall": wall, "cpu": cpu, "lat": latencies, "failed": failed}


def setup_time(args) -> float:
    """Seconds from spawning a fresh interpreter until it is ready for the
    first timed op: import, input generation and warm-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: set-up probe failed with exit code {code}")
    return elapsed


def untraced(args, runner) -> tuple[dict, int, int]:
    samples, passes = [], []
    while not passes or sum(p["wall"] for p in passes) < args.seconds:
        # set-up probes are spread over the run, not taken in one burst, so
        # they see the same mix of machine speeds as the passes
        if len(samples) < SETUP_SAMPLES:
            samples.append(setup_time(args))
        passes.append(runner.run_pass())
    while len(samples) < SETUP_SAMPLES:
        samples.append(setup_time(args))
    lat = [x * 1000.0 for p in passes for x in p["lat"]]
    tail, q, beyond = tail_percentile(lat)
    attempted = len(lat)
    wall_total = sum(p["wall"] for p in passes)
    print(f"passes {len(passes)}, ops {attempted}; op_tail_ms is p{q:.2f} of {attempted} ops"
          f" ({beyond} beyond)")
    metrics = {
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu"] for p in passes), "s"),
        "ops_per_s": (attempted / wall_total, "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (tail, "ms"),
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, attempted, sum(p["failed"] for p in passes)


def traced(args, runner, package) -> tuple[dict, int, int]:
    import tracing

    plain = runner.run_pass()
    tracer = tracing.Tracer(package)
    t0 = time.perf_counter()
    tracer.install()
    try:
        traced_pass = runner.run_pass(tracer)
    finally:
        tracer.uninstall()
    left = tracing.patched_names(package)
    if left:
        runner.failures.append("names still wrapped after the traced run: " + ", ".join(left))
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write_spans(str(spans), t0)
    agg = tracer.aggregate()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"traced pass: {tracer.span_count()} spans kept of {sum(row[0] for row in agg.values())}"
          f" calls, written to {spans.relative_to(HERE.parent)}; peak RSS {rss:.1f} MB")
    metrics = tracing.layer_metrics(agg, tracer.rank_repeats, tracer.pool_wait)
    metrics["trace.overhead_ratio"] = (traced_pass["wall"] / plain["wall"], "ratio")
    attempted = len(plain["lat"]) + len(traced_pass["lat"])
    return metrics, attempted, plain["failed"] + traced_pass["failed"] + len(left)


def write_golden(workloads) -> None:
    """Answers of this program for the default seed, each re-verified."""
    from matroidlab import catalog, gf, matroid

    deletable = {}
    for host, rows in workloads.minor_hosts().items():
        m = matroid.LinearMatroid(gf.GFMatrix(3, rows))
        for target in workloads.MINOR_TARGETS:
            n = catalog.named(target).matroid()
            w = matroid.has_minor(m, n)
            want = workloads.expected_minor(host, target)
            if (w is not None) != (want == "yes") or (w and not matroid.verify_witness(m, n, w)):
                raise SystemExit(f"error: {host}>{target} contradicts the expected outcome")
            if w is not None:
                deletable[f"{host}>{target}"] = list(w.deleted)
    golden = {"minor_deletable": deletable, "digests": {}}
    for workload in workloads.WORKLOADS:
        runner = Runner(workload, workloads.DEFAULT_SEED, golden)
        answers = []
        for op in runner.ops:
            text = workloads.verify_answer(op, workloads.run_op(op, str(OUT)))
            answers.append(text if workload == "verify_all" else workloads.digest(op, text))
        if workload == "verify_all":
            golden["verify_all"] = answers[0].split("\n")
        else:
            golden["digests"][workload] = answers
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args(argv)

    package = load_program(Path.cwd())
    import workloads

    OUT.mkdir(exist_ok=True)
    if args.write_golden:
        write_golden(workloads)
        return 0
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if not GOLDEN.is_file():
        raise SystemExit(f"error: missing {GOLDEN}")
    golden = json.loads(GOLDEN.read_text())
    runner = Runner(args.workload, args.seed, golden)
    if args.setup_only:
        print("ready", flush=True)
        return 0
    print(f"workload {args.workload}, seed {args.seed}, {len(runner.ops)} ops per pass,"
          f" suites.worker_count() = {package.suites.worker_count()}, nproc = {os.cpu_count()}")
    if args.trace:
        metrics, attempted, failed = traced(args, runner, package)
    else:
        metrics, attempted, failed = untraced(args, runner)
    for line in runner.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, (value, _) in metrics.items():
        if not math.isfinite(value):
            raise SystemExit(f"error: metric {name} is {value}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
