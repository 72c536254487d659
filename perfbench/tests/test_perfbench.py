"""Tests of the benchmark itself: seeded inputs, the tail rule, size bounds
and the tracer's patching.  Run from the repository root with

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import inspect
import json
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import matroidlab  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())
SEEDED = ("iso_certify", "minor_sweep", "classify_sweep")


@pytest.mark.parametrize("workload", SEEDED)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    first = workloads.generate(workload, 7, GOLDEN)
    assert workloads.generate(workload, 7, GOLDEN) == first
    assert workloads.generate(workload, 8, GOLDEN) != first


def test_verify_all_ignores_the_seed():
    assert workloads.generate("verify_all", 1, GOLDEN) == workloads.generate("verify_all", 2, GOLDEN)


@pytest.mark.parametrize("n", [20, 21, 57, 100, 999])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    samples = random.Random(n).sample(range(10 * n), n)
    value, q, beyond = run.tail_percentile(samples)
    above = [x for x in samples if x > value]
    assert beyond == len(above) == run.TAIL_BEYOND
    # the next sample up would leave only nine beyond it
    next_up = sorted(samples)[n - run.TAIL_BEYOND]
    assert sum(x > next_up for x in samples) == run.TAIL_BEYOND - 1
    assert q == 100.0 * (n - run.TAIL_BEYOND) / n


@pytest.mark.parametrize("n", [1, 4, 5, 10, 11, 19])
def test_tail_percentile_falls_back_to_the_median(n):
    samples = list(range(n))
    value, q, beyond = run.tail_percentile(samples)
    assert (value, q) == ((n - 1) / 2, 50.0)
    assert beyond == sum(x > value for x in samples)


def test_size_bound_rejects_rank_seven_hosts():
    with pytest.raises(ValueError):
        workloads.check_size("FORBIDDEN_G", 7, 30)
    with pytest.raises(ValueError):
        workloads.check_size("wide", 6, 31)
    workloads.check_size("edge", workloads.MAX_RANK, workloads.MAX_ELEMENTS)


def test_seeded_inputs_stay_within_the_size_bound():
    for workload in SEEDED:
        for op in workloads.generate(workload, 3, GOLDEN):
            for rows in (x for x in op.data if isinstance(x, tuple) and x and isinstance(x[0], tuple)):
                assert len(rows) <= workloads.MAX_RANK and len(rows[0]) <= workloads.MAX_ELEMENTS
    assert not set(workloads.ISO_SOURCES) & set(workloads.EXCLUDED_SOURCES)


def _bindings():
    """Every attribute of the six modules, the package and their classes."""
    spaces = [matroidlab, *(getattr(matroidlab, m) for m in tracing.MODULES)]
    classes = [obj for ns in spaces for obj in vars(ns).values() if inspect.isclass(obj)]
    return {(id(owner), attr): value for owner in spaces + classes
            for attr, value in list(vars(owner).items())}


def _small_ops():
    ops = workloads.generate("classify_sweep", 1, GOLDEN)[:4]
    iso = [op for op in workloads.generate("iso_certify", 1, GOLDEN) if op.name == "PI4@GF3"]
    return ops + iso


def _traced_calls(ops):
    tracer = tracing.Tracer(matroidlab)
    tracer.install()
    try:
        assert tracing.patched_names(matroidlab)
        for op in ops:
            workloads.run_op(op, str(ROOT / "perfbench" / "out"), tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.aggregate(), tracer.rank_repeats, tracer.pool_wait)
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


def test_traced_run_restores_every_name_and_counts_repeat():
    workloads.warm_up("classify_sweep")  # fill lazy caches so only the wrapping can differ
    before = _bindings()
    first = _traced_calls(_small_ops())
    assert tracing.patched_names(matroidlab) == []
    assert _bindings() == before
    assert first["matroid.rank.calls"] > 0 and first["templates.classify.calls"] == 4
    assert _traced_calls(_small_ops()) == first


def test_wrapped_names_cover_direct_imports():
    names = {(name, getattr(owner, "__name__", "")) for name, owner, _ in tracing.wrap_targets(matroidlab)}
    # suites and cli import the searches by name; the leaf checks are reached
    # through the matroid module's globals
    for mod in ("matroidlab.suites", "matroidlab.cli"):
        assert ("matroid.find_embedding", mod) in names
        assert ("matroid.find_isomorphism", mod) in names
    assert ("matroid.verify_bijection", "matroidlab.matroid") in names
    assert ("gf.GFMatrix.__init__", "GFMatrix") in names
