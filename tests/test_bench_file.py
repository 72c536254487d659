"""tools/bench_file.py: BENCH file assembly from perfbench result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_file.py"


@pytest.fixture(scope="module")
def bench_file():
    spec = importlib.util.spec_from_file_location("bench_file", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(path, metrics, correct=True):
    body = {"correct": correct, "attempted": 3, "failed": 0 if correct else 1,
            "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}
    path.write_text("workload ...\nwall_s 1 s\n" + json.dumps(body) + "\n")
    return str(path)


def test_pairs_medians_and_trace(bench_file, tmp_path):
    runs = []
    for i, (p, c) in enumerate([(3.0, 1.0), (2.0, 2.0), (4.0, 1.5), (3.5, 0.5)]):
        runs.append(("parent", "w", _result(tmp_path / f"p{i}", {"wall_s": p})))
        runs.append(("change", "w", _result(tmp_path / f"c{i}", {"wall_s": c})))
    runs.append(("parent", "w", _result(tmp_path / "pt", {"trace.overhead_ratio": 1.2, "x.calls": 30})))
    traced = {"trace.overhead_ratio": 1.3, "x.calls": 30}
    runs.append(("change", "w", _result(tmp_path / "ct", traced, correct=False)))
    out = bench_file.build(runs, {"wall_s": "lower"})["w"]
    wall = out["metrics"]["wall_s"]
    assert wall["parent"]["samples"] == [3.0, 2.0, 4.0, 3.5]
    assert wall["parent"]["median"] == 3.25 and wall["change"]["median"] == 1.25
    # the tie in pair 2 counts for neither side
    assert (wall["pairs"], wall["change_wins"]) == (4, 3)
    assert wall["median_gap"] == 2.0
    assert out["trace"]["parent"]["x.calls"] == 30 and out["trace"]["change"]["x.calls"] == 30
    assert out["runs"] == {"parent": 4, "change": 4}
    assert out["traced_runs"] == {"parent": 1, "change": 1}
    assert out["correct"] is False and out["failed"] == {"parent": 0, "change": 1}


def test_bad_run_spec_and_missing_result(bench_file, tmp_path, capsys):
    with pytest.raises(SystemExit):
        bench_file.main(["--out", str(tmp_path / "b.json"), "sideways:w:x"])
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert bench_file.main(["--out", str(tmp_path / "b.json"), f"parent:w:{empty}"]) == 2
    assert "empty output" in capsys.readouterr().err
    partial = {"correct": True, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    # metrics that are not an object of {"value", "unit"} objects
    bare = {"correct": True, "failed": 0, "metrics": {"wall_s": 1.0}}
    listed = {"correct": True, "failed": 0, "metrics": [1]}
    for i, last in enumerate(["5", "null", json.dumps(partial), json.dumps(bare), json.dumps(listed)]):
        bad = tmp_path / f"bad{i}.txt"
        bad.write_text("workload ...\n" + last + "\n")
        assert bench_file.main(["--out", str(tmp_path / "b.json"), f"parent:w:{bad}"]) == 2
        assert capsys.readouterr().err == f"error: {bad}: last line is not a perfbench result\n"


def test_unequal_run_counts_exit_2(bench_file, tmp_path, capsys):
    runs = [f"parent:w:{_result(tmp_path / f'p{i}', {'wall_s': 1.0})}" for i in range(3)]
    runs += [f"change:w:{_result(tmp_path / f'c{i}', {'wall_s': 0.5})}" for i in range(2)]
    out = tmp_path / "b.json"
    assert bench_file.main(["--out", str(out), *runs]) == 2
    assert "workload w: 3 parent runs but 2 change runs" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_out_exit_2(bench_file, tmp_path, capsys):
    runs = [f"{side}:w:{_result(tmp_path / side, {'wall_s': 1.0})}" for side in ("parent", "change")]
    out = tmp_path / "missing" / "b.json"
    assert bench_file.main(["--out", str(out), *runs]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"
    assert not out.exists()


def test_count_changes_lists_the_moved_counts(bench_file, tmp_path):
    # only counters of unit count in BENCHMARK.json, and only those whose
    # traced medians differ; a ratio that moves is left out
    traced = {"parent": {"trace.overhead_ratio": 1.2, "matroid.rank.calls": 199, "gf.rref.calls": 9,
                         "matroid.rank.repeat_ratio": 0.09},
              "change": {"trace.overhead_ratio": 1.3, "matroid.rank.calls": 96, "gf.rref.calls": 9,
                         "matroid.rank.repeat_ratio": 0.19}}
    runs = [f"{side}:w:{_result(tmp_path / side, {'wall_s': 1.0})}" for side in ("parent", "change")]
    runs += [f"{side}:w:{_result(tmp_path / (side + 't'), values)}" for side, values in traced.items()]
    out = tmp_path / "b.json"
    assert bench_file.main(["--out", str(out), *runs]) == 0
    assert json.loads(out.read_text())["workloads"]["w"]["count_changes"] == {"matroid.rank.calls": [199, 96]}
    # a counter traced on one side only has moved too
    assert bench_file.count_changes({"change": {"x.calls": 3}}, {"x.calls", "y.calls"}) == {"x.calls": [None, 3]}
    assert bench_file.count_changes({}, {"x.calls"}) == {}
