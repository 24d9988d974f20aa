"""tools/bench_snapshot.py: the summary statistics, the diff of two
snapshots and the run length each workload gets (the measuring itself runs
the benchmark and is not run here)."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).parents[1] / "tools" / "bench_snapshot.py"
spec = importlib.util.spec_from_file_location("bench_snapshot", PATH)
bench_snapshot = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_snapshot)


def snapshot(name, items_per_s, import_s):
    metric = bench_snapshot.summary
    return {
        "name": name,
        "host": {"host_probe_ms": 2.0},
        "workloads": {"quadrature": {"metrics": {
            "items_per_s": {"unit": "1/s", **metric(items_per_s)}}}},
        "import_bergkit_s": {"unit": "s", **metric(import_s)},
        "report_seed0_s": {"unit": "s", **metric([2.0])},
    }


def test_summary_median_and_quartiles():
    result = bench_snapshot.summary([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (result["q1"], result["median"], result["q3"]) == (2.0, 3.0, 4.0)
    assert result["values"] == [5.0, 1.0, 3.0, 2.0, 4.0]
    assert bench_snapshot.summary([7.0])["q1"] == 7.0


def test_diff_lists_every_shared_metric():
    old = snapshot("10", [70.0, 71.0, 72.0], [0.1])
    new = snapshot("11", [84.0, 85.0, 86.0], [0.1])
    lines = bench_snapshot.diff(old, new)
    assert lines[0] == "10 -> 11"
    assert "quadrature.items_per_s: 71 -> 85 1/s (1.197x)" in lines
    assert "import_bergkit_s: 0.1 -> 0.1 s (1.000x)" in lines
    assert len(lines) == 1 + 4


def test_snapshot_needs_a_name(capsys):
    with pytest.raises(SystemExit):
        bench_snapshot.main([])
    assert "--name is required" in capsys.readouterr().err


def test_workloads_run_as_long_as_the_benchmark_sets(monkeypatch):
    root = PATH.parents[1]
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    calls = []
    monkeypatch.setattr(bench_snapshot, "host", lambda root: {})
    monkeypatch.setattr(bench_snapshot, "import_seconds", lambda *args: {})
    monkeypatch.setattr(bench_snapshot, "report_seconds", lambda *args: {})
    monkeypatch.setattr(bench_snapshot, "run_workload",
                        lambda root, workload, s: calls.append((workload, s)))
    bench_snapshot.snapshot(root, "x")
    assert calls == [(name, seconds) for name in bench_snapshot.WORKLOADS]


def test_host_outside_a_git_work_tree(monkeypatch, tmp_path):
    # a git archive export: no SHA to record, but the snapshot goes on
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    monkeypatch.setattr(bench_snapshot, "python",
                        lambda root, code: "2.4.6 0.002\n")
    data = bench_snapshot.host(tmp_path)
    assert data["git_sha"] is None
    assert data["git_uncommitted_changes"] is None
    assert data["host_probe_ms"] == 2.0
    assert 1 <= data["usable_cpus"] <= data["cpus"]
