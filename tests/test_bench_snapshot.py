"""tools/bench_snapshot.py: the summary statistics, the scaling of samples
by a reference, the diff of two snapshots and the run length each workload
gets (the measuring itself runs the benchmark and is not run here)."""

import importlib.util
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

PATH = Path(__file__).parents[1] / "tools" / "bench_snapshot.py"
spec = importlib.util.spec_from_file_location("bench_snapshot", PATH)
bench_snapshot = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_snapshot)


def snapshot(name, items_per_s, import_s, scaled_import_s=None,
             jacobi_ms=None):
    metric = bench_snapshot.summary
    data = {
        "name": name,
        "host": {"host_probe_ms": 2.0},
        "workloads": {"quadrature": {"metrics": {
            "items_per_s": {"unit": "1/s", **metric(items_per_s)}}}},
        "import_bergkit_s": {"unit": "s", **metric(import_s)},
        "report_seed0_s": {"unit": "s", **metric([2.0])},
    }
    if scaled_import_s is not None:  # snapshots from BENCH_14.json on
        data["import_bergkit_s"]["scaled"] = metric(scaled_import_s)
        data["report_seed0_s"]["scaled"] = metric([1.5])
        data["layers"] = {"linalg.jacobi_eigh.n8": {
            "unit": "ms", **metric(jacobi_ms), "raw_median": 9.0}}
    return data


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


def test_diff_compares_scaled_and_per_layer_times():
    old = snapshot("13", [70.0], [0.1])
    new = snapshot("14", [70.0], [0.2], [0.08], [2.0, 2.5, 3.0])
    newer = snapshot("15", [70.0], [0.2], [0.1], [2.0, 2.0, 2.0])
    # an older snapshot has raw times only: those are all the pair shares
    assert len(bench_snapshot.diff(old, new)) == 1 + 4
    lines = bench_snapshot.diff(new, newer)
    assert "import_bergkit_s: 0.2 -> 0.2 s (1.000x)" in lines
    assert "import_bergkit_s.scaled: 0.08 -> 0.1 s (1.250x)" in lines
    assert "report_seed0_s.scaled: 1.5 -> 1.5 s (1.000x)" in lines
    assert "layers.linalg.jacobi_eigh.n8: 2.5 -> 2 ms (0.800x)" in lines
    assert len(lines) == 1 + 7


def test_samples_are_scaled_by_the_reference_on_both_sides(monkeypatch):
    # the reference takes 0.15 s (nominal), then 0.3 s, then 0.15 s again
    references = iter([0.15, 0.3, 0.15])
    monkeypatch.setattr(bench_snapshot, "reference_seconds",
                        lambda root: next(references))
    samples = iter([1.0, 2.0])
    result = bench_snapshot.scaled_samples(PATH.parents[1],
                                           lambda: next(samples), 2)
    assert result["values"] == [1.0, 2.0] and result["unit"] == "s"
    # each sample over the mean of its two references, times 0.15 s
    assert bench_snapshot.NOMINAL_START_S == 0.15
    assert result["scaled"]["values"] == pytest.approx([2 / 3, 4 / 3])


def test_layer_timings_group_the_child_samples(monkeypatch):
    # the child names each case by its full layer name, which is kept
    lines = ['["linalg.jacobi_eigh.n8", 0.002, 0.001]',
             '["linalg.pivoted_cholesky.n8", 0.0001, 0.0002]',
             '["symbols.angular_derivative_estimate.affine", 0.0005, 0.0004]',
             '["linalg.jacobi_eigh.n8", 0.004, 0.003]',
             '["opnorm.boundedness_verdict.norm_sweep_families", 0.01, 0.02]']
    monkeypatch.setattr(bench_snapshot, "python",
                        lambda root, code: "\n".join(lines) + "\n")
    layers = bench_snapshot.layer_timings(PATH.parents[1])
    assert sorted(layers) == ["linalg.jacobi_eigh.n8",
                              "linalg.pivoted_cholesky.n8",
                              "opnorm.boundedness_verdict.norm_sweep_families",
                              "symbols.angular_derivative_estimate.affine"]
    assert layers["opnorm.boundedness_verdict.norm_sweep_families"][
        "values"] == [20.0]
    jacobi = layers["linalg.jacobi_eigh.n8"]
    assert jacobi["unit"] == "ms"
    assert jacobi["values"] == [1.0, 3.0] and jacobi["median"] == 2.0
    assert jacobi["raw_median"] == 3.0


def test_diff_compares_criterion_times():
    # each acceptance criterion is a layer of its own
    old = snapshot("15", [70.0], [0.1], [0.1], [2.0])
    new = snapshot("16", [70.0], [0.1], [0.1], [2.0])
    for data, ms in ((old, [300.0]), (new, [250.0])):
        data["layers"]["report.criterion_7"] = {
            "unit": "ms", **bench_snapshot.summary(ms), "raw_median": ms[0]}
    assert ("layers.report.criterion_7: 300 -> 250 ms (0.833x)"
            in bench_snapshot.diff(old, new))
    assert "report.criterion_{k}" in bench_snapshot.LAYER_CODE


def test_diff_compares_tier1_times():
    old = snapshot("16", [70.0], [0.1], [0.1], [2.0])
    new = snapshot("17", [70.0], [0.1], [0.1], [2.0])
    # a snapshot from before BENCH_17.json has no tier-1 time to compare
    assert not any(line.startswith("tier1_pytest_s")
                   for line in bench_snapshot.diff(old, new))
    for data, seconds in ((old, 30.0), (new, 24.0)):
        data["tier1_pytest_s"] = {"unit": "s",
                                  **bench_snapshot.summary([seconds]),
                                  "scaled": bench_snapshot.summary([seconds])}
    lines = bench_snapshot.diff(old, new)
    assert "tier1_pytest_s: 30 -> 24 s (0.800x)" in lines
    assert "tier1_pytest_s.scaled: 30 -> 24 s (0.800x)" in lines


def test_tier1_runs_the_tests_of_the_checkout(monkeypatch):
    # each sample is one run of the tier-1 command in the measured root,
    # timed whether or not every test passes
    root = PATH.parents[1]
    runs = []

    def fake_run(command, cwd, env, capture_output):
        runs.append((command, cwd, env["PYTHONPATH"]))
        return None

    monkeypatch.setattr(bench_snapshot.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_snapshot, "reference_seconds", lambda r: 0.15)
    result = bench_snapshot.tier1_seconds(root, 2)
    assert len(result["values"]) == 2 and result["unit"] == "s"
    assert runs == [([bench_snapshot.sys.executable, "-m", "pytest", "-q",
                      "--continue-on-collection-errors"], root,
                     str(root / "src"))] * 2


def layer_cases(monkeypatch) -> dict:
    """The child's layer cases, built without timing them."""
    return layer_names(monkeypatch)["cases"]


def layer_names(monkeypatch) -> dict:
    """The names the child's set-up defines, its cases among them."""
    root = PATH.parents[1]
    monkeypatch.chdir(root)
    monkeypatch.setattr(sys, "path", list(sys.path))
    setup = bench_snapshot.LAYER_CODE.split("run.host_probe()\n")[0]
    names = {}
    exec(f"SEED, SAMPLES = 7, 1\n{setup}", names)
    for name, module in list(sys.modules.items()):  # bergbench's run, ...
        if Path(getattr(module, "__file__", None) or "/").parent == (
                root / "bergbench"):
            del sys.modules[name]
    return names


def test_layer_code_times_inner_product_on_both_schemes(monkeypatch):
    # <L f, L f> is real and positive on each scheme
    cases = layer_cases(monkeypatch)
    for scheme in ("default", "doubled"):
        value = cases[f"space.inner_product.{scheme}"]()
        assert value.real > 0 and abs(value.imag) < 1e-12 * value.real


def test_layer_code_traces_the_peak_of_isometry_check(monkeypatch, capsys):
    # the doubled-scheme check and inner product are timed, and after the
    # timings the child prints the traced peak of one call of each, which
    # layer_timings keeps in MB
    names = layer_names(monkeypatch)
    result, = names["cases"]["laplace.isometry_check.doubled"]()
    assert result.quadrature_gap <= 1e-6
    peak_code = bench_snapshot.LAYER_CODE.partition("for name in (")
    try:
        exec("".join(peak_code[1:]), names)
    finally:
        tracemalloc.stop()
    printed = capsys.readouterr().out
    monkeypatch.setattr(bench_snapshot, "python", lambda root, code: printed)
    layers = bench_snapshot.layer_timings(PATH.parents[1])
    keys = ["space.inner_product.doubled.peak_mb",
            "laplace.isometry_check.doubled.peak_mb"]
    assert list(layers) == keys
    # on the grid of 253,440 nodes: f * conj(g), one complex grid, and
    # |L f|^2, one real grid, each with chunk buffers
    grid_mb = 253_440 * 8 / 1e6
    for key, grids in zip(keys, (2, 1)):
        peak = layers[key]
        assert peak["unit"] == "MB" and peak["values"] == [peak["median"]]
        assert grids * grid_mb <= peak["median"] <= 2 * grids * grid_mb
    data = snapshot("27", [70.0], [0.1], [0.1], [2.0])
    data["layers"].update(layers)
    flat = bench_snapshot.flatten(data)
    for key in keys:
        assert flat[f"layers.{key}"] == (layers[key]["median"], "MB")


def test_layer_code_times_six_spectral_iterates(monkeypatch):
    # both symbols read finite, so each estimate runs all six iterates
    cases = layer_cases(monkeypatch)
    for family in ("affine", "compose"):
        rho, = cases[f"opnorm.spectral_radius_estimate.{family}"]()
        assert [n for n, _ in rho.per_iterate] == [1, 2, 3, 4, 5, 6]
        assert 0 < rho.value < float("inf")


def test_layer_code_times_jacobi_with_and_without_vectors(monkeypatch):
    # the vectors case solves the 12x8x8 stack of the eigenvalues case
    cases = layer_cases(monkeypatch)
    w, v = cases["linalg.jacobi_eigh.12x8x8.vectors"]()
    w_only, none = cases["linalg.jacobi_eigh.12x8x8"]()
    assert none is None and v.shape == (12, 8, 8)
    assert w.tobytes() == w_only.tobytes()


def test_layer_code_times_the_fixed_costs_of_a_norm_op(monkeypatch):
    # a 5x2x2 stack, eigenvalues only, and the JSON text of the payload of
    # the first norm_sweep op, byte for byte the standard encoding
    cases = layer_cases(monkeypatch)
    w, none = cases["linalg.jacobi_eigh.5x2x2"]()
    assert w.shape == (5, 2) and none is None
    text = cases["cli.canonical_json.norm_sweep_op"]()
    payload = json.loads(text)
    assert payload["command"] == "norm" and payload["rows"]
    assert text == json.dumps(payload, sort_keys=True, indent=2,
                              allow_nan=False)


def test_layer_code_compiles():
    # the child code itself needs numpy and runs only when measuring
    compile(bench_snapshot.LAYER_CODE, "<layer code>", "exec")


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
    monkeypatch.setattr(bench_snapshot, "tier1_seconds", lambda *args: {})
    monkeypatch.setattr(bench_snapshot, "layer_timings", lambda root: {})
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
