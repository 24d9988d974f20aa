"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest bergbench
"""

import contextlib
import copy
import io
import json
import random

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

cli = run.import_bergkit()


def call(op) -> dict:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(op.argv) == 0
    return json.loads(buffer.getvalue())


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Every third op of each workload's round: each op kind, once."""
    out = tmp_path_factory.mktemp("out")
    return {name: [(op, call(op)) for op in workloads.generate(name, 3, out)[::3]]
            for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes(tiny, name):
    for op, payload in tiny[name]:
        assert checks.check(op, payload) == []


def test_same_seed_same_ops(tmp_path):
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 7, tmp_path)
        assert [op.argv for op in first] == [
            op.argv for op in workloads.generate(name, 7, tmp_path)]
        assert len(first) == workloads.ROUND_OPS


@pytest.mark.parametrize("family", workloads.BOUNDED + workloads.UNBOUNDED)
def test_symbol_oracles_match_their_text(family):
    rng = random.Random(0)
    z = np.array([0.5 + 2j, 3.0 - 1j, 40.0 + 7j])
    for _ in range(20):
        sym = family(rng)
        parsed = cli.parse_symbol(sym.text)
        assert np.allclose(sym.fn(z), parsed(z), rtol=1e-13)
        if sym.lam is not None:
            assert parsed.known_lambda == pytest.approx(sym.lam, rel=1e-13)


def _first(tiny, name, pick):
    for op, payload in tiny[name]:
        found = pick(op, payload)
        if found is not None:
            return op, copy.deepcopy(payload), found
    raise AssertionError("no matching op")


def _bounded_row(op, payload):
    for i, (sym, _) in enumerate(op.spec["cells"]):
        if sym.lam is not None:
            return i
    return None


def test_shifted_lambda_fails(tiny):
    op, payload, i = _first(tiny, "norm_sweep", _bounded_row)
    sym, alpha = op.spec["cells"][i]
    payload["rows"][i]["theoretical"] = (1.001 * sym.lam) ** ((2 + alpha) / 2)
    assert checks.check(op, payload)


def test_raised_gram_eig_fails(tiny):
    op, payload, i = _first(tiny, "norm_sweep", _bounded_row)
    row = payload["rows"][i]
    row["gram_eig"] = row["theoretical"] * 1.001
    assert checks.check(op, payload)


def test_unbounded_reported_bounded_fails(tiny):
    op, payload, i = _first(tiny, "norm_sweep", lambda op, p: next(
        (i for i, (s, _) in enumerate(op.spec["cells"]) if s.lam is None), None))
    payload["rows"][i]["verdict"] = "BOUNDED"
    assert checks.check(op, payload)


@pytest.mark.parametrize("kernel", ["gram", "K:", "nevanlinna"])
def test_perturbed_min_eigenvalue_fails(tiny, kernel):
    op, payload, _ = _first(tiny, "psd_trials", lambda op, p: (
        0 if op.spec["kernel"].startswith(kernel) else None))
    verdict = payload["verdicts"][-1]
    pts = np.array([complex(re, im) for re, im in verdict["points"]])
    entries = checks.kernel_entries(op.spec["kernel"], op.spec["symbol"],
                                    verdict["alpha"], pts)
    scale = checks.entry_scale(op.spec["kernel"], op.spec["symbol"], entries)
    verdict["min_eigenvalue"] += 1e-6 * scale
    assert checks.check(op, payload)


def test_shifted_rhs_fails(tiny):
    op, payload, _ = _first(tiny, "quadrature", lambda op, p: 0)
    payload["rows"][0]["rhs"] *= 1 + 1e-8
    assert checks.check(op, payload)


def test_trace_self_times_sum_to_op_time(tiny):
    import bergkit.kernels
    import bergkit.linalg
    original = bergkit.linalg.jacobi_eigh
    tracer = tracing.Tracer()
    with tracer.installed():
        assert bergkit.kernels.jacobi_eigh is not original
        for name in workloads.WORKLOADS:
            for op, _ in tiny[name][:2]:
                call(op)
    assert bergkit.kernels.jacobi_eigh is original
    calls, self_ns = tracer.totals()
    assert calls["cli.main"] == 6
    assert calls["linalg.jacobi_eigh"] > 0
    assert calls[tracing.SCHEME_BUILD] > 0
    assert sum(self_ns.values()) == tracer.root_ns()


@pytest.mark.parametrize("name,width", [("norm_sweep", 0.4),
                                        ("psd_trials", 0.2),
                                        ("quadrature", 0.125)])
def test_each_op_draws_alphas_from_a_fixed_slice(tmp_path, name, width):
    def alphas(seed):
        return [float(op.argv[i + 1]) for op in workloads.generate(name, seed, tmp_path)
                for i, arg in enumerate(op.argv) if arg == "--alpha"]
    first, second = alphas(1), alphas(2)
    assert len(first) == len(second) == round((6.0 if name != "quadrature" else 3.0) / width)
    assert all(abs(a - b) <= width + 0.01 for a, b in zip(first, second))
    assert not any(a == int(a) for a in first + second)


def test_op_time_scaled_by_neighbouring_probes():
    slow = 2 * run.NOMINAL_PROBE_S
    assert run.at_nominal_speed(0.1, slow, slow) == pytest.approx(0.05)
    assert run.host_probe() > 0
