"""Write a BENCH_<name>.json snapshot of bergkit's end-to-end speed.

    python3 tools/bench_snapshot.py --name 11
    python3 tools/bench_snapshot.py --name 10 --root ../parent-checkout
    python3 tools/bench_snapshot.py --diff BENCH_10.json BENCH_11.json

A snapshot measures the checkout at ``--root`` (by default the one holding
this file) and records:

- each workload's end-to-end metrics from ``bergbench/run.py``, run
  unchanged 3 times each at seed 7 for the ``run_seconds`` that
  ``BENCHMARK.json`` sets: every value, the median and quartiles, and the
  run's digest and correctness;
- the median of 5 cold ``import bergkit`` runs, each timed inside a
  fresh interpreter;
- the wall time of 3 ``bergkit report --seed 0`` runs, interpreter start
  included;
- the wall time of 3 runs of the tier-1 tests (``python -m pytest -q
  --continue-on-collection-errors`` in the checkout, whatever their
  outcome);
- each of those raw and, under ``scaled``, at the host's nominal speed:
  each sample is scaled by the wall time of a fresh ``import numpy``
  interpreter taken before and after it, over that reference's nominal
  time, as ``bergbench/run.py`` scales ``setup_s``;
- per-layer timings in one child process, each under its layer's full
  name: ``jacobi_eigh`` (eigenvalues only) on a stack of one matrix of
  order 8, 32 and 64 and on the stacks 12x8x8, 4x16x16 and 5x12x12 that
  the workloads solve, and with its eigenvectors on that 12x8x8 stack
  (``linalg.jacobi_eigh.12x8x8.vectors``), ``pivoted_cholesky`` at order
  8, 32 and 64, ``jacobi_eigh`` on a 5x2x2 stack, which is almost all
  fixed cost, ``cli._canonical_json`` on the payload of the first
  ``norm_sweep`` op (``cli.canonical_json.norm_sweep_op``), one
  ``angular_derivative_estimate`` on the default grid for an affine map
  and for a composition of two Moebius maps, one
  six-iterate
  ``spectral_radius_estimate`` at alpha 1 from each of those two
  estimates, one ``boundedness_verdict``
  over the seven ``norm_sweep`` families at one alpha, one
  ``inner_product`` of a two-mode Laplace transform with itself on the
  default and on the doubled quadrature scheme of the ``quadrature``
  workload, one ``isometry_check`` of that transform at alpha 1 on the
  doubled scheme (``laplace.isometry_check.doubled``), the tracemalloc
  peak in MB of one warm call of each of the two doubled-scheme cases
  (``space.inner_product.doubled.peak_mb`` and
  ``laplace.isometry_check.doubled.peak_mb``), and each acceptance
  criterion 1 to 10 of ``bergkit report``
  at seed 0 (``report.criterion_<k>``, one ``report.run_criterion(k, 0)``
  call);
  each sample is scaled by bergbench's host probe taken before and
  after it;
- the git SHA and whether the tree had uncommitted changes (both null
  when ``--root`` is not a git work tree), a digest of the ``src/`` files
  measured, the Python and numpy versions, the machine, its CPU count and
  the CPUs this process may run on (the quadrature grid walk,
  ``bergkit.space._run_blocks``, runs one row block per usable CPU, so
  ``quadrature`` speed depends on it), and the median
  time of bergbench's host probe, so that snapshots from different hosts
  or host moods can be told apart.

This script uses the standard library only; bergkit and numpy run in child
processes, with one BLAS thread, as bergbench pins them.  ``--diff``
prints old -> new for every metric two snapshots share; the import,
report, tier-1 and per-layer times are compared scaled, under ``.scaled``
and ``layers.`` keys, and the raw times keep their names.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("norm_sweep", "psd_trials", "quadrature")
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PROBE_SAMPLES = 201
SEED = 7
RUNS = 3
IMPORT_RUNS = 5
REPORT_RUNS = 3
TIER1_RUNS = 3
LAYER_SAMPLES = 15
# The reference timed next to each import and report sample is the one
# bergbench/run.py times next to its set-up samples (START_REFERENCE), with
# the same nominal time; it only sets the scale.
START_REFERENCE = "import numpy"
NOMINAL_START_S = 0.15
# Runs in one child on the checkout measured, after a line that sets SEED
# and SAMPLES: the seeded inputs of every layer case, then SAMPLES samples
# of each, one per line, each at least 20 ms of calls between two host
# probes, then the traced peak of one doubled-scheme isometry check.
LAYER_CODE = """
import contextlib, io, json, sys, time, tracemalloc
sys.path.insert(0, "bergbench")
import numpy as np, run, workloads
from bergkit import report
from bergkit.cli import _canonical_json, main, parse_symbol
from bergkit.kernels import Weight
from bergkit.laplace import HalfLineFunction, isometry_check, laplace_eval
from bergkit.linalg import jacobi_eigh, pivoted_cholesky
from bergkit.opnorm import boundedness_verdict, spectral_radius_estimate
from bergkit.space import QuadratureScheme, default_scheme, inner_product
from bergkit.symbols import (DEFAULT_GRID, Affine, Compose, Moebius,
                             angular_derivative_estimate)

rng = np.random.default_rng(SEED)

def hermitian(*shape):
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return a + a.conj().swapaxes(-1, -2)

def eigenvalues(a):
    return lambda: jacobi_eigh(a, compute_vectors=False)

def angular(phi):
    return lambda: angular_derivative_estimate(phi, DEFAULT_GRID)

def spectral(phi):
    est = angular_derivative_estimate(phi, DEFAULT_GRID)
    return lambda: spectral_radius_estimate([Weight(1.0)], est, 6)

cases = {}
for n in (8, 32, 64):
    cases[f"linalg.jacobi_eigh.n{n}"] = eigenvalues(hermitian(n, n)[None])
stacks = [hermitian(b, n, n) for b, n in ((12, 8), (4, 16), (5, 12))]
for a in stacks:
    cases["linalg.jacobi_eigh.{}x{}x{}".format(*a.shape)] = eigenvalues(a)
# the 12x8x8 stack again, with its eigenvectors
cases["linalg.jacobi_eigh.12x8x8.vectors"] = lambda a=stacks[0]: jacobi_eigh(a)
for n in (8, 32, 64):
    h = hermitian(n, n)
    cases[f"linalg.pivoted_cholesky.n{n}"] = lambda g=h @ h: pivoted_cholesky(g)
# almost all fixed cost, as the n = 2 Gram prefix of every norm_sweep op is
cases["linalg.jacobi_eigh.5x2x2"] = eigenvalues(hermitian(5, 2, 2))
affine = Affine(2.0, 1.0 + 0.5j)
moebius_compose = Compose(Moebius(2.0, 1.0 + 0.5j, 0, 1.5),
                          Moebius(1.5, 0.5 - 1j, 0, 2.0))
cases["symbols.angular_derivative_estimate.affine"] = angular(affine)
cases["symbols.angular_derivative_estimate.moebius_compose"] = angular(
    moebius_compose)
cases["opnorm.spectral_radius_estimate.affine"] = spectral(affine)
cases["opnorm.spectral_radius_estimate.compose"] = spectral(moebius_compose)
# the first op of a norm_sweep round: one cell of each of its seven families
op = workloads.generate("norm_sweep", SEED, None)[0]
weight = Weight(op.spec["cells"][0][1])
symbols = [parse_symbol(sym.text) for sym, _ in op.spec["cells"]]
cases["opnorm.boundedness_verdict.norm_sweep_families"] = (
    lambda: boundedness_verdict([weight], symbols, DEFAULT_GRID))
# the payload that op prints, encoded again
with contextlib.redirect_stdout(io.StringIO()) as printed:
    main(op.argv)
payload = json.loads(printed.getvalue())
cases["cli.canonical_json.norm_sweep_op"] = lambda: _canonical_json(payload)
f = HalfLineFunction.build([(1.0, 1.0, 1.0), (0.5 + 1j, 2.5, 1.5 - 0.5j)])
transform = lambda z: laplace_eval(f, z)
doubled = QuadratureScheme.build(**workloads.DOUBLED_SCHEME)
for name, scheme in (("default", default_scheme()), ("doubled", doubled)):
    cases[f"space.inner_product.{name}"] = (
        lambda scheme=scheme: inner_product(Weight(1.0), transform, transform,
                                            scheme))
cases["laplace.isometry_check.doubled"] = (
    lambda: isometry_check([Weight(1.0)], f, doubled))
for k in range(1, 11):
    cases[f"report.criterion_{k}"] = lambda k=k: report.run_criterion(k, 0)
run.host_probe()
for name, call in cases.items():
    start = time.perf_counter()
    call()
    calls = max(1, round(0.02 / (time.perf_counter() - start)))
    for _ in range(SAMPLES):
        before = run.host_probe()
        start = time.perf_counter()
        for _ in range(calls):
            call()
        seconds = (time.perf_counter() - start) / calls
        after = run.host_probe()
        print(json.dumps([name, seconds,
                          run.at_nominal_speed(seconds, before, after)]))
for name in ("space.inner_product.doubled", "laplace.isometry_check.doubled"):
    tracemalloc.start()
    cases[name]()
    print(json.dumps([f"{name}.peak_mb",
                      tracemalloc.get_traced_memory()[1] / 1e6]))
    tracemalloc.stop()
"""


def child_env(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({var: "1" for var in SINGLE_THREAD})
    # Stale bytecode that may not be rewritten is compiled again in every
    # process: that cost 1.3 MB of peak RSS and showed in setup_s.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def python(root: Path, code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on ``root``."""
    return subprocess.run([sys.executable, "-c", code], cwd=root,
                          env=child_env(root), check=True, text=True,
                          capture_output=True).stdout


def summary(values: list) -> dict:
    """Median and quartiles (inclusive method) of ``values``, with the
    values themselves."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def run_workload(root: Path, workload: str, seconds: float) -> dict:
    results, digests = [], set()
    for _ in range(RUNS):
        done = subprocess.run(
            [sys.executable, "bergbench/run.py", "--workload", workload,
             "--seed", str(SEED), "--seconds", str(seconds)],
            cwd=root, env=child_env(root), check=True, text=True,
            capture_output=True)
        lines = done.stdout.strip().splitlines()
        digests.add(lines[-2].removeprefix("digest "))
        results.append(json.loads(lines[-1]))
    metrics = {}
    for name, entry in results[0]["metrics"].items():
        metrics[name] = {"unit": entry["unit"], **summary(
            [result["metrics"][name]["value"] for result in results])}
    return {"seed": SEED, "seconds": seconds, "runs": RUNS,
            "correct": all(result["correct"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "digest": digests.pop() if len(digests) == 1 else sorted(digests),
            "metrics": metrics}


def reference_seconds(root: Path) -> float:
    """Wall time of a fresh interpreter running ``START_REFERENCE``."""
    start = time.perf_counter()
    python(root, START_REFERENCE)
    return time.perf_counter() - start


def scaled_samples(root: Path, sample, count: int) -> dict:
    """``count`` samples of ``sample()`` seconds, raw and, under
    ``scaled``, each scaled by the reference timed before and after it."""
    raw, scaled = [], []
    before = reference_seconds(root)
    for _ in range(count):
        seconds = sample()
        after = reference_seconds(root)
        raw.append(seconds)
        scaled.append(seconds * 2.0 * NOMINAL_START_S / (before + after))
        before = after
    return {"unit": "s", **summary(raw), "scaled": summary(scaled)}


def import_seconds(root: Path, count: int) -> dict:
    code = ("import time; start = time.perf_counter(); import bergkit; "
            "print(time.perf_counter() - start)")
    return scaled_samples(root, lambda: float(python(root, code)), count)


def report_seconds(root: Path, count: int) -> dict:
    with tempfile.TemporaryDirectory() as workdir:
        command = [sys.executable, "-m", "bergkit.cli", "report", "--seed",
                   "0", "--out", str(Path(workdir) / "report.json")]

        def sample():
            start = time.perf_counter()
            subprocess.run(command, cwd=root, env=child_env(root), check=True,
                           capture_output=True)
            return time.perf_counter() - start

        return scaled_samples(root, sample, count)


def tier1_seconds(root: Path, count: int) -> dict:
    command = [sys.executable, "-m", "pytest", "-q",
               "--continue-on-collection-errors"]

    def sample():
        start = time.perf_counter()
        subprocess.run(command, cwd=root, env=child_env(root),
                       capture_output=True)
        return time.perf_counter() - start

    return scaled_samples(root, sample, count)


def layer_timings(root: Path) -> dict:
    """Per-call milliseconds of each layer case of ``LAYER_CODE``: the
    scaled samples with their median and quartiles, and the raw median;
    and each traced peak the child prints, in MB."""
    samples, peaks = {}, {}
    code = f"SEED, SAMPLES = {SEED}, {LAYER_SAMPLES}\n{LAYER_CODE}"
    for line in python(root, code).splitlines():
        entry = json.loads(line)
        if len(entry) == 2:
            peaks[entry[0]] = {"unit": "MB", **summary([entry[1]])}
            continue
        name, seconds, scaled = entry
        raw, values = samples.setdefault(name, ([], []))
        raw.append(seconds * 1e3)
        values.append(scaled * 1e3)
    return {**{name: {"unit": "ms", **summary(values),
                      "raw_median": statistics.median(raw)}
               for name, (raw, values) in samples.items()}, **peaks}


def git_state(root: Path) -> tuple:
    """(HEAD SHA, whether the tree has uncommitted changes) of the git work
    tree whose top is ``root``, or (None, None) when ``root`` is not the
    top of one, as a ``git archive`` export is not."""
    def git(*args):
        done = subprocess.run(["git", "-C", str(root), *args], text=True,
                              capture_output=True)
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != root.resolve():
        return None, None
    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))


def host(root: Path) -> dict:
    code = ("import statistics, sys; sys.path.insert(0, 'bergbench'); "
            "import numpy, run; run.host_probe(); "
            f"times = [run.host_probe() for _ in range({PROBE_SAMPLES})]; "
            "print(numpy.__version__, statistics.median(times))")
    numpy_version, probe = python(root, code).split()
    sha, dirty = git_state(root)
    sources = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        sources.update(path.relative_to(root).as_posix().encode() + b"\0")
        sources.update(path.read_bytes())
    usable = (len(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else os.cpu_count())
    return {"git_sha": sha, "git_uncommitted_changes": dirty,
            "src_sha256": sources.hexdigest(),
            "python": platform.python_version(), "numpy": numpy_version,
            "machine": platform.machine(), "cpus": os.cpu_count(),
            "usable_cpus": usable, "host_probe_ms": float(probe) * 1e3}


def snapshot(root: Path, name: str) -> dict:
    root = root.resolve()
    seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    data = {"name": name, "host": host(root), "workloads": {}}
    for workload in WORKLOADS:
        data["workloads"][workload] = run_workload(root, workload, seconds)
    data["import_bergkit_s"] = import_seconds(root, IMPORT_RUNS)
    data["report_seed0_s"] = report_seconds(root, REPORT_RUNS)
    data["tier1_pytest_s"] = tier1_seconds(root, TIER1_RUNS)
    data["layers"] = layer_timings(root)
    return data


def flatten(data: dict) -> dict:
    """Metric name -> (median, unit) for the timed entries of a snapshot;
    snapshots written before scaled, per-layer and tier-1 times lack
    those."""
    flat = {f"{workload}.{name}": (entry["median"], entry["unit"])
            for workload, block in data["workloads"].items()
            for name, entry in block["metrics"].items()}
    for key in ("import_bergkit_s", "report_seed0_s", "tier1_pytest_s"):
        if key not in data:
            continue
        flat[key] = (data[key]["median"], data[key]["unit"])
        if "scaled" in data[key]:
            flat[f"{key}.scaled"] = (data[key]["scaled"]["median"],
                                     data[key]["unit"])
    for name, entry in data.get("layers", {}).items():
        flat[f"layers.{name}"] = (entry["median"], entry["unit"])
    flat["host_probe_ms"] = (data["host"]["host_probe_ms"], "ms")
    return flat


def diff(old: dict, new: dict) -> list:
    """One line per metric both snapshots hold: old -> new medians."""
    before, after = flatten(old), flatten(new)
    lines = [f"{old['name']} -> {new['name']}"]
    for key in before.keys() & after.keys():
        (a, unit), (b, _) = before[key], after[key]
        ratio = f"{b / a:.3f}x" if a else "n/a"
        lines.append(f"{key}: {a:.4g} -> {b:.4g} {unit} ({ratio})")
    return [lines[0]] + sorted(lines[1:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--name", help="snapshot name: writes BENCH_<name>.json")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="checkout to measure")
    parser.add_argument("--out", type=Path,
                        help="output file (default: BENCH_<name>.json in --root)")
    parser.add_argument("--diff", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.diff:
        old, new = (json.loads(path.read_text()) for path in args.diff)
        print("\n".join(diff(old, new)))
        return 0
    if not args.name:
        parser.error("--name is required to write a snapshot")
    out = args.out or args.root / f"BENCH_{args.name}.json"
    text = json.dumps(snapshot(args.root, args.name), indent=2,
                      sort_keys=True) + "\n"
    out.write_text(text)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
