"""Benchmark of the bergkit command line, driven in-process.

    python3 bergbench/run.py --workload norm_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: bergkit is imported from ``src/`` there.
Each op is one ``bergkit.cli.main(argv)`` call from the workload's seeded
round (see workloads.py); runs repeat whole rounds until ``--seconds``
have passed.  Every output is checked (checks.py).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.

Op and set-up times are given at the host's nominal speed: each is scaled
by the time a fixed reference took next to it, over that reference's
nominal time (see ``host_probe``, ``START_REFERENCE`` and the README's
"Host speed").
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads  # stdlib only: numpy must wait for pin_threads()

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bergbench" / "out"
SETUP_PROBES = 4  # before and again after the timed rounds
MIN_OPS = 100   # so that ten op times lie beyond the 90th percentile
# Nominal times of the two references; they only set the scale.  On the
# 2-vCPU VM where the bounds were set, the host probe took 1.9 ms in quiet
# spells and up to 3.4 ms in slow ones, and START_REFERENCE 0.12-0.17 s.
NOMINAL_PROBE_S = 0.002
NOMINAL_START_S = 0.15
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads():
    """One BLAS thread and bergkit's single-threaded sweep; must run before
    numpy is imported.  Setup probes inherit the environment."""
    for var in SINGLE_THREAD:
        os.environ[var] = "1"
    os.environ.pop("BERGKIT_THREADS", None)


def import_bergkit():
    src = ROOT / "src"
    if not (src / "bergkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no bergkit sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import bergkit.cli
    if Path(bergkit.__file__).resolve().parent != src / "bergkit":
        raise SystemExit(f"error: imported bergkit from {bergkit.__file__}")
    return bergkit.cli


def host_probe() -> float:
    """Seconds taken by fixed work that shares no code with bergkit.  Timed
    next to each op, it tells how fast the host runs at that moment; this
    host changes speed by up to 1.8x in spells of seconds to minutes, and
    not alike for all kinds of work.  The probe is an interpreter loop,
    small numpy calls and one pass over a 5000-point complex array, about
    70/10/20 of its time: of the mixes tried on recordings of all three
    workloads, the one whose scaled op times spread least (see README)."""
    import numpy as np
    start = time.perf_counter()
    total = 0.0
    for i in range(12000):
        total += (i * 0.5) % 7.0
    a = np.arange(144.0).reshape(12, 12) / 7.0
    for _ in range(25):
        a[:, 2] = a[:, 2] * 0.9 + a[:, 5] * 0.1
        np.abs(a).sum()
    w = (np.arange(1.0, 5001.0) * (1 + 0.5j) / 7000.0 + 1.0) ** -2.7
    (w * w.conj()).real.sum()
    return time.perf_counter() - start


def at_nominal_speed(seconds: float, before: float, after: float,
                     nominal: float = NOMINAL_PROBE_S) -> float:
    """``seconds`` measured between two timings of a reference, scaled to
    the host speed at which the reference takes ``nominal``."""
    return seconds * 2.0 * nominal / (before + after)


class Bench:
    """One workload's round of ops, run and checked through the CLI."""

    def __init__(self, workload: str, seed: int):
        self.cli = import_bergkit()
        import checks
        self.check = checks.check
        self.ops = workloads.generate(workload, seed, OUT)
        self.outputs = [None] * len(self.ops)  # canonical text of each op
        self.attempted = self.failed = 0
        self.problems = []
        if self.run_op(0) is None:  # warm-up, not counted
            raise SystemExit("error: the warm-up op failed")
        self.attempted = 0

    def run_op(self, index: int):
        """Seconds spent in ``main``, or None if the op failed."""
        op = self.ops[index]
        self.attempted += 1
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer):
                start = time.perf_counter()
                code = self.cli.main(op.argv)   # looked up here, so traceable
                seconds = time.perf_counter() - start
        except Exception:
            code, seconds = traceback.format_exc(), None
        if code != 0:
            self.failed += 1
            print(f"op {index} failed ({code}): {op.argv}", file=sys.stderr)
            return None
        payload = json.loads(buffer.getvalue())
        payload.pop("generated_at")
        text = json.dumps(payload, sort_keys=True)
        if self.outputs[index] is None:
            self.outputs[index] = text
            self.problems += [f"op {index}: {p}" for p in self.check(op, payload)]
        elif text != self.outputs[index]:
            self.problems.append(f"op {index}: output differs from its first run")
        return seconds

    def run_round(self, tracer=None):
        """(op seconds at nominal speed, wall seconds, items) of the ops in
        one round that did not fail.  A host probe runs between every two
        ops; each op is scaled by the probes on its two sides."""
        times, wall, items = [], [], 0
        before = host_probe()
        for index, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op += 1
            seconds = self.run_op(index)
            after = host_probe()
            if seconds is not None:
                times.append(at_nominal_speed(seconds, before, after))
                wall.append(seconds)
                items += op.items
            before = after
        return times, wall, items

    def digest(self) -> str:
        """Hash of every output, generated_at removed: for reference only."""
        return hashlib.sha256("\n".join(
            t or "" for t in self.outputs).encode()).hexdigest()

    def result(self, metrics: dict) -> dict:
        print(f"digest {self.digest()}")
        for problem in self.problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def time_to_ready(command) -> float:
    """Seconds from starting ``command`` until it prints ``ready``."""
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        seconds = time.perf_counter() - start
        child.stdout.read()
        if child.wait(timeout=60) != 0 or line.strip() != "ready":
            raise SystemExit(f"error: {command[1:]} did not start")
    return seconds


# Set-up is mostly interpreter start and imports, which slow less in the
# host's slow spells than the ops do (about 1.25x where the host probe
# slowed 1.6x), so set-up samples are scaled by a fixed start of that kind.
START_REFERENCE = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]


def measure_setup(args) -> list:
    """Seconds from starting a fresh interpreter to the point where it
    could time its first op: import, input generation and warm-up.  A
    start of ``START_REFERENCE`` runs between every two samples."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload",
               args.workload, "--seed", str(args.seed), "--setup-probe"]
    samples = []
    before = time_to_ready(START_REFERENCE)
    for _ in range(SETUP_PROBES):
        seconds = time_to_ready(command)
        after = time_to_ready(START_REFERENCE)
        samples.append(at_nominal_speed(seconds, before, after, NOMINAL_START_S))
        before = after
    return samples


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args) -> dict:
    setup = measure_setup(args)
    bench = Bench(args.workload, args.seed)
    times, wall, items = [], [], 0
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or len(times) < MIN_OPS:
        round_times, round_wall, round_items = bench.run_round()
        times += round_times
        wall += round_wall
        items += round_items
    # Probes on both sides of the timed rounds meet the host in two states.
    setup_s = statistics.median(setup + measure_setup(args))
    cuts = statistics.quantiles(times, n=10, method="inclusive")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"unscaled wall time: {items / sum(wall):.4g} items/s, op p50 "
          f"{statistics.median(wall) * 1e3:.4g} ms, {len(wall)} ops",
          file=sys.stderr)
    return bench.result({
        "setup_s": metric(setup_s, "s"),
        "items_per_s": metric(items / sum(times), "1/s"),
        "op_p50_ms": metric(statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": metric(cuts[8] * 1e3, "ms"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    })


def per_layer(args) -> dict:
    """Untraced and traced rounds alternate; per-layer figures are per
    round of the workload, averaged over the traced rounds."""
    import tracing
    bench = Bench(args.workload, args.seed)
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    rounds = 0
    deadline = time.perf_counter() + args.seconds
    while rounds == 0 or time.perf_counter() < deadline:
        plain_s += sum(bench.run_round()[0])
        with tracer.installed():
            traced_s += sum(bench.run_round(tracer)[0])
        rounds += 1
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    calls, self_ns = tracer.totals()
    if sum(self_ns.values()) != tracer.root_ns():
        bench.problems.append("span self times do not sum to the op time")
    metrics = {}
    for name in tracing.NAMES:
        metrics[f"{name}.calls"] = metric(calls[name] / rounds, "count")
        metrics[f"{name}.self_ms"] = metric(self_ns[name] / rounds / 1e6, "ms")
    jacobi = calls["linalg.jacobi_eigh"]
    metrics["linalg.jacobi_eigh.mean_n"] = metric(
        tracer.counts["linalg.jacobi_eigh.n"] / jacobi if jacobi else 0.0, "rows")
    for name in ("linalg.jacobi_eigh.vector_calls", "space.inner_product.nodes"):
        metrics[name] = metric(tracer.counts[name] / rounds, "count")
    verdicts = calls["opnorm.boundedness_verdict"]
    metrics["opnorm.angular_calls_per_verdict"] = metric(
        calls["symbols.angular_derivative_estimate"] / verdicts
        if verdicts else 0.0, "calls/verdict")
    metrics["trace.op_ms"] = metric(tracer.root_ns() / rounds / 1e6, "ms")
    metrics["trace.overhead_pct"] = metric((traced_s / plain_s - 1.0) * 100, "%")
    return bench.result(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    pin_threads()
    import_bergkit()  # fails at once where there are no sources
    if args.setup_probe:
        Bench(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    result = per_layer(args) if args.trace else end_to_end(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
