"""Reference figures quoted in README.md, measured once by hand.

    python3 bergbench/reference.py

Prints: cold ``import bergkit``; ``bergkit report`` wall time and the
seconds of each acceptance criterion; and one ``bergkit norm`` call over
the 105 symbols of a norm_sweep round at BERGKIT_THREADS=1 and =2.  Takes
about a minute; it is not part of the benchmark runs.
"""

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time

import run


def median_seconds(fn, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def main():
    run.pin_threads()
    src = str(run.ROOT / "src")
    cold = median_seconds(lambda: subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); "
         "import bergkit"], check=True), 7)
    print(f"cold import bergkit: {cold:.3f} s (median of 7 fresh interpreters)")

    cli = run.import_bergkit()
    from bergkit import report
    with contextlib.redirect_stderr(io.StringIO()):
        wall = median_seconds(lambda: cli.main(
            ["report", "--out", str(run.OUT / "report.json")]), 1)
    print(f"bergkit report: {wall:.2f} s")
    for number, name, _ in report.CRITERIA:
        seconds = median_seconds(lambda: report.run_criterion(number), 1)
        print(f"  criterion {number:2d} {name}: {seconds:.3f} s")

    import workloads
    symbols = [sym.text for op in workloads.generate("norm_sweep", 0, run.OUT)
               for sym, _ in op.spec["cells"]]
    argv = ["norm", "--alpha", "3"] + [a for s in symbols for a in ("--symbol", s)]
    for threads in ("1", "2"):
        os.environ["BERGKIT_THREADS"] = threads
        with contextlib.redirect_stdout(io.StringIO()):
            seconds = median_seconds(lambda: cli.main(argv), 5)
        print(f"norm over {len(symbols)} cells, BERGKIT_THREADS={threads}: "
              f"{seconds:.3f} s (median of 5)")


if __name__ == "__main__":
    main()
