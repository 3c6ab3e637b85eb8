"""One pass over a list of ``pathbetti`` commands, in a fresh interpreter.

Usage: ``python3 bench/worker.py <trace 0|1>``.  The worker imports the
package from ``src/`` of its own checkout, prints ``ready``, reads a JSON
list of argument lists from stdin, runs each as an in-process
``pathbetti.cli.main(argv)`` with stdout captured, and prints one JSON
object: the pass's wall and CPU time, peak RSS, each command's exit code,
output and exception, and, when traced, the per-layer metrics.  Times
cover the commands only, not the worker's own bookkeeping.  A fresh
process per pass keeps the package's process-wide caches as empty as a
command-line user finds them.

The machine the benchmark was built on shares its CPUs with other tenants:
the same pass took anywhere from 3.6 s to 6.4 s, and one CPU ran up to a
third faster than the other.  So the worker also times a fixed calibration
kernel, in slices between commands and in a block right after start-up,
and reports ``wall_s`` and ``cpu_s`` in reference seconds: each command's
time divided by the slowdown (calibration time over REFERENCE_SLICE_S)
measured just before and after it.  The raw sums are reported beside them.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SETUP_SLICES = 40
SLICES_PER_COMMAND = 3
REFERENCE_SLICE_S = 0.00055  # a slice's median time on the 2-core machine the baseline was taken on


def calibrate(slices: int) -> float:
    """Seconds for a fixed amount of work like the package's: tuple and dict churn, small int64 row operations.

    The collector is off meanwhile, so the size of the package's heap does not slow the kernel.
    numpy is imported here, not at the top, so that set-up time counts only what the package imports.
    """
    import numpy as np

    base = (np.arange(24 * 24, dtype=np.int64).reshape(24, 24) * 7919) % 11 - 5
    gc.disable()
    start = time.perf_counter()
    for _ in range(slices):
        faces = set()
        for f in range(40):
            facet = tuple(range(f, f + 6))
            for skip in range(6):
                faces.add(facet[:skip] + facet[skip + 1:])
        index = {face: i for i, face in enumerate(sorted(faces))}
        a = base.copy() + len(index) % 2
        for c in range(12):
            rows = np.flatnonzero(a[:, c])
            if rows.size > 1:
                rest = rows[1:]
                a[rest] = (a[rest] * a[rows[0], c] - np.outer(a[rest, c], a[rows[0]])) % 32003
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def cpu_time() -> float:
    """CPU seconds of all this process's threads and of its waited-for children."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def slowdown(calibration_s: float, slices: int) -> float:
    return calibration_s / slices / REFERENCE_SLICE_S


def main() -> None:
    traced = sys.argv[1] == "1"
    from pathbetti import cli

    tracer = None
    if traced:
        import tracing
        tracer = tracing.install()
    print("ready", flush=True)
    commands = json.load(sys.stdin)
    setup_slowdown = slowdown(calibrate(SETUP_SLICES), SETUP_SLICES)

    results = []
    stderr = io.StringIO()
    raw_wall = raw_cpu = wall = cpu = 0.0
    slowdowns = []
    before = slowdown(calibrate(SLICES_PER_COMMAND), SLICES_PER_COMMAND)
    for argv in commands:
        out = io.StringIO()
        code = error = None
        start_cpu = cpu_time()
        start = tracer.begin() if tracer else time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a failing command is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.end("cli", start)
            op_wall = time.perf_counter() - start
            op_cpu = cpu_time() - start_cpu
        results.append([code, out.getvalue(), error])
        after = slowdown(calibrate(SLICES_PER_COMMAND), SLICES_PER_COMMAND)
        # the machine's speed around this command: the calibrations just before and after it
        around = (before + after) / 2
        raw_wall += op_wall
        raw_cpu += op_cpu
        wall += op_wall / around
        cpu += op_cpu / around
        slowdowns.append(around)
        before = after

    json.dump({
        "wall_s": wall,
        "cpu_s": cpu,
        "raw_wall_s": raw_wall,
        "raw_cpu_s": raw_cpu,
        "slowdown": sum(slowdowns) / len(slowdowns) if slowdowns else 1.0,
        "setup_slowdown": setup_slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "results": results,
        "layers": tracing.layer_metrics(tracer) if tracer else None,
    }, sys.stdout)


if __name__ == "__main__":
    main()
