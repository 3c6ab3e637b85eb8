"""The pathbetti benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload closed_sweep --seed 1 --seconds 30 --trace 0

A run spawns one worker process per pass (see worker.py), one at a time,
until the next pass would end after ``--seconds``; there is always at
least one pass, and with ``--trace 1`` at least one untraced and one traced
pass, alternating.  Each operation's output is checked after its pass.
The last line of stdout is one JSON object:

* ``--trace 0``: the end-to-end metrics, medians over the passes:
  ``wall_s`` and ``cpu_s`` of one pass over the workload, ``setup_s``
  (interpreter start and package import, measured on every pass and on
  extra start-only probes), ``peak_rss_mb`` of a worker, and ``ok_ratio``,
  the share of operations that exited 0 and passed their check.  The
  three times are in reference seconds: scaled by the machine's speed as
  a calibration kernel measured it around each command (see worker.py).
* ``--trace 1``: the per-layer metrics of the traced passes (see
  tracing.py; their times are raw), ``trace.raw_wall_s``, the raw time of
  a traced pass, ``trace.overhead_s``, the traced minus the untraced pass
  time in reference seconds, and ``machine.slowdown``, the calibration's
  time over its reference during the traced passes.

Progress and the raw per-pass times go to stderr.  The machine this was
tuned on has 2 cores, so workers run one at a time and parallel
speed-ups of the package are bounded by 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_BUDGET_S = 170  # the whole run, passes included, must end within 180 s
SETUP_PROBES = 5


class BenchError(RuntimeError):
    pass


def spawn(commands: list[list[str]], traced: bool, timeout: float) -> tuple[float, dict]:
    """One worker pass: (set-up seconds, the worker's result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "1" if traced else "0"],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, err = proc.communicate(json.dumps(commands), timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass did not finish within {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return setup, json.loads(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    began = time.perf_counter()
    src = ROOT / "src"
    if not (src / "pathbetti" / "__init__.py").is_file():
        print(f"error: no pathbetti package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    try:
        ops = workloads.shuffled(workloads.operations(args.workload), args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    refs = workloads.references(args.workload, ops)
    commands = [op["argv"] for op in ops]

    def remaining() -> float:
        return RUN_BUDGET_S - (time.perf_counter() - began)

    setups = []  # (set-up seconds, slowdown measured right after)
    for _ in range(SETUP_PROBES):
        setup, result = spawn([], False, remaining())
        setups.append((setup, result["setup_slowdown"]))
    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    first_failure = good_output = None
    measure_start = time.perf_counter()
    last_pass = 0.0
    while True:
        want_trace = bool(args.trace) and len(traced) < len(plain)
        t0 = time.perf_counter()
        setup, result = spawn(commands, want_trace, remaining())
        last_pass = time.perf_counter() - t0
        setups.append((setup, result["setup_slowdown"]))
        (traced if want_trace else plain).append(result)
        for op, ref, (code, stdout, error) in zip(ops, refs, result["results"]):
            attempted += 1
            problem = workloads.check(args.workload, op, ref, code, stdout, error)
            if problem is None:
                good_output = good_output or (op, ref, stdout)
            else:
                failed += 1
                first_failure = first_failure or f"{' '.join(op['argv'])}: {problem}"
        elapsed = time.perf_counter() - measure_start
        done = len(plain) >= 1 and (not args.trace or len(traced) >= 1)
        if done and elapsed + last_pass > args.seconds:
            break
        if last_pass > remaining():
            raise BenchError("not enough time left for another pass")

    # the check must reject a deliberately corrupted output
    check_bites = good_output is not None and workloads.check(
        args.workload, good_output[0], good_output[1], 0,
        workloads.corrupted(args.workload, good_output[2]), None,
    ) is not None
    if first_failure:
        print(f"check failed ({failed} of {attempted}): {first_failure}", file=sys.stderr)
    if not check_bites:
        print("check failed: a corrupted output passed the check", file=sys.stderr)

    def median(passes: list[dict], key: str) -> float:
        return statistics.median(p[key] for p in passes)

    if args.trace:
        metrics = {
            name: {"value": statistics.median(p["layers"][name] for p in traced), "unit": layer_unit(name)}
            for name in traced[0]["layers"]
        }
        for name, value in (
            ("trace.raw_wall_s", median(traced, "raw_wall_s")),
            ("trace.overhead_s", median(traced, "wall_s") - median(plain, "wall_s")),
            ("machine.slowdown", median(traced, "slowdown")),
        ):
            metrics[name] = {"value": value, "unit": layer_unit(name)}
    else:
        metrics = {
            "wall_s": {"value": median(plain, "wall_s"), "unit": "s"},
            "cpu_s": {"value": median(plain, "cpu_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(s / slowdown for s, slowdown in setups), "unit": "s"},
            "peak_rss_mb": {"value": median(plain, "peak_rss_mb"), "unit": "MiB"},
            "ok_ratio": {"value": 1 - failed / attempted, "unit": "ratio"},
        }
    for label, passes in (("untraced", plain), ("traced", traced)):
        if passes:
            print(f"{args.workload} {label} passes: wall_s {[round(p['wall_s'], 3) for p in passes]}, "
                  f"raw {[round(p['raw_wall_s'], 3) for p in passes]}, "
                  f"slowdown {[round(p['slowdown'], 3) for p in passes]}", file=sys.stderr)
    print(f"{args.workload} set-ups: setup_s {[round(s, 3) for s, _ in setups]}, "
          f"slowdown {[round(d, 3) for _, d in setups]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and check_bites,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith(("ratio", "slowdown")) else "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
