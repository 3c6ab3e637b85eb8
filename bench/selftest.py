"""Self-test of the benchmark: ``python3 bench/selftest.py`` from the root of a checkout.

Checks that
* the Ind face-count DP agrees with brute force on small cycles and lines;
* every workload's check accepts a correct output and rejects the same
  output with one value changed;
* BENCHMARK.json names exactly the metrics the benchmark prints;
* traced runs with two different seeds give identical work counts, and the
  counts show the layer split each workload was chosen for.
Exits 1 on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from pathbetti import cli  # noqa: E402

SEED_INVARIANT = [
    "betti.homology_misses",
    "paths.enumerate_placements.yielded",
    "homology.matrix_rank.qq.calls",
    "homology.matrix_rank.gfp.calls",
]


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def brute_face_counts(kind: str, n: int, t: int) -> list[int]:
    if kind == "cycle":
        paths = [{(i + k) % n for k in range(t)} for i in range(n)]
    else:
        paths = [set(range(i, i + t)) for i in range(n - t + 1)]
    f = [0] * (n + 1)
    for k in range(n + 1):
        f[k] = sum(1 for s in combinations(range(n), k) if not any(p <= set(s) for p in paths))
    return f


def check_face_counts() -> None:
    for kind in ("cycle", "line"):
        for n in range(5, 11):
            for t in (2, 3, 4):
                if workloads.ind_face_counts(kind, n, t) != brute_face_counts(kind, n, t):
                    fail(f"Ind face counts of {kind} n={n} t={t}")
    print("ok   Ind face counts match brute force")


def check_checks() -> None:
    for name in workloads.WORKLOADS:
        ops = workloads.operations(name)[:3]
        refs = workloads.references(name, ops)
        for op, ref in zip(ops, refs):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(op["argv"])
            if workloads.check(name, op, ref, code, out.getvalue(), None) is not None:
                fail(f"{name}: correct output of {op['argv']} rejected")
            if workloads.check(name, op, ref, 0, workloads.corrupted(name, out.getvalue()), None) is None:
                fail(f"{name}: corrupted output of {op['argv']} accepted")
    print("ok   checks accept correct and reject corrupted outputs")


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        fail(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        fail(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} operations failed")
    return result["metrics"]


def check_runs() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    def units(metrics: dict) -> dict[str, str]:
        return {name: m["unit"] for name, m in metrics.items()}

    if units(run("oracle_sweep", 1, 0)) != {m["name"]: m["unit"] for m in spec["end_to_end"]}:
        fail("end-to-end metrics differ from BENCHMARK.json")
    layers = {}
    for name in workloads.WORKLOADS:
        first, second = run(name, 1, 1), run(name, 2, 1)
        if units(first) != {m["name"]: m["unit"] for m in spec["per_layer"]}:
            fail(f"{name}: per-layer metrics differ from BENCHMARK.json")
        first = {key: m["value"] for key, m in first.items()}
        second = {key: m["value"] for key, m in second.items()}
        for key in SEED_INVARIANT:
            if first[key] != second[key]:
                fail(f"{name}: {key} is {first[key]} with seed 1 but {second[key]} with seed 2")
        layers[name] = first
    print("ok   work counts are the same for seeds 1 and 2")

    closed, oracle, runs = layers["closed_sweep"], layers["oracle_sweep"], layers["runs_explicit"]
    expectations = [
        ("no homology work on closed_sweep",
         all(v == 0 for k, v in closed.items() if k.startswith("homology.") and k.endswith(".calls"))),
        ("no placements outside closed_sweep",
         oracle["paths.enumerate_placements.yielded"] == runs["paths.enumerate_placements.yielded"] == 0
         < closed["paths.enumerate_placements.yielded"]),
        ("GF(p) rank only on oracle_sweep",
         closed["homology.matrix_rank.gfp.calls"] == runs["homology.matrix_rank.gfp.calls"] == 0
         < oracle["homology.matrix_rank.gfp.calls"]),
    ]
    for name in ("oracle_sweep", "runs_explicit"):
        m = layers[name]
        rank = m["homology.matrix_rank.qq.s"] + m["homology.matrix_rank.gfp.s"]
        expectations.append((f"rank is most of the traced time on {name}", rank > m["trace.raw_wall_s"] / 2))
    for label, ok in expectations:
        if not ok:
            fail(label)
        print(f"ok   {label}")


if __name__ == "__main__":
    check_face_counts()
    check_checks()
    check_runs()
    print("all self-tests passed")
