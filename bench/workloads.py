"""Workload definitions and the independent checks on their outputs.

Each operation is the argument list of one ``pathbetti`` command.  The
workload seed only shuffles the order of the operations.  References are
computed before a pass and outputs are checked after it, so neither is
timed.
"""

from __future__ import annotations

import json
import random
from math import comb

from pathbetti import (
    PathFamilySpec, RunSequence, betti_closed_cycle, betti_closed_line, homology_run_sequence, pd_reg,
)

# BENCHMARK.json gives the reason for each workload.
WORKLOADS = ("closed_sweep", "oracle_sweep", "runs_explicit")

RUN_VERTEX_BUDGET = 12


def _run_sequences(t: int, budget: int) -> list[tuple[int, ...]]:
    """Descending run lengths whose runs cover at most ``budget`` vertices."""
    out = []

    def rec(prefix: tuple[int, ...], cap: int, remaining: int) -> None:
        for s in range(min(cap, remaining - t + 1), 0, -1):
            out.append(prefix + (s,))
            rec(prefix + (s,), s, remaining - (s + t - 1))

    rec((), budget, budget)
    return out


def operations(name: str) -> list[dict]:
    """The workload's operations in canonical order; ValueError if unknown."""
    if name == "closed_sweep":
        # placement counting only; complexes and homology do nothing
        return [
            {"kind": kind, "n": n, "t": t,
             "argv": ["betti", "--kind", kind, "--n", str(n), "--t", str(t),
                      "--method", "closed", "--format", "json"]}
            for kind in ("cycle", "line") for t in (2, 3, 4) for n in range(8, 20)
        ]
    if name == "oracle_sweep":
        # many small complements with heavy cache reuse, over QQ and GF(p); paths does nothing
        return [
            {"kind": kind, "n": n, "t": t, "char": c,
             "argv": ["betti", "--kind", kind, "--n", str(n), "--t", str(t),
                      "--method", "oracle", "--char", str(c)]}
            for kind in ("cycle", "line") for t in (2, 3) for n in range(6, 12) for c in (0, 32003)
        ]
    if name == "runs_explicit":
        # fewer, larger complexes and no cache; betti only supplies the closed form
        return [
            {"runs": list(runs), "t": t,
             "argv": ["homology", "--runs", ",".join(map(str, runs)), "--t", str(t), "--explicit"]}
            for t in (2, 3, 4) for runs in _run_sequences(t, RUN_VERTEX_BUDGET)
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def shuffled(ops: list[dict], seed: int) -> list[dict]:
    ops = list(ops)
    random.Random(seed).shuffle(ops)
    return ops


def ind_face_counts(kind: str, n: int, t: int) -> list[int]:
    """f[k]: k-subsets of the n vertices with no t consecutive ones (cyclically for a cycle).

    These are the faces of the Stanley-Reisner complex of the path ideal.
    """

    def line(length: int) -> list[list[int]]:
        # by[r][k]: k chosen so far, the last r of them consecutive
        by = [[0] * (n + 1) for _ in range(t)]
        by[0][0] = 1
        for _ in range(length):
            nxt = [[0] * (n + 1) for _ in range(t)]
            for r in range(t):
                for k, c in enumerate(by[r]):
                    if c:
                        nxt[0][k] += c
                        if r + 1 < t:
                            nxt[r + 1][k + 1] += c
            by = nxt
        return by

    f = [0] * (n + 1)
    if kind == "line":
        for row in line(n):
            f = [a + b for a, b in zip(f, row)]
        return f
    # a chosen leading vertices, then one left out; the trailing run joins the leading one
    for a in range(t):
        by = line(n - a - 1)
        for r in range(t - a):
            for k, c in enumerate(by[r]):
                if c:
                    f[k + a] += c
    return f


def k_polynomial(kind: str, n: int, t: int) -> dict[int, int]:
    """Coefficients of sum over Ind faces of x^|s| (1-x)^(n-|s|), the K-polynomial of R/I_t."""
    out: dict[int, int] = {}
    for k, fk in enumerate(ind_face_counts(kind, n, t)):
        for e in range(n - k + 1):
            out[k + e] = out.get(k + e, 0) + fk * comb(n - k, e) * (-1) ** e
    return {j: c for j, c in out.items() if c}


def references(name: str, ops: list[dict]) -> list:
    """What each operation's output is checked against, computed outside the timed pass."""
    if name == "closed_sweep":
        return [
            (k_polynomial(op["kind"], op["n"], op["t"]),
             pd_reg(PathFamilySpec("cycle", op["n"], op["t"])) if op["kind"] == "cycle" else None)
            for op in ops
        ]
    if name == "oracle_sweep":
        tables = {}
        for op in ops:
            key = (op["kind"], op["n"], op["t"])
            if key not in tables:
                spec = PathFamilySpec(*key)
                closed = betti_closed_cycle(spec) if spec.kind == "cycle" else betti_closed_line(spec)
                tables[key] = closed.entries
        return [tables[(op["kind"], op["n"], op["t"])] for op in ops]
    return [
        sorted(homology_run_sequence(op["t"], RunSequence(tuple(op["runs"]))).as_vector().items())
        for op in ops
    ]


def _entries(record: dict) -> dict[tuple[int, int], int]:
    return {(e["i"], e["j"]): e["value"] for e in record["entries"]}


def check(name: str, op: dict, ref, exit_code, stdout: str, error: str | None) -> str | None:
    """None if the operation's output is right, else what is wrong with it."""
    if error is not None:
        return error
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        record = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if name == "runs_explicit":
        if record.get("runs") != op["runs"] or record.get("t") != op["t"]:
            return "output is for another input"
        if record.get("match") is not True:
            return "explicit homology does not match the closed form"
        explicit = [tuple(pair) for pair in record.get("explicit", ())]
        return None if explicit == ref else f"explicit homology {explicit} differs from {ref}"
    if (record.get("kind"), record.get("n"), record.get("t")) != (op["kind"], op["n"], op["t"]):
        return "output is for another input"
    entries = _entries(record)
    if name == "oracle_sweep":
        if record.get("field_characteristic") != op["char"]:
            return "output is over another field"
        return None if entries == ref else "oracle table differs from the closed form"
    kpoly, cycle_pd_reg = ref
    got = {0: 1}
    for (i, j), value in entries.items():
        got[j] = got.get(j, 0) + (-1) ** i * value
    if {j: c for j, c in got.items() if c} != kpoly:
        return "table fails the K-polynomial identity"
    if cycle_pd_reg is not None:
        own = (max((i for i, _ in entries), default=0), max((j - i for i, j in entries), default=0))
        if not cycle_pd_reg == own == (record.get("pd"), record.get("reg")):
            return f"pd/reg {own} differ from pd_reg {cycle_pd_reg}"
    return None


def corrupted(name: str, stdout: str) -> str:
    """The same output with one value changed, which the check must reject."""
    record = json.loads(stdout)
    if name == "runs_explicit":
        record["explicit"] = [[degree, dim + 1] for degree, dim in record["explicit"]] or [[0, 1]]
    else:
        record["entries"][0]["value"] += 1
    return json.dumps(record)
