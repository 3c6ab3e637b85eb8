"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run as ``pytest -v -s tests/test_acceptance.py``.  All comparisons are
exact; no tolerances apply anywhere.
"""

from __future__ import annotations

import time
from typing import Iterator

import pytest

from pathbetti import (
    QQ,
    BettiTable,
    PathFamilySpec,
    RunSequence,
    betti_closed_cycle,
    betti_closed_line,
    betti_hochster,
    betti_top_degree,
    build_path_complex,
    build_run_complex,
    complement_homology,
    homology_cycle_complement,
    homology_run_sequence,
    nonzero_criterion,
    pd_reg,
)

from reference import GF2, GF32003, complement, reduced_homology_dims

CYCLE_TABLE_RANGE = [(n, t) for n in range(3, 13) for t in range(2, n)]
CYCLE_COMPLEMENT_RANGE = [(n, t) for n in range(3, 13) for t in range(2, n + 1)]
RUN_VERTEX_BUDGET = 14
RUN_T_VALUES = (2, 3, 4)
ORACLE_TIME_BUDGET_S = 300.0


def _report(criterion: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f"  first failures: {failures[:3]}"
    print(f"{status} {criterion}{detail}")
    assert not failures, f"{criterion}: {failures[:10]}"


@pytest.fixture(scope="module")
def oracle_suite() -> tuple[dict[tuple[int, int], BettiTable], float]:
    start = time.perf_counter()
    tables = {
        (n, t): betti_hochster(build_path_complex(PathFamilySpec("cycle", n, t)), QQ)
        for n, t in CYCLE_TABLE_RANGE
    }
    return tables, time.perf_counter() - start


def test_criterion_1_oracle_matches_closed_forms(oracle_suite):
    tables, oracle_elapsed = oracle_suite
    start = time.perf_counter()
    failures = []
    for (n, t), oracle in tables.items():
        closed = betti_closed_cycle(PathFamilySpec("cycle", n, t))
        diff = closed.diff(oracle)
        if diff:
            failures.append((n, t, diff))
    elapsed = oracle_elapsed + (time.perf_counter() - start)
    if elapsed >= ORACLE_TIME_BUDGET_S:
        failures.append(("runtime", elapsed))
    _report(
        f"criterion 1: closed form == oracle over QQ for {len(tables)} cycles ({elapsed:.1f}s)",
        failures,
    )


def test_criterion_2_top_degree_values(oracle_suite):
    tables, _ = oracle_suite
    pinned = [(6, 2, 4, 2), (7, 4, 3, 1), (8, 3, 4, 3)]
    failures = []
    for n, t, i, value in pinned:
        spec = PathFamilySpec("cycle", n, t)
        if betti_top_degree(spec) != (i, value):
            failures.append(("formula", n, t, betti_top_degree(spec)))
        if tables[(n, t)].value(i, n) != value:
            failures.append(("oracle", n, t, tables[(n, t)].value(i, n)))
    _report("criterion 2: pinned top-degree Betti numbers (formula and oracle)", failures)


def test_criterion_3_pd_reg(oracle_suite):
    tables, _ = oracle_suite
    failures = []
    for (n, t), oracle in tables.items():
        expected = (oracle.pd, oracle.reg)
        got = pd_reg(PathFamilySpec("cycle", n, t))
        if got != expected:
            failures.append((n, t, got, expected))
    if pd_reg(PathFamilySpec("cycle", 6, 2)) != (4, 2):
        failures.append(("pinned hexagon", pd_reg(PathFamilySpec("cycle", 6, 2))))
    _report(f"criterion 3: pd/reg formulas match {len(tables)} oracle tables", failures)


def _run_sequences(t: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Descending length tuples whose runs cover at most ``budget`` vertices."""

    def rec(prefix: tuple[int, ...], cap: int, remaining: int) -> Iterator[tuple[int, ...]]:
        for s in range(min(cap, remaining - t + 1), 0, -1):
            yield prefix + (s,)
            yield from rec(prefix + (s,), s, remaining - (s + t - 1))

    yield from rec((), budget, budget)


def test_criterion_4_run_sequence_homology():
    failures = []
    checked = 0
    for t in RUN_T_VALUES:
        for lengths in _run_sequences(t, RUN_VERTEX_BUDGET):
            seq = RunSequence(lengths)
            gamma = build_run_complex(seq, t)
            explicit = reduced_homology_dims(complement(gamma, gamma.ambient), QQ)
            closed = homology_run_sequence(t, seq)
            checked += 1
            if explicit != closed.as_vector():
                failures.append((t, lengths, explicit, closed.as_vector()))
            dual = complement_homology(gamma, QQ)
            if dual != explicit:
                failures.append((t, lengths, "duality route", dual, explicit))
            if (closed.nonzero_degree is None) != any(s % (t + 1) not in (1, 2) for s in lengths):
                failures.append((t, lengths, "zero exactly when a residue is outside {1, 2}", closed))
    _report(f"criterion 4: closed == explicit == duality-route homology for {checked} run sequences", failures)


def test_criterion_5_full_complement_homology():
    failures = []
    for n, t in CYCLE_COMPLEMENT_RANGE:
        spec = PathFamilySpec("cycle", n, t)
        delta = build_path_complex(spec)
        explicit = reduced_homology_dims(complement(delta, delta.ambient), QQ)
        expected = homology_cycle_complement(spec).as_vector()
        if len(explicit) != 1 or explicit != expected:
            failures.append((n, t, explicit, expected))
    _report(
        f"criterion 5: one nonzero degree in {len(CYCLE_COMPLEMENT_RANGE)} full complements",
        failures,
    )


def test_criterion_6_vanishing_soundness(oracle_suite):
    tables, _ = oracle_suite
    failures = []
    for (n, t), oracle in tables.items():
        spec = PathFamilySpec("cycle", n, t)
        for (i, j), value in oracle.entries.items():
            if j > i * t:
                failures.append((n, t, i, j, "degree bound"))
            if not nonzero_criterion(spec, i, j):
                failures.append((n, t, i, j, "criterion rejects a nonzero entry"))
        for j in range(1, n + 1):
            for i in range(1, j + 1):
                if nonzero_criterion(spec, i, j) and not oracle.value(i, j):
                    failures.append((n, t, i, j, "criterion accepts a zero entry"))
    _report("criterion 6: the nonzero criterion holds exactly on every oracle table", failures)


def test_criterion_7_field_independence(oracle_suite):
    # The rational side is certified over GF(2^61 - 1), a prime FieldSpec
    # rejects, so neither GF(2) nor GF(32003) reruns the rational computation.
    tables, _ = oracle_suite
    failures = []
    for field in (GF2, GF32003):
        for (n, t), reference in tables.items():
            modular = betti_hochster(build_path_complex(PathFamilySpec("cycle", n, t)), field)
            diff = modular.diff(reference)
            if diff:
                failures.append(("tables", field.characteristic, n, t, diff))
        for n, t in CYCLE_COMPLEMENT_RANGE:
            spec = PathFamilySpec("cycle", n, t)
            delta = build_path_complex(spec)
            explicit = reduced_homology_dims(complement(delta, delta.ambient), field)
            if explicit != homology_cycle_complement(spec).as_vector():
                failures.append(("complement", field.characteristic, n, t, explicit))
    _report("criterion 7: GF(2) and GF(32003) reproduce the rational results", failures)


def test_criterion_8_boundary_case_pinning():
    failures = []
    notes = []
    for n, t in [(3, 2), (4, 3)]:
        spec = PathFamilySpec("cycle", n, t)
        oracle = betti_hochster(build_path_complex(spec), QQ)
        closed = betti_closed_cycle(spec)
        diff = closed.diff(oracle)
        notes.append(f"cycle n={n} t={t}: " + ("agrees" if not diff else f"DISCREPANCY {diff}"))
        for (i, j), value in oracle.entries.items():
            if j > i * t or (j < n and not nonzero_criterion(spec, i, j)):
                failures.append((n, t, i, j, "oracle violates vanishing"))
    for t in range(2, 13):
        spec = PathFamilySpec("line", t, t)
        oracle = betti_hochster(build_path_complex(spec), QQ)
        closed = betti_closed_line(spec)
        diff = closed.diff(oracle)
        notes.append(f"line n=t={t}: " + ("agrees" if not diff else f"DISCREPANCY {diff}"))
        if oracle.entries != {(1, t): 1}:
            failures.append(("line", t, oracle.entries))
    print("criterion 8 boundary report: " + "; ".join(notes))
    _report("criterion 8: boundary cases pinned by oracle", failures)
