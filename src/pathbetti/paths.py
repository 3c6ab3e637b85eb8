"""Path complexes of cycles and lines, runs, and run placements.

The path complex of a graph has one facet per path on t vertices.  On
the cycle the facets carry the standard labeling F_i = {x_i, ..., x_(i+t-1)}
taken mod n; every proper induced subcollection splits into *runs*,
blocks of consecutive facets, and a run of length s covers s + t - 1
consecutive vertices.  Two runs are genuinely separate exactly when at
least one vertex (equivalently, t facet slots) lies between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .complexes import SimplicialComplex, make_complex


@dataclass(frozen=True)
class PathFamilySpec:
    """Parameters (kind, n, t) of a path complex of a cycle or a line.

    The derived quotient/remainder (p, d) with n = (t+1)p + d and
    0 <= d <= t drive every closed form downstream.
    """

    kind: str
    n: int
    t: int

    def __post_init__(self) -> None:
        if self.kind not in ("cycle", "line"):
            raise ValueError(f"kind must be 'cycle' or 'line', got {self.kind!r}")
        if not 2 <= self.t <= self.n:
            raise ValueError(f"need 2 <= t <= n, got t={self.t}, n={self.n}")
        if self.kind == "cycle" and self.n < 3:
            raise ValueError(f"a cycle needs at least 3 vertices, got n={self.n}")

    @property
    def p(self) -> int:
        return self.n // (self.t + 1)

    @property
    def d(self) -> int:
        return self.n % (self.t + 1)


@dataclass(frozen=True)
class RunSequence:
    """Lengths of a disjoint collection of runs.

    The residues of the lengths mod t+1 decide everything: writing
    s = (t+1)p + d with 0 <= d <= t, only residues d = 1 and d = 2
    contribute homology; see ``betti.homology_run_sequence``.
    """

    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        lengths = tuple(int(s) for s in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if not lengths:
            raise ValueError("a run sequence needs at least one run")
        if any(s < 1 for s in lengths):
            raise ValueError(f"run lengths must be positive, got {lengths}")


@dataclass(frozen=True)
class RunPlacement:
    """Disjoint runs on the standard labeling, as (start facet, length) pairs."""

    runs: tuple[tuple[int, int], ...]

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(s for _, s in self.runs)

    def run_sequence(self) -> RunSequence:
        return RunSequence(tuple(sorted(self.lengths, reverse=True)))


def build_path_complex(spec: PathFamilySpec) -> SimplicialComplex:
    """The path complex: one facet per t-vertex path of the cycle or line."""
    n, t = spec.n, spec.t
    ambient = tuple(range(1, n + 1))
    if spec.kind == "cycle":
        facets = [
            tuple(sorted((i + k) % n + 1 for k in range(t)))
            for i in range(n)
        ]
    else:
        facets = [tuple(range(i, i + t)) for i in range(1, n - t + 2)]
    return make_complex(ambient, facets)


def vertex_count_of_runs(seq: RunSequence, t: int) -> int:
    """Total vertices covered: each run of length s covers s + t - 1."""
    return sum(s + t - 1 for s in seq.lengths)


def build_run_complex(seq: RunSequence, t: int) -> SimplicialComplex:
    """A disjoint union of runs, on its own vertices.

    The runs are realized on fresh consecutive vertex blocks, so the
    result depends only on the run lengths and t, and its support is its
    whole ambient.
    """
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    facets = []
    offset = 0
    for s in seq.lengths:
        for a in range(s):
            facets.append(tuple(range(offset + a + 1, offset + a + t + 1)))
        offset += s + t - 1
    return make_complex(range(1, offset + 1), facets)


def enumerate_placements(spec: PathFamilySpec) -> Iterator[RunPlacement]:
    """All sets of disjoint runs on the cycle's standard labeling.

    Starts are ascending and pairwise cyclic facet gaps are at least t,
    which is exactly the condition for the union to be an induced
    subcollection.  Each placement is yielded once.  Their number grows
    exponentially in n; this enumerator is the reference that the
    binomial placement sum in :mod:`pathbetti.betti` is tested against.
    """
    if spec.kind != "cycle":
        raise ValueError("placements are enumerated on cycles only")
    n, t = spec.n, spec.t
    if t >= n:
        raise ValueError("placement enumeration requires t < n")

    def extend(runs: tuple[tuple[int, int], ...]) -> Iterator[RunPlacement]:
        first_start = runs[0][0]
        last_start, last_len = runs[-1]
        for b in range(last_start + last_len + t, n + 1):
            # wrap-around gap back to the first run caps the length
            s_max = first_start + n - t - b
            for s in range(1, s_max + 1):
                longer = runs + ((b, s),)
                yield RunPlacement(longer)
                yield from extend(longer)

    for b1 in range(1, n + 1):
        for s1 in range(1, n - t + 1):
            first = ((b1, s1),)
            yield RunPlacement(first)
            yield from extend(first)
