"""Path complexes of cycles and lines, and runs.

The path complex of a graph has one facet per path on t vertices.  On
the cycle the facets carry the standard labeling F_i = {x_i, ..., x_(i+t-1)}
taken mod n; every proper induced subcollection splits into *runs*,
blocks of consecutive facets, and a run of length s covers s + t - 1
consecutive vertices.  Two runs are genuinely separate exactly when at
least one vertex (equivalently, t facet slots) lies between them.  A
run complex realizes a sequence of run lengths on fresh vertices.

``PathFamilySpec`` and ``RunSequence`` are immutable named tuples that
check their fields when built.
"""

from __future__ import annotations

from .complexes import SimplicialComplex
from .homology import _checked, _integer


class PathFamilySpec(_checked("PathFamilySpec", "kind n t")):
    """Parameters (kind, n, t) of a path complex of a cycle or a line.

    The derived quotient/remainder (p, d) with n = (t+1)p + d and
    0 <= d <= t drive every closed form downstream.
    """

    __slots__ = ()

    def __new__(cls, kind: str, n: int, t: int) -> PathFamilySpec:
        if kind not in ("cycle", "line"):
            raise ValueError(f"kind must be 'cycle' or 'line', got {kind!r}")
        n, t = _integer(n, "n"), _integer(t, "t")
        if not 2 <= t <= n:
            raise ValueError(f"need 2 <= t <= n, got t={t}, n={n}")
        if kind == "cycle" and n < 3:
            raise ValueError(f"a cycle needs at least 3 vertices, got n={n}")
        return super().__new__(cls, kind, n, t)

    @property
    def p(self) -> int:
        return self.n // (self.t + 1)

    @property
    def d(self) -> int:
        return self.n % (self.t + 1)


class RunSequence(_checked("RunSequence", "lengths")):
    """Lengths of a disjoint collection of runs.

    The residues of the lengths mod t+1 decide everything: writing
    s = (t+1)p + d with 0 <= d <= t, only residues d = 1 and d = 2
    contribute homology; see ``betti.homology_run_sequence``.
    """

    __slots__ = ()

    def __new__(cls, lengths: tuple[int, ...]) -> RunSequence:
        lengths = tuple(_integer(s, "a run length") for s in lengths)
        if not lengths:
            raise ValueError("a run sequence needs at least one run")
        if any(s < 1 for s in lengths):
            raise ValueError(f"run lengths must be positive, got {lengths}")
        return super().__new__(cls, lengths)


def build_path_complex(spec: PathFamilySpec) -> SimplicialComplex:
    """The path complex: one facet per t-vertex path of the cycle or line.

    The facets all have t vertices, so the distinct ones are an antichain
    and the complex is built directly, its facets in sorted order.  Both
    kinds have the n - t + 1 intervals {i, ..., i + t - 1}.  For t < n
    the cycle has t - 1 paths more, through vertices n and 1: the wraps
    {1, ..., k} ∪ {n - t + k + 1, ..., n} for k = 1..t - 1, which sort
    after {1, ..., t} and before {2, ..., t + 1}, longest head first.  On
    the cycle with t = n every path is the whole vertex set, one facet.
    """
    n, t = spec.n, spec.t
    facets = [tuple(range(i, i + t)) for i in range(1, n - t + 2)]
    if spec.kind == "cycle" and t < n:
        facets[1:1] = [(*range(1, k + 1), *range(n - t + k + 1, n + 1)) for k in range(t - 1, 0, -1)]
    return SimplicialComplex(tuple(range(1, n + 1)), tuple(facets))


def vertex_count_of_runs(seq: RunSequence, t: int) -> int:
    """Total vertices covered: each run of length s covers s + t - 1."""
    return sum(s + t - 1 for s in seq.lengths)


def build_run_complex(seq: RunSequence, t: int) -> SimplicialComplex:
    """A disjoint union of runs, on its own vertices.

    The runs are realized on fresh consecutive vertex blocks, so the
    result depends only on the run lengths and t, and its support is its
    whole ambient.  The facets are distinct t-sets listed in increasing
    order, a sorted antichain, so the complex is built directly.
    """
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    facets = []
    offset = 0
    for s in seq.lengths:
        for a in range(s):
            facets.append(tuple(range(offset + a + 1, offset + a + t + 1)))
        offset += s + t - 1
    return SimplicialComplex(tuple(range(1, offset + 1)), tuple(facets))

