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

The facets are written once, as bitmasks, bit b standing for vertex
b + 1: ``_path_masks`` and ``_run_masks``, which the commands hand the
oracle and the explicit complements directly.  ``build_path_complex``
and ``build_run_complex`` turn the same masks into a
``SimplicialComplex`` for a library caller, in the same order.
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


def _path_masks(spec: PathFamilySpec) -> list[int]:
    """The path complex's facets as bitmasks, bit b standing for vertex b + 1, in sorted order.

    The facets all have t vertices, so the distinct ones are an antichain.
    Both kinds have the n - t + 1 intervals {i, ..., i + t - 1}.  For t < n
    the cycle has t - 1 paths more, through vertices n and 1: the wraps
    {1, ..., k} ∪ {n - t + k + 1, ..., n} for k = 1..t - 1, which sort
    after {1, ..., t} and before {2, ..., t + 1}, longest head first.  On
    the cycle with t = n every path is the whole vertex set, one facet.
    """
    n, t = spec.n, spec.t
    run = (1 << t) - 1
    masks = [run << i for i in range(n - t + 1)]
    if spec.kind == "cycle" and t < n:
        masks[1:1] = [(1 << k) - 1 | run >> k << n - t + k for k in range(t - 1, 0, -1)]
    return masks


def _run_masks(seq: RunSequence, t: int) -> list[int]:
    """A disjoint union of runs as facet bitmasks, bit b standing for vertex b + 1, in sorted order.

    The runs are realized on fresh consecutive vertex blocks, so the
    result depends only on the run lengths and t, and its support is all
    ``vertex_count_of_runs`` vertices.  The facets are distinct t-sets
    listed in increasing order, a sorted antichain.
    """
    if t < 2:
        raise ValueError(f"need t >= 2, got {t}")
    run, masks, offset = (1 << t) - 1, [], 0
    for s in seq.lengths:
        masks += [run << offset + a for a in range(s)]
        offset += s + t - 1
    return masks


def _complex(n: int, masks: list[int]) -> SimplicialComplex:
    """The complex on the vertices 1..n with the facet bitmasks, bit b standing for vertex b + 1, in their order."""
    return SimplicialComplex(
        tuple(range(1, n + 1)),
        tuple(tuple(v for v in range(1, fm.bit_length() + 1) if fm >> v - 1 & 1) for fm in masks),
    )


def build_path_complex(spec: PathFamilySpec) -> SimplicialComplex:
    """The path complex: one facet per t-vertex path of the cycle or line, in ``_path_masks``' sorted order."""
    return _complex(spec.n, _path_masks(spec))


def vertex_count_of_runs(seq: RunSequence, t: int) -> int:
    """Total vertices covered: each run of length s covers s + t - 1."""
    return sum(s + t - 1 for s in seq.lengths)


def build_run_complex(seq: RunSequence, t: int) -> SimplicialComplex:
    """A disjoint union of runs on its own vertices, its facets in ``_run_masks``' sorted order."""
    return _complex(vertex_count_of_runs(seq, t), _run_masks(seq, t))
