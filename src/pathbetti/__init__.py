"""Exact Betti numbers, projective dimension and regularity of path ideals.

The package computes the N-graded Betti numbers of path ideals of
cycles and lines two ways: closed-form/combinatorial counting, and a
brute-force Hochster-style enumeration whose homology comes from
link/deletion splitting of independence complexes, with exact
boundary-matrix elimination as the fallback.  Each route validates the
other.
"""

from .complexes import (
    Face,
    SimplicialComplex,
    VertexSet,
    as_vertex_set,
    complement,
    cone,
    faces_of_dim,
    induced_subcollection,
    make_complex,
)
from .homology import (
    GF2,
    GF32003,
    QQ,
    FieldSpec,
    HomologyVector,
    OracleCapError,
    reduced_homology_dims,
)
from .paths import (
    PathFamilySpec,
    RunPlacement,
    RunSequence,
    build_path_complex,
    build_run_complex,
    enumerate_placements,
    vertex_count_of_runs,
)
from .betti import (
    BettiTable,
    HomologySummary,
    betti_closed_cycle,
    betti_closed_line,
    betti_hochster,
    betti_top_degree,
    complement_homology,
    count_eligible,
    homology_cycle_complement,
    homology_run_sequence,
    nonzero_criterion,
    pd_reg,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "Face",
    "FieldSpec",
    "GF2",
    "GF32003",
    "HomologySummary",
    "HomologyVector",
    "OracleCapError",
    "PathFamilySpec",
    "QQ",
    "RunPlacement",
    "RunSequence",
    "SimplicialComplex",
    "VertexSet",
    "as_vertex_set",
    "betti_closed_cycle",
    "betti_closed_line",
    "betti_hochster",
    "betti_top_degree",
    "build_path_complex",
    "build_run_complex",
    "complement",
    "complement_homology",
    "cone",
    "count_eligible",
    "enumerate_placements",
    "faces_of_dim",
    "homology_cycle_complement",
    "homology_run_sequence",
    "induced_subcollection",
    "make_complex",
    "nonzero_criterion",
    "pd_reg",
    "reduced_homology_dims",
    "vertex_count_of_runs",
]
