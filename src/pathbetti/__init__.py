"""Exact Betti numbers, projective dimension and regularity of path ideals.

The package computes the N-graded Betti numbers of path ideals of
cycles and lines two ways: closed-form counting of run placements, and
a brute-force Hochster-style enumeration whose homology comes from
link/deletion splitting of independence complexes, with exact
boundary-matrix elimination as the fallback.  Each route validates the
other.  The names below are what the command line, the benchmark and
the README use, and the types in their signatures.
"""

from .complexes import SimplicialComplex, make_complex
from .homology import QQ, FieldSpec, HomologyVector, OracleCapError
from .paths import PathFamilySpec, RunSequence, build_path_complex, build_run_complex, vertex_count_of_runs
from .betti import (
    BettiTable,
    HomologySummary,
    betti_closed_cycle,
    betti_closed_line,
    betti_hochster,
    betti_top_degree,
    complement_homology,
    homology_cycle_complement,
    homology_run_sequence,
    nonzero_criterion,
    pd_reg,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "FieldSpec",
    "HomologySummary",
    "HomologyVector",
    "OracleCapError",
    "PathFamilySpec",
    "QQ",
    "RunSequence",
    "SimplicialComplex",
    "betti_closed_cycle",
    "betti_closed_line",
    "betti_hochster",
    "betti_top_degree",
    "build_path_complex",
    "build_run_complex",
    "complement_homology",
    "homology_cycle_complement",
    "homology_run_sequence",
    "make_complex",
    "nonzero_criterion",
    "pd_reg",
    "vertex_count_of_runs",
]
