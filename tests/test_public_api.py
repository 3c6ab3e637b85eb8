"""The public names of the package, and README's Library example run as written."""

from __future__ import annotations

import ast
import contextlib
import io
import re
from pathlib import Path

import pathbetti
from pathbetti import BettiTable, SimplicialComplex, betti, homology

ROOT = Path(__file__).resolve().parents[1]

# What the command line, the benchmark and README's Library block use, and the types in their signatures.
PUBLIC = {
    "BettiTable", "FieldSpec", "HomologySummary", "HomologyVector", "OracleCapError", "PathFamilySpec",
    "QQ", "RunSequence", "SimplicialComplex", "betti_closed_cycle", "betti_closed_line", "betti_hochster",
    "betti_top_degree", "build_path_complex", "build_run_complex", "complement_homology",
    "homology_cycle_complement", "homology_run_sequence", "make_complex", "nonzero_criterion", "pd_reg",
    "vertex_count_of_runs",
}

# Test references (tests/reference.py), deleted names, and aliases left in their modules.
NOT_PUBLIC = (
    "complement", "induced_subcollection", "cone", "faces_of_dim", "reduced_homology_dims",
    "enumerate_placements", "RunPlacement", "count_eligible", "GF2", "GF32003", "Face", "VertexSet",
    "as_vertex_set",
)


class TestPublicNames:
    def test_all_is_the_public_set(self):
        assert sorted(pathbetti.__all__) == sorted(PUBLIC)
        for name in pathbetti.__all__:
            assert getattr(pathbetti, name) is not None

    def test_references_and_deleted_names_are_not_exported(self):
        for name in NOT_PUBLIC:
            assert not hasattr(pathbetti, name), name
        assert not hasattr(betti, "count_eligible")
        assert not hasattr(homology, "reduced_homology_dims")
        assert not hasattr(BettiTable, "__len__")
        for name in ("is_void", "is_irrelevant", "dim"):
            assert not hasattr(SimplicialComplex, name), name

    def test_the_homology_engine_imports_no_complex_type(self):
        tree = ast.parse(Path(homology.__file__).read_text())
        imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert "complexes" not in imported


def _library_block() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


class TestReadmeLibrary:
    def test_each_print_shows_the_value_in_its_comment(self):
        code = _library_block()
        expected = [
            line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(") and "#" in line
        ]
        assert expected
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(code, "README.md", "exec"), {})
        assert out.getvalue().splitlines() == expected
