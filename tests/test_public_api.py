"""The public names of the package, its value types, what importing it loads, and README's Library example."""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pathbetti
from pathbetti import BettiTable, FieldSpec, HomologySummary, PathFamilySpec, RunSequence, SimplicialComplex
from pathbetti import betti, complexes, homology

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
        assert not hasattr(homology, "levels_homology")
        assert not hasattr(complexes, "as_vertex_set")
        assert not hasattr(BettiTable, "__len__")
        for name in ("is_void", "is_irrelevant", "dim"):
            assert not hasattr(SimplicialComplex, name), name

    def test_the_homology_engine_imports_no_complex_type(self):
        tree = ast.parse(Path(homology.__file__).read_text())
        imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert "complexes" not in imported


# Each value type with the fields of one instance, those of another, and the repr the package has always
# printed for the first; the repr names every field.
VALUES = [
    (PathFamilySpec, ("cycle", 5, 2), ("line", 5, 2), "PathFamilySpec(kind='cycle', n=5, t=2)"),
    (RunSequence, ((4, 2, 1),), ((4, 2),), "RunSequence(lengths=(4, 2, 1))"),
    (FieldSpec, (32003,), (0,), "FieldSpec(characteristic=32003)"),
    (HomologySummary, (2, 3), (None, 0), "HomologySummary(nonzero_degree=2, dimension=3)"),
    (
        SimplicialComplex, ((1, 2, 3), ((1, 2), (2, 3))), ((1, 2, 3), ((1, 2, 3),)),
        "SimplicialComplex(ambient=(1, 2, 3), facets=((1, 2), (2, 3)))",
    ),
]

# Each check a value type makes when built, with its message.
INVALID = [
    (PathFamilySpec, ("ring", 5, 2), "kind must be 'cycle' or 'line', got 'ring'"),
    (PathFamilySpec, ("cycle", 5, 6), "need 2 <= t <= n, got t=6, n=5"),
    (PathFamilySpec, ("cycle", 2, 2), "a cycle needs at least 3 vertices, got n=2"),
    (RunSequence, ((),), "a run sequence needs at least one run"),
    (RunSequence, ((2, 0),), "run lengths must be positive, got (2, 0)"),
    (FieldSpec, (1 << 31,), "characteristic must be below 2^31, got 2147483648"),
    (FieldSpec, (4,), "characteristic must be 0 or a prime, got 4"),
    (HomologySummary, (None, 1), "a zero summary cannot carry a dimension"),
    (HomologySummary, (2, 0), "a nonzero summary needs dimension >= 1"),
    (HomologySummary, (1.5, 2.0), "nonzero_degree must be an integer, got 1.5"),
    (HomologySummary, (1, 2.0), "dimension must be an integer, got 2.0"),
    (HomologySummary, (None, 0.0), "dimension must be an integer, got 0.0"),
    (HomologySummary, ("1", 1), "nonzero_degree must be an integer, got '1'"),
]


@pytest.mark.parametrize("cls,fields,other,text", VALUES, ids=[cls.__name__ for cls, _, _, _ in VALUES])
class TestValueTypes:
    def test_equal_and_hashed_by_value(self, cls, fields, other, text):
        value, copy = cls(*fields), cls(*fields)
        assert copy is not value
        assert copy == value and hash(copy) == hash(value)
        assert cls(*other) != value

    def test_repr(self, cls, fields, other, text):
        assert repr(cls(*fields)) == text

    def test_immutable(self, cls, fields, other, text):
        value = cls(*fields)
        for name, new in zip(re.findall(r"(\w+)=", text), other):
            with pytest.raises(AttributeError):
                setattr(value, name, new)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == cls(*fields)

    def test_pickle_round_trip(self, cls, fields, other, text):
        value = cls(*fields)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(value, protocol))
            assert back == value and type(back) is cls


@pytest.mark.parametrize(
    "cls,args,message", INVALID, ids=[f"{cls.__name__}-{i}" for i, (cls, *_) in enumerate(INVALID)],
)
def test_each_check_raises_its_message(cls, args, message):
    with pytest.raises(ValueError) as exc:
        cls(*args)
    assert str(exc.value) == message


def test_a_summary_stores_what_operator_index_accepts_as_ints():
    class Two:
        def __index__(self) -> int:
            return 2

    summary = HomologySummary(Two(), Two())
    assert summary == (2, 2) and summary.as_vector() == {2: 2}
    assert type(summary.nonzero_degree) is int and type(summary.dimension) is int


def test_replace_makes_the_same_checks():
    with pytest.raises(ValueError, match="need 2 <= t <= n"):
        PathFamilySpec("cycle", 5, 2)._replace(t=6)
    with pytest.raises(ValueError, match="must be an integer"):
        RunSequence((4, 2))._replace(lengths=(2.7,))
    with pytest.raises(ValueError, match="0 or a prime"):
        FieldSpec(2)._replace(characteristic=4)
    with pytest.raises(ValueError, match="needs dimension >= 1"):
        HomologySummary(2, 3)._replace(dimension=0)
    with pytest.raises(ValueError, match="nonzero_degree must be an integer"):
        HomologySummary(2, 3)._replace(nonzero_degree=1.5)
    with pytest.raises(ValueError, match="dimension must be an integer"):
        HomologySummary(2, 3)._replace(dimension=3.0)
    assert PathFamilySpec("cycle", 5, 2)._replace(n=7) == PathFamilySpec("cycle", 7, 2)
    # ``_replace`` builds through ``_make``, which checks as the constructor does
    for kind, bad, good in [
        (PathFamilySpec, ("cycle", 5, 6), ("line", 7, 2)),
        (RunSequence, ((2.7,),), ((4, 2),)),
        (FieldSpec, (4,), (32003,)),
        (HomologySummary, (2, 0), (2, 3)),
        (HomologySummary, (1.5, 3), (None, 0)),
    ]:
        with pytest.raises(ValueError) as built:
            kind(*bad)
        with pytest.raises(ValueError, match=re.escape(str(built.value))):
            kind._make(bad)
        made = kind._make(good)
        assert type(made) is kind and made == kind(*good), kind


def _after(code: str, modules: tuple[str, ...]) -> tuple[list[str], list[str]]:
    """Run the code in a fresh ``python -S`` on the package's source.

    Returns what the code printed, and which of the modules were loaded after it.
    """
    script = f"import json, sys\n{code}\nprint(json.dumps([m for m in {modules!r} if m in sys.modules]))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", script], check=True, env=env, capture_output=True, text=True)
    *printed, loaded = done.stdout.splitlines()
    return printed, json.loads(loaded)


# What start-up skips: dataclasses pulls in inspect, fractions pulls in decimal.
HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "typing", "numpy")


class TestStartupImports:
    def test_the_command_line_loads_none_of_the_heavy_modules(self):
        assert _after("import pathbetti.cli", HEAVY + ("argparse", "gettext")) == ([], [])

    def test_the_package_alone_loads_no_argparse_either(self):
        assert _after("import pathbetti", HEAVY + ("argparse",)) == ([], [])

    def test_fractions_load_at_the_first_pivot_that_is_no_unit(self):
        # the shape on which no vertex splits (tests/test_betti.py) has homology in two degrees
        # and only unit pivots, so it stays in the integers; RP2's pivot 2 switches to fractions
        code = (
            "from pathbetti import QQ, betti, homology\n"
            "print(sorted(betti._matrix_homology((13, 14, 19, 20, 26, 39, 44, 48, 66, 68, 73), QQ).items()))\n"
            "print('fractions' in sys.modules)\n"
            "print(homology._homology(homology._levels([7, 35, 13, 25, 49, 22, 26, 42, 44, 52]), 0))"
        )
        assert _after(code, ("fractions",)) == (["[(1, 2), (2, 2)]", "False", "{}"], ["fractions"])


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
