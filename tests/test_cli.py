from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from dispatch import CASES, outcome, reference
from hypothesis import given
from hypothesis import strategies as st

from pathbetti import (
    BettiTable, PathFamilySpec, betti_closed_cycle, betti_closed_line, betti_hochster, build_path_complex, cli, homology,
)
from pathbetti import betti as betti_module
from pathbetti.cli import main


def _schema() -> dict:
    text = resources.files("pathbetti").joinpath("betti-table.schema.json").read_text()
    return json.loads(text)


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def tiny_face_budget(monkeypatch, empty_ind_memo):
    """A face budget every complex with more than one face exceeds, an empty memo, and no vertex splitting.

    The tests named for the dense budget now exercise the face budget that
    replaced it, on the matrix route that Ind homology falls back to when
    no vertex splits.
    """
    monkeypatch.setattr(homology, "MAX_FACES", 1)
    monkeypatch.setattr(betti_module, "_split_homology", lambda shape, field: None)


_WELL_FORMED = ["betti", "--kind", "cycle", "--n", "5", "--t", "2", "--method", "closed", "--format", "csv"]
_NAMES = sorted({option for _, options in cli._OPTIONS.values() for option in options})
_WORDS = st.sampled_from(sorted(
    {choice for _, options in cli._OPTIONS.values() for spec in options.values() for choice in spec[1] or ()}
    | {"", "-h", "--", "x", "2..3", "4,2,1", "0,2", " 5", "1_0", "\u0665"}
)) | st.integers(-30, 30).map(str) | st.integers(0, 30).map("+{}".format)
_OPTION_FORMS = (
    st.sampled_from(_NAMES) | st.sampled_from(_NAMES).map(lambda name: name[:3])
    | st.builds("{}={}".format, st.sampled_from(_NAMES), _WORDS)
)


@st.composite
def _argvs(draw) -> list[str]:
    """A well-formed command line, or one with a token replaced, added or dropped."""
    command = draw(st.sampled_from(sorted(cli._OPTIONS)))
    options = cli._OPTIONS[command][1]
    required = [name for name, spec in options.items() if spec[2] is cli._REQUIRED]
    argv = [command]
    for name in required + draw(st.lists(st.sampled_from(sorted(options)), max_size=3)):
        kind, choices, default, _ = options[name]
        argv.append(name)
        if default is not False:
            argv.append(draw(st.sampled_from(choices) if choices else st.integers(0, 30).map(str) if kind
                             else st.sampled_from(["2..3", "4,2,1", "0,2"])))
    edit = draw(st.sampled_from(["keep", "replace", "insert", "drop"]))
    index = draw(st.integers(0, len(argv)))
    token = draw(_OPTION_FORMS | _WORDS)
    if edit == "insert":
        argv.insert(index, token)
    elif edit != "keep" and index < len(argv):
        argv[index:index + 1] = [token] if edit == "replace" else []
    return argv


class TestParser:
    def test_built_once_across_calls(self, capsys, monkeypatch):
        script = (f"import sys\nfrom pathbetti.cli import main\ncode = main({_WELL_FORMED!r})\n"
                  "print(code, 'argparse' in sys.modules, file=sys.stderr)")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-S", "-c", script], check=True, env=env, capture_output=True, text=True)
        assert done.stdout.startswith("kind,n,t,i,j,beta,method")
        assert done.stderr == "0 False\n"

        cli._build_parser.cache_clear()
        builds = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            builds.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        code, out, _ = _run(capsys, *_WELL_FORMED)
        assert code == 0
        assert out.startswith("kind,n,t,i,j,beta,method")
        assert builds == []
        with pytest.raises(SystemExit) as exc:
            main(["betti", "--kind", "square"])
        assert exc.value.code == 2
        assert builds == ["pathbetti", "pathbetti betti", "pathbetti homology", "pathbetti verify"]
        capsys.readouterr()
        code, out, _ = _run(capsys, "betti", "--kind=cycle", "--n", "5", "--t", "2")
        assert code == 0
        assert json.loads(out)["method"] == "both"
        with pytest.raises(SystemExit):
            main(["betti", "--kind", "cycle", "--n", "5", "--t", "2", "extra"])
        assert len(builds) == 4

    @given(_argvs())
    def test_read_gives_parse_args_namespace_or_none(self, argv):
        args = cli._read(argv)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                parsed = vars(cli._build_parser().parse_args(argv))
            except SystemExit:
                parsed = None
        assert args is None or vars(args) == parsed

    @pytest.mark.parametrize("argv", CASES, ids=[" ".join(argv) or "empty" for argv in CASES])
    def test_same_as_one_parse_of_the_whole_line(self, argv):
        assert outcome(main, argv) == outcome(reference, argv)

    def test_reads_sys_argv_by_default(self, monkeypatch):
        argv = ["betti", "--kind", "line", "--n", "6", "--t", "2", "--method", "closed"]
        monkeypatch.setattr(sys, "argv", ["pathbetti", *argv])
        assert outcome(lambda _: main(), argv) == outcome(main, argv)


# What the command records hold, and the characters JSON escapes.
_TEXT = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028'))
_SCALAR_VALUES = (
    _TEXT | st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
    | st.booleans() | st.none() | st.floats(allow_nan=False, allow_infinity=False)
)
_VALUES = st.recursive(
    _SCALAR_VALUES, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4), max_leaves=20,
)


class TestJson:
    @given(_VALUES)
    def test_same_text_as_json_dumps(self, value):
        assert cli._json(value) == json.dumps(value, indent=2)

    def test_empty_containers_and_non_finite_floats(self):
        for value in ([], {}, [[], {}], {"a": [], "b": {}}, math.inf, -math.inf, math.nan, [math.nan]):
            assert cli._json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [(1, 2), {1, 2}, {1: "a"}, {"a": {None: 1}}, [b"x"], {"a": 1j}])
    def test_other_types_and_keys_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json(value)


_BIG = st.integers() | st.integers(min_value=2**64)
_ENTRY_TABLES = st.dictionaries(
    st.tuples(st.integers(min_value=0), st.integers(min_value=0)), st.tuples(_BIG.filter(bool), _TEXT), max_size=6,
)
_DIFFS = st.dictionaries(
    st.tuples(st.integers(min_value=0), st.integers(min_value=0)),
    st.tuples(_BIG, _BIG).filter(lambda pair: pair[0] != pair[1]), max_size=4,
)


def _record_dict(spec, method, characteristic, table, timing_ms, diff) -> dict:
    """The betti record as a dict, built key by key as the command once built it before dumping it."""
    record = {
        "kind": spec.kind,
        "n": spec.n,
        "t": spec.t,
        "p": spec.p,
        "d": spec.d,
        "method": method,
        "field_characteristic": characteristic,
        "entries": [{"i": i, "j": j, "value": value, "method": tag} for i, j, value, tag in table.items()],
        "pd": table.pd,
        "reg": table.reg,
        "timing_ms": round(timing_ms, 3),
    }
    if method == "both":
        record["diff"] = [{"i": i, "j": j, "closed": a, "oracle": b} for (i, j), (a, b) in diff.items()]
    return record


class TestBettiRendering:
    """The betti record comes from one template, each of its entries from another, the CSV rows from one per row."""

    @staticmethod
    def _same_as_json_dumps(out: str) -> bool:
        return out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("kind,n", [("cycle", 9), ("line", 10)])
    @pytest.mark.parametrize("method", ["oracle", "closed", "both"])
    def test_stdout_is_json_dumps_of_itself(self, capsys, kind, n, method):
        code, out, _ = _run(capsys, "betti", "--kind", kind, "--n", str(n), "--t", "2", "--method", method)
        assert code == 0
        assert self._same_as_json_dumps(out)
        tags = {entry["method"] for entry in json.loads(out)["entries"]}
        assert tags == ({"oracle"} if method == "oracle" else
                        {"eligible_count", "closed_form"} if kind == "cycle" else {"eligible_count"})

    def test_stdout_with_a_diff_is_json_dumps_of_itself(self, capsys, monkeypatch):
        monkeypatch.setattr(betti_module, "_placement_counts", lambda n, t: {(1, 2): 1})
        code, out, _ = _run(capsys, "betti", "--kind", "line", "--n", "6", "--t", "2", "--method", "both")
        assert code == 1
        assert json.loads(out)["diff"]
        assert self._same_as_json_dumps(out)

    def test_an_empty_table_renders_an_empty_list(self):
        spec = PathFamilySpec("cycle", 5, 2)
        for method, diff in [("closed", {}), ("oracle", {}), ("both", {}), ("both", {(1, 2): (0, 5), (3, 5): (0, 1)})]:
            args = (spec, method, 0, BettiTable(), 1.5, diff)
            assert cli._table_record(*args) == json.dumps(_record_dict(*args), indent=2)
            assert '"entries": []' in cli._table_record(*args)

    @given(
        st.sampled_from([PathFamilySpec("cycle", 5, 2), PathFamilySpec("line", 300, 7)]),
        st.sampled_from(["oracle", "closed", "both"]), st.sampled_from([0, 2, 2147483647]), _ENTRY_TABLES,
        st.floats(min_value=0, allow_infinity=False), _DIFFS,
    )
    def test_entries_are_json_dumps_of_their_records(self, spec, method, characteristic, entries, timing_ms, diff):
        args = (spec, method, characteristic, BettiTable(entries), timing_ms, diff if method == "both" else {})
        assert cli._table_record(*args) == json.dumps(_record_dict(*args), indent=2)

    @pytest.mark.parametrize("kind,n,t,method", [
        ("cycle", 9, 2, "oracle"), ("cycle", 40, 3, "closed"), ("line", 10, 2, "both"), ("line", 3, 3, "closed"),
    ])
    def test_csv_rows_are_the_per_row_f_string(self, capsys, kind, n, t, method):
        code, out, _ = _run(capsys, "betti", "--kind", kind, "--n", str(n), "--t", str(t),
                            "--method", method, "--format", "csv")
        assert code == 0
        spec = PathFamilySpec(kind, n, t)
        closed = betti_closed_cycle(spec) if kind == "cycle" else betti_closed_line(spec)
        table = betti_hochster(build_path_complex(spec)) if method == "oracle" else closed
        rows = [f"{kind},{n},{t},{i},{j},{value},{tag}\n" for i, j, value, tag in table.items()]
        assert out == "kind,n,t,i,j,beta,method\n" + "".join(rows)


class TestBettiCommand:
    def test_pentagon_both_methods(self, capsys):
        code, out, _ = _run(capsys, "betti", "--kind", "cycle", "--n", "5", "--t", "2", "--method", "both")
        assert code == 0
        record = json.loads(out)
        assert record["entries"] == [
            {"i": 1, "j": 2, "value": 5, "method": "eligible_count"},
            {"i": 2, "j": 3, "value": 5, "method": "eligible_count"},
            {"i": 3, "j": 5, "value": 1, "method": "closed_form"},
        ]
        assert record["pd"] == 3
        assert record["reg"] == 2
        assert record["diff"] == []

    def test_json_matches_published_schema(self, capsys):
        schema = _schema()
        for method in ("oracle", "closed", "both"):
            code, out, _ = _run(capsys, "betti", "--kind", "line", "--n", "6", "--t", "2", "--method", method)
            assert code == 0
            jsonschema.validate(json.loads(out), schema)

    def test_json_round_trips(self, capsys):
        _, out, _ = _run(capsys, "betti", "--kind", "cycle", "--n", "6", "--t", "3")
        record = json.loads(out)
        assert json.loads(json.dumps(record)) == record

    def test_csv_format(self, capsys):
        code, out, _ = _run(capsys, "betti", "--kind", "cycle", "--n", "5", "--t", "2",
                            "--method", "closed", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kind,n,t,i,j,beta,method"
        assert lines[1] == "cycle,5,2,1,2,5,eligible_count"
        assert len(lines) == 4

    def test_line_with_t_equal_to_n_is_a_placement_count(self, capsys):
        # the single facet's entry is counted like every other line entry
        argv = ("betti", "--kind", "line", "--n", "3", "--t", "3", "--method", "closed")
        code, out, _ = _run(capsys, *argv, "--format", "csv")
        assert code == 0
        assert out.splitlines()[1:] == ["line,3,3,1,3,1,eligible_count"]
        code, out, _ = _run(capsys, *argv)
        assert code == 0
        jsonschema.validate(json.loads(out), _schema())

    def test_pretty_format_renders_diagram(self, capsys):
        code, out, _ = _run(capsys, "betti", "--kind", "cycle", "--n", "6", "--t", "2",
                            "--format", "pretty")
        assert code == 0
        # the totals sum each column, the implicit 1 in degree (0, 0) included
        assert out.splitlines() == [
            "        0  1  2  3  4",
            "total:  1  6  9  6  2",
            "    0:  1  .  .  .  .",
            "    1:  .  6  6  .  .",
            "    2:  .  .  3  6  2",
            "pd = 4, reg = 2  (cycle, n=6, t=2)",
            "oracle and closed form agree",
        ]

    def test_usage_error_for_bad_parameters(self, capsys):
        code, _, err = _run(capsys, "betti", "--kind", "cycle", "--n", "5", "--t", "6")
        assert code == 2
        assert "error" in err

    def test_resource_error_for_large_oracle(self, capsys):
        code, _, err = _run(capsys, "betti", "--kind", "cycle", "--n", "30", "--t", "3",
                            "--method", "oracle")
        assert code == 3
        assert "cap" in err

    def test_mismatch_exits_one(self, capsys, monkeypatch):
        wrong = BettiTable({(9, 9): (1, "closed_form")})
        monkeypatch.setattr("pathbetti.cli.betti_closed_cycle", lambda spec: wrong)
        code, out, _ = _run(capsys, "betti", "--kind", "cycle", "--n", "5", "--t", "2",
                            "--method", "both")
        assert code == 1
        record = json.loads(out)
        assert record["diff"]

    def test_characteristic_above_int64_safe_range_is_a_usage_error(self, capsys):
        code, _, err = _run(capsys, "betti", "--kind", "cycle", "--n", "9", "--t", "2",
                            "--method", "both", "--char", "4294967311")
        assert code == 2
        assert "2^31" in err

    @pytest.mark.parametrize("value", ["many", "3"])
    def test_environment_does_not_move_the_cap(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PATHBETTI_MAX_SUBSET_BITS", value)
        code, out, _ = _run(capsys, "betti", "--kind", "cycle", "--n", "5", "--t", "2", "--method", "oracle")
        assert code == 0
        assert json.loads(out)["entries"]
        code, _, err = _run(capsys, "betti", "--kind", "cycle", "--n", "23", "--t", "2", "--method", "both")
        assert code == 3
        assert "cap of 22" in err

    def test_cap_is_checked_before_the_closed_route(self, capsys, monkeypatch):
        def unreached(spec):
            raise AssertionError("the closed form was computed")

        monkeypatch.setattr(cli, "betti_closed_cycle", unreached)
        code, out, err = _run(capsys, "betti", "--kind", "cycle", "--n", "23", "--t", "2", "--method", "both")
        assert code == 3
        assert out == ""
        assert "cap" in err

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "betti_hochster", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["betti", "--kind", "cycle", "--n", "5", "--t", "2", "--method", "oracle"])

    def test_matrix_over_the_dense_budget_exits_three(self, capsys, tiny_face_budget):
        code, _, err = _run(capsys, "betti", "--kind", "cycle", "--n", "5", "--t", "2", "--method", "oracle")
        assert code == 3
        assert "face budget" in err


class TestHomologyCommand:
    def test_run_sequence_with_explicit_check(self, capsys):
        code, out, _ = _run(capsys, "homology", "--runs", "4", "--t", "2", "--explicit")
        assert code == 0
        record = json.loads(out)
        assert record["closed_form"] == {"degree": 1, "dimension": 1}
        assert record["explicit"] == [[1, 1]]
        assert record["match"] is True

    def test_vanishing_run_sequence(self, capsys):
        code, out, _ = _run(capsys, "homology", "--runs", "3", "--t", "2")
        assert code == 0
        record = json.loads(out)
        assert record["closed_form"] == {"degree": None, "dimension": 0}

    def test_full_cycle_complement(self, capsys):
        code, out, _ = _run(capsys, "homology", "--kind", "cycle", "--n", "6", "--t", "2", "--explicit")
        assert code == 0
        record = json.loads(out)
        assert record["closed_form"] == {"degree": 2, "dimension": 2}
        assert record["match"] is True

    @pytest.mark.parametrize("argv,message", [
        ("--t 2", "give exactly one of --runs or --kind cycle"),
        ("--t 2 --char 4", "give exactly one of --runs or --kind cycle"),
        ("--runs 3 --kind cycle --n 5 --t 2", "give exactly one of --runs or --kind cycle"),
        ("--runs 3 --n 5 --t 2 --char 4", "--n goes with --kind cycle, not with --runs"),
        ("--kind cycle --t 2", "--kind cycle needs --n"),
        ("--kind cycle --t 2 --char 4", "characteristic must be 0 or a prime, got 4"),
    ], ids=["no-mode", "no-mode-bad-char", "both-modes", "runs-with-n", "cycle-without-n", "cycle-bad-char"])
    def test_usage_errors_in_their_order(self, capsys, argv, message):
        # the mode checks come before the field's, and --kind cycle's need of --n after it
        assert _run(capsys, "homology", *argv.split()) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [
        ("--runs", "40", "--t", "2"),
        ("--kind", "cycle", "--n", "40", "--t", "2"),
    ], ids=["runs", "cycle"])
    def test_explicit_complement_above_the_cap_is_refused(self, capsys, argv):
        code, _, err = _run(capsys, "homology", *argv, "--explicit")
        assert code == 3
        assert "cap" in err
        code, out, _ = _run(capsys, "homology", *argv)
        assert code == 0
        assert "explicit" not in json.loads(out)

    def test_explicit_cap_follows_the_environment(self, capsys, monkeypatch):
        # runs 3 with t = 2 cover 4 vertices
        monkeypatch.setattr(betti_module, "MAX_VERTICES", 3)
        code, _, _ = _run(capsys, "homology", "--runs", "3", "--t", "2", "--explicit")
        assert code == 3
        monkeypatch.setattr(betti_module, "MAX_VERTICES", 4)
        code, out, _ = _run(capsys, "homology", "--runs", "3", "--t", "2", "--explicit")
        assert code == 0
        assert json.loads(out)["match"] is True

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        def broken(gamma, field):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "complement_homology", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["homology", "--runs", "3", "--t", "2", "--explicit"])

    def test_cap_is_checked_before_the_run_complex_is_built(self, capsys, monkeypatch):
        def unbuilt(seq, t):
            raise AssertionError("the run complex was built")

        monkeypatch.setattr(cli, "build_run_complex", unbuilt)
        code, _, err = _run(capsys, "homology", "--runs", "1500", "--t", "2", "--explicit")
        assert code == 3
        assert "cap" in err

    def test_cycle_that_went_over_the_dense_budget(self, capsys):
        # the earlier dense rank layer refused a 13104 x 27690 matrix here after 7 s at 1.1 GiB
        code, out, _ = _run(capsys, "homology", "--kind", "cycle", "--n", "20", "--t", "3", "--explicit")
        assert code == 0
        assert json.loads(out)["match"] is True

    def test_cycle_whose_direct_complement_is_too_large_to_rank(self, capsys):
        # ranking the complement itself needed an 18564 x 31824 int64 matrix (4.4 GiB)
        code, out, _ = _run(capsys, "homology", "--kind", "cycle", "--n", "18", "--t", "2", "--explicit")
        assert code == 0
        assert json.loads(out)["match"] is True

    @pytest.mark.parametrize("argv", [
        ("--runs", "4", "--t", "2"),
        ("--kind", "cycle", "--n", "6", "--t", "2"),
    ], ids=["runs", "cycle"])
    def test_matrix_over_the_dense_budget_exits_three(self, capsys, tiny_face_budget, argv):
        code, out, err = _run(capsys, "homology", *argv, "--explicit")
        assert code == 3
        assert "face budget" in err
        assert out == ""

    def test_bad_run_lengths(self, capsys):
        code, _, err = _run(capsys, "homology", "--runs", "0,2", "--t", "2")
        assert code == 2


class TestVerifyCommand:
    def test_small_matrix_passes(self, capsys):
        code, out, _ = _run(capsys, "verify", "--max-n", "6", "--t-range", "2..3",
                            "--char-list", "0,2")
        assert code == 0
        assert "FAIL" not in out
        assert "0 failures" in out

    def test_the_line_is_checked_over_every_field(self, capsys):
        code, out, _ = _run(capsys, "verify", "--max-n", "5", "--t-range", "2..2", "--char-list", "0,2,32003")
        assert code == 0
        lines = [line for line in out.splitlines() if "line-closed-vs-oracle" in line]
        assert lines == [f"PASS n={n} t=2 char={c} line-closed-vs-oracle" for n in (3, 4, 5) for c in (0, 2, 32003)]

    @pytest.mark.parametrize("repeated, once", [("0,0", "0"), ("0,2,2,0", "0,2")])
    def test_a_repeated_characteristic_is_checked_once(self, capsys, repeated, once):
        # each check line and the total are those of the list without repeats
        got = _run(capsys, "verify", "--max-n", "6", "--char-list", repeated)
        assert got == _run(capsys, "verify", "--max-n", "6", "--char-list", once)
        assert got[0] == 0 and got[1].count("PASS n=6 t=2 char=0 cycle-closed-vs-oracle\n") == 1

    @pytest.mark.parametrize("t_range, code", [("2..", 2), ("..3", 2), ("2..3..4", 2), ("4", 0)])
    def test_each_bound_of_the_t_range_is_needed_once_given_a_separator(self, capsys, t_range, code):
        # "4" alone stands for 4..4; an empty bound is a usage error
        got, out, err = _run(capsys, "verify", "--max-n", "5", "--t-range", t_range)
        assert got == code
        if code:
            assert out == "" and "invalid verify arguments" in err
        else:
            assert (got, out, err) == _run(capsys, "verify", "--max-n", "5", "--t-range", "4..4")
            assert "t=4" in out and "t=3" not in out and "t=5" not in out

    def test_empty_range_warns(self, capsys):
        code, out, _ = _run(capsys, "verify", "--max-n", "2", "--t-range", "2..5")
        assert code == 0
        assert "warning" in out

    def test_cycle_complement_check_above_the_cap_exits_three(self, capsys, monkeypatch):
        # t = n has no oracle check, so only the complement check meets the cap
        monkeypatch.setattr(betti_module, "MAX_VERTICES", 4)
        code, _, err = _run(capsys, "verify", "--max-n", "5", "--t-range", "5..5")
        assert code == 3
        assert "cap" in err

    def test_cap_is_checked_before_the_first_cell(self, capsys, monkeypatch):
        def unreached(*args):
            raise AssertionError("a cell was checked")

        monkeypatch.setattr(betti_module, "MAX_VERTICES", 5)
        monkeypatch.setattr(cli, "betti_hochster", unreached)
        monkeypatch.setattr(cli, "complement_homology", unreached)
        code, out, err = _run(capsys, "verify", "--max-n", "6", "--t-range", "2..3")
        assert code == 3
        assert out == ""
        assert "cap" in err

    def test_cap_is_checked_before_the_cells_are_listed(self, capsys):
        # listing the cells of a million vertices first took 323 MiB
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, "verify", "--max-n", "1000000")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert out == ""
        assert "1000000 ambient vertices exceeds the oracle's vertex cap" in err
        assert peak < 1 << 20

    def test_range_with_no_cell_above_the_cap_warns(self, capsys):
        code, out, err = _run(capsys, "verify", "--max-n", "25", "--t-range", "30..40")
        assert code == 0
        assert "warning: empty verification range" in out
        assert err == ""

    def test_matrix_over_the_dense_budget_exits_three(self, capsys, tiny_face_budget):
        code, _, err = _run(capsys, "verify", "--max-n", "5", "--t-range", "2..2")
        assert code == 3
        assert "face budget" in err

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        def broken(*args):
            raise ValueError("internal")

        monkeypatch.setattr(cli, "betti_hochster", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["verify", "--max-n", "4", "--t-range", "2..2"])

    def test_bad_char_list(self, capsys):
        code, _, err = _run(capsys, "verify", "--max-n", "5", "--char-list", "0,4")
        assert code == 2

    @pytest.mark.parametrize("char_list", ["", ",", "0,", "0,,2"])
    def test_an_empty_characteristic_is_a_usage_error(self, capsys, char_list):
        # as in homology --runs 3,,2: every item must be an integer
        code, out, err = _run(capsys, "verify", "--max-n", "5", "--char-list", char_list)
        assert (code, out) == (2, "")
        assert "invalid verify arguments" in err

    def test_characteristic_above_int64_safe_range_is_a_usage_error(self, capsys):
        code, _, err = _run(capsys, "verify", "--max-n", "5", "--char-list", "0,4294967311")
        assert code == 2
        assert "2^31" in err

    def test_failure_is_reported_and_exits_one(self, capsys, monkeypatch):
        wrong = BettiTable({(9, 9): (1, "closed_form")})
        monkeypatch.setattr("pathbetti.cli.betti_closed_cycle", lambda spec: wrong)
        code, out, _ = _run(capsys, "verify", "--max-n", "4", "--t-range", "2..2")
        assert code == 1
        assert "FAIL" in out
        assert "(i,j)" in out
