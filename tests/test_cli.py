from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources

import jsonschema
import pytest
from dispatch import CASES, outcome, reference
from hypothesis import given
from hypothesis import strategies as st

from pathbetti import BettiTable, cli, homology
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
def tiny_face_budget(monkeypatch):
    """A face budget every complex with more than one face exceeds, an empty memo, and no vertex splitting.

    The tests named for the dense budget now exercise the face budget that
    replaced it, on the matrix route that Ind homology falls back to when
    no vertex splits.
    """
    monkeypatch.setattr(homology, "MAX_FACES", 1)
    monkeypatch.setattr(betti_module, "_IND_HOMOLOGY_CACHE", {})
    monkeypatch.setattr(betti_module, "_split_homology", lambda shape, field: None)


class TestParser:
    def test_built_once_across_calls(self, capsys, monkeypatch):
        cli._build_parser.cache_clear()
        builds = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            builds.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        code, out, _ = _run(capsys, "betti", "--kind", "cycle", "--n", "5", "--t", "2",
                            "--method", "closed", "--format", "csv")
        assert code == 0
        assert out.startswith("kind,n,t,i,j,beta,method")
        assert builds == ["pathbetti", "pathbetti betti", "pathbetti homology", "pathbetti verify"]
        with pytest.raises(SystemExit) as exc:
            main(["betti", "--kind", "square"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = _run(capsys, "betti", "--kind", "cycle", "--n", "5", "--t", "2")
        assert code == 0
        assert json.loads(out)["method"] == "both"
        with pytest.raises(SystemExit):
            main(["betti", "--kind", "cycle", "--n", "5", "--t", "2", "extra"])
        assert len(builds) == 4

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

    def test_pretty_format_renders_diagram(self, capsys):
        code, out, _ = _run(capsys, "betti", "--kind", "cycle", "--n", "6", "--t", "2",
                            "--format", "pretty")
        assert code == 0
        assert "total:" in out
        assert "pd = 4, reg = 2" in out

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
        wrong = BettiTable()
        wrong.accumulate(9, 9, 1, "closed_form")
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

    def test_needs_exactly_one_mode(self, capsys):
        code, _, err = _run(capsys, "homology", "--t", "2")
        assert code == 2
        code, _, err = _run(capsys, "homology", "--runs", "2", "--kind", "cycle", "--n", "5", "--t", "2")
        assert code == 2

    def test_n_without_kind_cycle_is_a_usage_error(self, capsys):
        code, out, err = _run(capsys, "homology", "--runs", "3", "--n", "5", "--t", "2")
        assert code == 2
        assert out == ""
        assert "--n" in err

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

    def test_characteristic_above_int64_safe_range_is_a_usage_error(self, capsys):
        code, _, err = _run(capsys, "verify", "--max-n", "5", "--char-list", "0,4294967311")
        assert code == 2
        assert "2^31" in err

    def test_failure_is_reported_and_exits_one(self, capsys, monkeypatch):
        wrong = BettiTable()
        wrong.accumulate(9, 9, 1, "closed_form")
        monkeypatch.setattr("pathbetti.cli.betti_closed_cycle", lambda spec: wrong)
        code, out, _ = _run(capsys, "verify", "--max-n", "4", "--t-range", "2..2")
        assert code == 1
        assert "FAIL" in out
        assert "(i,j)" in out
