"""Command-line front end.

Three subcommands: ``betti`` prints a Betti table (JSON, CSV, or a
Macaulay-style diagram), ``homology`` prints homology of run complements
or of the full cycle complement, and ``verify`` runs the cross-check
matrix between the closed forms and the brute-force enumeration.

Exit codes are stable API: 0 success, 1 verification failure, 2 usage
error, 3 resource limit.  Each command returns 0, 1 or 2 itself;
``main`` alone turns an OracleCapError, from the vertex cap or the face
budget, into 3, with the error on stderr and nothing on stdout.

JSON is rendered by ``_json``, byte for byte what ``json.dumps(indent=2)``
gives: with an indent, ``json.dumps`` leaves its C encoder for a Python
generator per container, which on small tables took longer than
computing them.  The ``betti`` record's entries all have the same four
keys, so each comes from one fixed ``%`` template, fed straight from
``BettiTable.items()``, and ``_json`` writes that text as it stands; the
CSV rows come from one template too, printed at once.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections.abc import Sequence

from .betti import (
    BettiTable,
    OracleCapError,
    betti_closed_cycle,
    betti_closed_line,
    betti_hochster,
    check_vertex_cap,
    complement_homology,
    homology_cycle_complement,
    homology_run_sequence,
    nonzero_criterion,
    pd_reg,
)
from .homology import FieldSpec
from .paths import PathFamilySpec, RunSequence, build_path_complex, build_run_complex, vertex_count_of_runs

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once; ``parser.commands`` holds the three command parsers by name."""
    parser = argparse.ArgumentParser(
        prog="pathbetti",
        description="Exact Betti tables, homology, pd and regularity of path ideals of cycles and lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    betti = sub.add_parser("betti", help="compute a Betti table")
    betti.add_argument("--kind", choices=("cycle", "line"), required=True)
    betti.add_argument("--n", type=int, required=True, help="number of vertices")
    betti.add_argument("--t", type=int, required=True, help="path length parameter")
    betti.add_argument("--method", choices=("oracle", "closed", "both"), default="both")
    betti.add_argument("--char", type=int, default=0, help="field characteristic for the oracle (0 or a prime)")
    betti.add_argument("--format", choices=("json", "csv", "pretty"), default="json")

    hom = sub.add_parser("homology", help="homology of run complements or the full cycle complement")
    hom.add_argument("--runs", help="comma-separated run lengths, e.g. 4,2,1")
    hom.add_argument("--kind", choices=("cycle",), help="full-complement mode")
    hom.add_argument("--n", type=int, help="number of vertices, with --kind cycle")
    hom.add_argument("--t", type=int, required=True)
    hom.add_argument("--explicit", action="store_true", help="also compute the homology by the oracle's route and compare")
    hom.add_argument("--char", type=int, default=0)

    verify = sub.add_parser("verify", help="run the oracle/closed-form cross-check matrix")
    verify.add_argument("--max-n", type=int, default=10)
    verify.add_argument("--t-range", default="2..5", help="inclusive range a..b of t values, or one value a")
    verify.add_argument("--char-list", default="0",
                        help="comma-separated characteristics, e.g. 0,2,32003, each checked once; none may be empty")
    parser.commands = {"betti": betti, "homology": hom, "verify": verify}
    return parser


# The C encoder's string escaping; it raises TypeError on anything but a str.
_string = json.encoder.encode_basestring_ascii


class _Rendered(str):
    """JSON text rendered already, which ``_json`` writes as it stands."""


_SCALARS = {
    _Rendered: lambda text: text,
    str: _string,
    int: int.__repr__,
    float: json.dumps,  # float.__repr__, and NaN and Infinity as json.dumps spells them
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` of str, int, float, bool, None, and lists and str-keyed dicts of them.

    Types are matched exactly, so a bool is not taken for an int; any
    other type, and any key that is not a str, raises TypeError.
    ``indent`` is the line break and indentation that precede the value.
    """
    kind = type(value)
    if kind is list or kind is dict:
        if not value:
            return "[]" if kind is list else "{}"
        inner = indent + "  "
        if kind is list:
            parts = [_json(item, inner) for item in value]
            return "[" + inner + ("," + inner).join(parts) + indent + "]"
        parts = []
        for key, item in value.items():
            scalar = _SCALARS.get(type(item))
            parts.append(_string(key) + ": " + (scalar(item) if scalar else _json(item, inner)))
        return "{" + inner + ("," + inner).join(parts) + indent + "}"
    if kind not in _SCALARS:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return _SCALARS[kind](value)


# One entry of the betti record's "entries", laid out as json.dumps(indent=2) lays it out there.
_ENTRY = '{\n      "i": %d,\n      "j": %d,\n      "value": %d,\n      "method": %s\n    }'


def _table_record(table: BettiTable) -> _Rendered:
    """The table's entries as the JSON list of {i, j, value, method} records at the betti record's top level."""
    entries = [_ENTRY % (i, j, value, _string(method)) for i, j, value, method in table.items()]
    return _Rendered("[\n    " + ",\n    ".join(entries) + "\n  ]" if entries else "[]")


def _render_diagram(table: BettiTable) -> str:
    """Macaulay-style Betti diagram: rows are j - i, columns are i."""
    pd = table.pd
    reg = table.reg
    values = [[table.value(i, i + r) for i in range(pd + 1)] for r in range(reg + 1)]
    values[0][0] = 1  # the implicit entry in degree (0, 0)
    cells = [[str(value) if value else "." for value in row] for row in values]
    totals = [str(sum(column)) for column in zip(*values)]
    width = max(2, *(len(s) for row in cells for s in row), *(len(s) for s in totals))
    head = " " * 7 + " ".join(str(i).rjust(width) for i in range(pd + 1))
    total = "total: " + " ".join(s.rjust(width) for s in totals)
    body = [
        f"{r:>5}: " + " ".join(s.rjust(width) for s in cells[r])
        for r in range(reg + 1)
    ]
    return "\n".join([head, total, *body])


def cmd_betti(args: argparse.Namespace) -> int:
    try:
        spec = PathFamilySpec(args.kind, args.n, args.t)
        field = FieldSpec(args.char)
        if args.method in ("oracle", "both"):
            check_vertex_cap(spec.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    start = time.perf_counter()
    closed = oracle = None
    if args.method in ("closed", "both"):
        closed = betti_closed_cycle(spec) if spec.kind == "cycle" else betti_closed_line(spec)
    if args.method in ("oracle", "both"):
        oracle = betti_hochster(build_path_complex(spec), field)
    timing_ms = (time.perf_counter() - start) * 1000.0

    table = closed if closed is not None else oracle
    diff = closed.diff(oracle) if args.method == "both" else {}
    if args.format == "json":
        record = {
            "kind": spec.kind,
            "n": spec.n,
            "t": spec.t,
            "p": spec.p,
            "d": spec.d,
            "method": args.method,
            "field_characteristic": field.characteristic,
            "entries": _table_record(table),
            "pd": table.pd,
            "reg": table.reg,
            "timing_ms": round(timing_ms, 3),
        }
        if args.method == "both":
            record["diff"] = [
                {"i": i, "j": j, "closed": a, "oracle": b}
                for (i, j), (a, b) in diff.items()
            ]
        print(_json(record))
    elif args.format == "csv":
        row = f"{spec.kind},{spec.n},{spec.t},%d,%d,%d,%s"
        print("\n".join(["kind,n,t,i,j,beta,method", *[row % item for item in table.items()]]))
    else:
        print(_render_diagram(table))
        print(f"pd = {table.pd}, reg = {table.reg}  ({spec.kind}, n={spec.n}, t={spec.t})")
        if args.method == "both":
            print("oracle and closed form " + ("DISAGREE" if diff else "agree"))
    return EXIT_VERIFY if diff else EXIT_OK


def cmd_homology(args: argparse.Namespace) -> int:
    if (args.runs is None) == (args.kind is None):
        print("error: give exactly one of --runs or --kind cycle", file=sys.stderr)
        return EXIT_USAGE
    if args.runs is not None and args.n is not None:
        print("error: --n goes with --kind cycle, not with --runs", file=sys.stderr)
        return EXIT_USAGE
    try:
        field = FieldSpec(args.char)
        if args.runs is not None:
            seq = RunSequence(tuple(int(s) for s in args.runs.split(",")))
            summary = homology_run_sequence(args.t, seq)
            record: dict = {"runs": list(seq.lengths), "t": args.t}
        else:
            if args.n is None:
                print("error: --kind cycle needs --n", file=sys.stderr)
                return EXIT_USAGE
            spec = PathFamilySpec("cycle", args.n, args.t)
            summary = homology_cycle_complement(spec)
            record = {"kind": "cycle", "n": spec.n, "t": spec.t}
        if args.explicit:
            check_vertex_cap(vertex_count_of_runs(seq, args.t) if args.runs is not None else spec.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    record["closed_form"] = {
        "degree": summary.nonzero_degree,
        "dimension": summary.dimension,
    }
    exit_code = EXIT_OK
    if args.explicit:
        gamma = build_run_complex(seq, args.t) if args.runs is not None else build_path_complex(spec)
        vector = complement_homology(gamma, field)
        record["explicit"] = [[degree, dim] for degree, dim in sorted(vector.items())]
        record["match"] = vector == summary.as_vector()
        if not record["match"]:
            exit_code = EXIT_VERIFY
    print(_json(record))
    return exit_code


def run_verification(
    cells: Sequence[tuple[int, int]], fields: Sequence[FieldSpec],
) -> tuple[list[str], int]:
    """Cross-check matrix over the cycle cells (n, t); returns (report lines, number of failures).

    The oracle's vertex cap is not checked here; ``cmd_verify`` checks
    the largest n against it before calling.
    """
    lines: list[str] = []
    failures = 0

    def check(ok: bool, label: str, detail: str = "") -> None:
        nonlocal failures
        if ok:
            lines.append(f"PASS {label}")
        else:
            failures += 1
            lines.append(f"FAIL {label}{': ' + detail if detail else ''}")

    def check_tables(closed: BettiTable, oracle: BettiTable, label: str) -> None:
        diff = closed.diff(oracle)
        bad = next(iter(diff), None)
        detail = f"first mismatch at (i,j)={bad}: closed={diff[bad][0]} oracle={diff[bad][1]}" if diff else ""
        check(not diff, label, detail)

    if not cells:
        lines.append("warning: empty verification range, nothing to do")
        return lines, 0

    for n, t in cells:
        spec = PathFamilySpec("cycle", n, t)
        delta = build_path_complex(spec)
        expected = homology_cycle_complement(spec).as_vector()
        for field in fields:
            got = complement_homology(delta, field)
            check(
                got == expected,
                f"n={n} t={t} char={field.characteristic} cycle-complement-homology",
                f"explicit={got} closed={expected}",
            )
        if t >= n:
            continue
        closed = betti_closed_cycle(spec)
        oracles = [betti_hochster(delta, field) for field in fields]
        for field, oracle in zip(fields, oracles):
            check_tables(closed, oracle, f"n={n} t={t} char={field.characteristic} cycle-closed-vs-oracle")
        reference = oracles[0]
        violations = [
            (i, j) for (i, j) in reference.entries
            if j > i * t or not nonzero_criterion(spec, i, j)
        ]
        check(
            not violations,
            f"n={n} t={t} vanishing-soundness",
            f"entries {violations} violate the criterion",
        )
        missing = [
            (i, j) for j in range(1, n + 1) for i in range(1, j + 1)
            if nonzero_criterion(spec, i, j) and not reference.value(i, j)
        ]
        check(
            not missing,
            f"n={n} t={t} nonzero-completeness",
            f"the criterion accepts {missing}, where the oracle has zero",
        )
        check(
            pd_reg(spec) == (reference.pd, reference.reg),
            f"n={n} t={t} pd-reg",
            f"formula={pd_reg(spec)} oracle={(reference.pd, reference.reg)}",
        )
        line_spec = PathFamilySpec("line", n, t)
        line = build_path_complex(line_spec)
        line_closed = betti_closed_line(line_spec)
        for field in fields:
            check_tables(
                line_closed, betti_hochster(line, field),
                f"n={n} t={t} char={field.characteristic} line-closed-vs-oracle",
            )
    return lines, failures


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        lo, sep, hi = args.t_range.partition("..")
        t_lo, t_hi = int(lo), int(hi if sep else lo)
        fields = list(dict.fromkeys(FieldSpec(int(c)) for c in args.char_list.split(",")))
        # the t range only widens with n, so some n has a cell iff args.max_n
        # does, and the cap is checked before the cells are listed
        if args.max_n >= 3 and max(2, t_lo) <= min(t_hi, args.max_n):
            check_vertex_cap(args.max_n)
        cells = [
            (n, t)
            for n in range(3, args.max_n + 1)
            for t in range(max(2, t_lo), min(t_hi, n) + 1)
        ]
    except ValueError as exc:
        print(f"error: invalid verify arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    lines, failures = run_verification(cells, fields)
    for line in lines:
        print(line)
    checked = sum(1 for line in lines if not line.startswith("warning"))
    print(f"{checked} checks, {failures} failures")
    return EXIT_VERIFY if failures else EXIT_OK


_COMMANDS = {"betti": cmd_betti, "homology": cmd_homology, "verify": cmd_verify}


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    # The top-level parser hands everything after a command's name to that
    # command's parser, so that parser alone gives the same namespace and
    # the same errors.  Anything else, and arguments the command leaves
    # over, go through the full parse for argparse's own usage and errors.
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        args.command = argv[0]
    if command is None or rest:
        args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OracleCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
