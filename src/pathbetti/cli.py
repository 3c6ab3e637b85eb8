"""Command-line front end.

Three subcommands: ``betti`` prints a Betti table (JSON, CSV, or a
Macaulay-style diagram), ``homology`` prints homology of run complements
or of the full cycle complement, and ``verify`` runs the cross-check
matrix between the closed forms and the brute-force enumeration.

Exit codes are stable API: 0 success, 1 verification failure, 2 usage
error, 3 resource limit.  Each command returns 0, 1 or 2 itself;
``main`` alone turns an OracleCapError, from the vertex cap, the face
budget or the closed route's byte budget, into 3, with the error on
stderr and nothing on stdout.

JSON is written byte for byte as ``json.dumps(indent=2)`` writes it:
with an indent, ``json.dumps`` leaves its C encoder for a Python
generator per container, which on small tables took longer than
computing them.  Every record has a fixed shape, so each is made of
``%`` templates, and so is each item of its lists: a ``betti`` entry, a
``diff`` row of ``--method both``, and an ``explicit`` pair of
``homology``.  A string goes through the C encoder's escaping,
``_string``.  The other scalars are written as ``json.dumps`` writes
them: an int by ``%d``, the finite float ``timing_ms`` by ``repr``, a
bool as ``true`` or ``false`` and None as ``null``.

The betti table has one flow per route, and one writer per format:
``_write_entries`` for JSON and CSV, ``_write_diagram`` for the pretty
diagram.  ``--method closed`` feeds the writer straight from the closed
route's walk, ``betti._closed_entries``, so no table, sort or whole
record is ever held; ``oracle`` and ``both`` build their ``BettiTable``
and feed it the table's ``items()``.  ``_write_entries`` writes the
head, then the entries, rendered from one template each and written in
batches as they come, then the tail, with pd and reg kept as running
maxima of the entries written, and ``timing_ms`` covers writing the
entries too.  ``_write_diagram`` keeps only the values and the column
totals and writes the diagram row by row.  ``_list`` lays out the
shorter lists of ``diff`` rows and ``explicit`` pairs whole.

No command builds a ``SimplicialComplex``: the facets of a path or run
complex come as bitmasks from ``paths._path_masks`` and
``paths._run_masks``, and go straight to the oracle, ``_oracle_table``,
and to the explicit complements, ``_complement_vector``.

Every option is declared once, in ``_OPTIONS``.  ``_read`` turns a
well-formed command line (a command, then its options in full, each with
a value that converts and is allowed) into the namespace argparse would
give; anything else goes to the argparse parser built from the same
table, so help, usage errors and their exit codes are argparse's own.
argparse is imported only then: a well-formed command neither imports it
nor builds a parser, which took longer than computing a small table.
Each option's namespace name and default are read off ``_OPTIONS`` once,
at import, into ``_DEST`` and ``_DEFAULTS``.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Sequence
from types import SimpleNamespace

from .betti import (
    MAX_CLOSED_BYTES,
    BettiTable,
    OracleCapError,
    _closed_entries,
    _complement_vector,
    _oracle_table,
    betti_closed_cycle,
    betti_closed_line,
    check_vertex_cap,
    homology_cycle_complement,
    homology_run_sequence,
    nonzero_criterion,
    pd_reg,
)
from .homology import FieldSpec
from .paths import PathFamilySpec, RunSequence, _path_masks, _run_masks, vertex_count_of_runs

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


_REQUIRED = object()  # the default of an option that must be given

# Each command's help line and options, in the order --help lists them.  An
# option is (type, choices, default, help): a type of None keeps the string,
# and a default of False makes a flag, which takes no value.
_OPTIONS = {
    "betti": ("compute a Betti table", {
        "--kind": (None, ("cycle", "line"), _REQUIRED, None),
        "--n": (int, None, _REQUIRED, "number of vertices"),
        "--t": (int, None, _REQUIRED, "path length parameter"),
        "--method": (None, ("oracle", "closed", "both"), "both", None),
        "--char": (int, None, 0, "field characteristic for the oracle (0 or a prime)"),
        "--format": (None, ("json", "csv", "pretty"), "json", None),
    }),
    "homology": ("homology of run complements or the full cycle complement", {
        "--runs": (None, None, None, "comma-separated run lengths, e.g. 4,2,1"),
        "--kind": (None, ("cycle",), None, "full-complement mode"),
        "--n": (int, None, None, "number of vertices, with --kind cycle"),
        "--t": (int, None, _REQUIRED, None),
        "--explicit": (None, None, False, "also compute the homology by the oracle's route and compare"),
        "--char": (int, None, 0, None),
    }),
    "verify": ("run the oracle/closed-form cross-check matrix", {
        "--max-n": (int, None, 10, None),
        "--t-range": (None, None, "2..5", "inclusive range a..b of t values, or one value a"),
        "--char-list": (None, None, "0",
                        "comma-separated characteristics, e.g. 0,2,32003, each checked once; none may be empty"),
    }),
}


# Each option's name in the namespace, and each command's namespace before any option is read: every
# option's default under its name.  Built once from _OPTIONS, so that _read only copies a command's defaults.
_DEST = {option: option[2:].replace("-", "_") for _, options in _OPTIONS.values() for option in options}
_DEFAULTS = {name: {_DEST[option]: spec[2] for option, spec in options.items()}
             for name, (_, options) in _OPTIONS.items()}


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace ``parse_args`` gives a well-formed command line, or None for any other.

    Well formed is exactly: a command's name, then its options, each
    spelt in full and followed by its value, or alone for a flag.  No
    value starts with "-", each converts by the option's type and is one
    of its choices, every required option is given, and a repeated
    option's last value counts.  Everything else, help, abbreviations,
    ``--opt=value``, ``--`` and every error included, is argparse's.
    """
    command = _OPTIONS.get(argv[0]) if argv else None
    if command is None:
        return None
    options = command[1]
    values = _DEFAULTS[argv[0]].copy()
    rest = iter(argv[1:])
    for option in rest:
        if option not in options:
            return None
        kind, choices, default, _ = options[option]
        if default is False:
            values[_DEST[option]] = True
            continue
        value = next(rest, None)
        if value is None or value.startswith("-"):
            return None
        if kind is not None:
            try:
                value = kind(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[_DEST[option]] = value
    return None if _REQUIRED in values.values() else SimpleNamespace(command=argv[0], **values)


@functools.cache
def _build_parser():
    """argparse's parser for ``_OPTIONS``, built once, for the command lines ``_read`` refuses."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="pathbetti",
        description="Exact Betti tables, homology, pd and regularity of path ideals of cycles and lines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options) in _OPTIONS.items():
        command = sub.add_parser(name, help=summary)
        for option, (kind, choices, default, text) in options.items():
            if default is False:
                command.add_argument(option, action="store_true", help=text)
            else:
                required = default is _REQUIRED
                command.add_argument(option, type=kind, choices=choices, required=required,
                                     default=None if required else default, help=text)
    return parser


# The C encoder's string escaping; it raises TypeError on anything but a str.
_string = json.encoder.encode_basestring_ascii


def _list(items: list[str]) -> str:
    """The rendered items as ``json.dumps(indent=2)`` lays out a list that a record's top-level key opens.

    ``[]`` for none.  The items sit four spaces in and the closing
    bracket two.  They are joined and bracketed in one f-string, so a
    large list's text is copied once, not once per ``+``.
    """
    sep = ",\n    "
    return f"[\n    {sep.join(items)}\n  ]" if items else "[]"


# The records and the items of their lists, laid out as json.dumps(indent=2) lays them out.  The betti
# record is its head, its entries and its tail, whose last %s is empty, or the "diff" key and its list; the
# homology record's first %s is its mode's keys, and its last is empty, or the "explicit" and "match" keys.
_HEAD = ('{\n  "kind": %s,\n  "n": %d,\n  "t": %d,\n  "p": %d,\n  "d": %d,\n  "method": %s,\n'
         '  "field_characteristic": %d,\n  "entries": ')
_TAIL = ',\n  "pd": %d,\n  "reg": %d,\n  "timing_ms": %s%s\n}\n'
_ENTRY = '{\n      "i": %d,\n      "j": %d,\n      "value": %d,\n      "method": %s\n    }'
_DIFF = '{\n      "i": %d,\n      "j": %d,\n      "closed": %d,\n      "oracle": %d\n    }'
_HOMOLOGY = '{\n  %s,\n  "closed_form": {\n    "degree": %s,\n    "dimension": %d\n  }%s\n}'
_EXPLICIT = ',\n  "explicit": %s,\n  "match": %s'
_PAIR = '[\n      %d,\n      %d\n    ]'

# Entries rendered per write: a small table's entries are one write, and a large table never holds more
# than a few MB of text.  A layout is an entry's template, how its tag is written, and what opens the
# entries, comes between two, closes them and stands for none.
_BATCH = 1024
_JSON_LAYOUT = (_ENTRY, _string, "[\n    ", ",\n    ", "\n  ]", "[]")


def _write_entries(write: Callable[[str], object], head: str, items: Iterable[tuple[int, int, int, str]],
                   layout: tuple[str, Callable[[str], str], str, str, str, str]) -> tuple[int, int]:
    """Write the head, then the entries in the layout, rendered in batches as ``items`` yields them; their pd and reg.

    pd and reg are the largest i and j - i of the entries written and of
    the implicit entry in degree (0, 0).  The head goes out with the
    first batch, so a refusal at the first entry, the closed route's
    byte budget, leaves the output empty.
    """
    row, quote, opening, sep, closing, empty = layout
    pd, reg, lead, batch, size = 0, 0, head + opening, [], _BATCH
    for i, j, value, tag in items:
        if i > pd:
            pd = i
        if j - i > reg:
            reg = j - i
        batch.append(row % (i, j, value, quote(tag)))
        if len(batch) == size:
            write(lead + sep.join(batch))
            lead, batch = sep, []
    write(lead + sep.join(batch) + closing if batch else closing if lead == sep else head + empty)
    return pd, reg


def _write_record(write: Callable[[str], object], spec: PathFamilySpec, method: str, characteristic: int,
                  items: Iterable[tuple[int, int, int, str]], start: float,
                  diff: dict[tuple[int, int], tuple[int, int]]) -> None:
    """Write the betti command's JSON record of the entries, with the tables' ``diff`` when the method is ``both``.

    ``timing_ms`` runs from ``start`` to the last entry written.
    """
    head = _HEAD % (_string(spec.kind), spec.n, spec.t, spec.p, spec.d, _string(method), characteristic)
    pd, reg = _write_entries(write, head, items, _JSON_LAYOUT)
    timing_ms = (time.perf_counter() - start) * 1000.0
    rows = [_DIFF % (i, j, a, b) for (i, j), (a, b) in diff.items()]
    write(_TAIL % (pd, reg, repr(round(timing_ms, 3)), ',\n  "diff": ' + _list(rows) if method == "both" else ""))


def _diagram_bytes(spec: PathFamilySpec) -> int:
    """The most bytes the closed table's diagram can take, bounded without counting it.

    The diagram has reg + 3 lines, each of 8 + (pd + 1)(w + 1) bytes at
    most for a column width w, when every row label has five digits or
    fewer, which holds wherever this bound is under 6·10^9.  No value or
    column total passes 2^n, so w <= max(2, W) with W = ⌊n·log10 2⌋ + 1,
    bounded in integers by 0.30103 > log10 2.  For both kinds pd <= 2p + 1
    and reg <= (t - 1)(p + 1).
    """
    p, width = spec.p, max(2, spec.n * 30103 // 100000 + 1)
    return ((spec.t - 1) * (p + 1) + 3) * (8 + (2 * p + 2) * (width + 1))


def _write_diagram(write: Callable[[str], object], items: Iterable[tuple[int, int, int, str]]) -> tuple[int, int]:
    """Write the Macaulay-style Betti diagram of the entries, rows j - i and columns i; their pd and reg.

    Only the values, by j - i and then i, and the column totals are
    kept, the implicit 1 in degree (0, 0) included, and each row is
    rendered as it is written.  The columns are as wide as the widest
    total, and at least 2: no value is wider than its column's total.
    """
    rows, totals = defaultdict(dict), defaultdict(int)
    rows[0][0] = totals[0] = 1
    for i, j, value, _ in items:
        rows[j - i][i] = value
        totals[i] += value
    pd, reg = max(totals), max(rows)
    width = max(2, len(str(max(totals.values()))))
    write(" " * 7 + " ".join(str(i).rjust(width) for i in range(pd + 1)) + "\n")
    write("total: " + " ".join(str(totals[i]).rjust(width) for i in range(pd + 1)) + "\n")
    for r in range(reg + 1):
        row = rows.pop(r, {})
        write(f"{r:>5}: " + " ".join(str(row.get(i) or ".").rjust(width) for i in range(pd + 1)) + "\n")
    return pd, reg


def cmd_betti(args: SimpleNamespace) -> int:
    try:
        spec = PathFamilySpec(args.kind, args.n, args.t)
        field = FieldSpec(args.char)
        if args.method in ("oracle", "both"):
            check_vertex_cap(spec.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    start = time.perf_counter()
    diff = {}
    if args.method == "closed":
        if args.format == "pretty" and (size := _diagram_bytes(spec)) > MAX_CLOSED_BYTES:
            raise OracleCapError(f"the closed diagram of the {spec.kind} ({spec.n}, {spec.t}) could take {size} "
                                 f"bytes, over the closed route's budget of {MAX_CLOSED_BYTES}")
        items = _closed_entries(spec)
    else:
        table = oracle = _oracle_table(_path_masks(spec), spec.n, field)
        if args.method == "both":
            table = betti_closed_cycle(spec) if spec.kind == "cycle" else betti_closed_line(spec)
            diff = table.diff(oracle)
        items = table.items()

    if args.format == "json":
        _write_record(sys.stdout.write, spec, args.method, field.characteristic, items, start, diff)
    elif args.format == "csv":
        row = f"{spec.kind},{spec.n},{spec.t},%d,%d,%d,%s"
        _write_entries(sys.stdout.write, "kind,n,t,i,j,beta,method", items, (row, str, "\n", "\n", "\n", "\n"))
    else:
        pd, reg = _write_diagram(sys.stdout.write, items)
        print(f"pd = {pd}, reg = {reg}  ({spec.kind}, n={spec.n}, t={spec.t})")
        if args.method == "both":
            print("oracle and closed form " + ("DISAGREE" if diff else "agree"))
    return EXIT_VERIFY if diff else EXIT_OK


def cmd_homology(args: SimpleNamespace) -> int:
    try:
        if (args.runs is None) == (args.kind is None):
            raise ValueError("give exactly one of --runs or --kind cycle")
        if args.runs is not None and args.n is not None:
            raise ValueError("--n goes with --kind cycle, not with --runs")
        field = FieldSpec(args.char)
        if args.runs is not None:
            seq = RunSequence(tuple(int(s) for s in args.runs.split(",")))
            summary = homology_run_sequence(args.t, seq)
            keys = '"runs": %s,\n  "t": %d' % (_list(["%d" % s for s in seq.lengths]), args.t)
            vertices, build = vertex_count_of_runs(seq, args.t), functools.partial(_run_masks, seq, args.t)
        else:
            if args.n is None:
                raise ValueError("--kind cycle needs --n")
            spec = PathFamilySpec("cycle", args.n, args.t)
            summary = homology_cycle_complement(spec)
            keys = '"kind": "cycle",\n  "n": %d,\n  "t": %d' % (spec.n, spec.t)
            vertices, build = spec.n, functools.partial(_path_masks, spec)
        if args.explicit:
            check_vertex_cap(vertices)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    tail, match = "", True
    if args.explicit:
        vector = _complement_vector(build(), vertices, field)
        match = vector == summary.as_vector()
        tail = _EXPLICIT % (_list([_PAIR % pair for pair in sorted(vector.items())]), "true" if match else "false")
    degree = summary.nonzero_degree
    print(_HOMOLOGY % (keys, "null" if degree is None else "%d" % degree, summary.dimension, tail))
    return EXIT_OK if match else EXIT_VERIFY


def run_verification(cells: Sequence[tuple[int, int]], fields: Sequence[FieldSpec]) -> list[str]:
    """Cross-check matrix over the cycle cells (n, t), t = n included; returns one PASS or FAIL line per check.

    A FAIL line ends with what disagreed.  The oracle's vertex cap is not
    checked here; ``cmd_verify`` checks the largest n against it before
    calling.  The cells are worked from the largest n down, and in each
    the line's oracle tables are asked for before the cycle's, so that
    one translation search per t answers every line, and every cycle's
    line on n - 1 vertices, from its memo (``betti._pattern_terms``).
    The lines still come out cell by cell in the order given.
    """
    done: dict[tuple[int, int], list[str]] = {}

    def check(ok: bool, label: str, detail: str) -> None:
        lines.append(f"PASS {label}" if ok else f"FAIL {label}: {detail}")

    def check_tables(closed: BettiTable, oracle: BettiTable, label: str) -> None:
        diff = closed.diff(oracle)
        bad = next(iter(diff), None)
        detail = f"first mismatch at (i,j)={bad}: closed={diff[bad][0]} oracle={diff[bad][1]}" if diff else ""
        check(not diff, label, detail)

    for n, t in sorted(cells, reverse=True):
        lines = done[n, t] = []  # where check writes, one list per cell
        spec = PathFamilySpec("cycle", n, t)
        masks = _path_masks(spec)
        expected = homology_cycle_complement(spec).as_vector()
        for field in fields:
            got = _complement_vector(masks, n, field)
            check(
                got == expected,
                f"n={n} t={t} char={field.characteristic} cycle-complement-homology",
                f"explicit={got} closed={expected}",
            )
        line_spec = PathFamilySpec("line", n, t)
        line_masks = _path_masks(line_spec)
        line_oracles = [_oracle_table(line_masks, n, field) for field in fields]
        closed = betti_closed_cycle(spec)
        oracles = [_oracle_table(masks, n, field) for field in fields]
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
        line_closed = betti_closed_line(line_spec)
        for field, oracle in zip(fields, line_oracles):
            check_tables(line_closed, oracle, f"n={n} t={t} char={field.characteristic} line-closed-vs-oracle")
    return [line for cell in cells for line in done[cell]]


def cmd_verify(args: SimpleNamespace) -> int:
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
    if not cells:
        print("warning: empty verification range, nothing to do")
    lines = run_verification(cells, fields)
    for line in lines:
        print(line)
    failures = sum(line.startswith("FAIL") for line in lines)
    print(f"{len(lines)} checks, {failures} failures")
    return EXIT_VERIFY if failures else EXIT_OK


_COMMANDS = {"betti": cmd_betti, "homology": cmd_homology, "verify": cmd_verify}


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read(argv) or SimpleNamespace(**vars(_build_parser().parse_args(argv)))
    try:
        return _COMMANDS[args.command](args)
    except OracleCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
