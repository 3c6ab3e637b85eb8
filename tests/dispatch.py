"""``cli.main`` against a plain ``parse_args`` of the whole command line.

``main`` reads a well-formed command line itself and hands anything
else to the full parse.  Each case below runs both ways in-process;
stdout (``timing_ms`` blanked), stderr and the returned or ``SystemExit``
code must be equal.  Standard library only, so that it also runs where
pytest is not installed:

    PYTHONPATH=src python tests/dispatch.py
"""

from __future__ import annotations

import contextlib
import io
import re
import sys

from pathbetti import cli

_CYCLE = ["--kind", "cycle", "--n", "5", "--t", "2"]

CASES = [
    [],
    ["-h"],
    ["--help", "betti"],
    ["bogus"],
    ["ver"],
    ["--n", "5", "betti", "--kind", "cycle", "--t", "2"],
    ["betti", "-h"],
    ["betti", *_CYCLE, "-h"],
    ["homology", "-h"],
    ["verify", "--help"],
    ["betti"],
    ["betti", "--n", "5", "--t", "2"],
    ["betti", "--kind", "square", "--n", "5", "--t", "2"],
    ["betti", *_CYCLE, "--format", "xml"],
    ["betti", "--kind", "cycle", "--n", "five", "--t", "2"],
    ["betti", "--kind", "cycle", "--n", "-5", "--t", "2"],
    ["betti", "--kind", "cycle", "--n", "--t", "2"],
    ["betti", *_CYCLE, "--n", "6", "--method", "closed"],
    ["betti", *_CYCLE, "--bogus"],
    ["betti", *_CYCLE, "--bogus=1"],
    ["betti", *_CYCLE, "extra"],
    ["betti", "--kind=cycle", "--n=5", "--t=2", "--method=closed"],
    ["betti", *_CYCLE, "--me", "closed"],
    ["betti", *_CYCLE, "--method", "closed", "--"],
    ["betti", "--", *_CYCLE],
    ["betti", *_CYCLE, "--method", "both", "--format", "pretty"],
    ["betti", "--kind", "line", "--n", "6", "--t", "3", "--format", "csv"],
    ["betti", "--kind", "cycle", "--n", "23", "--t", "2", "--method", "oracle"],
    ["betti", *_CYCLE, "--char", "4"],
    ["homology", "--runs", "3", "--n", "5", "--t", "2"],
    ["homology", "--runs", "4,2,1", "--t", "2", "--explicit"],
    ["homology", "--kind", "cycle", "--n", "9", "--t", "2", "--explicit", "--char", "2"],
    ["homology", "--ki", "cycle", "--n", "9", "--t", "2"],
    ["homology", "--t", "2"],
    ["homology", "--runs", "4,2"],
    ["verify", "--max-n", "5", "--t-range", "2..3"],
    ["verify", "--max-n", "x"],
    ["verify", "--t", "2..3", "--max-n", "4"],
    ["verify", "--max-n", "30"],
    ["betti", *_CYCLE, "--method", "closed", "--method", "oracle"],
    ["homology", "--runs", "4,2,1", "--explicit", "--t", "2", "--explicit"],
    ["homology", "--runs", "4,2", "--explicit", "yes", "--t", "2"],
    ["betti", *_CYCLE, "--char", "-1"],
    ["betti", "--kind", "cycle", "--n", "+5", "--t", "2"],
    ["betti", "--kind", "cycle", "--n", " 5", "--t", "2"],
    ["betti", "--kind", "cycle", "--n", "1_0", "--t", "2"],
    ["betti", "--kind", "cycle", "--n", "\u0665", "--t", "2"],
    ["homology", "--runs", "", "--t", "2"],
    ["homology", "--t", "2", "--runs", "-h"],
    ["verify", "--t-range", "4"],
    ["betti", *_CYCLE, "--format"],
    ["homology", "--kind", "cycle", "--runs", "3", "--t", "2"],
]


def reference(argv: list[str]) -> int:
    """What ``main`` did before it dispatched: one parse of the whole command line."""
    args = cli._build_parser().parse_args(argv)
    try:
        return cli._COMMANDS[args.command](args)
    except cli.OracleCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.EXIT_RESOURCE


def outcome(run, argv: list[str]) -> tuple[str, str, str, object]:
    """(stdout with ``timing_ms`` blanked, stderr, "return" or "exit", code) of ``run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            how, code = "return", run(list(argv))
        except SystemExit as exc:
            how, code = "exit", exc.code
    return re.sub(r'"timing_ms": [^,\n]+', '"timing_ms": _', out.getvalue()), err.getvalue(), how, code


if __name__ == "__main__":
    differ = [argv for argv in CASES if outcome(cli.main, argv) != outcome(reference, argv)]
    for argv in differ:
        print("differs:", argv)
    print(f"{len(CASES) - len(differ)} of {len(CASES)} cases agree, Python {sys.version.split()[0]}")
    sys.exit(1 if differ else 0)
