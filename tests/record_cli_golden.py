"""Record the CLI's output on a fixed argument set into tests/data/cli_golden.json.

Usage, from the repository root:

    PYTHONPATH=src python tests/record_cli_golden.py [OUTPUT]

Every case runs ``shiftspace.cli.run`` in process with COLUMNS=80 and keeps
its stdout, stderr, exit code and, for export runs, the exported edge list.
Spec files are written into a temporary directory whose path is stored as
``{tmp}``.  tests/test_cli_golden.py replays the file and requires the same
bytes; it never runs this script.  Re-record only when an output is meant
to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

SPECS = {
    "golden.txt": "# comments are skipped\nk = 2\n11\n",
    "three.txt": "k=3\n11\n22\n",
    "wide.txt": "k = 11\n10,10\n0,10\n",
    "reducible.txt": "k=3\n01\n02\n10\n20\n",
    "long.txt": "k=2\n11111\n",
    "empty.txt": "k=2\n0\n1\n",
    "tmk-12-2.txt": "k=2\n" + "".join("1" + "0" * j + "1\n" for j in range(12)),
    "dead-end.txt": "k=2\n110\n111\n",
    "bad-block.txt": "k=2\n1x\n",
    "out-of-alphabet.txt": "k=2\n12\n",
    "no-header.txt": "11\n",
    "duplicate-header.txt": "k=2\nk=3\n",
}

FORMATS = ("text", "csv", "json")

# Each of these runs once per format.
FORMATTED = [
    ["count", "--tmk", "1,2", "--n", "4"],
    ["count", "--tmk", "3,5", "--n", "30"],
    ["count", "--tmk", "1,2", "--n", "0"],
    ["count", "--tmk", "1,2", "--n", "300"],
    ["count", "--spec", "{tmp}/golden.txt", "--n", "7"],
    ["count", "--spec", "{tmp}/wide.txt", "--n", "3"],
    ["count", "--spec", "{tmp}/reducible.txt", "--n", "5"],
    ["count", "--spec", "{tmp}/empty.txt", "--n", "3"],
    ["count", "--tmk", "1,2", "--n", "-3"],
    ["count", "--spec", "{tmp}/missing.txt", "--n", "4"],
    ["count", "--spec", "{tmp}/bad-block.txt", "--n", "4"],
    ["count", "--spec", "{tmp}/out-of-alphabet.txt", "--n", "4"],
    ["count", "--spec", "{tmp}/no-header.txt", "--n", "4"],
    ["count", "--spec", "{tmp}/duplicate-header.txt", "--n", "4"],
    ["enumerate", "--tmk", "1,2", "--n", "3"],
    ["enumerate", "--tmk", "1,2", "--n", "3", "--order", "constructive"],
    ["enumerate", "--tmk", "2,3", "--n", "4"],
    ["enumerate", "--tmk", "2,3", "--n", "4", "--order", "constructive"],
    ["enumerate", "--tmk", "2,3", "--n", "0", "--order", "constructive"],
    ["enumerate", "--spec", "{tmp}/wide.txt", "--n", "2"],
    ["enumerate", "--spec", "{tmp}/golden.txt", "--n", "0"],
    ["enumerate", "--spec", "{tmp}/empty.txt", "--n", "2"],
    ["enumerate", "--spec", "{tmp}/golden.txt", "--n", "3", "--order", "constructive"],
    ["enumerate", "--tmk", "1,2", "--n", "30"],
    ["enumerate", "--tmk", "1,2", "--n", "-1"],
    ["sequence", "--tmk", "1,2", "--n-max", "10"],
    ["sequence", "--tmk", "2,5", "--n-max", "25"],
    ["sequence", "--tmk", "1,2", "--n-max", "150"],
    ["sequence", "--three-symbol", "--n-max", "12"],
    ["sequence", "--spec", "{tmp}/golden.txt", "--n-max", "8"],
    ["sequence", "--spec", "{tmp}/reducible.txt", "--n-max", "6"],
    ["sequence", "--tmk", "1,2", "--n-max", "0"],
    ["sequence", "--three-symbol", "--n-max", "0"],
    ["entropy", "--tmk", "1,2"],
    ["entropy", "--tmk", "2,3", "--method", "both"],
    ["entropy", "--tmk", "1,3", "--base", "2"],
    ["entropy", "--tmk", "3,4", "--base", "10", "--method", "matrix"],
    ["entropy", "--tmk", "2,2", "--tol", "1e-6", "--method", "both"],
    ["entropy", "--spec", "{tmp}/golden.txt"],
    ["entropy", "--spec", "{tmp}/three.txt", "--base", "2"],
    ["entropy", "--spec", "{tmp}/wide.txt", "--method", "auto"],
    ["entropy", "--spec", "{tmp}/golden.txt", "--method", "poly"],
    ["entropy", "--spec", "{tmp}/empty.txt"],
    ["entropy", "--tmk", "2000,1000"],
    ["entropy", "--tmk", "100000,2"],
    ["entropy", "--tmk", "1,2", "--tol", "0"],
    ["entropy", "--tmk", "1,2", "--tol", "nan"],
    ["entropy", "--tmk", "1,2", "--tol", "-1", "--method", "matrix"],
    ["verify", "--tmk", "1,2", "--n-max", "6"],
    ["verify", "--tmk", "2,3", "--n-max", "14"],
    ["verify", "--tmk", "3,2"],
    ["verify", "--spec", "{tmp}/golden.txt"],
    ["verify", "--spec", "{tmp}/golden.txt", "--n-max", "3"],
    ["verify", "--spec", "{tmp}/three.txt", "--n-max", "12"],
    ["verify", "--spec", "{tmp}/wide.txt", "--n-max", "5"],
    ["verify", "--spec", "{tmp}/long.txt", "--n-max", "9"],
    ["verify", "--spec", "{tmp}/long.txt", "--n-max", "2"],
    ["verify", "--spec", "{tmp}/reducible.txt", "--n-max", "10"],
    ["verify", "--spec", "{tmp}/dead-end.txt", "--n-max", "10"],
    ["verify", "--spec", "{tmp}/empty.txt", "--n-max", "4"],
    ["verify", "--spec", "{tmp}/tmk-12-2.txt", "--n-max", "20"],
    ["verify", "--tmk", "1,2", "--n-max", "0"],
    ["design", "--target-ratio", "5", "--m", "1"],
    ["design", "--target-ratio", "1.5", "--m", "1"],
    ["design", "--target-ratio", "2", "--m", "2"],
    ["design", "--target-ratio", "1e200", "--m", "3"],
    ["design", "--target-ratio", "nan", "--m", "1"],
    ["design", "--target-ratio", "-1", "--m", "1"],
    ["design", "--target-ratio", "5"],
    ["design", "--target-ratio", "5", "--m", "0"],
    ["design", "--target-entropy", "0.6931471805599453"],
    ["design", "--target-entropy", "1", "--base", "2", "--m-range", "1..3", "--k-range", "2..30"],
    ["design", "--target-entropy", "1.2", "--tol", "0.05"],
    ["design", "--target-entropy", "5"],
    ["design", "--target-entropy", "0"],
    ["design", "--target-entropy", "inf"],
    ["design", "--target-entropy", "1", "--tol", "0"],
    ["design", "--target-entropy", "1", "--m-range", "3..1"],
    ["table", "--m-range", "1..1", "--k-range", "2..3"],
    ["table"],
    ["table", "--m-range", "2..3", "--k-range", "4..6", "--base", "10"],
    ["table", "--m-range", "1,1", "--k-range", "2,2", "--base", "2"],
    ["table", "--k-range", "1..3"],
    ["table", "--m-range", "0..2"],
    # usage errors, reported by argparse
    ["count", "--tmk", "1", "--n", "4"],
    ["count", "--tmk", "0,2", "--n", "4"],
    ["count", "--tmk", "1,x", "--n", "4"],
    ["count", "--tmk", "1,2", "--n", "abc"],
    ["count", "--tmk", "1,2", "--n", "4", "--bogus"],
    ["count", "--tmk", "1,2", "--spec", "{tmp}/golden.txt", "--n", "4"],
    ["count", "--n", "4"],
    ["entropy", "--tmk", "1,2", "--method", "fast"],
    ["design", "--target-entropy", "1", "--target-ratio", "2", "--m", "1"],
    ["table", "--m-range", "1..x"],
]

# Export runs: the exported file is recorded next to the output.
EXPORTS = [
    ["entropy", "--tmk", "2,3", "--export-automaton", "{tmp}/edges.txt"],
    ["entropy", "--spec", "{tmp}/golden.txt", "--method", "matrix", "--export-automaton", "{tmp}/edges.txt"],
    ["entropy", "--tmk", "1,2", "--method", "poly", "--export-automaton", "{tmp}/edges.txt"],
    ["verify", "--tmk", "1,2", "--n-max", "4", "--export-automaton", "{tmp}/edges.txt"],
    ["verify", "--spec", "{tmp}/long.txt", "--n-max", "6", "--export-automaton", "{tmp}/edges.txt"],
    ["verify", "--spec", "{tmp}/empty.txt", "--n-max", "3", "--export-automaton", "{tmp}/edges.txt"],
    ["verify", "--tmk", "1,2", "--export-automaton", "{tmp}/no-such-dir/edges.txt"],
]

# Runs once each, with no --format.
PLAIN = [
    [],
    ["--help"],
    ["count", "--help"],
    ["enumerate", "--help"],
    ["sequence", "--help"],
    ["entropy", "--help"],
    ["verify", "--help"],
    ["design", "--help"],
    ["table", "--help"],
    ["frobnicate"],
]

EXPORT_NAME = "edges.txt"


def cases() -> list[list[str]]:
    """Every recorded argv, with {tmp} standing for the spec directory."""
    formatted = FORMATTED + EXPORTS
    return [argv + ["--format", fmt] for argv in formatted for fmt in FORMATS] + PLAIN


def run_case(run, argv: list[str], tmp: str) -> dict:
    """One in-process run, with the spec directory written back as {tmp}."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run([arg.replace("{tmp}", tmp) for arg in argv])
    export = Path(tmp) / EXPORT_NAME
    exported = export.read_text() if export.exists() else None
    if exported is not None:
        export.unlink()
    return {
        "argv": argv,
        "code": code,
        "stdout": stdout.getvalue().replace(tmp, "{tmp}"),
        "stderr": stderr.getvalue().replace(tmp, "{tmp}"),
        "exported": exported,
    }


def main() -> None:
    from shiftspace.cli import run

    output = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "data" / "cli_golden.json"
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in SPECS.items():
            (Path(tmp) / name).write_text(text)
        recorded = [run_case(run, argv, tmp) for argv in cases()]
    document = {
        "python": list(sys.version_info[:2]),
        "export_name": EXPORT_NAME,
        "specs": SPECS,
        "cases": recorded,
    }
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(document, indent=1) + "\n")
    print(f"{len(recorded)} cases written to {output}")


if __name__ == "__main__":
    main()
