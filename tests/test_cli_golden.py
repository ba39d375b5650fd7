"""Byte-identity gate: the CLI's recorded outputs must not change.

tests/data/cli_golden.json holds, for every subcommand x format on a fixed
argument set, spec files, error exits, export runs and each ``--help``,
the stdout, stderr, exit code and exported edge list.  It is written by
tests/record_cli_golden.py, which this test never runs.
"""

import json
import sys
from pathlib import Path

import pytest

from shiftspace.cli import _build_parser, _command_of, run

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def _argparse_exits(argv) -> bool:
    """Whether argparse itself ends the run: help or a usage error.

    Their text is argparse's, whose layout changes between Python versions.
    """
    try:
        _build_parser().parse_args(argv)
    except SystemExit:
        return True
    return False


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[" ".join(case["argv"]) or "(no arguments)" for case in GOLDEN["cases"]]
)
def test_cli_output_matches_golden(case, capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COLUMNS", "80")
    for name, text in GOLDEN["specs"].items():
        (tmp_path / name).write_text(text)
    tmp = str(tmp_path)
    argv = [arg.replace("{tmp}", tmp) for arg in case["argv"]]
    if list(sys.version_info[:2]) != GOLDEN["python"] and _argparse_exits(argv):
        pytest.skip(f"argparse text recorded on Python {GOLDEN['python']}")
    capsys.readouterr()
    code = run(argv)
    captured = capsys.readouterr()
    export = tmp_path / GOLDEN["export_name"]
    assert captured.out.replace(tmp, "{tmp}") == case["stdout"]
    assert captured.err.replace(tmp, "{tmp}") == case["stderr"]
    assert code == case["code"]
    assert (export.read_text() if export.exists() else None) == case["exported"]


def _parse(parser, argv, capsys):
    """Exit code (None when the parse succeeds), stdout, stderr and parsed values of one parse.

    The values are compared by repr, since a nan option is unequal to itself.
    """
    capsys.readouterr()
    try:
        values, code = repr(sorted(vars(parser.parse_args(argv)).items())), None
    except SystemExit as exc:
        values, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, values


# arguments before the command that argparse skips or stops at
DISPATCH_CASES = [
    ["--", "count", "--tmk", "1,2", "--n", "4"],
    ["-x", "count", "--tmk", "1,2", "--n", "4"],
    ["--format", "json", "count", "--tmk", "1,2", "--n", "4"],
    ["-", "count", "--tmk", "1,2", "--n", "4"],
    ["-3", "table"],
    ["-h", "count"],
    ["--he", "verify"],
]


@pytest.mark.parametrize(
    "argv",
    [case["argv"] for case in GOLDEN["cases"]] + DISPATCH_CASES,
    ids=[" ".join(case["argv"]) or "(no arguments)" for case in GOLDEN["cases"]]
    + [" ".join(argv) for argv in DISPATCH_CASES],
)
def test_one_command_parser_parses_as_the_full_parser(argv, capsys, monkeypatch, tmp_path):
    # run() adds options to the command _command_of names; its exit code,
    # help, usage errors and Namespace must be the full parser's, on every
    # Python version, where the golden replay skips argparse's own text
    monkeypatch.setenv("COLUMNS", "80")
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    full = _parse(_build_parser(), argv, capsys)
    assert _parse(_build_parser(_command_of(argv)), argv, capsys) == full
