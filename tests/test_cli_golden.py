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

from shiftspace.cli import _build_parser, run

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
