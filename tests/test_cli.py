"""Tests for the command-line interface: outputs, formats, exit codes."""

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftspace import (
    ConvergenceError,
    EmptyShiftSpaceError,
    OutOfAlphabetError,
    ParameterError,
    ParseError,
    ResourceLimitError,
    ShiftSpaceError,
    TmkParams,
    ValidationError,
    cli,
    enumeration,
    recurrence,
    tmk_spec,
    transfer,
)
from shiftspace.cli import run

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "schema"


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_schema(out: str, name: str) -> dict:
    document = json.loads(out)
    schema = json.loads((SCHEMA_DIR / f"{name}.json").read_text())
    jsonschema.validate(instance=document, schema=schema)
    return document


@pytest.fixture
def golden_file(tmp_path):
    path = tmp_path / "golden.txt"
    path.write_text("# comments are skipped\nk = 2\n11\n")
    return str(path)


def test_count_text(capsys):
    code, out, _ = run_cli(capsys, "count", "--tmk", "1,2", "--n", "4")
    assert code == 0
    assert out == "8\n"


def test_count_short_flag(capsys):
    code, out, _ = run_cli(capsys, "count", "--tmk", "1,2", "-n", "4")
    assert code == 0
    assert out == "8\n"


def test_count_csv(capsys):
    code, out, _ = run_cli(capsys, "count", "--tmk", "1,2", "--n", "4", "--format", "csv")
    assert code == 0
    assert out == "n,count\n4,8\n"


def test_count_json(capsys):
    code, out, _ = run_cli(capsys, "count", "--tmk", "1,2", "--n", "4", "--format", "json")
    assert code == 0
    doc = check_schema(out, "count")
    assert doc == {"command": "count", "n": 4, "count": "8"}


def test_count_big_value_stays_exact(capsys):
    code, out, _ = run_cli(capsys, "count", "--tmk", "1,2", "--n", "90", "--format", "json")
    assert code == 0
    assert check_schema(out, "count")["count"] == "7540113804746346429"


def test_count_from_spec_file(capsys, golden_file):
    code, out, _ = run_cli(capsys, "count", "--spec", golden_file, "--n", "4")
    assert code == 0
    assert out == "8\n"


def test_enumerate_text(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--tmk", "1,2", "--n", "2")
    assert code == 0
    assert out == "00\n01\n10\n"


def test_enumerate_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--tmk", "1,2", "--n", "2", "--format", "csv")
    assert code == 0
    assert out == "block\n00\n01\n10\n"


def test_enumerate_json(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--tmk", "1,2", "--n", "2", "--format", "json")
    assert code == 0
    doc = check_schema(out, "enumerate")
    assert doc["blocks"] == ["00", "01", "10"]
    assert doc["order"] == "lex"


def test_enumerate_constructive(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--tmk", "1,2", "--n", "3", "--order", "constructive"
    )
    assert code == 0
    assert out == "000\n010\n100\n001\n101\n"


def test_enumerate_constructive_needs_tmk(capsys, golden_file):
    code, _, err = run_cli(
        capsys, "enumerate", "--spec", golden_file, "--n", "3", "--order", "constructive"
    )
    assert code == 1
    assert "constructive" in err


def test_enumerate_wide_alphabet_commas(capsys, tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text("k = 11\n10,10\n")
    code, out, _ = run_cli(capsys, "enumerate", "--spec", str(path), "--n", "1", "--format", "json")
    assert code == 0
    assert check_schema(out, "enumerate")["blocks"] == [str(s) for s in range(11)]


@pytest.mark.parametrize("k, line", [(2, "0\u00b2"), (11, "1,\u00b2")])
def test_spec_digits_int_cannot_read_are_an_error(capsys, tmp_path, k, line):
    path = tmp_path / "superscript.txt"
    path.write_text(f"k={k}\n{line}\n")
    code, out, err = run_cli(capsys, "count", "--spec", str(path), "--n", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("shiftspace: error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_spec_reads_decimal_digits_of_any_script(capsys, tmp_path):
    path = tmp_path / "arabic-indic.txt"
    path.write_text("k=2\n\u0661\u0661\n")
    assert run_cli(capsys, "count", "--spec", str(path), "--n", "4") == (0, "8\n", "")


def test_sequence_text(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--tmk", "1,2", "--n-max", "4")
    assert code == 0
    assert out == "2,3,5,8\n"


def test_sequence_three_symbol(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--three-symbol", "--n-max", "4")
    assert code == 0
    assert out == "3,7,17,41\n"


def test_sequence_csv(capsys):
    code, out, _ = run_cli(capsys, "sequence", "--tmk", "1,2", "--n-max", "3", "--format", "csv")
    assert code == 0
    assert out == "n,count\n1,2\n2,3\n3,5\n"


def test_sequence_json(capsys):
    code, out, _ = run_cli(
        capsys, "sequence", "--three-symbol", "--n-max", "5", "--format", "json"
    )
    assert code == 0
    doc = check_schema(out, "sequence")
    assert doc["counts"] == ["3", "7", "17", "41", "99"]
    assert doc["n_max"] == 5


def test_sequence_validation(capsys):
    code, _, err = run_cli(capsys, "sequence", "--tmk", "1,2", "--n-max", "0")
    assert code == 1
    assert "error" in err


def test_entropy_text_golden(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--tmk", "1,2")
    assert code == 0
    assert out == (
        "lambda0=1.61803398874989 entropy=0.481211825059603 "
        "log_base=e method=closed-form residual=0\n"
    )


def test_entropy_base_two_doubling(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--tmk", "1,3", "--base", "2")
    assert code == 0
    assert out == "lambda0=2 entropy=1 log_base=2 method=closed-form residual=0\n"


def test_entropy_both_methods(capsys):
    code, out, _ = run_cli(
        capsys, "entropy", "--tmk", "2,2", "--method", "both", "--format", "json"
    )
    assert code == 0
    doc = check_schema(out, "entropy")
    assert [r["method"] for r in doc["reports"]] == ["polynomial", "transfer-matrix"]
    assert abs(doc["reports"][0]["lambda0"] - doc["reports"][1]["lambda0"]) < 1e-8


def test_entropy_spec_uses_matrix(capsys, golden_file):
    code, out, _ = run_cli(capsys, "entropy", "--spec", golden_file, "--format", "json")
    assert code == 0
    doc = check_schema(out, "entropy")
    assert [r["method"] for r in doc["reports"]] == ["transfer-matrix"]
    assert abs(doc["reports"][0]["entropy"] - 0.4812118250596035) < 1e-9


def test_entropy_poly_needs_tmk(capsys, golden_file):
    code, _, err = run_cli(capsys, "entropy", "--spec", golden_file, "--method", "poly")
    assert code == 1
    assert "--tmk" in err


def test_entropy_csv(capsys):
    code, out, _ = run_cli(capsys, "entropy", "--tmk", "1,3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "method,lambda0,entropy,log_base,residual"
    assert out.splitlines()[1].startswith("closed-form,2,")


def test_entropy_export_automaton(capsys, tmp_path):
    target = tmp_path / "edges.txt"
    code, _, _ = run_cli(
        capsys, "entropy", "--tmk", "1,2", "--export-automaton", str(target)
    )
    assert code == 0
    assert target.read_text() == "0 0 0\n0 1 1\n1 0 0\n"


@pytest.mark.parametrize("method", ["matrix", "both", "poly"])
def test_entropy_export_builds_the_automaton_once(capsys, tmp_path, monkeypatch, method):
    _, plain, _ = run_cli(capsys, "entropy", "--tmk", "2,3", "--method", method)
    builds = []
    build = transfer.build_automaton

    def counting(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(transfer, "build_automaton", counting)
    target = tmp_path / "edges.txt"
    code, out, _ = run_cli(
        capsys, "entropy", "--tmk", "2,3", "--method", method, "--export-automaton", str(target)
    )
    assert code == 0
    assert out == plain
    assert len(builds) == 1
    assert target.read_text() == transfer.edge_list_text(build(tmk_spec(TmkParams(2, 3))))


def test_entropy_checks_tol_before_building(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the automaton was built")

    monkeypatch.setattr(transfer, "build_automaton", refuse)
    target = tmp_path / "edges.txt"
    code, out, err = run_cli(
        capsys, "entropy", "--tmk", "1,2", "--tol", "-1", "--method", "matrix",
        "--export-automaton", str(target),
    )
    assert (code, out) == (1, "")
    assert err == "shiftspace: error: tol must be a positive number, got -1.0\n"
    assert not target.exists()


def test_entropy_convergence_failure_exit_code(capsys, monkeypatch):
    def stuck(m, k, log_base="e"):
        raise ConvergenceError("stuck", last_estimate=1.0, residual=1.0, iterations=5)

    monkeypatch.setattr("shiftspace.spectral.entropy_tmk", stuck)
    code, out, err = run_cli(capsys, "entropy", "--tmk", "1,2")
    assert code == 2
    assert out == ""
    assert err == "shiftspace: numeric error: stuck (last_estimate=1 residual=1 iterations=5)\n"


def test_entropy_underflow_exits_two_without_traceback(capsys, tmp_path):
    # state 3 loops only on itself and its power-iteration entry underflows
    path = tmp_path / "underflow.txt"
    path.write_text("k=4\n30\n31\n32\n")
    code, out, err = run_cli(capsys, "entropy", "--spec", str(path))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.endswith("(last_estimate=2 residual=1 iterations=1075)\n")


@pytest.fixture
def no_tmk_spec(monkeypatch):
    """Fails the test when the CLI builds a --tmk forbidden set."""

    def refuse(params):
        raise AssertionError("tmk_spec called")

    monkeypatch.setattr("shiftspace.core.tmk_spec", refuse)


def test_entropy_poly_never_builds_the_forbidden_set(capsys, no_tmk_spec):
    code, out, _ = run_cli(capsys, "entropy", "--tmk", "3,1000")
    assert code == 0
    assert "method=polynomial" in out
    code, _, _ = run_cli(capsys, "entropy", "--tmk", "3,1000", "--method", "poly")
    assert code == 0


@pytest.mark.parametrize(
    "n, expected", [("0", "1\n"), ("4", "1197\n"), ("40", "1856717437696188735126194412\n")]
)
def test_count_tmk_never_builds_the_forbidden_set(capsys, no_tmk_spec, n, expected):
    # tmk(3,300) has 268,203 forbidden blocks
    code, out, _ = run_cli(capsys, "count", "--tmk", "3,300", "--n", n)
    assert code == 0
    assert out == expected


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("text", "2,3,4\n"),
        ("csv", "n,count\n1,2\n2,3\n3,4\n"),
        ("json", '{"command": "sequence", "n_min": 1, "n_max": 3, "counts": ["2", "3", "4"]}\n'),
    ],
)
def test_sequence_tmk_never_builds_the_forbidden_set(capsys, no_tmk_spec, fmt, expected):
    # tmk(3,300) has 268,203 forbidden blocks, and tmk(100000,2) has 10^5
    # of up to 100001 symbols; the family's recurrence needs neither
    code, out, _ = run_cli(capsys, "sequence", "--tmk", "100000,2", "--n-max", "3", "--format", fmt)
    assert (code, out) == (0, expected)
    code, out, _ = run_cli(capsys, "sequence", "--tmk", "3,300", "--n-max", "4", "--format", fmt)
    assert code == 0 and "1197" in out
    code, out, err = run_cli(capsys, "sequence", "--tmk", "3,300", "--n-max", "0", "--format", fmt)
    assert (code, out) == (1, "")
    assert err == "shiftspace: error: n_max must be an integer >= 1, got 0\n"


@pytest.mark.parametrize(
    "argv, expected_code, expected_out",
    [
        (["entropy", "--tmk", "2000,1000"], 0, "lambda0=1.0060272043311 "),
        (["design", "--target-ratio", "1e200", "--m", "3"], 1, ""),
    ],
)
def test_float_overflow_ends_without_traceback(capsys, no_tmk_spec, argv, expected_code, expected_out):
    # in process, so an escaping OverflowError fails the test; tmk(2000,1000)
    # has about 2e9 forbidden blocks, which no_tmk_spec keeps from being built
    code, out, err = run_cli(capsys, *argv)
    assert code == expected_code
    assert out.startswith(expected_out)
    assert "Traceback" not in err


BEYOND_FLOAT = str(10**400)


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--tmk", f"1,{BEYOND_FLOAT}"],
        ["entropy", "--tmk", f"2,{BEYOND_FLOAT}", "--format", "json"],
        ["table", "--k-range", f"{BEYOND_FLOAT}..{BEYOND_FLOAT}"],
    ],
)
def test_k_beyond_float_range_exits_one_with_a_message(capsys, no_tmk_spec, argv):
    # in process, so an escaping OverflowError fails the test
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == (
        "shiftspace: error: k lies beyond float range (k >= 2^1328), "
        "so its growth rate cannot be computed in floats\n"
    )


M_BEYOND_FLOAT = str(10**309)


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--tmk", f"{M_BEYOND_FLOAT},2"],
        ["entropy", "--tmk", f"{M_BEYOND_FLOAT},2", "--format", "json"],
        ["table", "--m-range", f"{M_BEYOND_FLOAT}..{M_BEYOND_FLOAT}", "--k-range", "2..2"],
    ],
)
def test_m_beyond_float_range_exits_one_with_a_message(capsys, no_tmk_spec, argv):
    # in process, so an escaping OverflowError fails the test
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == (
        "shiftspace: error: m lies beyond float range (m >= 2^1026), "
        "so its growth rate cannot be computed in floats\n"
    )


HUGE_M = [pytest.param(10**309, id="10^309"), pytest.param(2**62, id="2^62")]


@pytest.mark.parametrize(("m", "bits"), [(10**309, 1026), (2**62, 62)], ids=["10^309", "2^62"])
def test_m_past_the_recurrence_tuples_exits_one_with_a_message(capsys, no_tmk_spec, m, bits):
    # in process, so an escaping OverflowError or MemoryError fails the test;
    # past n = m + 1 the count needs the recurrence of order m + 1
    code, out, err = run_cli(capsys, "count", "--tmk", f"{m},2", "--n", str(m + 2))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err == (
        f"shiftspace: error: m is too large for a recurrence of order m + 1 (m >= 2^{bits}): "
        "its tuples of m + 1 terms cannot be built\n"
    )


@pytest.mark.parametrize("m", HUGE_M)
def test_constructive_past_a_huge_m_is_refused_at_once(capsys, no_tmk_spec, m):
    # a(m + 1) = m + 2 is past the candidate cap, so no count is walked
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "enumerate", "--tmk", f"{m},2", "--n", str(m + 2), "--order", "constructive"
    )
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == (
        f"shiftspace: error: materializing the allowed blocks of length {m + 2} exceeds "
        "the cap of 16777216 blocks\n"
    )


PAST_MAXSIZE = str(10**20)
WORDS40 = str(Path(__file__).parent / "data" / "words40.txt")
N_MAX_PAST_MAXSIZE = (
    f"n_max = {PAST_MAXSIZE} is past the {sys.maxsize - 1} lengths a sequence of counts can index"
)


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["sequence", "--tmk", "1,2", "--n-max", PAST_MAXSIZE], N_MAX_PAST_MAXSIZE),
        (["sequence", "--spec", WORDS40, "--n-max", PAST_MAXSIZE], N_MAX_PAST_MAXSIZE),
        (["sequence", "--three-symbol", "--n-max", PAST_MAXSIZE], N_MAX_PAST_MAXSIZE),
        (["verify", "--tmk", "1,2", "--n-max", PAST_MAXSIZE], N_MAX_PAST_MAXSIZE),
        (
            ["enumerate", "--tmk", "1,2", "--n", PAST_MAXSIZE, "--order", "constructive"],
            f"materializing the allowed blocks of length {PAST_MAXSIZE} exceeds the cap of 16777216 blocks",
        ),
    ],
    ids=["sequence-tmk", "sequence-spec", "sequence-three-symbol", "verify", "enumerate-constructive"],
)
def test_lengths_past_maxsize_are_refused(capsys, argv, message):
    # islice refused such a stop with a ValueError traceback
    assert run_cli(capsys, *argv) == (1, "", f"shiftspace: error: {message}\n")


@pytest.mark.parametrize("m", [*HUGE_M, pytest.param(10**7, id="10^7")])
@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (["count", "--tmk", "{m},2", "--n", "3"], "4\n"),
        (["sequence", "--tmk", "{m},2", "--n-max", "3"], "2,3,4\n"),
        (["enumerate", "--tmk", "{m},2", "--n", "3", "--order", "constructive"], "000\n001\n010\n100\n"),
    ],
    ids=["count", "sequence", "enumerate"],
)
def test_spaced_family_at_a_huge_m_reads_only_the_terms_it_prints(
    capsys, no_tmk_spec, argv, expected, m
):
    # up to n = m + 1 the counts are 1 + n(k-1), so no recurrence of order
    # m + 1 is built; at m = 10^7 building it took 4 s and 554 MB
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *(arg.format(m=m) for arg in argv))
    assert time.perf_counter() - start < 1
    assert (code, out) == (0, expected)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    ("m", "k"),
    [
        pytest.param(10**309, 2, id="10^309,2"),
        pytest.param(transfer.MAX_STATES + 1, 2, id="cap+1,2"),
        pytest.param(1, 2000, id="1,2000"),
    ],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--tmk", "{m},{k}", "--n-max", "3"],
        ["entropy", "--tmk", "{m},{k}", "--method", "matrix"],
        ["enumerate", "--tmk", "{m},{k}", "--n", "2"],
    ],
    ids=["verify", "entropy", "enumerate"],
)
def test_a_family_past_the_state_cap_is_refused_before_its_forbidden_set(
    capsys, no_tmk_spec, argv, m, k
):
    # in process, so an escaping MemoryError fails the test; enumerate
    # --tmk 1,2000 --n 2 used to build 3,996,001 blocks for 3999 answers
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *(arg.format(m=m, k=k) for arg in argv))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err == (
        f"shiftspace: error: the spaced family's (k-1)^2 * m = {(k - 1) ** 2 * m} forbidden "
        f"blocks exceed the cap of {transfer.MAX_STATES}\n"
    )


def test_entropy_with_lambda_below_float_resolution_exits_one_with_a_message(capsys):
    # x^m and then expm1 overflow in the residual from about m = 10^19 on
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "entropy", "--tmk", f"{10**19},2")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert err == (
        "shiftspace: error: m = 10000000000000000000 puts lambda - 1 below float resolution, "
        "so the residual of the growth rate cannot be computed in floats\n"
    )
    code, out, _ = run_cli(capsys, "entropy", "--tmk", f"{10**18},2")
    assert code == 0
    assert out == "lambda0=1 entropy=2.22044604925031e-16 log_base=e method=polynomial residual=1\n"


def test_entropy_of_k_with_a_root_past_the_bisection_width_ends(capsys, no_tmk_spec):
    code, out, _ = run_cli(capsys, "entropy", "--tmk", f"1,{10**26}")
    assert code == 0
    assert out.startswith("lambda0=10000000000000.5 ")


def test_verify_text(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tmk", "1,2", "--n-max", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n enumeration matrix recurrence"
    assert lines[1] == "1 2 2 2"
    assert lines[6] == "6 21 21 21"
    assert lines[7] == "recurrence source: built-in (order 2)"
    assert lines[8] == "counts agree for n = 1..6"


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tmk", "2,2", "--format", "json")
    assert code == 0
    doc = check_schema(out, "verify")
    assert doc["agree"] is True
    assert doc["recurrence"]["source"] == "built-in"
    assert doc["recurrence"]["coefficients"] == [1, 0, 1]
    assert [row["enumeration"] for row in doc["rows"][:5]] == ["2", "3", "4", "6", "9"]


def test_verify_spec_infers_recurrence(capsys, golden_file):
    code, out, _ = run_cli(capsys, "verify", "--spec", golden_file, "--format", "json")
    assert code == 0
    doc = check_schema(out, "verify")
    assert doc["agree"] is True
    assert doc["recurrence"]["source"] == "inferred"
    assert doc["recurrence"]["coefficients"] == [1, 1]


def test_verify_spec_infers_order_above_eight(capsys, tmp_path):
    # tmk(12, 2) needs order 13, which --n-max 30 allows: (30 - 2) / 2 = 14
    path = tmp_path / "tmk-12-2.txt"
    path.write_text("k=2\n" + "".join("1" + "0" * j + "1\n" for j in range(12)))
    code, out, _ = run_cli(capsys, "verify", "--spec", str(path), "--n-max", "30")
    assert code == 0
    assert "recurrence source: inferred (order 13)" in out
    code, out, _ = run_cli(
        capsys, "verify", "--spec", str(path), "--n-max", "30", "--format", "json"
    )
    assert code == 0
    assert check_schema(out, "verify")["recurrence"]["coefficients"] == [1] + [0] * 11 + [1]


def test_verify_short_run_has_no_recurrence(capsys, golden_file):
    code, out, _ = run_cli(
        capsys, "verify", "--spec", golden_file, "--n-max", "3", "--format", "json"
    )
    assert code == 0
    doc = check_schema(out, "verify")
    assert doc["recurrence"] is None
    code, out, _ = run_cli(capsys, "verify", "--spec", golden_file, "--n-max", "3")
    assert code == 0
    assert "no recurrence available" in out


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--tmk", "1,2", "--n-max", "3", "--format", "csv")
    assert code == 0
    assert out == (
        "n,enumeration,matrix,recurrence,agree\n"
        "1,2,2,2,true\n2,3,3,3,true\n3,5,5,5,true\n"
    )


def test_verify_disagreement_exit_code(capsys, monkeypatch):
    def wrong(automaton):
        return itertools.repeat(999)

    # the matrix column is one walk of the path counts
    monkeypatch.setattr("shiftspace.transfer._path_counts", wrong)
    code, out, _ = run_cli(capsys, "verify", "--tmk", "1,2", "--n-max", "4")
    assert code == 3
    assert "MISMATCH" in out
    assert "counts disagree first at n = 1" in out


def test_verify_builds_and_walks_once(capsys, monkeypatch, tmp_path):
    calls = Counter()

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(enumeration, "count_sequence")
    counted(transfer, "build_automaton")
    counted(transfer, "_path_counts")
    counted(transfer, "count_via_matrix")
    counted(transfer, "_banned_codes")
    counted(recurrence, "_term_iter")
    counted(recurrence, "evaluate")
    target = tmp_path / "edges.txt"
    code, out, _ = run_cli(
        capsys, "verify", "--tmk", "2,3", "--n-max", "40", "--export-automaton", str(target)
    )
    assert code == 0
    assert "counts agree for n = 1..40" in out
    # the count stream serves every n, n = 1 below the automaton's window of 2 too
    assert calls == {
        "count_sequence": 1,
        "build_automaton": 1,
        "_banned_codes": 2,
        "_path_counts": 1,
        "_term_iter": 1,
    }
    assert target.read_text() == transfer.edge_list_text(
        transfer.build_automaton(tmk_spec(TmkParams(2, 3)))
    )
    # the window of 1^5 is 4: the forbidden codes are read once for the
    # build and once for the stream's layers, not again for each n below it
    calls.clear()
    path = tmp_path / "ones.txt"
    path.write_text("k=2\n11111\n")
    code, out, _ = run_cli(capsys, "verify", "--spec", str(path), "--n-max", "40")
    assert code == 0
    assert "counts agree for n = 1..40" in out
    assert calls["_banned_codes"] == 2
    assert "count_via_matrix" not in calls


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_verify_matrix_column_needs_no_counter(capsys, monkeypatch, tmp_path, fmt):
    # the window of 1^5 is 4, so n = 1..3 come from the count stream's own layers
    path = tmp_path / "ones.txt"
    path.write_text("k=2\n11111\n")
    argv = ["verify", "--spec", str(path), "--n-max", "12", "--format", fmt]
    expected = run_cli(capsys, *argv)
    assert expected[0] == 0

    walks = []
    count_iter = enumeration._count_iter

    def counted(out):
        walks.append(out)
        return count_iter(out)

    monkeypatch.setattr(enumeration, "_count_iter", counted)
    assert run_cli(capsys, *argv) == expected
    # the one walk is count_sequence's, for the enumeration column
    assert len(walks) == 1


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_verify_aligns_an_inferred_recurrence_by_its_offset(capsys, tmp_path, fmt):
    # 00 and 101 forbidden: the counts are 2, 3 and then 4 for ever, so the
    # least recurrence is a(n) = a(n-1) from n = 3, a zero tail of length 2
    path = tmp_path / "delayed.txt"
    path.write_text("k=2\n00\n101\n")
    code, out, _ = run_cli(capsys, "verify", "--spec", str(path), "--n-max", "8", "--format", fmt)
    assert code == 0
    if fmt == "text":
        lines = out.splitlines()
        assert lines[1:4] == ["1 2 2 -", "2 3 3 -", "3 4 4 4"]
        assert lines[-2:] == ["recurrence source: inferred (order 1)", "counts agree for n = 1..8"]
    elif fmt == "csv":
        assert out.splitlines()[1:4] == ["1,2,2,,true", "2,3,3,,true", "3,4,4,4,true"]
    else:
        document = check_schema(out, "verify")
        assert document["recurrence"] == {
            "order": 1,
            "coefficients": [1],
            "initial_terms": ["4"],
            "offset": 3,
            "source": "inferred",
        }
        assert [row["recurrence"] for row in document["rows"]] == [None, None] + ["4"] * 6


def test_verify_infers_the_delayed_recurrence_of_forty_words(capsys):
    # the least recurrence of this spec has order 238 and a zero tail
    path = Path(__file__).parent / "data" / "words40.txt"
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "verify", "--spec", str(path), "--n-max", "600")
    assert code == 0
    assert time.perf_counter() - start < 10
    assert out.splitlines()[-2:] == [
        "recurrence source: inferred (order 238)",
        "counts agree for n = 1..600",
    ]


@pytest.mark.parametrize("tmk", ["1,2", "1,5", "3,2", "3,5"])
def test_verify_grid_corners_agree(capsys, tmk):
    code, out, _ = run_cli(capsys, "verify", "--tmk", tmk, "--n-max", "18")
    assert code == 0
    assert "counts agree for n = 1..18" in out


def test_verify_export_automaton(capsys, tmp_path):
    target = tmp_path / "edges.txt"
    code, _, _ = run_cli(
        capsys, "verify", "--tmk", "1,2", "--n-max", "4", "--export-automaton", str(target)
    )
    assert code == 0
    assert target.read_text() == "0 0 0\n0 1 1\n1 0 0\n"


def test_design_ratio_text(capsys):
    code, out, _ = run_cli(capsys, "design", "--target-ratio", "5", "--m", "1")
    assert code == 0
    assert out == "m=1 k=21 lambda0=5 exact\n"


def test_design_ratio_miss(capsys):
    code, out, _ = run_cli(capsys, "design", "--target-ratio", "1.5", "--m", "1")
    assert code == 0
    assert out == "no admissible k\n"


def test_design_ratio_json(capsys):
    code, out, _ = run_cli(
        capsys, "design", "--target-ratio", "2", "--m", "2", "--format", "json"
    )
    assert code == 0
    doc = check_schema(out, "design")
    assert doc == {"command": "design", "target_ratio": 2.0, "m": 2, "k": 5}
    code, out, _ = run_cli(
        capsys, "design", "--target-ratio", "1.5", "--m", "1", "--format", "json"
    )
    assert code == 0
    assert check_schema(out, "design")["k"] is None


def test_design_ratio_needs_m(capsys):
    code, _, err = run_cli(capsys, "design", "--target-ratio", "5")
    assert code == 1
    assert "--m" in err


def test_design_entropy_text(capsys):
    code, out, _ = run_cli(capsys, "design", "--target-entropy", "0.6931471805599453")
    assert code == 0
    assert out == (
        "m=1 k=3 lambda0=2 entropy=0.693147180559945 exact\n"
        "m=2 k=5 lambda0=2 entropy=0.693147180559945 exact\n"
        "m=3 k=9 lambda0=2 entropy=0.693147180559945 exact\n"
    )


def test_design_entropy_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "design",
        "--target-entropy",
        "1",
        "--base",
        "2",
        "--m-range",
        "1..3",
        "--k-range",
        "2..30",
        "--format",
        "json",
    )
    assert code == 0
    doc = check_schema(out, "design")
    assert [(r["m"], r["k"]) for r in doc["results"]] == [(1, 3), (2, 5), (3, 9)]
    assert all(r["exact"] for r in doc["results"])


def test_design_entropy_csv(capsys):
    code, out, _ = run_cli(
        capsys, "design", "--target-entropy", "0.6931471805599453", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "m,k,lambda0,entropy,deviation,exact"
    assert len(out.splitlines()) == 4


def test_design_entropy_no_match(capsys):
    code, out, _ = run_cli(capsys, "design", "--target-entropy", "5")
    assert code == 0
    assert out == "no parameters within tolerance\n"


def test_design_entropy_rejects_nonpositive(capsys):
    code, _, err = run_cli(capsys, "design", "--target-entropy", "0")
    assert code == 1
    assert "error" in err


def test_design_refuses_a_window_over_the_cap(capsys):
    # the window of entropy 20 near k = 2.35e17 holds about 1.9e9 k
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "design", "--target-entropy", "20", "--m-range", "1..1",
        "--k-range", "2..1000000000000000000",
    )
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert out == ""
    assert "pairs" in err and "Traceback" not in err


def test_table_refuses_a_grid_over_the_cap(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "table", "--m-range", "1..1000000", "--k-range", "2..1000000"
    )
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert out == ""
    assert "pairs" in err and "Traceback" not in err


def test_design_mutually_exclusive_targets(capsys):
    code, _, _ = run_cli(
        capsys, "design", "--target-entropy", "1", "--target-ratio", "2", "--m", "1"
    )
    assert code == 1


def test_table_text(capsys):
    code, out, _ = run_cli(capsys, "table", "--m-range", "1..1", "--k-range", "2..3")
    assert code == 0
    assert out == (
        "m k lambda0 entropy\n"
        "1 2 1.61803398874989 0.481211825059603\n"
        "1 3 2 0.693147180559945\n"
    )


def test_table_csv_default_grid(capsys):
    code, out, _ = run_cli(capsys, "table", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,k,lambda0,entropy"
    assert len(lines) == 1 + 3 * 29


def test_table_json(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--m-range", "2..3", "--k-range", "4..6", "--base", "10", "--format", "json"
    )
    assert code == 0
    doc = check_schema(out, "table")
    assert doc["log_base"] == "10"
    assert len(doc["rows"]) == 6


def test_range_comma_form(capsys):
    code, out, _ = run_cli(capsys, "table", "--m-range", "1,1", "--k-range", "2,2")
    assert code == 0
    assert len(out.splitlines()) == 2


@pytest.fixture
def int_str_limit():
    """Python's default 4300-digit int-to-str limit, restored afterwards.

    Yields the setter, or None on Python versions without the limit.
    """
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield None
        return
    previous = sys.get_int_max_str_digits()
    set_limit(4300)
    yield set_limit
    set_limit(previous)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_count_beyond_the_int_to_str_limit(capsys, int_str_limit, fmt):
    # a(30000) = F(30002), which has 6270 digits
    fib = [0, 1]
    while len(fib) <= 30002:
        fib.append(fib[-1] + fib[-2])
    code, out, err = run_cli(capsys, "count", "--tmk", "1,2", "--n", "30000", "--format", fmt)
    if int_str_limit is not None:
        # run() lifts the limit for its command only
        assert sys.get_int_max_str_digits() == 4300
        int_str_limit(0)
    value = str(fib[30002])
    assert code == 0
    assert err == ""
    assert len(value) == 6270
    expected = {
        "text": f"{value}\n",
        "csv": f"n,count\n30000,{value}\n",
        "json": json.dumps({"command": "count", "n": 30000, "count": value}) + "\n",
    }
    assert out == expected[fmt]


def test_enumerate_constructive_over_the_cap_is_an_error(capsys):
    code, out, err = run_cli(
        capsys, "enumerate", "--tmk", "1,2", "--n", "200000", "--order", "constructive"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("shiftspace: error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_exit_code_bad_tmk(capsys):
    assert run_cli(capsys, "count", "--tmk", "1", "--n", "4")[0] == 1
    assert run_cli(capsys, "count", "--tmk", "0,2", "--n", "4")[0] == 1
    assert run_cli(capsys, "count", "--tmk", "1,x", "--n", "4")[0] == 1
    assert run_cli(capsys, "count", "--tmk", "1,2,3", "--n", "4")[0] == 1
    assert run_cli(capsys, "count", "--tmk", "a,2", "--n", "4")[0] == 1


@pytest.mark.parametrize("text", ["1..2..3", "1,2,3", "1..x"])
def test_exit_code_bad_range(capsys, text):
    code, out, err = run_cli(capsys, "table", "--m-range", text)
    assert (code, out) == (1, "")
    assert err == (
        "shiftspace table: error: argument --m-range: "
        f"expected LO..HI with two integers, got {text!r}\n"
    )


USER_ERRORS = [
    ShiftSpaceError("boom"),
    ParameterError("boom"),
    ParseError("boom"),
    OutOfAlphabetError("boom"),
    ValidationError(["boom"]),
    ResourceLimitError("boom"),
    EmptyShiftSpaceError("boom"),
]


def test_user_errors_list_every_shift_space_error_but_convergence():
    listed = {type(error) for error in USER_ERRORS}
    assert listed | {ConvergenceError} == {ShiftSpaceError, *ShiftSpaceError.__subclasses__()}


@pytest.mark.parametrize(
    "error, code, kind",
    [
        pytest.param(error, code, kind, id=type(error).__name__)
        for error, code, kind in [
            *((error, 1, "error") for error in USER_ERRORS),
            (ConvergenceError("boom"), 2, "numeric error"),
        ]
    ],
)
def test_shift_space_errors_exit_one_but_convergence_two(capsys, monkeypatch, error, code, kind):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "_cmd_count", fail)
    expected = (code, "", f"shiftspace: {kind}: boom\n")
    assert run_cli(capsys, "count", "--tmk", "1,2", "--n", "4") == expected


def test_exit_code_negative_length(capsys):
    assert run_cli(capsys, "count", "--tmk", "1,2", "--n", "-3")[0] == 1


def test_exit_code_missing_file(capsys):
    assert run_cli(capsys, "count", "--spec", "/nonexistent/path.txt", "--n", "4")[0] == 1


def test_exit_code_unknown_flag(capsys):
    assert run_cli(capsys, "count", "--tmk", "1,2", "--n", "4", "--bogus")[0] == 1


def test_exit_code_no_subcommand(capsys):
    assert run_cli(capsys)[0] == 1


def test_exit_code_both_sources(capsys, golden_file):
    assert run_cli(capsys, "count", "--tmk", "1,2", "--spec", golden_file, "--n", "4")[0] == 1


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "count", "--help")[0] == 0


def test_module_entry_point_determinism():
    argv = [
        sys.executable,
        "-m",
        "shiftspace",
        "table",
        "--m-range",
        "1..2",
        "--k-range",
        "2..6",
        "--format",
        "json",
    ]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")


def test_module_entry_point_error_code():
    result = subprocess.run(
        [sys.executable, "-m", "shiftspace", "count", "--tmk", "1,2", "--n", "-3"],
        capture_output=True,
    )
    assert result.returncode == 1


# Runs every command in one format in a fresh interpreter and prints the
# modules the import and the runs added to sys.modules.
_STARTUP_PROBE = """
import io, sys
before = set(sys.modules)
from shiftspace import cli
fmt, spec = sys.argv[1:]
commands = [
    ["count", "--tmk", "1,2", "--n", "4"],
    ["count", "--spec", spec, "--n", "4"],
    ["enumerate", "--tmk", "1,2", "--n", "3"],
    ["enumerate", "--tmk", "1,2", "--n", "3", "--order", "constructive"],
    ["sequence", "--three-symbol", "--n-max", "5"],
    ["entropy", "--tmk", "1,3", "--method", "both"],
    ["entropy", "--spec", spec],
    ["verify", "--tmk", "1,2", "--n-max", "6"],
    ["verify", "--spec", spec, "--n-max", "8"],
    ["design", "--target-entropy", "0.6931471805599453"],
    ["design", "--target-ratio", "2", "--m", "1"],
    ["table", "--m-range", "1..2", "--k-range", "2..4"],
]
sys.stdout = io.StringIO()
codes = [cli.run(argv + ["--format", fmt]) for argv in commands]
sys.stdout = sys.__stdout__
print(codes)
print(" ".join(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_startup_imports_only_what_the_format_needs(tmp_path, fmt):
    spec = tmp_path / "golden.txt"
    spec.write_text("k=2\n11\n")
    result = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, fmt, str(spec)],
        capture_output=True,
        text=True,
        check=True,
    )
    codes, added = result.stdout.splitlines()
    assert codes == str([0] * 12)
    added = set(added.split())
    assert "shiftspace.cli" in added
    assert not {"dataclasses", "inspect", "typing"} & added
    assert ("json" in added) == (fmt == "json")
    assert ("csv" in added) == (fmt == "csv")


@pytest.mark.skipif(
    shutil.which("shiftspace") is None,
    reason="the shiftspace console script is not on PATH (package not installed)",
)
def test_console_script_installed():
    executable = shutil.which("shiftspace")
    assert executable is not None
    result = subprocess.run(
        [executable, "count", "--tmk", "1,2", "--n", "4"], capture_output=True
    )
    assert result.returncode == 0
    assert result.stdout == b"8\n"


def test_console_script_entry_point_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module, function = scripts["shiftspace"].split(":")
    # The same wrapper pip writes for a console script.
    wrapper = f"import sys; from {module} import {function}; sys.exit({function}())"
    result = subprocess.run(
        [sys.executable, "-c", wrapper, "count", "--tmk", "1,2", "--n", "4"],
        capture_output=True,
    )
    assert result.returncode == 0
    assert result.stdout == b"8\n"
    # The wrapper exits with what the function returns, so an error code
    # only reaches the shell if the entry point passes it on.
    result = subprocess.run(
        [sys.executable, "-c", wrapper, "count", "--tmk", "1,2", "--n", "-3"],
        capture_output=True,
    )
    assert result.returncode == 1


# Fuzzing: argv from small, bounded values and junk tokens, run in process.
# The reducible spec of ROADMAP item 3 stays out: its entropy runs the full
# 10^6 power iterations, seconds per example, before exiting 2.
FUZZ_SPECS = {
    "golden.txt": "k=2\n11\n",
    "three.txt": "k=3\n11\n22\n",
    "wide.txt": "k=11\n10,10\n",
    "long.txt": "k=2\n11111\n",
    "empty.txt": "k=2\n0\n1\n",
    "dead-end.txt": "k=2\n110\n111\n",
    "bad.txt": "k=2\n1x\n",
}

_JUNK = st.sampled_from(
    ["", "x", ",", "1,", "..", "1..", "-", "--", "--bogus", "1,2,3", "0x10", "1e3", "--format"]
)


def _rarely(rare, usual):
    """usual, and one time in eight rare."""
    return st.integers(0, 7).flatmap(lambda roll: rare if roll == 0 else usual)


def _option(flag, values):
    """flag with a value, a junk value one time in eight; left out one time in eight."""
    return _rarely(st.just([]), _rarely(_JUNK, values).map(lambda value: [flag, value]))


_INTS = st.integers(-2, 40).map(str)
_FLOATS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "1e-6", "0.5", "1", "2", "5", "1e200"]),
    st.floats(-1, 5).map(repr),
)
# tolerances stay coarse: power iteration below about 1e-12 can run its
# whole iteration budget
_TOLS = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-9", "1e-6", "0.5", "2"])
_TMK = st.builds(lambda m, k: f"{m},{k}", st.integers(0, 4), st.integers(1, 6))
_RANGE = st.one_of(
    st.builds(lambda lo, hi: f"{lo}..{hi}", st.integers(0, 4), st.integers(0, 12)),
    # each over the table's cap of 2^16 pairs on its own
    st.sampled_from(["2..100000", "1..1000000", "2..10000000000"]),
)


@st.composite
def _argv(draw, spec_dir):
    source = st.one_of(
        _option("--tmk", _TMK),
        _option("--spec", st.sampled_from(sorted(FUZZ_SPECS) + ["missing.txt"])).map(
            lambda pair: [pair[0], f"{spec_dir}/{pair[1]}"] if pair else pair
        ),
    )
    export = _rarely(_option("--export-automaton", st.just(f"{spec_dir}/edges.txt")), st.just([]))
    options = {
        "count": [source, _option("--n", _INTS)],
        "enumerate": [
            source,
            _option("--n", st.integers(-2, 10).map(str)),
            _option("--order", st.sampled_from(["lex", "constructive"])),
        ],
        "sequence": [_rarely(st.just(["--three-symbol"]), source), _option("--n-max", _INTS)],
        "entropy": [
            source,
            _option("--method", st.sampled_from(["poly", "matrix", "both", "auto"])),
            _option("--base", st.sampled_from(["e", "2", "10"])),
            _rarely(_option("--tol", _TOLS), st.just([])),
            export,
        ],
        "verify": [source, _option("--n-max", _INTS), export],
        "design": [
            _option("--target-entropy", _FLOATS) | _option("--target-ratio", _FLOATS),
            _option("--m", st.integers(0, 4).map(str)) | _option("--m-range", _RANGE),
            _option("--k-range", _RANGE),
            _option("--base", st.sampled_from(["e", "2", "10"])),
            _rarely(_option("--tol", _TOLS), st.just([])),
        ],
        "table": [
            _option("--m-range", _RANGE),
            _option("--k-range", _RANGE),
            _option("--base", st.sampled_from(["e", "2", "10"])),
        ],
    }
    command = draw(_rarely(st.sampled_from(["", "bogus"]), st.sampled_from(sorted(options))))
    argv = [command] if command else []
    for option in options.get(command, []):
        argv.extend(draw(option))
    argv.extend(draw(_option("--format", st.sampled_from(["text", "csv", "json"]))))
    extra = draw(_rarely(_JUNK, st.none()))
    if extra is not None:
        argv.insert(draw(st.integers(0, len(argv))), extra)
    return argv


@pytest.fixture(scope="module")
def fuzz_spec_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz-specs")
    for name, text in FUZZ_SPECS.items():
        (directory / name).write_text(text)
    return directory


def test_fuzzed_argv_ends_in_an_exit_code(fuzz_spec_dir, monkeypatch):
    # a junk --export-automaton value writes its file beside the specs
    monkeypatch.chdir(fuzz_spec_dir)

    @settings(max_examples=400, deadline=None)
    @given(_argv(str(fuzz_spec_dir)))
    def check(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = run(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in stderr.getvalue()

    check()
