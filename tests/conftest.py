"""Shared helpers: an independent brute-force oracle over plain tuples.

The oracle deliberately avoids the package's own pruning, automaton, and
recurrence machinery; it filters the full k^n candidate list with a direct
factor scan, so tests can compare library results against it.
"""

from itertools import product

import pytest

from shiftspace import Block, ForbiddenSet, ShiftSpaceSpec, TmkParams, tmk_spec

ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for index, label, passed in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {index}: {status} - {label}")


def brute_force_blocks(k, forbidden, n):
    """All allowed n-blocks as tuples, by exhaustive filtering."""
    forb = [tuple(f) for f in forbidden]

    def ok(word):
        return not any(
            word[i : i + len(f)] == f
            for f in forb
            for i in range(len(word) - len(f) + 1)
        )

    return [word for word in product(range(k), repeat=n) if ok(word)]


def brute_force_count(k, forbidden, n):
    return len(brute_force_blocks(k, forbidden, n))


def spec_from_tuples(k, forbidden):
    return ShiftSpaceSpec(alphabet_size=k, forbidden=ForbiddenSet(Block(f) for f in forbidden))


@pytest.fixture
def no_block(monkeypatch):
    """Fails the test when a block is built through Block._of."""

    def refuse(symbols):
        raise AssertionError("Block._of called")

    monkeypatch.setattr(Block, "_of", refuse)


@pytest.fixture
def golden_spec():
    return tmk_spec(TmkParams(1, 2))


@pytest.fixture
def t22_spec():
    return tmk_spec(TmkParams(2, 2))


@pytest.fixture
def three_symbol_spec():
    return spec_from_tuples(3, [(1, 1), (2, 2)])
