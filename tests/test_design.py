"""Tests for inverting the growth-rate map and scanning entropy grids."""

import math
import time
from collections import Counter
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftspace import (
    ParameterError,
    ResourceLimitError,
    design_for_entropy,
    dominant_root,
    entropy_table,
    entropy_tmk,
    k_for_target_ratio,
)
from shiftspace import design
from shiftspace.design import EXACT_DEVIATION, DesignResult


def test_k_for_target_ratio_frozen():
    assert k_for_target_ratio(5.0, 1) == 21
    assert k_for_target_ratio(2.0, 2) == 5
    assert k_for_target_ratio(2.0, 1) == 3
    assert k_for_target_ratio(3.0, 2) == 19
    assert k_for_target_ratio(2.0, 3) == 9


def test_k_for_target_ratio_no_integer_hit():
    assert k_for_target_ratio(1.5, 1) is None
    assert k_for_target_ratio(2.5, 2) is None


def test_k_for_target_ratio_golden():
    phi = (1 + math.sqrt(5)) / 2
    assert k_for_target_ratio(phi, 1) == 2


def test_k_for_target_ratio_validation():
    with pytest.raises(ParameterError):
        k_for_target_ratio(1.0, 1)
    with pytest.raises(ParameterError):
        k_for_target_ratio(0.5, 1)
    with pytest.raises(ParameterError):
        k_for_target_ratio(float("inf"), 1)
    with pytest.raises(ParameterError):
        k_for_target_ratio(2.0, 0)
    with pytest.raises(ParameterError):
        k_for_target_ratio("2", 1)


def test_k_for_target_ratio_beyond_float_range():
    # k = lambda^4 - lambda^3 + 1 would be about 1e800
    with pytest.raises(ParameterError, match="beyond float range"):
        k_for_target_ratio(1e200, 3)


# past 2^53 the float inversion misses k: by 4029 at (40, 3) and by 1 at (60, 2)
@pytest.mark.parametrize(
    "m, lam", [*product([1, 2, 3, 4], [2, 3, 4, 5, 6]), (40, 3), (60, 2), (3, 100000)]
)
def test_k_for_target_ratio_round_trip(lam, m):
    k = k_for_target_ratio(float(lam), m)
    assert k == lam ** (m + 1) - lam**m + 1
    assert abs(dominant_root(m, k) - lam) < 1e-9


def test_design_for_entropy_ln2_exact_trio():
    results = design_for_entropy(math.log(2.0), m_range=(1, 3), k_range=(2, 30))
    assert [(r.m, r.k) for r in results] == [(1, 3), (2, 5), (3, 9)]
    assert all(r.exact for r in results)
    assert all(abs(r.lambda0 - 2.0) < 1e-9 for r in results)
    assert all(abs(r.entropy - math.log(2.0)) < 1e-9 for r in results)


def test_design_for_entropy_ln5_single():
    results = design_for_entropy(math.log(5.0), m_range=(1, 1), k_range=(2, 30))
    assert [(r.m, r.k) for r in results] == [(1, 21)]
    assert results[0].exact


def test_design_for_entropy_unreachable():
    assert design_for_entropy(10.0, m_range=(1, 3), k_range=(2, 30)) == []


def test_design_for_entropy_loose_tolerance_sorting():
    target = math.log(2.0)
    results = design_for_entropy(target, m_range=(1, 2), k_range=(2, 9), tol=0.5)
    deviations = [r.deviation for r in results]
    assert deviations == sorted(deviations)
    assert results[0].deviation < 1e-9
    assert results[0].exact
    assert any(not r.exact for r in results)
    for r in results:
        assert r.deviation == pytest.approx(abs(r.entropy - target), abs=1e-15)


def test_design_for_entropy_base_two():
    results = design_for_entropy(1.0, log_base="2", m_range=(1, 3), k_range=(2, 30))
    assert [(r.m, r.k) for r in results] == [(1, 3), (2, 5), (3, 9)]


def test_design_for_entropy_validation():
    with pytest.raises(ParameterError):
        design_for_entropy(0.0)
    with pytest.raises(ParameterError):
        design_for_entropy(-1.0)
    with pytest.raises(ParameterError):
        design_for_entropy(float("nan"))
    with pytest.raises(ParameterError):
        design_for_entropy(1.0, tol=0.0)
    with pytest.raises(ParameterError):
        design_for_entropy(1.0, m_range=(0, 2))
    with pytest.raises(ParameterError):
        design_for_entropy(1.0, k_range=(5, 2))
    with pytest.raises(ParameterError):
        design_for_entropy(1.0, k_range=7)


def test_design_for_entropy_validation_order(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid point was computed")

    monkeypatch.setattr(design, "entropy_tmk", refuse)
    # target, then tol, then m_range, then k_range, all before the scan starts
    with pytest.raises(ParameterError, match="target_entropy"):
        design_for_entropy(0.0, tol=0.0, m_range=(0, 2), k_range=(5, 2))
    with pytest.raises(ParameterError, match="^tol must"):
        design_for_entropy(1.0, tol=0.0, m_range=(0, 2), k_range=(5, 2))
    with pytest.raises(ParameterError, match="m_range"):
        design_for_entropy(1.0, m_range=(0, 2), k_range=(5, 2))
    with pytest.raises(ParameterError, match="k_range"):
        design_for_entropy(1.0, k_range=(5, 2))
    with pytest.raises(ParameterError, match="m_range"):
        entropy_table(m_range=(0, 2), k_range=(5, 2))
    with pytest.raises(ParameterError, match="k_range"):
        entropy_table(k_range=(5, 2))


def test_grid_scans_call_entropy_tmk_once_per_pair_in_m_major_order(monkeypatch):
    calls = []

    def recording(m, k, log_base="e"):
        calls.append((m, k))
        return entropy_tmk(m, k, log_base=log_base)

    def refuse(*args, **kwargs):
        raise AssertionError("one public scan called the other")

    monkeypatch.setattr(design, "entropy_tmk", recording)
    grid = [(m, k) for m in (2, 3) for k in (3, 4, 5)]
    monkeypatch.setattr(design, "entropy_table", refuse)
    design_for_entropy(1.0, m_range=(2, 3), k_range=(3, 5), tol=10.0)
    assert calls == grid
    monkeypatch.undo()
    monkeypatch.setattr(design, "entropy_tmk", recording)
    monkeypatch.setattr(design, "design_for_entropy", refuse)
    calls.clear()
    rows = entropy_table(m_range=(2, 3), k_range=(3, 5))
    assert calls == grid == [(row.m, row.k) for row in rows]


def test_entropy_table_defaults():
    rows = entropy_table()
    assert len(rows) == 3 * 29
    assert (rows[0].m, rows[0].k) == (1, 2)
    assert (rows[-1].m, rows[-1].k) == (3, 30)
    pairs = [(r.m, r.k) for r in rows]
    assert pairs == sorted(pairs)


def test_entropy_table_golden_row_base_two():
    rows = entropy_table(m_range=(1, 1), k_range=(2, 2), log_base="2")
    assert len(rows) == 1
    phi = (1 + math.sqrt(5)) / 2
    assert abs(rows[0].lambda0 - phi) < 1e-12
    assert abs(rows[0].entropy - math.log2(phi)) < 1e-12
    assert abs(rows[0].entropy - 0.6942419136306173) < 1e-12


def test_entropy_table_matches_elementwise():
    from shiftspace import entropy_tmk

    rows = entropy_table(m_range=(2, 3), k_range=(3, 5))
    for row in rows:
        report = entropy_tmk(row.m, row.k)
        assert row.lambda0 == report.lambda0
        assert row.entropy == report.entropy


def test_entropy_table_refuses_a_grid_over_the_cap_before_computing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("entropy_tmk called")

    monkeypatch.setattr(design, "entropy_tmk", refuse)
    with pytest.raises(ResourceLimitError, match=f"more than {design.MAX_CANDIDATES}"):
        entropy_table(m_range=(1, 1), k_range=(2, design.MAX_CANDIDATES + 2))
    with pytest.raises(ResourceLimitError):
        entropy_table(m_range=(1, 10**6), k_range=(2, 10**6))
    monkeypatch.setattr(design, "MAX_CANDIDATES", 7)
    with pytest.raises(ResourceLimitError, match="more than 7"):
        entropy_table(m_range=(2, 3), k_range=(3, 6))
    monkeypatch.setattr(design, "entropy_tmk", entropy_tmk)
    monkeypatch.setattr(design, "MAX_CANDIDATES", 8)
    assert len(entropy_table(m_range=(2, 3), k_range=(3, 6))) == 8


def test_entropy_table_validation():
    with pytest.raises(ParameterError):
        entropy_table(m_range=(2, 1))
    with pytest.raises(ParameterError):
        entropy_table(k_range=(1, 5))


def test_design_result_as_dict():
    result = design_for_entropy(math.log(2.0), m_range=(1, 1), k_range=(3, 3))[0]
    doc = result.as_dict()
    assert doc["m"] == 1
    assert doc["k"] == 3
    assert doc["exact"] is True
    row = entropy_table(m_range=(1, 1), k_range=(3, 3))[0]
    assert set(row.as_dict()) == {"m", "k", "lambda0", "entropy"}


def reference_design_for_entropy(target, log_base, m_range, k_range, tol):
    """The full-grid scan design_for_entropy used to run: every pair computed, then filtered."""
    results = []
    for m in range(m_range[0], m_range[1] + 1):
        for k in range(k_range[0], k_range[1] + 1):
            report = entropy_tmk(m, k, log_base=log_base)
            deviation = abs(report.entropy - target)
            if deviation <= tol:
                results.append(
                    DesignResult(
                        m=m,
                        k=k,
                        lambda0=report.lambda0,
                        entropy=report.entropy,
                        deviation=deviation,
                        exact=deviation < EXACT_DEVIATION,
                    )
                )
    results.sort(key=lambda r: (r.deviation, r.m, r.k))
    return results


@st.composite
def design_cases(draw):
    """(target, log_base, m_range, k_range, tol) on small grids in m <= 200, k <= 10^4 or 10^15.

    Near k = 10^15 a float error of 1e-15 relative in the root moves
    q(lambda) by about one, so there the window's margin shows.
    """
    log_base = draw(st.sampled_from(["e", "2", "10"]))
    m_lo = draw(st.integers(1, 200))
    m_range = (m_lo, m_lo + draw(st.integers(0, 3)))
    k_lo = draw(st.integers(2, 10_000) | st.integers(2, 10**15))
    k_range = (k_lo, k_lo + draw(st.integers(0, 40)))
    tol = draw(st.one_of(st.just(math.inf), st.floats(-13, 1).map(lambda e: 10.0**e)))
    if draw(st.booleans()):
        target = draw(st.floats(1e-6, 20.0))
    else:
        # near a grid pair's entropy, often exactly tol away from it
        m = draw(st.integers(*m_range))
        k = draw(st.integers(max(2, k_range[0] - 5), k_range[1] + 5))
        entropy = entropy_tmk(m, k, log_base=log_base).entropy
        offset = draw(st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-2.0, 2.0))
        target = entropy + offset * tol if math.isfinite(tol) else entropy
        if not target > 0.0:
            target = entropy
    return target, log_base, m_range, k_range, tol


@settings(max_examples=300, deadline=None)
@given(design_cases())
@example((math.log(2.0), "e", (1, 4), (2, 60), 1e-9))
@example((1.0, "2", (1, 4), (2, 60), 1e-9))
@example((math.log10(2.0), "10", (1, 4), (2, 60), 1e-9))
@example((math.log(2.0), "e", (1, 6), (2, 20), 1e-9))  # m = 5, 6 need k = 33, 65
@example((math.log(50.0), "e", (1, 3), (2, 30), 1e-9))  # every window is empty
@example((5.0, "e", (199, 200), (2, 40), 0.5))  # q(e^4.5) overflows a float
@example((1.0, "e", (2, 3), (3, 5), 10.0))
@example((1.0, "e", (1, 3), (2, 30), math.inf))
@example((1e-3, "e", (1, 2), (2, 9), 1e300))  # b^(target + tol) overflows
@example((entropy_tmk(3, 10**15).entropy, "e", (3, 3), (10**15 - 20, 10**15 + 20), 1e-13))
@example((entropy_tmk(40, 10**15, "2").entropy, "2", (40, 40), (10**15 - 9, 10**15 + 9), 1e-15))
def test_design_window_equals_full_grid(case):
    target, log_base, m_range, k_range, tol = case
    expected = reference_design_for_entropy(target, log_base, m_range, k_range, tol)
    found = design_for_entropy(target, log_base, m_range=m_range, k_range=k_range, tol=tol)
    assert [r.as_dict() for r in found] == [r.as_dict() for r in expected]


def test_design_computes_only_the_window(monkeypatch):
    calls = Counter()

    def recording(m, k, log_base="e"):
        calls[m] += 1
        return entropy_tmk(m, k, log_base=log_base)

    monkeypatch.setattr(design, "entropy_tmk", recording)
    results = design_for_entropy(math.log(2.0), m_range=(1, 4), k_range=(2, 60))
    assert [(r.m, r.k) for r in results] == [(1, 3), (2, 5), (3, 9), (4, 17)]
    assert set(calls) == {1, 2, 3, 4}
    assert max(calls.values()) <= 5


def test_design_stops_once_the_window_passes_k_range(monkeypatch):
    calls = Counter()

    def recording(m, k, log_base="e"):
        calls[m] += 1
        return entropy_tmk(m, k, log_base=log_base)

    windows = []
    k_window = design._k_window

    def recording_window(m, *bounds):
        windows.append(m)
        return k_window(m, *bounds)

    monkeypatch.setattr(design, "entropy_tmk", recording)
    monkeypatch.setattr(design, "_k_window", recording_window)
    # e^1 puts every window from m = 3 on above k = 30
    assert design_for_entropy(1.0, m_range=(1, 10**6), k_range=(2, 30)) == []
    assert set(calls) <= {1, 2} and sum(calls.values()) <= 10
    assert windows == [1, 2, 3]


def test_design_skips_pairs_outside_the_window():
    # the entropy of (100000, 2), about 9.3e-5, is far below the window of
    # a target of 1.0, but within 1e-3 of 1e-4
    assert design_for_entropy(1.0, m_range=(100000, 100000), k_range=(2, 30)) == []
    results = design_for_entropy(1e-4, m_range=(100000, 100000), k_range=(2, 30), tol=1e-3)
    (result,) = [r for r in results if r.k == 2]
    assert result.lambda0 == dominant_root(100000, 2) == 1.0000928496054526
    assert result.entropy == pytest.approx(9.284529519473951e-05, rel=1e-11)
    assert result.deviation == pytest.approx(1e-4 - 9.284529519473951e-05, rel=1e-7)


def test_design_refuses_an_unknown_base_after_the_ranges(monkeypatch):
    monkeypatch.setattr(design, "entropy_tmk", None)
    with pytest.raises(ParameterError, match="k_range"):
        design_for_entropy(1.0, log_base="3", k_range=(5, 2))
    # an empty window computes nothing, and the base is still checked
    with pytest.raises(ParameterError, match=r"^log_base must be one of \['10', '2', 'e'\], got '3'$"):
        design_for_entropy(100.0, log_base="3")


def test_design_refuses_windows_over_the_cap_before_computing(monkeypatch):
    calls = Counter()

    def recording(m, k, log_base="e"):
        calls[m] += 1
        return entropy_tmk(m, k, log_base=log_base)

    monkeypatch.setattr(design, "entropy_tmk", recording)
    # tol = inf puts every pair of the grid in its window: 3 m times 29 k
    monkeypatch.setattr(design, "MAX_CANDIDATES", 86)
    with pytest.raises(ResourceLimitError, match="more than 86"):
        design_for_entropy(1.0, m_range=(1, 3), k_range=(2, 30), tol=math.inf)
    assert not calls
    monkeypatch.setattr(design, "MAX_CANDIDATES", 87)
    assert len(design_for_entropy(1.0, m_range=(1, 3), k_range=(2, 30), tol=math.inf)) == 87
    assert sum(calls.values()) == 87


def test_design_refuses_a_huge_window_at_once():
    # near k = 2.35e17 the window of entropy 20 +- 1e-9 holds about 1.9e9 k
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        design_for_entropy(20.0, m_range=(1, 1), k_range=(2, 10**18))
    assert time.perf_counter() - start < 0.5
