"""Tests for characteristic polynomial roots and entropy values."""

import math
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftspace import (
    ParameterError,
    closed_form_root_m1,
    dominant_root,
    entropy_table,
    entropy_tmk,
)
from shiftspace.spectral import _newton_guess, _root_from_guess

PHI = (1 + math.sqrt(5)) / 2


def reference_dominant_root(m, k):
    """One bisection on [1, k] down to adjacent floats, on dominant_root's sign test."""
    lo, hi = 1.0, float(k)
    c, log_c = float(k - 1), math.log(k - 1)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        try:
            above = mid**m * (mid - 1.0) >= c
        except OverflowError:
            above = m * math.log(mid) + math.log(mid - 1.0) >= log_c
        if above:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def test_dominant_root_frozen_values():
    assert abs(dominant_root(1, 2) - PHI) < 1e-12
    assert abs(dominant_root(1, 3) - 2.0) < 1e-12
    assert abs(dominant_root(1, 21) - 5.0) < 1e-12
    assert abs(dominant_root(2, 5) - 2.0) < 1e-12
    assert abs(dominant_root(3, 9) - 2.0) < 1e-12


def test_dominant_root_past_float_overflow():
    # x^2001 overflows a float for x > 1.43, so the bisection has to read
    # the sign past it in log space.  The root is checked in log space too:
    # m ln x + ln(x - 1) - ln(k - 1) changes sign across it.
    m, k = 2000, 1000
    root = dominant_root(m, k)

    def log_form(x):
        return m * math.log(x) + math.log(x - 1.0) - math.log(k - 1)

    assert log_form(root * (1 - 1e-12)) < 0.0 < log_form(root * (1 + 1e-12))
    assert root == pytest.approx(1.0060272043310965, rel=1e-14)


def test_dominant_root_answers_where_x_to_the_m_overflows_near_the_root():
    # x^(10^6) overflows a float above x = 1.00071, so most steps read the log form
    assert dominant_root(10**6, 2) == 1.0000113834176447


def _exact_sign(m, k, x):
    """Sign of x^m (x - 1) - (k - 1) at the float x = a / b, in exact integers."""
    a, b = x.as_integer_ratio()  # b is a power of two
    value = a**m * (a - b) - (k - 1) * b ** (m + 1)
    return (value > 0) - (value < 0)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(1, 400), st.integers(2, 10**15)),
        st.tuples(st.integers(1, 6), st.integers(2, 2**200)),
    )
)
def test_dominant_root_within_one_ulp_of_the_exact_float_threshold(m_k):
    # p < 0 two floats below the result and p >= 0 one float above it, so
    # the smallest float c with p(c) >= 0 is the result or a neighbour
    m, k = m_k
    root = dominant_root(m, k)
    below = math.nextafter(root, 0.0)
    assert _exact_sign(m, k, math.nextafter(below, 0.0)) < 0
    assert _exact_sign(m, k, math.nextafter(root, math.inf)) >= 0


def test_dominant_root_equals_the_reference_bisection_on_a_full_grid():
    for m in range(1, 41):
        for k in range(2, 201):
            assert dominant_root(m, k) == reference_dominant_root(m, k), (m, k)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(1, 10**7), st.integers(2, 2**1023)),
        # k near float max: x^m overflows near the root, so the log form decides
        st.tuples(st.integers(2, 10**5), st.integers(2**1000, 2**1023)),
    )
)
def test_dominant_root_equals_the_reference_bisection(m_k):
    m, k = m_k
    assert dominant_root(m, k) == reference_dominant_root(m, k)


@pytest.mark.parametrize(
    "m, k",
    [(1, 2), (1, 3), (3, 9), (7, 50), (2000, 1000), (2000, 10**308), (10**6, 2), (1, 10**26), (5, 2**1023)],
)
def test_bracket_grows_from_any_guess_to_the_reference_pair(m, k):
    # guesses at both ends of [1, k], far below and far above the root, and
    # at its neighbours, so the bracket grows down, grows up or is adjacent
    root = reference_dominant_root(m, k)
    guesses = [
        1.0,
        math.nextafter(1.0, math.inf),
        1.0 + (root - 1.0) * 1e-9,
        math.nextafter(math.nextafter(root, 0.0), 0.0),
        math.nextafter(root, 0.0),
        root,
        math.nextafter(root, math.inf),
        root + (float(k) - root) * 1e-9,
        0.5 * (root + float(k)),
        float(k),
    ]
    for guess in guesses:
        assert _root_from_guess(m, k, guess) == root, guess


def reference_root_from_guess(m, k, guess):
    """_root_from_guess with its bracket grown by one loop for each direction."""
    top, c, log_c = float(k), float(k - 1), math.log(k - 1)

    def at_or_above(x):
        try:
            return x**m * (x - 1.0) >= c
        except OverflowError:
            return m * math.log(x) + math.log(x - 1.0) >= log_c

    lo = hi = guess
    width = math.ulp(guess)
    if at_or_above(guess):
        lo = max(1.0, hi - width)
        while lo > 1.0 and at_or_above(lo):
            hi, width = lo, 2.0 * width
            lo = max(1.0, hi - width)
    else:
        hi = min(top, lo + width)
        while hi < top and not at_or_above(hi):
            lo, width = hi, 2.0 * width
            hi = min(top, lo + width)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if at_or_above(mid):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


@st.composite
def _guesses(draw):
    """(m, k, guess): a guess anywhere in [1, k], or a few ulps from the root, or at an end."""
    m = draw(st.integers(1, 10**12))
    k = draw(st.integers(2, 10**300))
    top = float(k)
    anywhere = st.floats(1.0, top)
    near = st.integers(-4, 4).map(lambda steps: _ulps_from(dominant_root(m, k), steps, top))
    return m, k, draw(st.one_of(anywhere, near, st.sampled_from([1.0, top])))


def _ulps_from(x, steps, top):
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.inf if steps > 0 else 0.0)
    return min(max(1.0, x), top)


@settings(max_examples=500, deadline=None)
@given(_guesses())
def test_bracket_grows_from_any_guess_as_the_two_loops_did(case):
    assert _root_from_guess(*case) == reference_root_from_guess(*case)


def test_newton_guess_lands_within_a_few_ulps_on_the_design_grid():
    # 3 ulps at most here, so the bracket closes after a few sign tests
    for m in range(1, 5):
        for k in range(2, 61):
            root = dominant_root(m, k)
            assert abs(_newton_guess(m, math.log(k - 1)) - root) <= 8 * math.ulp(root)


def test_dominant_root_returns_a_float_root_exactly():
    assert dominant_root(1, 3) == 2.0
    assert dominant_root(1, 21) == 5.0
    assert dominant_root(2, 5) == 2.0
    assert dominant_root(3, 9) == 2.0


def test_dominant_root_near_float_max():
    # x^2000 overflows at the root itself, 1.4262..., where x^2000 (x - 1)
    # is 10^308; the log form decides the sign there
    assert dominant_root(2000, 10**308) == 1.4262156093833802
    # x^2001 overflows there too, so the residual is read in the same log form
    report = entropy_tmk(2000, 10**308)
    assert report.lambda0 == 1.4262156093833802
    assert 0.0 <= report.residual < math.inf


@pytest.mark.parametrize("m", [10**5, 10**6, 10**7])
def test_dominant_root_at_large_m(m):
    root = dominant_root(m, 2)

    def log_form(x):
        return m * math.log(x) + math.log(x - 1.0)

    below = math.nextafter(math.nextafter(root, 0.0), 0.0)
    assert log_form(below) < 0.0 <= log_form(math.nextafter(root, math.inf))


@pytest.mark.parametrize(
    "call",
    [
        lambda k: dominant_root(1, k),
        lambda k: dominant_root(2, k),
        lambda k: entropy_tmk(1, k),
        lambda k: entropy_tmk(2, k, log_base="2"),
        lambda k: entropy_table(m_range=(1, 2), k_range=(k, k)),
        lambda k: closed_form_root_m1(k),
    ],
)
@pytest.mark.parametrize("k, bits", [(10**400, 1328), (2**1024, 1024)])
def test_k_beyond_float_range_is_a_parameter_error(call, k, bits):
    with pytest.raises(ParameterError) as info:
        call(k)
    assert str(info.value) == (
        f"k lies beyond float range (k >= 2^{bits}), so its growth rate cannot be computed in floats"
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda m: dominant_root(m, 2),
        lambda m: entropy_tmk(m, 3),
        lambda m: entropy_table(m_range=(m, m), k_range=(2, 2)),
    ],
)
@pytest.mark.parametrize("m, bits", [(10**309, 1026), (2**1024, 1024), (2**1024 - 2**970, 1023)])
def test_m_beyond_float_range_is_a_parameter_error(call, m, bits):
    # 2^1024 - 2^970 is the least integer that float() rounds past the largest float
    with pytest.raises(ParameterError) as info:
        call(m)
    assert str(info.value) == (
        f"m lies beyond float range (m >= 2^{bits}), so its growth rate cannot be computed in floats"
    )


@pytest.mark.parametrize("k", [2, 3])
def test_dominant_root_at_the_largest_float_m_is_the_float_above_one(k):
    # the root lies within about 710 / m of 1, far below one ulp
    assert dominant_root(2**1024 - 2**970 - 1, k) == 1.0 + 2.0**-52


@pytest.mark.parametrize("m, k", [(1, 10**26), (1, 10**100), (2, 10**40), (5, 2**1023)])
def test_dominant_root_ends_when_the_bracket_reaches_adjacent_floats(m, k):
    # roots above about 4.5e12, where two adjacent floats lie more than
    # 1e-3 apart
    root = dominant_root(m, k)
    if m == 1:
        assert root == pytest.approx(closed_form_root_m1(k), rel=1e-12)
    log_form = m * math.log(root) + math.log(root - 1.0) - math.log(k - 1)
    assert abs(log_form) < 1e-12


def test_dominant_root_validation():
    with pytest.raises(ParameterError):
        dominant_root(0, 2)
    with pytest.raises(ParameterError):
        dominant_root(1, 1)
    with pytest.raises(ParameterError):
        dominant_root(1.0, 2)


@pytest.mark.parametrize(
    "call, args, message",
    [
        (call, args, message)
        for call in (dominant_root, entropy_tmk)
        for args, message in (
            ((0, 2), "m must be an integer >= 1, got 0"),
            ((1, 1), "k must be an integer >= 2, got 1"),
            ((True, 2), "m must be an integer >= 1, got True"),
            ((1, True), "k must be an integer >= 2, got True"),
        )
    ]
    + [
        (closed_form_root_m1, (1,), "k must be an integer >= 2, got 1"),
        (closed_form_root_m1, (True,), "k must be an integer >= 2, got True"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_spectral_functions_name_the_bad_parameter(call, args, message):
    # bool is an int subclass; it is refused as m or k like any non-integer
    with pytest.raises(ParameterError) as info:
        call(*args)
    assert str(info.value) == message


def test_closed_form_values():
    assert closed_form_root_m1(2) == PHI
    assert closed_form_root_m1(3) == 2.0
    assert closed_form_root_m1(21) == 5.0
    with pytest.raises(ParameterError):
        closed_form_root_m1(1)


@pytest.mark.parametrize("k", list(range(2, 51)) + [100, 1000, 10**4, 10**6])
def test_root_agrees_with_closed_form(k):
    assert abs(dominant_root(1, k) - closed_form_root_m1(k)) < 1e-12 * max(
        1.0, closed_form_root_m1(k)
    )


def test_root_monotonic_in_k():
    for m in range(1, 7):
        roots = [dominant_root(m, k) for k in range(2, 31)]
        assert all(b > a for a, b in zip(roots, roots[1:]))


def test_root_decreasing_in_m():
    for k in range(2, 31):
        roots = [dominant_root(m, k) for m in range(1, 7)]
        assert all(b < a for a, b in zip(roots, roots[1:]))


def test_root_bracket():
    for m in range(1, 5):
        for k in range(2, 12):
            root = dominant_root(m, k)
            assert 1.0 < root <= k


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [2, 3, 5, 9])
def test_root_residual_small(m, k):
    root = dominant_root(m, k)
    slope = (m + 1) * root**m - m * root ** (m - 1)
    assert abs(root ** (m + 1) - root**m - (k - 1)) < 1e-10 * slope


def test_entropy_golden():
    report = entropy_tmk(1, 2)
    assert report.method == "closed-form"
    assert report.log_base == "e"
    assert abs(report.lambda0 - PHI) < 1e-12
    assert abs(report.entropy - math.log(PHI)) < 1e-12
    assert report.residual < 1e-12


def test_entropy_doubling_base_two():
    report = entropy_tmk(1, 3, log_base="2")
    assert report.entropy == 1.0


def test_entropy_base_conversion():
    nat = entropy_tmk(2, 5)
    bit = entropy_tmk(2, 5, log_base="2")
    dec = entropy_tmk(2, 5, log_base="10")
    assert abs(bit.entropy - nat.entropy / math.log(2.0)) < 1e-12
    assert abs(dec.entropy - nat.entropy / math.log(10.0)) < 1e-12


def test_entropy_method_label():
    assert entropy_tmk(1, 5).method == "closed-form"
    assert entropy_tmk(2, 5).method == "polynomial"
    assert entropy_tmk(3, 2).method == "polynomial"


def test_entropy_bad_base():
    with pytest.raises(ParameterError):
        entropy_tmk(1, 2, log_base="7")


@pytest.mark.parametrize("base", ["x", ["e"]])
@pytest.mark.parametrize("m", [1, 10**6, 10**19, 10**400])
def test_entropy_refuses_a_bad_base_before_the_root(m, base):
    # at 10^19 and 10^400 the root itself refuses m, so only a base read
    # first names the base; an unhashable base ended in a TypeError
    message = rf"^log_base must be one of \['10', '2', 'e'\], got {re.escape(repr(base))}$"
    start = time.perf_counter()
    with pytest.raises(ParameterError, match=message):
        entropy_tmk(m, 2, log_base=base)
    assert time.perf_counter() - start < 0.1


def test_entropy_as_dict():
    report = entropy_tmk(1, 3, log_base="2")
    doc = report.as_dict()
    assert doc["lambda0"] == report.lambda0
    assert doc["entropy"] == 1.0
    assert doc["log_base"] == "2"
    assert doc["method"] == "closed-form"
