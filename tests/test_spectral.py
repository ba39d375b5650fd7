"""Tests for characteristic polynomial roots and entropy values."""

import math

import pytest

from shiftspace import (
    CharacteristicPolynomial,
    ConvergenceError,
    ParameterError,
    closed_form_root_m1,
    dominant_root,
    entropy_table,
    entropy_tmk,
)

PHI = (1 + math.sqrt(5)) / 2


def test_polynomial_values():
    poly = CharacteristicPolynomial(2, 5)
    assert poly.value(2.0) == 0.0
    assert poly.value(1.0) == -4.0
    assert poly.derivative(2.0) == 8.0


def test_polynomial_validation():
    with pytest.raises(ParameterError):
        CharacteristicPolynomial(0, 2)
    with pytest.raises(ParameterError):
        CharacteristicPolynomial(1, 1)
    with pytest.raises(ParameterError):
        CharacteristicPolynomial(True, 2)


def test_polynomial_at_one_counts_nonzero_symbols():
    for m in range(1, 5):
        for k in range(2, 8):
            assert CharacteristicPolynomial(m, k).value(1.0) == -(k - 1)


def test_dominant_root_frozen_values():
    assert abs(dominant_root(1, 2) - PHI) < 1e-12
    assert abs(dominant_root(1, 3) - 2.0) < 1e-12
    assert abs(dominant_root(1, 21) - 5.0) < 1e-12
    assert abs(dominant_root(2, 5) - 2.0) < 1e-12
    assert abs(dominant_root(3, 9) - 2.0) < 1e-12


def test_dominant_root_past_float_overflow():
    # x^2001 overflows a float for x > 1.43, so the bisection has to treat
    # an overflow as lying above the root.  The root is checked in log
    # space: m ln x + ln(x - 1) - ln(k - 1) changes sign across it.
    m, k = 2000, 1000
    root = dominant_root(m, k)

    def log_form(x):
        return m * math.log(x) + math.log(x - 1.0) - math.log(k - 1)

    assert log_form(root * (1 - 1e-12)) < 0.0 < log_form(root * (1 + 1e-12))
    assert root == pytest.approx(1.0060272043310965, rel=1e-14)


def test_dominant_root_overflow_at_newton_start_is_a_convergence_error():
    # the bisection stops at [1, 1 + 2^-10], and x^(m+1) overflows at its upper end
    with pytest.raises(ConvergenceError) as info:
        dominant_root(10**6, 2)
    assert info.value.last_estimate == 1.0 + 2.0**-10


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


@pytest.mark.parametrize("m, k", [(1, 10**26), (1, 10**100), (2, 10**40), (5, 2**1023)])
def test_dominant_root_ends_when_the_bracket_reaches_adjacent_floats(m, k):
    # above about 4.5e12 two adjacent floats lie more than 1e-3 apart, so
    # the bisection stops there instead of at its bracket width
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
        dominant_root(1, 2, tol=0.0)
    with pytest.raises(ParameterError):
        dominant_root(1.0, 2)


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
    poly = CharacteristicPolynomial(m, k)
    root = dominant_root(m, k)
    assert abs(poly.value(root)) < 1e-10 * abs(poly.derivative(root))


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


def test_entropy_as_dict():
    report = entropy_tmk(1, 3, log_base="2")
    doc = report.as_dict()
    assert doc["lambda0"] == report.lambda0
    assert doc["entropy"] == 1.0
    assert doc["log_base"] == "2"
    assert doc["method"] == "closed-form"
