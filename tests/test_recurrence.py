"""Tests for recurrence evaluation, verification, and inference."""

import math
from collections import deque
from fractions import Fraction
from itertools import islice
from operator import mul

import pytest
from conftest import spec_from_tuples
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftspace import (
    CountSequence,
    LinearRecurrence,
    ParameterError,
    RecurrenceCheck,
    TmkParams,
    count_blocks,
    count_sequence,
    dominant_root,
    infer_recurrence,
    sum_recurrence_three_symbol,
    tmk_recurrence,
    tmk_spec,
    verify_recurrence,
)
from shiftspace import recurrence
from shiftspace.core import _require_int
from shiftspace.recurrence import (
    _MODULUS,
    _berlekamp_massey_mod,
    _proven_recurrence,
    _term_iter,
    _tmk_terms,
    evaluate,
    limit_ratio,
)

PHI = (1 + math.sqrt(5)) / 2


def test_tmk_recurrence_golden():
    rec = tmk_recurrence(TmkParams(1, 2))
    assert rec.coefficients == (1, 1)
    assert rec.initial_terms == (2, 3)
    assert rec.offset == 1
    assert rec.order == 2


def test_tmk_recurrence_min_gap_two():
    rec = tmk_recurrence(TmkParams(2, 2))
    assert rec.coefficients == (1, 0, 1)
    assert rec.initial_terms == (2, 3, 4)


def test_tmk_recurrence_wide():
    assert tmk_recurrence(TmkParams(2, 5)).coefficients == (1, 0, 4)
    assert tmk_recurrence(TmkParams(2, 5)).initial_terms == (5, 9, 13)
    assert tmk_recurrence(TmkParams(1, 21)).coefficients == (1, 20)
    assert tmk_recurrence(TmkParams(1, 21)).initial_terms == (21, 41)


@pytest.mark.parametrize(
    ("m", "bits"), [pytest.param(10**309, 1026, id="10^309"), pytest.param(2**62, 62, id="2^62")]
)
def test_tmk_recurrence_refuses_an_m_whose_tuples_cannot_be_built(m, bits):
    # 10^309 terms overflow an index, and 2^62 pointers exceed what a tuple
    # may allocate; both are refused before anything is allocated
    message = (
        f"m is too large for a recurrence of order m + 1 (m >= 2^{bits}): "
        "its tuples of m + 1 terms cannot be built"
    )
    with pytest.raises(ParameterError) as info:
        tmk_recurrence(TmkParams(m, 2))
    assert str(info.value) == message


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("k", range(2, 6))
def test_tmk_terms_match_the_recurrence(m, k):
    params = TmkParams(m, k)
    terms = 3 * (m + 1) + 5
    # the recurrence starts at a(1), the generator at a(0) = 1
    expected = [1, *islice(_term_iter(tmk_recurrence(params)), terms - 1)]
    assert list(islice(_tmk_terms(params), terms)) == expected


def test_linear_recurrence_invariants():
    with pytest.raises(ParameterError):
        LinearRecurrence(coefficients=(), initial_terms=())
    with pytest.raises(ParameterError):
        LinearRecurrence(coefficients=(1, 1), initial_terms=(2,))
    with pytest.raises(ParameterError):
        LinearRecurrence(coefficients=(1, 0), initial_terms=(2, 3))


def test_evaluate_frozen_values():
    assert evaluate(tmk_recurrence(TmkParams(1, 21)), 5) == 10501
    assert evaluate(tmk_recurrence(TmkParams(1, 2)), 8) == 55
    assert evaluate(tmk_recurrence(TmkParams(2, 5)), 7) == 253
    assert evaluate(tmk_recurrence(TmkParams(2, 5)), 8) == 529


def test_evaluate_seeds():
    rec = tmk_recurrence(TmkParams(3, 4))
    for n in range(1, 5):
        assert evaluate(rec, n) == 1 + 3 * n


def test_evaluate_below_offset():
    rec = tmk_recurrence(TmkParams(1, 2))
    with pytest.raises(ParameterError):
        evaluate(rec, 0)
    with pytest.raises(ParameterError):
        evaluate(rec, 1.5)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 5])
def test_evaluate_matches_enumeration(m, k):
    rec = tmk_recurrence(TmkParams(m, k))
    spec = tmk_spec(TmkParams(m, k))
    for n in range(1, 13):
        assert evaluate(rec, n) == count_blocks(spec, n)


def test_verify_recurrence_match(golden_spec):
    rec = tmk_recurrence(TmkParams(1, 2))
    check = verify_recurrence(rec, count_sequence(golden_spec, 12))
    assert check == RecurrenceCheck(status="match", terms_checked=12)


def test_verify_recurrence_mismatch():
    rec = tmk_recurrence(TmkParams(1, 2))
    counts = CountSequence(counts=(2, 3, 4, 8), n_min=1)
    check = verify_recurrence(rec, counts)
    assert check.status == "mismatch"
    assert check.first_mismatch == 3
    assert check.expected == 5
    assert check.actual == 4
    assert check.terms_checked == 3


def test_verify_recurrence_inconclusive_short():
    rec = tmk_recurrence(TmkParams(1, 2))
    check = verify_recurrence(rec, CountSequence(counts=(2, 3), n_min=1))
    assert check.status == "inconclusive"
    assert check.terms_checked == 2


def test_verify_recurrence_inconclusive_disjoint():
    rec = LinearRecurrence(coefficients=(2,), initial_terms=(1,), offset=5)
    check = verify_recurrence(rec, CountSequence(counts=(1, 2), n_min=1))
    assert check.status == "inconclusive"
    assert check.terms_checked == 0


def test_infer_recurrence_golden(golden_spec):
    rec = infer_recurrence(count_sequence(golden_spec, 12), 4)
    assert rec is not None
    assert rec.coefficients == (1, 1)
    assert rec.initial_terms == (2, 3)


def test_infer_recurrence_three_symbol(three_symbol_spec):
    rec = infer_recurrence(count_sequence(three_symbol_spec, 12), 4)
    assert rec is not None
    assert rec.coefficients == (2, 1)
    assert rec.initial_terms == (3, 7)


def test_infer_recurrence_spaced_wide():
    rec = infer_recurrence(count_sequence(tmk_spec(TmkParams(2, 5)), 12), 4)
    assert rec is not None
    assert rec.coefficients == (1, 0, 4)


def test_infer_recurrence_full_shift():
    counts = CountSequence(counts=tuple(2**n for n in range(1, 9)), n_min=1)
    rec = infer_recurrence(counts, 3)
    assert rec is not None
    assert rec.coefficients == (2,)
    assert rec.initial_terms == (2,)


def test_infer_recurrence_none_for_factorials():
    counts = CountSequence(
        counts=(1, 2, 6, 24, 120, 720, 5040, 40320, 362880, 3628800), n_min=1
    )
    assert infer_recurrence(counts, 4) is None


def test_infer_recurrence_moves_a_bad_start_into_the_offset():
    # The first term breaks order 1 from n = 1, and order 2 needs a zero
    # trailing coefficient: a(n) = 2a(n-1) holds from n = 2 on, length 2.
    counts = CountSequence(counts=(5, 2, 4, 8, 16, 32), n_min=1)
    assert infer_recurrence(counts, 2) == LinearRecurrence(
        coefficients=(2,), initial_terms=(2,), offset=2
    )
    assert infer_recurrence(CountSequence(counts=(5, 2, 4, 8, 16, 32), n_min=0), 2).offset == 1


def test_infer_recurrence_lifts_coefficients_below_two_to_the_sixty():
    # 2^60 - 1 is the largest coefficient the lift reaches; 2^62 is 2 modulo
    # 2^61 - 1, so its lift fails the exact check and nothing is inferred
    ratio = 2**60 - 1
    counts = CountSequence(counts=tuple(ratio**n for n in range(1, 5)), n_min=1)
    assert infer_recurrence(counts, 1) == LinearRecurrence(
        coefficients=(ratio,), initial_terms=(ratio,), offset=1
    )
    counts = CountSequence(counts=tuple(2 ** (62 * n) for n in range(1, 5)), n_min=1)
    assert infer_recurrence(counts, 1) is None


def test_infer_recurrence_needs_enough_terms():
    counts = CountSequence(counts=(2, 3, 5, 8, 13), n_min=1)
    with pytest.raises(ParameterError):
        infer_recurrence(counts, 2)
    with pytest.raises(ParameterError):
        infer_recurrence(counts, 0)


@pytest.mark.parametrize("terms", [(64, 32, 16, 8, 4, 2), (0, 0, 0, 0, 0, 0)])
def test_infer_recurrence_none_without_integer_recurrence(terms):
    # Halving has only the rational recurrence a(n) = a(n-1) / 2, and the
    # zero sequence has no recurrence of order 1 or more.
    assert infer_recurrence(CountSequence(counts=terms, n_min=1), 2) is None


def _solve_exact(rows):
    """Solve an augmented exact linear system; None when inconsistent.

    Free variables, if any, are set to zero.
    """
    cols = len(rows[0]) - 1
    mat = [row[:] for row in rows]
    pivot_cols = []
    rank = 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = mat[rank][c]
        mat[rank] = [v / inv for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        pivot_cols.append(c)
        rank += 1
        if rank == len(mat):
            break
    if any(mat[i][cols] != 0 for i in range(rank, len(mat))):
        return None
    solution = [Fraction(0)] * cols
    for row, c in enumerate(pivot_cols):
        solution[c] = mat[row][cols]
    return solution


def reference_infer_recurrence(counts, max_order):
    """Per-length exact elimination: the reference infer_recurrence must equal.

    For each length from 1 to max_order the full overdetermined system is
    solved over the rationals, and the first integral solution that is not
    all zero and regenerates the counts is returned.  Its j trailing zero
    coefficients move into the offset: the shorter recurrence holds from
    the (j + 1)-th count on, so order + j is the length, at most max_order.
    """
    _require_int("max_order", max_order, 1)
    terms = counts.counts
    if len(terms) < 2 * max_order + 2:
        raise ParameterError(
            f"need at least {2 * max_order + 2} terms to infer up to order {max_order}, "
            f"got {len(terms)}"
        )
    for length in range(1, max_order + 1):
        rows = [
            [Fraction(terms[i - j]) for j in range(1, length + 1)] + [Fraction(terms[i])]
            for i in range(length, len(terms))
        ]
        solution = _solve_exact(rows)
        if solution is None or any(c.denominator != 1 for c in solution):
            continue
        coefficients = [int(c) for c in solution]
        while coefficients and coefficients[-1] == 0:
            coefficients.pop()
        if not coefficients:
            continue
        zeros = length - len(coefficients)
        candidate = LinearRecurrence(
            coefficients=tuple(coefficients),
            initial_terms=terms[zeros:length],
            offset=counts.n_min + zeros,
        )
        if verify_recurrence(candidate, counts).status == "match":
            return candidate
    return None


@st.composite
def _spec_counts(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    word = st.lists(st.integers(min_value=0, max_value=k - 1), min_size=1, max_size=4)
    spec = spec_from_tuples(k, draw(st.lists(word, max_size=4)))
    return list(count_sequence(spec, draw(st.integers(min_value=4, max_value=18))))


@st.composite
def _perturbed_recurrence_terms(draw):
    """Terms of a random rational recurrence, scaled to integers, with a perturbed head."""
    order = draw(st.integers(min_value=1, max_value=4))
    ratio = st.builds(
        Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=3)
    )
    coefficients = draw(st.lists(ratio, min_size=order, max_size=order))
    head = st.lists(st.integers(min_value=-3, max_value=3), min_size=order, max_size=order)
    terms = [Fraction(t) for t in draw(head)]
    length = draw(st.integers(min_value=4, max_value=18))
    while len(terms) < length:
        terms.append(sum(c * terms[-j] for j, c in enumerate(coefficients, 1)))
    scale = math.lcm(*(t.denominator for t in terms))
    terms = [int(t * scale) for t in terms]
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=min(order, len(terms) - 1)))
        terms[i] += draw(st.integers(min_value=-2, max_value=2))
    return terms


def _inference_outcome(infer, counts, max_order):
    try:
        return infer(counts, max_order)
    except ParameterError as error:
        return ("ParameterError", str(error))


@st.composite
def _inference_cases(draw):
    """Counts and a max_order up to one past what their length allows."""
    terms = draw(
        st.one_of(
            _spec_counts(),
            st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=18),
            _perturbed_recurrence_terms(),
        )
    )
    counts = CountSequence(counts=tuple(terms), n_min=draw(st.sampled_from([0, 1, 3])))
    fits = (len(terms) - 2) // 2
    max_order = draw(
        st.one_of(st.integers(min_value=1, max_value=fits), st.sampled_from([0, fits + 1]))
    )
    return counts, max_order


@settings(max_examples=600, deadline=None)
@given(case=_inference_cases())
def test_infer_recurrence_equals_elimination(case):
    assert _inference_outcome(infer_recurrence, *case) == _inference_outcome(
        reference_infer_recurrence, *case
    )


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_infer_recurrence_order_bound(m, k):
    spec = tmk_spec(TmkParams(m, k))
    counts = count_sequence(spec, 2 * (m + 1) + 4)
    rec = infer_recurrence(counts, m + 1)
    assert rec is not None
    assert rec.order <= m + 1
    assert verify_recurrence(rec, counts).status == "match"


def test_sum_recurrence_frozen_terms():
    seq = sum_recurrence_three_symbol(15)
    assert list(seq) == [
        3,
        7,
        17,
        41,
        99,
        239,
        577,
        1393,
        3363,
        8119,
        19601,
        47321,
        114243,
        275807,
        665857,
    ]
    assert seq.n_min == 1
    assert seq.n_max == 15
    assert seq.value_at(5) == 99


def test_sum_recurrence_matches_second_order_form():
    terms = list(sum_recurrence_three_symbol(20))
    for n in range(2, 20):
        assert terms[n] == 2 * terms[n - 1] + terms[n - 2]


def test_sum_recurrence_matches_enumeration(three_symbol_spec):
    seq = sum_recurrence_three_symbol(12)
    counts = count_sequence(three_symbol_spec, 12)
    assert list(seq) == list(counts)


def test_sum_recurrence_validation():
    with pytest.raises(ParameterError):
        sum_recurrence_three_symbol(0)
    seq = sum_recurrence_three_symbol(3)
    with pytest.raises(ParameterError):
        seq.value_at(4)


def test_infer_recurrence_from_sum_recurrence():
    rec = infer_recurrence(sum_recurrence_three_symbol(12), 3)
    assert rec is not None
    assert rec.order == 2
    assert rec.coefficients == (2, 1)
    assert rec.initial_terms == (3, 7)


def test_limit_ratio_small_index():
    rec = tmk_recurrence(TmkParams(1, 2))
    assert limit_ratio(rec, 2) == 1.5


def test_limit_ratio_golden_converged():
    rec = tmk_recurrence(TmkParams(1, 2))
    assert abs(limit_ratio(rec, 60) - PHI) < 1e-12


def test_limit_ratio_slow_family():
    rec = tmk_recurrence(TmkParams(1, 21))
    root = dominant_root(1, 21)
    assert 9.5e-4 < abs(limit_ratio(rec, 40) - root) < 9.7e-4
    assert abs(limit_ratio(rec, 70) - root) > 1e-6
    assert abs(limit_ratio(rec, 71) - root) < 1e-6


def test_limit_ratio_fast_family():
    rec = tmk_recurrence(TmkParams(2, 5))
    assert abs(limit_ratio(rec, 60) - dominant_root(2, 5)) < 1e-8


def test_limit_ratio_zero_division():
    rec = LinearRecurrence(coefficients=(0, 1), initial_terms=(1, 0), offset=1)
    with pytest.raises(ZeroDivisionError):
        limit_ratio(rec, 3)


def test_limit_ratio_validation():
    rec = tmk_recurrence(TmkParams(1, 2))
    with pytest.raises(ParameterError):
        limit_ratio(rec, 1)


def walked(rec, n):
    """a(n) by the term walk, the reference for the powering path."""
    return next(islice(_term_iter(rec), n - rec.offset, None))


def reference_term_iter(rec):
    """The dense walk _term_iter used to make: every coefficient, zeros included."""
    window = deque(rec.initial_terms, maxlen=rec.order)
    yield from rec.initial_terms
    while True:
        window.append(sum(c * a for c, a in zip(rec.coefficients, reversed(window))))
        yield window[-1]


@st.composite
def sparse_recurrences(draw):
    """Recurrences of order up to 60 with at most three nonzero coefficients."""
    order = draw(st.integers(1, 60))
    nonzero = st.integers(-5, 5).filter(bool)
    taps = draw(st.dictionaries(st.integers(1, order), nonzero, max_size=2))
    taps[order] = draw(nonzero)
    return LinearRecurrence(
        coefficients=tuple(taps.get(j, 0) for j in range(1, order + 1)),
        initial_terms=tuple(draw(st.lists(st.integers(-5, 5), min_size=order, max_size=order))),
        offset=draw(st.integers(0, 3)),
    )


@settings(max_examples=300, deadline=None)
@given(sparse_recurrences())
def test_term_walk_over_nonzero_taps_equals_dense_walk(rec):
    assert list(islice(_term_iter(rec), 200)) == list(islice(reference_term_iter(rec), 200))


def test_term_walk_of_wide_spaced_family_equals_dense_walk():
    rec = tmk_recurrence(TmkParams(300, 3))
    assert list(islice(_term_iter(rec), 1000)) == list(islice(reference_term_iter(rec), 1000))


@st.composite
def small_recurrences(draw):
    order = draw(st.integers(1, 12))
    coefficients = draw(st.lists(st.integers(-5, 5), min_size=order, max_size=order))
    coefficients[-1] = draw(st.sampled_from([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]))
    initial_terms = draw(st.lists(st.integers(-5, 5), min_size=order, max_size=order))
    return LinearRecurrence(
        coefficients=tuple(coefficients),
        initial_terms=tuple(initial_terms),
        offset=draw(st.integers(0, 3)),
    )


@settings(max_examples=400, deadline=None)
@given(small_recurrences(), st.integers(0, 400))
def test_evaluate_and_limit_ratio_equal_the_walk(rec, e):
    # e up to 400 lies on both sides of the walk/power rule for every order
    n = rec.offset + e
    assert evaluate(rec, n) == walked(rec, n)
    if e == 0:
        return
    previous, current = walked(rec, n - 1), walked(rec, n)
    if previous == 0:
        with pytest.raises(ZeroDivisionError, match=f"a\\({n - 1}\\) is zero"):
            limit_ratio(rec, n)
    else:
        assert limit_ratio(rec, n) == current / previous


def test_walk_power_rule_sides():
    # walk while 9 e (taps + 5) <= 2 d^2 ceil(log2 e)
    wide = tmk_recurrence(TmkParams(100, 2))  # d = 101, two taps
    assert recurrence._walks(wide, 3886) and not recurrence._walks(wide, 3887)
    dense = LinearRecurrence(coefficients=(1,) * 250, initial_terms=(1,) * 250)
    assert recurrence._walks(dense, 300) and not recurrence._walks(dense, 999)


def test_walk_power_rule_counts_nonzero_taps():
    # timed best of 3: the walk of tmk(1000, 2) to n = 60000 took 80 ms and
    # powering 516 ms; tmk(300, 2) to 20000 24 ms and 49 ms; tmk(100, 2) to
    # 20000 25 ms and 10.7 ms
    assert recurrence._walks(tmk_recurrence(TmkParams(1000, 2)), 60000 - 1)
    assert recurrence._walks(tmk_recurrence(TmkParams(300, 2)), 20000 - 1)
    assert not recurrence._walks(tmk_recurrence(TmkParams(100, 2)), 20000 - 1)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_small_spaced_families_power_near_ten_thousand(m, k):
    # the shapes the exact-counts benchmark evaluates, where the walk took
    # 24-26 ms and powering 0.17-0.56 ms at n = 10^4
    rec = tmk_recurrence(TmkParams(m, k))
    for n in (1000, 5000, 10**4, 20000):
        assert not recurrence._walks(rec, n - rec.offset)


def test_limit_ratio_zero_division_by_powering():
    rec = LinearRecurrence(coefficients=(0, 1), initial_terms=(1, 0), offset=1)
    assert not recurrence._walks(rec, 1000)
    with pytest.raises(ZeroDivisionError, match=r"ratio at n = 1001 undefined: a\(1000\) is zero"):
        limit_ratio(rec, 1001)
    assert limit_ratio(rec, 1000) == 0.0


def test_evaluate_golden_mean_at_a_million_by_companion_matrix():
    p = 2**61 - 1

    def product(x, y):
        return [
            [sum(x[i][t] * y[t][j] for t in range(2)) % p for j in range(2)] for i in range(2)
        ]

    # (a(n+1), a(n)) = M^(n-1) (a(2), a(1)) with M = [[1, 1], [1, 0]]
    power, base, e = [[1, 0], [0, 1]], [[1, 1], [1, 0]], 10**6 - 1
    while e:
        if e & 1:
            power = product(power, base)
        base = product(base, base)
        e >>= 1
    expected = (power[1][0] * 3 + power[1][1] * 2) % p
    assert evaluate(tmk_recurrence(TmkParams(1, 2)), 10**6) % p == expected


def test_large_index_never_walks(monkeypatch):
    rec = tmk_recurrence(TmkParams(3, 2))
    assert rec.order == 4
    p = 2**61 - 1
    window = list(rec.initial_terms)
    for _ in range(10**5 - rec.order):
        window = window[1:] + [(window[-1] + window[0]) % p]

    def refuse(rec):
        raise AssertionError("_term_iter called")

    monkeypatch.setattr(recurrence, "_term_iter", refuse)
    assert evaluate(rec, 10**5) % p == window[-1]
    assert limit_ratio(rec, 10**5) == pytest.approx(dominant_root(3, 2), rel=1e-15)


def reference_berlekamp_massey(terms):
    """Shortest linear recurrence of terms over the rationals (Massey 1969).

    Returns (connection, length): a primitive integer multiple of the
    connection polynomial, which annihilates every length + 1 consecutive
    terms, and its length.
    """
    connection = [1]
    previous = [1]  # the connection before the last length change
    previous_discrepancy = 1
    length = 0
    gap = 1  # terms read since that change
    for n in range(len(terms)):
        discrepancy = sum(c * terms[n - j] for j, c in enumerate(connection))
        if discrepancy:
            # the rational update times previous_discrepancy * connection[0]
            updated = [previous_discrepancy * c for c in connection]
            updated += [0] * (len(previous) + gap - len(connection))
            for j, b in enumerate(previous):
                updated[j + gap] -= discrepancy * b
            if 2 * length <= n:
                previous, previous_discrepancy = connection, discrepancy
                length, gap = n + 1 - length, 0
            content = math.gcd(*updated)
            connection = [c // content for c in updated]
        gap += 1
    return connection, length


@settings(max_examples=400, deadline=None)
@given(terms=st.one_of(_spec_counts(), _perturbed_recurrence_terms()))
def test_modular_pass_is_the_rational_pass_modulo_the_prime(terms):
    p = 2**61 - 1
    connection, length = reference_berlekamp_massey(tuple(terms))
    residues, modular_length = _berlekamp_massey_mod(tuple(terms), p)
    assert modular_length == length
    scaled = [c * pow(connection[0], -1, p) % p for c in connection]
    width = max(len(scaled), len(residues))
    assert scaled + [0] * (width - len(scaled)) == residues + [0] * (width - len(residues))


def reference_proven_recurrence(terms):
    """_proven_recurrence with its exact check written over the reversed terms."""
    connection, length = _berlekamp_massey_mod(terms, _MODULUS)
    if not 0 < length <= (len(terms) - 2) // 2:
        return None
    half = _MODULUS // 2
    coefficients = [(half - c) % _MODULUS - half for c in connection[1 : length + 1]]
    while coefficients and not coefficients[-1]:
        coefficients.pop()
    if not coefficients:
        return None
    order = len(coefficients)
    backwards = terms[::-1]
    last = len(terms) - 1
    # a(n) against coefficients[j-1] * a(n-j), j = 1..order, for n = L..N-1
    if any(
        terms[n] != sum(map(mul, coefficients, backwards[last - n + 1 : last - n + 1 + order]))
        for n in range(length, len(terms))
    ):
        return None
    offset = length - order
    return LinearRecurrence(
        coefficients=tuple(coefficients), initial_terms=terms[offset:length], offset=offset
    )


@st.composite
def _terms_ending_in_zeros(draw):
    head = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=10))
    return head + [0] * draw(st.integers(min_value=1, max_value=8))


@st.composite
def _terms_off_by_the_prime(draw):
    """Counts with one term moved by a multiple of the prime: the modular pass cannot see it."""
    terms = draw(_spec_counts())
    i = draw(st.integers(min_value=0, max_value=len(terms) - 1))
    terms[i] += draw(st.sampled_from([-1, 1, 2])) * _MODULUS
    return terms


@settings(max_examples=600, deadline=None)
@given(
    terms=st.one_of(
        _spec_counts(),
        _perturbed_recurrence_terms(),
        _terms_ending_in_zeros(),
        _terms_off_by_the_prime(),
    )
)
def test_proven_recurrence_walks_the_lift_as_the_reversed_check_did(terms):
    terms = tuple(terms)
    assert _proven_recurrence(terms) == reference_proven_recurrence(terms)


def test_proven_recurrence_lifts_negative_coefficients():
    terms = [1, 1]
    while len(terms) < 6:
        terms.append(3 * terms[-1] - 5 * terms[-2])
    assert _proven_recurrence(tuple(terms)) == LinearRecurrence(
        coefficients=(3, -5), initial_terms=(1, 1), offset=0
    )


def test_proven_recurrence_moves_a_zero_tail_into_the_offset():
    # a(n) = 2 a(n-1) + 0 a(n-2) from n = 2: a root 0 of multiplicity one
    assert _proven_recurrence((5, 2, 4, 8, 16, 32)) == LinearRecurrence(
        coefficients=(2,), initial_terms=(2,), offset=1
    )


def test_proven_recurrence_refuses_what_it_cannot_prove():
    # 2^61 is 1 modulo 2^61 - 1, so the lifted coefficient 1 fails the check
    assert _proven_recurrence(tuple(2 ** (61 * n) for n in range(4))) is None
    # 1, 1, 1, 1 modulo the prime, so only the last term fails the lift a(n) = a(n-1)
    assert _proven_recurrence((1, 1, 1, 1 + 2**61 - 1)) is None
    # zero from n = 2 on: no recurrence with a nonzero trailing coefficient
    assert _proven_recurrence((1, 2, 0, 0)) is None
    # order 3 needs 8 terms
    assert _proven_recurrence((1, 0, 0, 1, 1, 1)) is None
