"""Linear recurrences attached to block-counting sequences.

The spaced family with gap m over k symbols satisfies
a(n) = a(n-1) + (k-1) * a(n-m-1) with a(n) = 1 + n(k-1) for n <= m+1.
This module evaluates such recurrences exactly, at large n by powering x
modulo the characteristic polynomial, and checks them against independently
computed counts.  One Berlekamp-Massey pass modulo a prime, lifted and
checked exactly, finds the minimal recurrence of counts, trailing zero
coefficients as the offset.  The cumulative-sum recurrence of the
three-symbol space with 11 and 22 forbidden is here too.
"""

from __future__ import annotations

import sys
from collections import deque
from collections.abc import Iterator
from itertools import islice
from operator import eq, mul

from .core import CountSequence, TmkParams, _require_int, _require_ints, _require_n_max, _Value
from .errors import ParameterError

# a Mersenne prime; residues below it keep every product within two words
_MODULUS = 2**61 - 1


class LinearRecurrence(_Value):
    """a(n) = sum of coefficients[j-1] * a(n-j), seeded by initial_terms.

    initial_terms hold a(offset) .. a(offset + order - 1).
    """

    __slots__ = ("coefficients", "initial_terms", "offset")

    def __init__(
        self, coefficients: tuple[int, ...], initial_terms: tuple[int, ...], offset: int = 1
    ):
        _Value.__init__(self, tuple(coefficients), tuple(initial_terms), offset)
        _require_ints("coefficients", self.coefficients)
        _require_ints("initial_terms", self.initial_terms)
        _require_int("offset", offset, 0)
        if len(self.coefficients) < 1:
            raise ParameterError("a recurrence needs at least one coefficient")
        if len(self.initial_terms) != len(self.coefficients):
            raise ParameterError(
                f"{len(self.coefficients)} coefficients need exactly as many initial terms, "
                f"got {len(self.initial_terms)}"
            )
        if self.coefficients[-1] == 0:
            raise ParameterError("the trailing coefficient must be nonzero")

    @property
    def order(self) -> int:
        return len(self.coefficients)


class RecurrenceCheck(_Value):
    """Outcome of comparing a recurrence against computed counts.

    status is "match", "mismatch", or "inconclusive".
    """

    __slots__ = ("status", "terms_checked", "first_mismatch", "expected", "actual")

    def __init__(
        self,
        status: str,
        terms_checked: int,
        first_mismatch: int | None = None,
        expected: int | None = None,
        actual: int | None = None,
    ):
        _Value.__init__(self, status, terms_checked, first_mismatch, expected, actual)


def tmk_recurrence(params: TmkParams) -> LinearRecurrence:
    """Counting recurrence of the spaced family with parameters (m, k).

    Its coefficients and initial terms are tuples of m + 1 items, which
    CPython caps just under sys.maxsize / 8 (2^60 on 64-bit builds) before
    allocating; an m whose tuples cannot be built, past that cap or for want
    of memory, is a ParameterError.  Below the cap they are built for real.
    """
    m, k = params.m, params.k
    try:
        coefficients = (1,) + (0,) * (m - 1) + (k - 1,)
        initial_terms = tuple(islice(_tmk_terms(params), 1, m + 2))
    except (OverflowError, MemoryError):
        raise ParameterError(
            f"m is too large for a recurrence of order m + 1 (m >= 2^{m.bit_length() - 1}): "
            "its tuples of m + 1 terms cannot be built"
        ) from None
    return LinearRecurrence(coefficients=coefficients, initial_terms=initial_terms, offset=1)


def _tmk_terms(params: TmkParams) -> Iterator[int]:
    """Yields a(0), a(1), ... of the spaced family from its two taps.

    a(n) = a(n-1) + (k-1) a(n-m-1), where a(j) = 1 for j < 0, gives
    a(n) = 1 + n(k-1) up to n = m + 1.  Only the last m + 1 terms are kept,
    so the first few terms cost a few steps whatever m is.
    """
    m, k = params.m, params.k
    past = deque([1], maxlen=min(m + 1, sys.maxsize))
    yield 1
    while True:
        past.append(past[-1] + (k - 1) * (past[0] if len(past) > m else 1))
        yield past[-1]


def _term_iter(rec: LinearRecurrence) -> Iterator[int]:
    """Yields a(offset), a(offset+1), ... exactly.

    Only the nonzero taps are multiplied, so a sparse recurrence of high
    order, such as the spaced family's two taps, costs its taps per term.
    """
    # window[-j] is a(n-j), since the window holds the last d terms
    taps = [(-j, c) for j, c in enumerate(rec.coefficients, start=1) if c]
    window = deque(rec.initial_terms, maxlen=rec.order)
    yield from rec.initial_terms
    while True:
        window.append(sum(c * window[j] for j, c in taps))
        yield window[-1]


def _reduce(product: list[int], order: int, taps: list[tuple[int, int]]) -> list[int]:
    """product modulo x^d - c1 x^(d-1) - ... - cd, coefficients from x^0 up.

    Each top coefficient t of x^i becomes t * cj on x^(i-j), from the top
    down, for the (j, cj) in taps, which holds only the nonzero
    coefficients, so a sparse recurrence reduces in O(d) per power of x.
    """
    for top in range(len(product) - 1, order - 1, -1):
        lead = product[top]
        if lead:
            for j, c in taps:
                product[top - j] += c * lead
    del product[order:]
    return product


def _power_mod(coefficients: tuple[int, ...], e: int) -> list[int]:
    """x^e modulo the characteristic polynomial, as d coefficients from x^0 up.

    Left-to-right binary powering (Fiduccia 1985): a schoolbook square, and
    a multiplication by x for each set bit, each reduced at once, so the
    cost is O(d^2 log e) products.  x acts on the sequence as the shift and
    the characteristic polynomial annihilates it, so a(offset + e) is the
    dot product of the result with the initial terms.
    """
    order = len(coefficients)
    taps = [(j, c) for j, c in enumerate(coefficients, start=1) if c]
    residue = [1] + [0] * (order - 1)
    for bit in bin(e)[2:]:
        square = [0] * (2 * len(residue) - 1)
        for i, a in enumerate(residue):
            if a:
                # each cross term once, doubled
                square[2 * i] += a * a
                twice = 2 * a
                for j, b in enumerate(residue[i + 1 :], start=2 * i + 1):
                    square[j] += twice * b
        residue = _reduce(square, order, taps)
        if bit == "1":
            residue = _reduce([0] + residue, order, taps)
    return residue


def _walks(rec: LinearRecurrence, e: int) -> bool:
    """Whether walking e terms is expected to beat powering.

    A walked term costs about one product per nonzero tap plus five
    products' worth of deque and generator work; powering costs about
    d^2 / 2 products per bit of e, each in a tighter loop at about 4/9 the
    price of a walk product (fitted on timings of tmk(m, 2) for m from 10
    to 2000 and of dense and sparse random recurrences).
    """
    taps = len(rec.coefficients) - rec.coefficients.count(0)
    return 9 * e * (taps + 5) <= 2 * rec.order**2 * (e - 1).bit_length()


def evaluate(rec: LinearRecurrence, n: int) -> int:
    """Exact value a(n) for n >= offset, in O(d^2 log n) products for large n."""
    _require_int("index", n, rec.offset)
    e = n - rec.offset
    if _walks(rec, e):
        return next(islice(_term_iter(rec), e, None))
    return sum(map(mul, _power_mod(rec.coefficients, e), rec.initial_terms))


def verify_recurrence(rec: LinearRecurrence, counts: CountSequence) -> RecurrenceCheck:
    """Compare recurrence values against counts on their common index range.

    The result is "match" only when at least one recursively produced term
    (index >= offset + order) was compared; agreement confined to the seed
    region is reported as "inconclusive".
    """
    lo = max(rec.offset, counts.n_min)
    hi = counts.n_max
    if lo > hi:
        return RecurrenceCheck(status="inconclusive", terms_checked=0)
    expected_terms = islice(_term_iter(rec), lo - rec.offset, None)
    actual_terms = counts.counts[lo - counts.n_min :]
    for n, expected, actual in zip(range(lo, hi + 1), expected_terms, actual_terms):
        if expected != actual:
            return RecurrenceCheck(
                status="mismatch",
                terms_checked=n - lo + 1,
                first_mismatch=n,
                expected=expected,
                actual=actual,
            )
    status = "match" if hi >= rec.offset + rec.order else "inconclusive"
    return RecurrenceCheck(status=status, terms_checked=hi - lo + 1)


def _berlekamp_massey_mod(terms: tuple[int, ...], modulus: int) -> tuple[list[int], int]:
    """Shortest linear recurrence of terms modulo a prime (Massey 1969).

    Returns (connection, length): connection[0] = 1, every entry is reduced
    modulo the prime, and it annihilates every length + 1 consecutive terms.
    Residues of a word or two keep each product cheap.
    """
    backwards = [t % modulus for t in reversed(terms)]
    last = len(terms) - 1
    connection = [1]
    previous = [1]
    inverse = 1  # 1 / the discrepancy at the last length change
    length = 0
    gap = 1
    for n in range(len(terms)):
        # connection[j] meets a(n - j)
        window = backwards[last - n : last - n + len(connection)]
        discrepancy = sum(map(mul, connection, window)) % modulus
        if discrepancy:
            scale = discrepancy * inverse % modulus
            updated = connection + [0] * (len(previous) + gap - len(connection))
            updated[gap : gap + len(previous)] = [
                (u - scale * b) % modulus for u, b in zip(updated[gap:], previous)
            ]
            if 2 * length <= n:
                previous, inverse = connection, pow(discrepancy, -1, modulus)
                length, gap = n + 1 - length, 0
            connection = updated
        gap += 1
    return connection, length


def _proven_recurrence(terms: tuple[int, ...]) -> LinearRecurrence | None:
    """The minimal recurrence of a(0), a(1), ... checked on all N terms, or None.

    A Berlekamp-Massey pass modulo 2^61 - 1 gives a length L.  Its lift to
    the symmetric range is kept when 0 < L <= (N - 2) / 2 and walking it
    reproduces every term, a(n) from n = L on, up to the first difference;
    it is then the only shortest recurrence over the rationals
    (Massey 1969), which is all infer_recurrence needs.  One of length
    L' < L, scaled to primitive integers with its first j coefficients, from
    that of a(n), divisible by the prime, would give length at most L' - j
    modulo the prime on the first N - j terms, and a length change over the
    last j would reach N + 1 - L' > L.

    count_blocks passes the first 2s + 2 counts of a sequence known to obey
    a recurrence of order at most s from n = 0 on: the sequence minus the
    lift's right-hand side obeys that one too and vanishes on the
    2s + 2 - L > s indices L..2s+1, so for ever.  None means no proof: L is
    0 or past (N - 2) / 2, a true coefficient lies outside (-2^60, 2^60),
    or the prime divided a discrepancy.  j trailing zero coefficients, a
    root 0 of multiplicity j, delay the shorter recurrence to offset j.  A
    sequence that is 0 from L on gives None.
    """
    connection, length = _berlekamp_massey_mod(terms, _MODULUS)
    if not 0 < length <= (len(terms) - 2) // 2:
        return None
    half = _MODULUS // 2
    # -c in the symmetric range; trailing zeros, listed or not, become the offset
    coefficients = [(half - c) % _MODULUS - half for c in connection[1 : length + 1]]
    while coefficients and not coefficients[-1]:
        coefficients.pop()
    if not coefficients:
        return None
    offset = length - len(coefficients)
    rec = LinearRecurrence(tuple(coefficients), terms[offset:length], offset)
    return rec if all(map(eq, _term_iter(rec), terms[offset:])) else None


def infer_recurrence(counts: CountSequence, max_order: int) -> LinearRecurrence | None:
    """Least-order integer recurrence reproducing every given count, or None.

    _proven_recurrence's lift has the least length over the rationals, its
    order plus the j counts before it starts (offset n_min + j), and every
    recurrence that short is a multiple of it; it is returned when that
    length is at most max_order.  A true coefficient outside (-2^60, 2^60),
    or the prime dividing a discrepancy, gives None.
    """
    _require_int("max_order", max_order, 1)
    terms = counts.counts
    if len(terms) < 2 * max_order + 2:
        raise ParameterError(
            f"need at least {2 * max_order + 2} terms to infer up to order {max_order}, "
            f"got {len(terms)}"
        )
    rec = _proven_recurrence(terms)
    if rec is None or rec.offset + rec.order > max_order:
        return None
    return LinearRecurrence(rec.coefficients, rec.initial_terms, rec.offset + counts.n_min)


def sum_recurrence_three_symbol(n_max: int) -> CountSequence:
    """Counts for the three-symbol space with 11 and 22 forbidden.

    a(1) = 3 and a(n) = a(n-1) + 2 * (a(1) + ... + a(n-2)) + 4 for n >= 2.
    An n_max past sys.maxsize - 1 is refused.
    """
    _require_n_max(n_max)
    terms = [3]
    prefix = 0  # a(1) + ... + a(n-2), empty for n = 2
    for _ in range(2, n_max + 1):
        terms.append(terms[-1] + 2 * prefix + 4)
        prefix += terms[-2]
    return CountSequence(counts=tuple(terms), n_min=1)


def limit_ratio(rec: LinearRecurrence, n: int) -> float:
    """The ratio a(n) / a(n-1) of two evaluate calls, as a correctly rounded float."""
    _require_int("index", n, rec.offset + 1)
    previous, current = evaluate(rec, n - 1), evaluate(rec, n)
    if previous == 0:
        raise ZeroDivisionError(f"ratio at n = {n} undefined: a({n - 1}) is zero")
    return current / previous
