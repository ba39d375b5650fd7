"""Linear recurrences attached to block-counting sequences.

The spaced family with gap m over k symbols satisfies
a(n) = a(n-1) + (k-1) * a(n-m-1) with a(n) = 1 + n(k-1) for n <= m+1.
This module evaluates such recurrences exactly, checks them against
independently computed counts, infers a least-order integer recurrence
from raw counts by exact elimination, and carries the cumulative-sum
recurrence of the three-symbol space with forbidden blocks 11 and 22.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .core import TmkParams, _require_int
from .enumeration import CountSequence
from .errors import ParameterError


@dataclass(frozen=True)
class LinearRecurrence:
    """a(n) = sum of coefficients[j-1] * a(n-j), seeded by initial_terms.

    initial_terms hold a(offset) .. a(offset + order - 1).
    """

    coefficients: tuple[int, ...]
    initial_terms: tuple[int, ...]
    offset: int = 1

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        object.__setattr__(self, "initial_terms", tuple(self.initial_terms))
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


@dataclass(frozen=True)
class RecurrenceCheck:
    """Outcome of comparing a recurrence against computed counts."""

    status: str  # "match", "mismatch", or "inconclusive"
    terms_checked: int
    first_mismatch: Optional[int] = None
    expected: Optional[int] = None
    actual: Optional[int] = None


def tmk_recurrence(params: TmkParams) -> LinearRecurrence:
    """Counting recurrence of the spaced family with parameters (m, k)."""
    m, k = params.m, params.k
    coefficients = (1,) + (0,) * (m - 1) + (k - 1,)
    initial_terms = tuple(1 + n * (k - 1) for n in range(1, m + 2))
    return LinearRecurrence(coefficients=coefficients, initial_terms=initial_terms, offset=1)


def _term_iter(rec: LinearRecurrence) -> Iterator[int]:
    """Yields a(offset), a(offset+1), ... exactly."""
    window = list(rec.initial_terms)
    yield from window
    d = rec.order
    while True:
        nxt = sum(rec.coefficients[j] * window[d - 1 - j] for j in range(d))
        yield nxt
        window.pop(0)
        window.append(nxt)


def evaluate(rec: LinearRecurrence, n: int) -> int:
    """Exact value a(n) for n >= offset."""
    _require_int("index", n, rec.offset)
    it = _term_iter(rec)
    value = next(it)
    for _ in range(n - rec.offset):
        value = next(it)
    return value


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
    it = _term_iter(rec)
    for _ in range(lo - rec.offset):
        next(it)
    checked = 0
    for n in range(lo, hi + 1):
        expected = next(it)
        actual = counts.value_at(n)
        checked += 1
        if expected != actual:
            return RecurrenceCheck(
                status="mismatch",
                terms_checked=checked,
                first_mismatch=n,
                expected=expected,
                actual=actual,
            )
    if hi >= rec.offset + rec.order:
        return RecurrenceCheck(status="match", terms_checked=checked)
    return RecurrenceCheck(status="inconclusive", terms_checked=checked)


def _solve_exact(rows: list[list[Fraction]]) -> Optional[list[Fraction]]:
    """Solve an augmented exact linear system; None when inconsistent.

    Free variables, if any, are set to zero.
    """
    cols = len(rows[0]) - 1
    mat = [row[:] for row in rows]
    pivot_cols: list[int] = []
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


def infer_recurrence(counts: CountSequence, max_order: int) -> Optional[LinearRecurrence]:
    """Least-order integer recurrence reproducing every given count, or None.

    For each candidate order the full overdetermined system is solved
    exactly over the rationals; a solution is accepted only when it is
    integral, has a nonzero trailing coefficient, and regenerates the whole
    sequence from its leading terms.
    """
    _require_int("max_order", max_order, 1)
    terms = counts.counts
    if len(terms) < 2 * max_order + 2:
        raise ParameterError(
            f"need at least {2 * max_order + 2} terms to infer up to order {max_order}, "
            f"got {len(terms)}"
        )
    for order in range(1, max_order + 1):
        rows = [
            [Fraction(terms[i - j]) for j in range(1, order + 1)] + [Fraction(terms[i])]
            for i in range(order, len(terms))
        ]
        solution = _solve_exact(rows)
        if solution is None:
            continue
        if any(c.denominator != 1 for c in solution):
            continue
        coefficients = tuple(int(c) for c in solution)
        if coefficients[-1] == 0:
            continue
        candidate = LinearRecurrence(
            coefficients=coefficients,
            initial_terms=terms[:order],
            offset=counts.n_min,
        )
        if verify_recurrence(candidate, counts).status == "match":
            return candidate
    return None


def sum_recurrence_three_symbol(n_max: int) -> CountSequence:
    """Counts for the three-symbol space with 11 and 22 forbidden.

    a(1) = 3 and a(n) = a(n-1) + 2 * (a(1) + ... + a(n-2)) + 4 for n >= 2.
    """
    _require_int("n_max", n_max, 1)
    terms = [3]
    prefix = 0  # a(1) + ... + a(n-2), empty for n = 2
    for _ in range(2, n_max + 1):
        terms.append(terms[-1] + 2 * prefix + 4)
        prefix += terms[-2]
    return CountSequence(counts=tuple(terms), n_min=1)


def limit_ratio(rec: LinearRecurrence, n: int) -> float:
    """The ratio a(n) / a(n-1) as a correctly rounded float."""
    _require_int("index", n, rec.offset + 1)
    it = _term_iter(rec)
    previous = next(it)
    current = next(it)
    for _ in range(n - rec.offset - 1):
        previous, current = current, next(it)
    if previous == 0:
        raise ZeroDivisionError(f"ratio at n = {n} undefined: a({n - 1}) is zero")
    return current / previous
