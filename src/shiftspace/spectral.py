"""Growth rates and entropy for the spaced family.

The counting recurrence a(n) = a(n-1) + (k-1) * a(n-m-1) has the
characteristic polynomial x^(m+1) - x^m - (k-1), whose unique root in
(1, k] is the growth rate of the counts; entropy is its logarithm.  A few
Newton steps on u = ln(x - 1) give a float guess, and the polynomial's sign
proves a bracket of adjacent floats around it, grown outward from the guess
and then bisected; that finds the root within about one ulp.  For m = 1 the
quadratic closed form (1 + sqrt(4k-3)) / 2 is also available.
"""

from __future__ import annotations

import math

from .core import _require_int, _Value
from .errors import ParameterError

_LOG_FUNCTIONS = {"e": math.log, "2": math.log2, "10": math.log10}

# the default tolerance of transfer's power iteration, kept beside
# _require_tol so that the CLI's entropy options need not import transfer
DEFAULT_TOL = 1e-9


def _log(value: float, log_base: str) -> float:
    _require_log_base(log_base)
    return _LOG_FUNCTIONS[log_base](value)


def _require_log_base(log_base) -> None:
    if not isinstance(log_base, str) or log_base not in _LOG_FUNCTIONS:
        raise ParameterError(
            f"log_base must be one of {sorted(_LOG_FUNCTIONS)}, got {log_base!r}"
        )


def _require_tol(tol) -> None:
    if not isinstance(tol, (int, float)) or isinstance(tol, bool) or not tol > 0:
        raise ParameterError(f"tol must be a positive number, got {tol!r}")


def _float(name: str, value: int, result: str = "its growth rate") -> float:
    """A parameter as a float; ParameterError, naming the result it is for, beyond float range."""
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(
            f"{name} lies beyond float range ({name} >= 2^{value.bit_length() - 1}), "
            f"so {result} cannot be computed in floats"
        ) from None


class EntropyReport(_Value):
    """A growth rate with its logarithm and provenance of the computation."""

    __slots__ = ("lambda0", "entropy", "log_base", "method", "residual")

    def __init__(self, lambda0: float, entropy: float, log_base: str, method: str, residual: float):
        _Value.__init__(self, lambda0, entropy, log_base, method, residual)

    as_dict = _Value._as_dict


def closed_form_root_m1(k: int) -> float:
    """Root of x^2 - x - (k-1) in (1, k], available only for m = 1."""
    _require_int("k", k, 2)
    return (1.0 + math.sqrt(4.0 * _float("k", k) - 3.0)) / 2.0


def _at_or_above(x: float, m: int, c: float, log_c: float) -> bool:
    """Whether x^m (x - 1) >= c = k - 1; m ln x + ln(x - 1) >= ln c where x^m overflows."""
    try:
        return x**m * (x - 1.0) >= c
    except OverflowError:
        return m * math.log(x) + math.log(x - 1.0) >= log_c


def _newton_guess(m: int, log_c: float) -> float:
    """A float near the root, from Newton steps on u = ln(x - 1).

    h(u) = m log1p(e^u) + u - ln(k - 1) is convex and increasing, and at the
    start u = ln(k - 1) / (m + 1) it is m log1p(e^-u) > 0, so the steps fall
    monotonically toward the root; they stop at the first one that does not
    lower u.  e^u never exceeds its start, below sqrt(k - 1), so nothing
    overflows.
    """
    u = log_c / (m + 1.0)
    while True:
        t = math.exp(u)
        step = (m * math.log1p(t) + u - log_c) / (m * t / (1.0 + t) + 1.0)
        if not u - step < u:
            return 1.0 + t
        u -= step


def _root_from_guess(m: int, k: int, guess: float) -> float:
    """The upper end of the adjacent floats where the sign test turns, from guess in [1, k].

    A bracket widens from the guess toward 1 if the test holds there and
    toward k if not, doubling its step, clamped to [1, k], until the test
    turns, at the latest at the end, where it is false at 1 and true at k.
    The midpoint bisection then narrows it to adjacent floats.
    """
    top, c, log_c = float(k), float(k - 1), math.log(k - 1)
    above = _at_or_above(guess, m, c, log_c)
    step = -math.ulp(guess) if above else math.ulp(guess)
    near = guess
    while True:
        far = min(max(1.0, near + step), top)
        if _at_or_above(far, m, c, log_c) != above:
            break
        near, step = far, 2.0 * step
    lo, hi = (far, near) if above else (near, far)
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if _at_or_above(mid, m, c, log_c):
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi


def dominant_root(m: int, k: int) -> float:
    """The unique root of x^(m+1) - x^m - (k-1) in (1, k], to within one ulp.

    Newton steps on u = ln(x - 1) give a guess.  A bracket grown outward
    from it, doubling its width, and a midpoint bisection inside it end on
    adjacent floats, reading only the sign of x^m (x - 1) - (k - 1), which
    by Descartes' rule is negative below the root and non-negative from it
    on; where x^m overflows, the sign of m ln x + ln(x - 1) - ln(k - 1).  A
    non-negative sign moves the upper end, which is returned, so a float
    root such as 2.0 for (1, 3) comes back exactly.  Away from about one
    ulp of the root the sign is monotone in floats, so the pair found is
    the one a bisection on [1, k] ends on, whatever the guess.  For
    k - 1 < 2^53 and a root below 2^53, float(k - 1) and x - 1.0 are exact,
    so x^m (x - 1) errs by pow's error plus one rounding, about 2^-51
    relative if pow is accurate to about one ulp, as on common platforms;
    since d ln(x^m (x - 1)) / d ln x = m + x / (x - 1) >= 2, a wrong sign
    occurs only within about one ulp of the root.  ParameterError is raised
    when m or k lies beyond float range.
    """
    _require_int("m", m, 1)
    _require_int("k", k, 2)
    _float("m", m)  # the guess and the log-form sign test read m as a float
    _float("k", k)  # before the guess, whose e^u could overflow past float range
    return _root_from_guess(m, k, _newton_guess(m, math.log(k - 1)))


def entropy_tmk(m: int, k: int, log_base: str = "e") -> EntropyReport:
    """Entropy of the spaced family as the log of its growth rate.

    m = 1 is labeled method=closed-form, but the root is dominant_root's,
    not closed_form_root_m1's: for k = 2 to 199,999 the two differ, by
    exactly one ulp, for 47,413 values of k, and for k < 20,000 the closed
    form is the closer in 4,772 of the 4,807 that differ.
    """
    _require_log_base(log_base)
    root = dominant_root(m, k)
    try:
        residual = abs(root ** (m + 1) - root**m - (k - 1))
    except OverflowError:  # k near float max or x^m past it: p = (k-1) (x^m (x-1) / (k-1) - 1)
        log_ratio = m * math.log(root) + math.log(root - 1.0) - math.log(k - 1)
        try:
            residual = (k - 1) * abs(math.expm1(log_ratio))
        except OverflowError:  # x - 1 is one ulp, far above lambda - 1
            raise ParameterError(
                f"m = {m} puts lambda - 1 below float resolution, "
                "so the residual of the growth rate cannot be computed in floats"
            ) from None
    return EntropyReport(
        lambda0=root,
        entropy=_log(root, log_base),
        log_base=log_base,
        method="closed-form" if m == 1 else "polynomial",
        residual=residual,
    )
