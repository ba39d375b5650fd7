"""Growth rates and entropy for the spaced family.

The counting recurrence a(n) = a(n-1) + (k-1) * a(n-m-1) has the
characteristic polynomial x^(m+1) - x^m - (k-1), whose unique root in
(1, k] is the growth rate of the counts; entropy is its logarithm.  One
bisection down to adjacent floats, reading only the polynomial's sign,
finds that root within about one ulp; for m = 1 the quadratic closed form
(1 + sqrt(4k-3)) / 2 is also available.
"""

from __future__ import annotations

import math

from .core import _require_int, _Value
from .errors import ParameterError

_LOG_FUNCTIONS = {"e": math.log, "2": math.log2, "10": math.log10}


def _log(value: float, log_base: str) -> float:
    try:
        return _LOG_FUNCTIONS[log_base](value)
    except KeyError:
        raise ParameterError(
            f"log_base must be one of {sorted(_LOG_FUNCTIONS)}, got {log_base!r}"
        ) from None


def _require_tol(tol) -> None:
    if not isinstance(tol, (int, float)) or isinstance(tol, bool) or not tol > 0:
        raise ParameterError(f"tol must be a positive number, got {tol!r}")


def _float_k(k: int) -> float:
    """k as a float; ParameterError when it lies beyond float range."""
    try:
        return float(k)
    except OverflowError:
        raise ParameterError(
            f"k lies beyond float range (k >= 2^{k.bit_length() - 1}), "
            "so its growth rate cannot be computed in floats"
        ) from None


class CharacteristicPolynomial(_Value):
    """p(x) = x^(m+1) - x^m - (k-1) for the spaced family."""

    __slots__ = ("m", "k")

    def __init__(self, m: int, k: int):
        _Value.__init__(self, m, k)
        _require_int("m", m, 1)
        _require_int("k", k, 2)

    def value(self, x: float) -> float:
        return x ** (self.m + 1) - x**self.m - (self.k - 1)


class EntropyReport(_Value):
    """A growth rate with its logarithm and provenance of the computation."""

    __slots__ = ("lambda0", "entropy", "log_base", "method", "residual")

    def __init__(self, lambda0: float, entropy: float, log_base: str, method: str, residual: float):
        _Value.__init__(self, lambda0, entropy, log_base, method, residual)

    as_dict = _Value._as_dict


def closed_form_root_m1(k: int) -> float:
    """Root of x^2 - x - (k-1) in (1, k], available only for m = 1."""
    _require_int("k", k, 2)
    return (1.0 + math.sqrt(4.0 * _float_k(k) - 3.0)) / 2.0


def dominant_root(m: int, k: int) -> float:
    """The unique root of x^(m+1) - x^m - (k-1) in (1, k], to within one ulp.

    One bisection on [1, k] down to adjacent floats reads the sign of
    x^m (x - 1) - (k - 1), which by Descartes' rule is negative below the
    root and non-negative from it on; where x^m overflows, the sign of
    m ln x + ln(x - 1) - ln(k - 1).  A non-negative sign moves the upper
    end, which is returned, so a float root such as 2.0 for (1, 3) comes
    back exactly.  For k - 1 < 2^53 and a root below 2^53, float(k - 1) and
    x - 1.0 are exact, so x^m (x - 1) errs by pow's error plus one rounding,
    about 2^-51 relative if pow is accurate to about one ulp, as on common
    platforms; since d ln(x^m (x - 1)) / d ln x = m + x / (x - 1) >= 2, a
    wrong sign occurs only within about one ulp of the root.
    ParameterError is raised when k lies beyond float range.
    """
    CharacteristicPolynomial(m, k)  # checks m and k
    lo, hi = 1.0, _float_k(k)
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


def entropy_tmk(m: int, k: int, log_base: str = "e") -> EntropyReport:
    """Entropy of the spaced family as the log of its growth rate."""
    root = dominant_root(m, k)
    try:
        residual = abs(CharacteristicPolynomial(m, k).value(root))
    except OverflowError:  # only for k near float max: p = (k-1) (x^m (x-1) / (k-1) - 1)
        log_ratio = m * math.log(root) + math.log(root - 1.0) - math.log(k - 1)
        residual = (k - 1) * abs(math.expm1(log_ratio))
    return EntropyReport(
        lambda0=root,
        entropy=_log(root, log_base),
        log_base=log_base,
        method="closed-form" if m == 1 else "polynomial",
        residual=residual,
    )
