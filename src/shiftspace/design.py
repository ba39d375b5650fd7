"""Choosing spaced-family parameters to hit a prescribed growth rate.

The forward map sends (m, k) to the dominant root of x^(m+1) - x^m - (k-1);
inverting it for a target root gives k = lambda^(m+1) - lambda^m + 1, which
is an admissible alphabet size exactly when that value is an integer of at
least 2.  Entropy targets are matched over a parameter grid, since distinct
m can reach the same rate; for each m the same inversion bounds the k whose
entropy can lie within the tolerance, so only that window is computed.
"""

from __future__ import annotations

import math

from .core import _require_int, _Value
from .errors import ParameterError, ResourceLimitError
from .spectral import _float, _log, _require_tol, dominant_root, entropy_tmk

EXACT_DEVIATION = 1e-9

# The most pairs a design scan or an entropy table computes.  A table costs
# about 6 microseconds per pair on m 1..4, k 2..16385 and up to about 13 near
# k = 10^300 or m = 1000 (Python 3.11, one core of a 2-vCPU host), so a full
# grid ends within about a second; the pairs are counted before the first call.
MAX_CANDIDATES = 2**16

# Relative widening of the root bounds of a design window.  It must exceed
# the float error, relative to lambda, between a computed entropy and the k
# whose root it stands for:
# - dominant_root lies within about one ulp, 2^-52 relative, of the root
#   (its docstring gives the bound);
# - exp, log and the scaling by ln b err by a few ulps of an exponent of
#   magnitude |ln lambda| <= 710, under 1e-13 relative in lambda;
# - q(lambda) errs by a few ulps of lambda^(m+1), at most about
#   m |ln lambda| 2^-53 <= 709 * 2^-53 relative in q before it overflows,
#   and since lambda q'(lambda) >= lambda^(m+1) for lambda >= 1, that is a
#   few 2^-52 relative in lambda.
# 1e-9 dominates their sum ten-thousandfold; the further +-1 on the integer
# bounds covers rounding q to an integer.
_WINDOW_MARGIN = 1e-9


class DesignResult(_Value):
    """One admissible parameter pair for an entropy target."""

    __slots__ = ("m", "k", "lambda0", "entropy", "deviation", "exact")

    def __init__(
        self, m: int, k: int, lambda0: float, entropy: float, deviation: float, exact: bool
    ):
        _Value.__init__(self, m, k, lambda0, entropy, deviation, exact)

    as_dict = _Value._as_dict


class EntropyTableRow(_Value):
    """Growth rate and entropy of one parameter pair."""

    __slots__ = ("m", "k", "lambda0", "entropy")

    def __init__(self, m: int, k: int, lambda0: float, entropy: float):
        _Value.__init__(self, m, k, lambda0, entropy)

    as_dict = _Value._as_dict


def _require_range(name: str, bounds, minimum: int) -> tuple[int, int]:
    try:
        lo, hi = bounds
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a (low, high) pair, got {bounds!r}") from None
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (lo, hi)):
        raise ParameterError(f"{name} bounds must be integers, got {bounds!r}")
    if lo < minimum or hi < lo:
        raise ParameterError(f"{name} must satisfy {minimum} <= low <= high, got {bounds!r}")
    return lo, hi


def _alphabet_size(lam: float, m: int) -> float:
    """q(lambda) = lambda^(m+1) - lambda^m + 1, the k whose gap-m root is lambda.

    Strictly increasing for lambda >= 1; raises OverflowError when
    lambda^(m+1) overflows a float.
    """
    return lam ** (m + 1) - lam**m + 1.0


def _root_bound(entropy: float, scale: float, factor: float) -> float:
    """factor * b^entropy for scale = log_b(e): 1.0 when entropy <= 0, inf on overflow."""
    if entropy <= 0.0:
        return 1.0
    try:
        return math.exp(entropy / scale) * factor
    except OverflowError:
        return math.inf


def _k_window(m: int, lam_lo: float, lam_hi: float, k_lo: int, k_hi: int) -> range | None:
    """The k in [k_lo, k_hi] whose gap-m root can lie in [lam_lo, lam_hi].

    The root is strictly increasing in k, so these are the k between
    q(lam_lo) and q(lam_hi), each widened by one.  None when the window
    starts above k_hi; since q(lambda, m+1) - q(lambda, m) =
    lambda^m (lambda - 1)^2 >= 0, it then starts above k_hi for every
    larger m too.
    """
    if math.isinf(lam_lo):
        return None
    try:
        start = math.floor(_alphabet_size(lam_lo, m)) - 1
    except OverflowError:
        return None  # every k of this m has a root below lam_lo
    if start > k_hi:
        return None
    stop = k_hi
    if math.isfinite(lam_hi):
        try:
            stop = min(k_hi, math.ceil(_alphabet_size(lam_hi, m)) + 1)
        except OverflowError:
            pass  # q(lam_hi) lies beyond float range, so above k_hi's top
    return range(max(k_lo, start), stop + 1)


def k_for_target_ratio(lambda_target: float, m: int) -> int | None:
    """Alphabet size whose gap-m space grows at lambda_target, or None.

    An integer target gives k = lambda^(m+1) - lambda^m + 1 exactly, in
    integer arithmetic.  Any other is accepted only when the float
    inversion lands within 1e-9 of an integer >= 2 and the forward
    computation reproduces the target to the same precision, a rule that
    cannot tell neighbouring k apart past 2^53.  Raises ParameterError
    when lambda^(m+1) overflows a float, since k then lies beyond float
    range.
    """
    _require_int("m", m, 1)
    if not isinstance(lambda_target, (int, float)) or isinstance(lambda_target, bool):
        raise ParameterError(f"lambda_target must be a number, got {lambda_target!r}")
    lambda_target = _float("lambda_target", lambda_target, "k")
    if not math.isfinite(lambda_target) or lambda_target <= 1.0:
        raise ParameterError(f"lambda_target must be a finite number > 1, got {lambda_target}")
    try:
        raw = _alphabet_size(lambda_target, m)
    except OverflowError:
        raise ParameterError(
            f"lambda_target^(m+1) overflows a float for lambda_target={lambda_target}, m={m}: "
            "k would lie beyond float range"
        ) from None
    if lambda_target.is_integer():
        lam = int(lambda_target)
        return lam ** (m + 1) - lam**m + 1
    candidate = round(raw)
    if abs(raw - candidate) > 1e-9 * max(1.0, abs(raw)):
        return None
    if candidate < 2:
        return None
    if abs(dominant_root(m, candidate) - lambda_target) > 1e-9 * max(1.0, lambda_target):
        return None
    return candidate


def design_for_entropy(
    target_entropy: float,
    log_base: str = "e",
    m_range: tuple[int, int] = (1, 3),
    k_range: tuple[int, int] = (2, 30),
    tol: float = 1e-9,
) -> list[DesignResult]:
    """All grid pairs whose entropy lies within tol of the target.

    Results are sorted by (deviation, m, k); an empty list means no pair on
    the grid comes close enough.  The exact flag marks deviations below
    1e-9.  For each m only the k between q(b^(target - tol)) and
    q(b^(target + tol)) are computed, where q(lambda) = lambda^(m+1) -
    lambda^m + 1 inverts the growth rate, with a margin that covers the
    float error; every pair outside that window has an entropy farther
    than tol from the target.  The windows only rise with m, so the scan
    stops at the first m whose window starts above k_range, or whose lower
    bound overflows a float; a bound at or below entropy 0 starts the
    window at the bottom of k_range.  Every window is found before any
    entropy is computed, and ResourceLimitError refuses a scan whose
    windows hold more than MAX_CANDIDATES pairs.
    """
    if not isinstance(target_entropy, (int, float)) or isinstance(target_entropy, bool):
        raise ParameterError(f"target_entropy must be a number, got {target_entropy!r}")
    target_entropy = _float("target_entropy", target_entropy, "the design")
    if not math.isfinite(target_entropy) or target_entropy <= 0.0:
        raise ParameterError(f"target_entropy must be finite and > 0, got {target_entropy}")
    _require_tol(tol)
    tol = _float("tol", tol, "the design")
    m_lo, m_hi = _require_range("m_range", m_range, 1)
    k_lo, k_hi = _require_range("k_range", k_range, 2)
    scale = _log(math.e, log_base)  # log_b(e) = 1 / ln b; refuses an unknown base
    lam_lo = _root_bound(target_entropy - tol, scale, 1.0 - _WINDOW_MARGIN)
    lam_hi = _root_bound(target_entropy + tol, scale, 1.0 + _WINDOW_MARGIN)
    windows = []
    candidates = 0
    for m in range(m_lo, m_hi + 1):
        window = _k_window(m, lam_lo, lam_hi, k_lo, k_hi)
        if window is None:
            break  # this m and every larger one start above k_hi
        candidates += len(window)
        if candidates > MAX_CANDIDATES:
            raise ResourceLimitError(
                f"the design windows hold more than {MAX_CANDIDATES} (m, k) pairs "
                "within reach of the target; narrow k_range, m_range or tol"
            )
        windows.append((m, window))
    results = []
    for m, window in windows:
        for k in window:
            report = entropy_tmk(m, k, log_base=log_base)
            deviation = abs(report.entropy - target_entropy)
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


def entropy_table(
    m_range: tuple[int, int] = (1, 3),
    k_range: tuple[int, int] = (2, 30),
    log_base: str = "e",
) -> list[EntropyTableRow]:
    """Growth rate and entropy for every pair on the grid, m-major order.

    ResourceLimitError refuses a grid of more than MAX_CANDIDATES pairs
    before any entropy is computed.
    """
    m_lo, m_hi = _require_range("m_range", m_range, 1)
    k_lo, k_hi = _require_range("k_range", k_range, 2)
    if (m_hi - m_lo + 1) * (k_hi - k_lo + 1) > MAX_CANDIDATES:
        raise ResourceLimitError(
            f"the table grid holds more than {MAX_CANDIDATES} (m, k) pairs; "
            "narrow m_range or k_range"
        )
    rows = []
    for m in range(m_lo, m_hi + 1):
        for k in range(k_lo, k_hi + 1):
            report = entropy_tmk(m, k, log_base=log_base)
            rows.append(EntropyTableRow(m=m, k=k, lambda0=report.lambda0, entropy=report.entropy))
    return rows
