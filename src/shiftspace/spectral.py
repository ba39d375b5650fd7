"""Growth rates and entropy for the spaced family.

The counting recurrence a(n) = a(n-1) + (k-1) * a(n-m-1) has the
characteristic polynomial x^(m+1) - x^m - (k-1), whose unique root in
(1, k] is the growth rate of the counts; entropy is its logarithm.  The
root is found by bisection followed by Newton refinement, and for m = 1 it
is cross-checked against the quadratic closed form (1 + sqrt(4k-3)) / 2.
"""

from __future__ import annotations

import math

from .core import _require_int, _Value
from .errors import ConvergenceError, ParameterError

_LOG_FUNCTIONS = {"e": math.log, "2": math.log2, "10": math.log10}

_BISECTION_WIDTH = 1e-3
_NEWTON_MAX_STEPS = 50


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

    def derivative(self, x: float) -> float:
        return (self.m + 1) * x**self.m - self.m * x ** (self.m - 1)


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


def dominant_root(m: int, k: int, tol: float = 1e-12) -> float:
    """The unique root of x^(m+1) - x^m - (k-1) in (1, k].

    Bisection brings the bracket below 1e-3, then Newton refines from the
    upper end; the polynomial is convex and increasing there, so the
    iteration converges monotonically.  A point where x^(m+1) overflows a
    float counts as lying above the root; ConvergenceError is raised when
    Newton would have to start at one.  For m = 1 the result is
    cross-checked against the closed form.  ParameterError is raised when
    k itself lies beyond float range.
    """
    poly = CharacteristicPolynomial(m, k)
    _require_tol(tol)
    lo, hi = 1.0, _float_k(k)
    while hi - lo > _BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # adjacent floats: a root above about 4.5e12 has no finer bracket
        try:
            if poly.value(mid) <= 0.0:
                lo = mid
                continue
        except OverflowError:
            pass  # x^(m+1) overflows only above the root, where it dominates
        hi = mid
    x = hi
    converged = False
    try:
        for _ in range(_NEWTON_MAX_STEPS):
            step = poly.value(x) / poly.derivative(x)
            nxt = x - step
            done = abs(nxt - x) <= tol * max(1.0, abs(nxt))
            x = nxt
            if done:
                converged = True
                break
    except OverflowError:
        # Newton descends from hi, so only its first step can overflow
        raise ConvergenceError(
            f"x^(m+1) overflows a float at {x}, the upper end of the bisection "
            "bracket, so Newton refinement cannot start there",
            last_estimate=x,
            residual=hi - lo,
            iterations=0,
        ) from None
    if not converged:
        raise ConvergenceError(
            f"Newton refinement did not reach tol={tol} within {_NEWTON_MAX_STEPS} steps",
            last_estimate=x,
            residual=abs(poly.value(x)),
            iterations=_NEWTON_MAX_STEPS,
        )
    if m == 1:
        reference = closed_form_root_m1(k)
        if abs(x - reference) > 1e-9 * max(1.0, reference):
            raise ConvergenceError(
                f"numeric root {x} disagrees with the closed form {reference}",
                last_estimate=x,
                residual=abs(x - reference),
                iterations=_NEWTON_MAX_STEPS,
            )
    return x


def entropy_tmk(m: int, k: int, log_base: str = "e", tol: float = 1e-12) -> EntropyReport:
    """Entropy of the spaced family as the log of its growth rate."""
    root = dominant_root(m, k, tol)
    poly = CharacteristicPolynomial(m, k)
    return EntropyReport(
        lambda0=root,
        entropy=_log(root, log_base),
        log_base=log_base,
        method="closed-form" if m == 1 else "polynomial",
        residual=abs(poly.value(root)),
    )
