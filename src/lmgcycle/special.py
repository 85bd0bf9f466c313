"""Error-function primitives for the asymptotic partition function.

erf and erfc are the standard library's.  log_erfc must stay finite far
past x ~ 26.6, where erfc itself underflows, so from x = 3 on it is
formed from the Laplace continued fraction of erfc's tail instead.
"""

from __future__ import annotations

import math

__all__ = ["erf", "erfc", "log_erfc"]

_LOG_SQRT_PI = math.log(math.sqrt(math.pi))
# From here on log_erfc uses the continued fraction, which is already
# accurate at this depth.
_CF_CUT = 3.0
_CF_DEPTH = 129


def _cf_tail(x: float) -> float:
    # Evaluates t(x) = 1/(x + (1/2)/(x + 1/(x + (3/2)/(x + ...)))) by
    # backward recurrence, so that erfc(x) = exp(-x^2)/sqrt(pi) * t(x).
    val = x
    for k in range(_CF_DEPTH, 0, -1):
        val = x + (k / 2.0) / val
    return 1.0 / val


def erf(x: float) -> float:
    """Gauss error function (math.erf)."""
    return math.erf(x)


def erfc(x: float) -> float:
    """Complementary error function 1 - erf(x) (math.erfc)."""
    return math.erfc(x)


def log_erfc(x: float) -> float:
    """log(erfc(x)), finite far past the underflow point of erfc itself."""
    if not x >= _CF_CUT:  # NaN takes this branch and stays NaN
        return math.log(math.erfc(x))
    return -x * x - _LOG_SQRT_PI + math.log(_cf_tail(x))
