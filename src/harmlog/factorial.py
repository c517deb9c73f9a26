"""Factorial approximations built on the odd-harmonic logarithm.

Everything is evaluated in log space first (the reference tables reach
160! ~ 1e284, close to binary64 overflow) and exponentiated on demand.

Three methods:
  SERIES_EXACT  (n + 1/2) ln n - (n - 1) minus the exact tail sum;
  RAW           the tail replaced by its integral closed form;
  CORRECTED     the raw form with empirically adjusted constants.

The series form is one integer in fixed point, rounded once: ln n is P/Q
of `oracle._ln_fraction` and the tail sum the exact difference of tails of
`harmonic._decaying_fixed`, so the value is within half an ulp plus 2**-83
of the formula's exact value, relative.  RAW and CORRECTED are binary64
evaluations of the paper's closed forms.
"""

import math
from enum import Enum

from ._frozen import Frozen
from .errors import DomainError, OverflowLimitError, shown
from .harmonic import _decaying_fixed
from .oracle import _is_finite, _ln_fraction

# Integral closed form of the tail sum, evaluated at its lower bound; the
# raw formula's leading constant is its complement to 1.
S_TAIL_CONST = 0.06739495647
RAW_CONST = 1.0 - S_TAIL_CONST  # 0.93260504353


class FactorialMethod(Enum):
    SERIES_EXACT = "series"
    RAW = "raw"
    CORRECTED = "corrected"


class FactorialEstimate(Frozen):
    """ln_value is authoritative; value overflows to +inf for large n."""

    __slots__ = ()
    _fields = ("n", "ln_value", "value", "method")

    def __init__(self, n: int, ln_value: float, value: float, method: FactorialMethod) -> None:
        object.__setattr__(self, "_values", (n, ln_value, value, method))


def s_sum_exact(n: int) -> float:
    """Partial sum of 1/(x**3 (2x-1)) for x = 2..n, the exact sum rounded once.

    T(2) - T(n+1) in fixed point (`harmonic._decaying_fixed`): within half
    an ulp plus 2**-92 of the exact sum, relative, in O(1) for any n.
    """
    if n < 2:
        raise DomainError(f"s_sum_exact requires n >= 2, got {shown(n)}")
    return math.ldexp(*_decaying_fixed(2, n, 1))


def s_sum_closed(n: int) -> float:
    """Integral-derived closed form of the same tail sum.

    The constant was fixed so the form is exact at n = 2; the gap versus
    s_sum_exact grows to about 0.0141 as n increases (the integral
    approximation error the corrected factorial constants absorb).
    """
    _check_n(n, 2, "s_sum_closed")
    return S_TAIL_CONST + 2.0 * (1.0 / n + 1.0 / (4.0 * n * n)) + 4.0 * math.log1p(
        -1.0 / (2.0 * n)
    )


def _check_n(n: int, least: int, name: str) -> None:
    """DomainError for n < least or a non-finite float n; OverflowLimitError
    if n is past binary64's range."""
    if n < least:
        raise DomainError(f"{name} requires n >= {least}, got {shown(n)}")
    if not _is_finite(n, "n", name):
        raise DomainError(f"{name} requires a finite n, got {n}")


def ln_factorial_series(n: int) -> float:
    """(n + 1/2) ln n - (n - 1) - s_sum_exact(n) as one integer, rounded once; n = 1 gives 0.

    In units of 2**-w, with s the tail's integer at its w = 102: (2n + 1)
    P/(2Q) floored, with P/Q within 2**-85.1 ln n of ln n, less (n - 1) and
    s.  (n + 1/2) ln n is at most 2.51 times the value (at n = 2), so the
    integer is within 2**-83 of it, relative, and math.ldexp rounds it once.
    DomainError for n < 1 or a non-finite n, then OverflowLimitError past
    the 63-bit index cap and TypeError for an n that is not an int.
    """
    _check_n(n, 1, "ln_factorial_series")
    s, e = _decaying_fixed(2, n, 1)
    p, q = _ln_fraction(n, 1)
    return math.ldexp(((2 * n + 1) * p << -e) // (2 * q) - (n - 1 << -e) - s, e)


def factorial_raw(n: int) -> FactorialEstimate:
    """Raw closed-form factorial: the series form with the tail's integral."""
    _check_n(n, 2, "factorial_raw")
    return _closed_form(n, FactorialMethod.RAW, 2.0 * RAW_CONST, 1.0, 4.0, 1.0, 2.0)


def factorial_corrected(n: int) -> FactorialEstimate:
    """Corrected closed form with the empirically adjusted constants.

    ln n! ~ (1.83788 + ln n)/2 + n(ln n - 1) - 2(1/n + 10/(33 n**2))
            - 4 ln(1 - 200/(387 n)).
    """
    _check_n(n, 2, "factorial_corrected")
    return _closed_form(n, FactorialMethod.CORRECTED, 1.83788, 10.0, 33.0, 200.0, 387.0)


def _closed_form(
    n: int, method: FactorialMethod, k: float, a: float, b: float, c: float, d: float
) -> FactorialEstimate:
    """The estimate ln n! ~ (k + ln n)/2 + n(ln n - 1) - 2(1/n + a/(b n**2)) - 4 ln(1 - c/(d n)).

    The raw form is k = 2 RAW_CONST, a/b = 1/4, c/d = 1/2; halving is exact,
    so (k + ln n)/2 rounds as RAW_CONST + (ln n)/2 does.
    """
    ln_n = math.log(n)
    ln_est = (
        0.5 * (k + ln_n)
        + n * (ln_n - 1.0)
        - 2.0 * (1.0 / n + a / (b * n * n))
        - 4.0 * math.log1p(-c / (d * n))
    )
    return _estimate(n, ln_est, method)


def estimate(n: int, method: FactorialMethod | str) -> FactorialEstimate:
    """n! by a FactorialMethod or its value ("series", "raw", "corrected").

    Any other method raises DomainError naming the choices.
    """
    try:
        method = FactorialMethod(method)
    except ValueError:
        names = ", ".join(choice.value for choice in FactorialMethod)
        raise DomainError(f"unknown factorial method {method!r}; use one of {names}") from None
    if method is FactorialMethod.SERIES_EXACT:
        return _estimate(n, ln_factorial_series(n), method)
    if method is FactorialMethod.RAW:
        return factorial_raw(n)
    return factorial_corrected(n)


def _estimate(n: int, ln_est: float, method: FactorialMethod) -> FactorialEstimate:
    """The one place a FactorialEstimate is built; value is inf on overflow.

    ln_est itself must be finite: past n ~ 2.5e305, ln n! overflows binary64.
    """
    if not math.isfinite(ln_est):
        raise OverflowLimitError(f"ln n! overflows binary64 at n = {shown(n)}")
    try:
        value = math.exp(ln_est)
    except OverflowError:
        value = math.inf
    return FactorialEstimate(n=n, ln_value=ln_est, value=value, method=method)
