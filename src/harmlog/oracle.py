"""Independent reference values: logarithms, exact factorials, error metric.

The reference logarithm is the platform ``math.log`` cross-validated on every
call against an artanh-type series (with binary range reduction), so agreement
between the library's harmonic-series estimates and the oracle is evidence
rather than circularity.  Factorial references use exact big-integer
arithmetic, compared in log space.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._frozen import Frozen
from .errors import DomainError, OracleIntegrityError, OverflowLimitError

# ln agreement demanded between math.log and the series path.
_LN_AGREEMENT_REL = 1e-13
# Crossover above which the big-integer factorial is no longer worth building.
_BIGINT_FACTORIAL_MAX = 20_000


class ReferenceValue(Frozen):
    """A reference value with a documented absolute error bound."""

    __slots__ = ("value", "guaranteed_abs_error")

    def __init__(self, value: float, guaranteed_abs_error: float) -> None:
        if guaranteed_abs_error < 0:
            raise DomainError("guaranteed_abs_error must be >= 0")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "guaranteed_abs_error", guaranteed_abs_error)


def _artanh_series_ln(x: float) -> float:
    """ln(x) via 2*artanh((x-1)/(x+1)) with frexp range reduction.

    After reduction the series argument t lies in (-1/3, 0], so the terms
    shrink at least geometrically with ratio 1/9 and the tail is below 1e-14
    after the loop's stopping test.
    """
    mantissa, exponent = math.frexp(x)  # x = mantissa * 2**exponent, mantissa in [0.5, 1)
    t = (mantissa - 1.0) / (mantissa + 1.0)
    t2 = t * t
    term = t
    total = 0.0
    k = 1
    while abs(term) > 1e-18:
        total += term / k
        term *= t2
        k += 2
    return 2.0 * total + exponent * _LN2_SERIES


# ln(2) = 2*artanh(1/3), summed once at import with exact fsum.
_LN2_SERIES = 2.0 * math.fsum((1.0 / 3.0) ** k / k for k in range(99, 0, -2))


def ln_ref(x: float) -> ReferenceValue:
    """Reference natural logarithm of a positive finite real.

    Raises OracleIntegrityError if the platform log and the series path
    disagree beyond 1e-13 relative.
    """
    try:
        x = float(x)  # what math.log and frexp would do to an int anyway
    except OverflowError:
        raise OverflowLimitError("ln_ref: x is past the binary64 range") from None
    if not 0 < x < math.inf:  # also rejects nan
        raise DomainError(f"ln_ref requires a finite x > 0, got {x}")
    platform = math.log(x)
    series = _artanh_series_ln(x)
    scale = max(abs(platform), 1.0)
    if abs(platform - series) > _LN_AGREEMENT_REL * scale:
        raise OracleIntegrityError(
            f"log paths disagree at x={x}: platform={platform!r}, series={series!r}"
        )
    return ReferenceValue(value=platform, guaranteed_abs_error=_LN_AGREEMENT_REL * scale)


def ln_value(x: float) -> float:
    """Shorthand for ``ln_ref(x).value``."""
    return ln_ref(x).value


LN2 = ln_value(2.0)


@lru_cache(maxsize=None)
def factorial_exact_ln(n: int) -> float:
    """ln(n!) from the exact big-integer factorial (lgamma above the cap).

    Past n ~ 2.5e305, ln n! overflows binary64: OverflowLimitError.
    """
    if n < 0:
        raise DomainError(f"factorial_exact_ln requires n >= 0, got {n}")
    if n <= _BIGINT_FACTORIAL_MAX:
        return math.log(math.factorial(n))
    try:
        return math.lgamma(n + 1)
    except OverflowError:
        bits = n.bit_length()
        raise OverflowLimitError(f"ln n! overflows binary64 at n of {bits} bits") from None


def percent_error(approx: float, reference: float) -> float:
    """Signed percentage error (approx - reference) / reference * 100."""
    if reference == 0:
        if approx == 0:
            return 0.0  # an exact zero is a 0 % error
        raise DomainError("percent_error undefined for reference = 0")
    return (approx - reference) / reference * 100.0


def percent_error_from_ln(ln_approx: float, ln_reference: float) -> float:
    """percent_error computed from natural logs (safe when values overflow)."""
    return (math.exp(ln_approx - ln_reference) - 1.0) * 100.0
