"""Odd-harmonic-series engine: partial sums and logarithm estimates.

The working identity: twice the odd harmonic sum over k = 2..n (terms
1/(2k-1)) plus twice a correction sum (terms 1/(k**3 (2k-1)**2))
approximates ln(n).  Quotients shift the index window instead of
differencing two full sums, and a rational p/q is scaled to mp/mq so the
window sits where the correction terms are negligible.

Every sum iterates one checked index window, `_window`, from the largest
index down (smallest terms first) and is accumulated with exact compensated
summation, which makes the additivity and antisymmetry properties hold to a
few ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    DomainError,
    NegativeInputError,
    OverflowLimitError,
    ZeroOrInfiniteError,
)

# Auto-scaling pushes both m*p and m*q above this; per-mille-level percent
# errors need ~150, the documented alternative 100 gives multiples of 1e-4.
DEFAULT_THRESHOLD = 150

# Window indices stay below 2**63 - 1, so that the big-int denominator
# k**3 (2k-1)**2 of a correction term still converts to a float.
_INDEX_CAP = 2**63 - 1

# Most terms one window may sum: under a minute at the slowest kernel's
# ~360 ns per term.  The longest windows in use have 10**7 terms.
MAX_TERMS = 10**8


class LogVariant(Enum):
    FULL = "full"  # harmonic + correction terms
    TRUNCATED = "truncated"  # harmonic terms only


def _window(a: int, b: int, first: int = 1) -> range:
    """The indices b down to a of a series window, so the smallest term comes first.

    b = a-1 encodes the empty window.  Raises DomainError for a < first or
    b < a-1, and OverflowLimitError past the index cap or MAX_TERMS, before
    any term is summed.
    """
    if a < first or b < a - 1:
        raise DomainError(f"invalid series window [{a}, {b}]")
    if b > _INDEX_CAP:
        raise OverflowLimitError(f"window index {b} exceeds 63-bit cap")
    if b - a + 1 > MAX_TERMS:
        raise OverflowLimitError(
            f"window [{a}, {b}] has {b - a + 1} terms, over the limit of {MAX_TERMS}"
        )
    return range(b, a - 1, -1)


def odd_harmonic_sum(a: int, b: int) -> float:
    """Sum of 1/(2k-1) for k = a..b; b = a-1 encodes the empty range."""
    return math.fsum(1.0 / (2 * k - 1) for k in _window(a, b))


def correction_sum(a: int, b: int) -> float:
    """Sum of 1/(k**3 (2k-1)**2) for k = a..b; empty range is 0."""
    return math.fsum(1.0 / (k**3 * (2 * k - 1) ** 2) for k in _window(a, b, first=2))


@dataclass(frozen=True)
class ScaledRational:
    """A positive rational p/q with multiplier m, kept unreduced as mp/mq."""

    p: int
    q: int
    m: int

    def __post_init__(self) -> None:
        if self.p < 1 or self.q < 1:
            raise DomainError(f"p and q must be positive, got {self.p}/{self.q}")
        if self.m < 1:
            raise DomainError(f"multiplier m must be >= 1, got {self.m}")
        _window(self.m * min(self.p, self.q) + 1, self.m * max(self.p, self.q))

    @property
    def scaled_p(self) -> int:
        return self.m * self.p

    @property
    def scaled_q(self) -> int:
        return self.m * self.q


def ln_quotient(x: int, y: int, variant: LogVariant = LogVariant.FULL) -> float:
    """Estimate of ln(x) - ln(y) from the index window between y and x.

    For x > y the window is k = y+1..x (odd denominators 2y+1..2x-1);
    x < y is the negated mirror, so antisymmetry is exact.
    """
    if x < 1 or y < 1:
        raise DomainError(f"ln_quotient requires positive integers, got {x}, {y}")
    if x == y:
        return 0.0
    if x < y:
        return -ln_quotient(y, x, variant)
    total = 2.0 * odd_harmonic_sum(y + 1, x)
    if variant is LogVariant.FULL:
        total += 2.0 * correction_sum(y + 1, x)
    return total


def ln_integer(n: int, variant: LogVariant = LogVariant.FULL) -> float:
    """Estimate of ln(n) for a positive integer; n = 1 gives exactly 0."""
    return ln_quotient(n, 1, variant)


def exp_form(n: int, variant: LogVariant = LogVariant.FULL) -> float:
    """Reconstruct n approximately as e**ln_integer(n)."""
    return math.exp(ln_integer(n, variant))


def ln_product(x: int, y: int, variant: LogVariant = LogVariant.FULL) -> float:
    """Estimate of ln(x) + ln(y) via the regrouped shared-prefix form.

    Equals ln_integer(x) + ln_integer(y) by term regrouping: the shared
    window k = 2..min(x, y) is counted four times, the remainder twice.
    """
    if x < 1 or y < 1:
        raise DomainError(f"ln_product requires positive integers, got {x}, {y}")
    lo, hi = min(x, y), max(x, y)
    total = 4.0 * odd_harmonic_sum(2, lo) + 2.0 * odd_harmonic_sum(lo + 1, hi)
    if variant is LogVariant.FULL:
        total += 4.0 * correction_sum(2, lo) + 2.0 * correction_sum(lo + 1, hi)
    return total


def ln_rational(r: ScaledRational, variant: LogVariant = LogVariant.TRUNCATED) -> float:
    """Estimate of ln(p/q) via the scaled window between mq and mp."""
    return ln_quotient(r.scaled_p, r.scaled_q, variant)


def select_multiplier(p: int, q: int, threshold: int = DEFAULT_THRESHOLD) -> int:
    """Smallest m with min(m*p, m*q) > threshold."""
    if threshold < 1:
        raise DomainError(f"threshold must be >= 1, got {threshold}")
    return threshold // min(p, q) + 1


def positive_ratio(p: int, q: int) -> tuple[int, int]:
    """Validate p/q as the argument of a real logarithm; return (|p|, |q|).

    Rejects p/q < 0 (NegativeInputError) and p = 0 or q = 0
    (ZeroOrInfiniteError).  A negative p and q pair is normalised, since
    the ratio itself is positive.
    """
    if p == 0 or q == 0:
        raise ZeroOrInfiniteError("no logarithm in real quantities for 0 or infinity")
    if (p < 0) != (q < 0):
        raise NegativeInputError("no logarithm in real quantities for a negative number")
    return abs(p), abs(q)


def ln_auto(
    p: int,
    q: int,
    threshold: int = DEFAULT_THRESHOLD,
    variant: LogVariant = LogVariant.TRUNCATED,
) -> tuple[int, float]:
    """Validate p/q, pick the smallest adequate multiplier, estimate ln(p/q)."""
    p, q = positive_ratio(p, q)
    m = select_multiplier(p, q, threshold)
    return m, ln_rational(ScaledRational(p=p, q=q, m=m), variant)
