"""Odd-harmonic-series engine: partial sums and logarithm estimates.

The working identity: twice the odd harmonic sum over k = 2..n (terms
1/(2k-1)) plus twice a correction sum (terms 1/(k**3 (2k-1)**2))
approximates ln(n).  Quotients shift the index window instead of
differencing two full sums, and a rational p/q is scaled to mp/mq so the
window sits where the correction terms are negligible.

Sums iterate from the largest index down (smallest terms first) and are
accumulated with exact compensated summation, which makes the additivity
and antisymmetry properties hold to a few ulp.
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

# Scaled indices stay below 2**63 - 1; beyond that the sums are
# uncomputable in reasonable time anyway.
_INDEX_CAP = 2**63 - 1


class LogVariant(Enum):
    FULL = "full"  # harmonic + correction terms
    TRUNCATED = "truncated"  # harmonic terms only


def odd_harmonic_sum(a: int, b: int) -> float:
    """Sum of 1/(2k-1) for k = a..b; b = a-1 encodes the empty range."""
    if a < 1 or b < a - 1:
        raise DomainError(f"invalid odd-harmonic range [{a}, {b}]")
    return math.fsum(1.0 / (2 * k - 1) for k in range(b, a - 1, -1))


def correction_sum(a: int, b: int) -> float:
    """Sum of 1/(k**3 (2k-1)**2) for k = a..b; empty range is 0."""
    if a < 2 or b < a - 1:
        raise DomainError(f"invalid correction range [{a}, {b}]")
    return math.fsum(1.0 / (k**3 * (2 * k - 1) ** 2) for k in range(b, a - 1, -1))


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
        _check_index(self.m * self.p)
        _check_index(self.m * self.q)

    @property
    def scaled_p(self) -> int:
        return self.m * self.p

    @property
    def scaled_q(self) -> int:
        return self.m * self.q


def _check_index(value: int) -> None:
    if value > _INDEX_CAP:
        raise OverflowLimitError(f"scaled index {value} exceeds 63-bit cap")


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
    _check_index(x)
    total = 2.0 * odd_harmonic_sum(y + 1, x)
    if variant is LogVariant.FULL:
        total += 2.0 * correction_sum(y + 1, x)
    return total


def ln_integer(n: int, variant: LogVariant = LogVariant.FULL) -> float:
    """Estimate of ln(n) for a positive integer; n = 1 gives exactly 0."""
    if n < 1:
        raise DomainError(f"ln_integer requires n >= 1, got {n}")
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
