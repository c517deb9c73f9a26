"""The Number Constant and the Euler-Mascheroni estimates built from it.

The source material assigns the Number Constant a single value but actually
produces three mutually inconsistent ones; all three are exposed as
first-class variants rather than silently picking a winner:

  INTEGRAL        the closed form -24 ln 2 + 16.67560703904 (~0.0400747);
  DIRECT_SERIES   twice the correction series, summed (~0.0317305);
  EMPIRICAL_LIMIT ln n - twice the odd harmonic sum, which converges to
                  2 - 2 ln 2 - gamma (~0.0364900).

Each variant's gamma estimate is 2 - 2 ln 2 - N_r, so only the empirical
limit reproduces the true gamma = 0.577215664901...

The empirical limit N(n) = ln n - 2 S(2, n) is evaluated from its limit,
N(n) = N - 2 Q(n) - E(n), in 128-bit fixed point and rounded once (up to
n = 40, from the exact S(2, n) and an integer ln n).  N = 2 - 2 ln 2 -
gamma is one integer literal and 2 Q(n) one exact fraction of literal
integer coefficients; both live in `harmonic`, whose odd sums from k = 1
(`harmonic._two_s_fixed`) rest on the same limit.  It takes no logarithm of
n and forms no float of size ln n, so nothing cancels, and it is the
correctly rounded N(n) (see nr_empirical_limit).  Each variant's gamma,
2 - 2 ln 2 - N_r, is still formed in binary64.
"""

import math
from enum import Enum
from itertools import repeat
from operator import truediv

from ._frozen import Frozen
from .errors import DomainError, OverflowLimitError, shown
from .harmonic import _HEAD_FIXED, _NR_BITS, _NR_LIMIT, _two_q_fixed, _window, correction_sum
from .oracle import LN2, _ln_fraction, ln_value

# Closed-form pieces of the integral variant.
INTEGRAL_OFFSET = 16.67560703904

# True gamma, correctly rounded to binary64, for error reporting only.
EULER_GAMMA_REFERENCE = 0.5772156649015329

# Term count at which the direct series' tail bound 1/(8 N**4) drops
# below 1e-12.
DIRECT_SERIES_CONVERGED_TERMS = 595

# Most terms H_p may add one by one (`gamma_definition_check`): ~4.5 s at the
# ~45 ns per term of its C-level loop (CPython 3.11, shared 2-vCPU x86-64
# host).  Every other sum takes O(1) past a few dozen terms.
MAX_TERMS = 10**8


class NrKind(Enum):
    INTEGRAL = "integral"
    DIRECT_SERIES = "series"
    EMPIRICAL_LIMIT = "limit"


class NrVariant(Frozen):
    """One computed incarnation of the Number Constant."""

    __slots__ = ()
    # terms is for DIRECT_SERIES only, n for EMPIRICAL_LIMIT only
    _fields = ("kind", "value", "terms", "n")

    def __init__(
        self, kind: NrKind, value: float, terms: int | None = None, n: int | None = None
    ) -> None:
        object.__setattr__(self, "_values", (kind, value, terms, n))


def nr_integral() -> float:
    """Closed form -24 ln 2 + 16.67560703904."""
    return -24.0 * LN2 + INTEGRAL_OFFSET


def nr_direct_series(terms: int) -> float:
    """Twice the correction series summed over its first `terms` terms."""
    if terms < 1:
        raise DomainError(f"nr_direct_series requires terms >= 1, got {shown(terms)}")
    return 2.0 * correction_sum(2, terms + 1)


# -- the empirical limit -------------------------------------------------
# N(n) = ln n - 2 S(2, n) = ln n - (2 S(1, n) - 2).  harmonic's
# `_two_s_fixed(n)` is 2 S(1, n) in units of 2**-W, W = 128: from n = 41 on
# floor(2**W ln n) + 2 2**W - _NR_LIMIT + _two_q_fixed(n), from the limit
#     N = 2 - 2 ln 2 - gamma,  N(n) = N - 2 Q(n) - E(n)
# (see there).  So from n = 41 on the value is _NR_LIMIT - _two_q_fixed(n):
# no logarithm of n and no float of size ln n, so nothing cancels.  E(n) is
# under 2**-90.04 N(n) at n = 41, where N(n) > 0.03646, and falls as
# n**-18: under 2**-119 N(n) from n = 128 and 2**-131 from n = 200.
# _NR_LIMIT = floor(2**W N) and _two_q_fixed(n) = floor(2**W 2 Q(n)) are
# each under one unit off, so under 2**-123 N(n) together.  Rounded once,
# the value is within 2**-90 N(n) of N(n) before that rounding, the
# correctly rounded N(n) unless N(n) lies that close to a midpoint of two
# floats: tests/test_referee.py checks every n up to 200 and sampled n up
# to 10**18 against a 50-digit referee, bit for bit.
# Up to n = 40, the last n of harmonic's head table, N(n) is floor(2**W
# P/Q) + 2 2**W - _HEAD_FIXED[n], with P/Q = _ln_fraction(n, 1) within
# 2**-85.1 ln n of ln n for n >= 2 (its case k >= 1) and _HEAD_FIXED[n] the
# exact head floored: two floors.  ln n / N(n) is at most 101.2 (at n = 40),
# so one rounding takes a value within 2**-78 N(n) of N(n).  n = 1 gives
# P = 0 and 2 S(1, 1) = 2: exactly +0.0.  Past the table, N(n) is taken
# from its limit.


def nr_empirical_limit(n: int) -> float:
    """N(n) = ln n minus twice the odd harmonic sum S(2, n), correctly rounded.

    From n = 41 on it is N - 2 Q(n) from the limit N = 2 - 2 ln 2 - gamma,
    below it the exact finite sum (see above): no logarithm of n is taken
    past n = 40, and no float of size ln n is formed.  n = 1 gives exactly
    0: ln 1 minus the empty sum S(2, 1).  DomainError for n < 1, then
    `harmonic._window`'s checks of the window [2, n]: OverflowLimitError
    past the 63-bit index cap and TypeError for an n that is not an int.
    """
    if n < 1:
        raise DomainError(f"nr_empirical_limit requires n >= 1, got {shown(n)}")
    _window(2, n)
    if n >= len(_HEAD_FIXED):
        return math.ldexp(_NR_LIMIT - _two_q_fixed(n), -_NR_BITS)
    p, q = _ln_fraction(n, 1)
    return math.ldexp((p << _NR_BITS) // q + (2 << _NR_BITS) - _HEAD_FIXED[n], -_NR_BITS)


def variant(kind: NrKind, terms: int | None = None, n: int | None = None) -> NrVariant:
    """Compute the requested Number Constant variant."""
    if kind is NrKind.INTEGRAL:
        return NrVariant(kind=kind, value=nr_integral())
    if kind is NrKind.DIRECT_SERIES:
        terms = DIRECT_SERIES_CONVERGED_TERMS if terms is None else terms
        return NrVariant(kind=kind, value=nr_direct_series(terms), terms=terms)
    n = 10**6 if n is None else n
    return NrVariant(kind=kind, value=nr_empirical_limit(n), n=n)


def euler_gamma(v: NrVariant) -> float:
    """gamma estimate 2 - 2 ln 2 - N_r for a computed variant.

    TypeError for a v that is not an NrVariant.
    """
    if not isinstance(v, NrVariant):
        raise TypeError(f"euler_gamma requires an NrVariant, got {type(v).__name__}")
    return 2.0 - 2.0 * LN2 - v.value


def _check_work(a: int, b: int) -> None:
    """OverflowLimitError if summing the terms a..b one by one passes MAX_TERMS."""
    if b - a + 1 > MAX_TERMS:
        raise OverflowLimitError(
            f"summing [{shown(a)}, {shown(b)}] term by term adds {shown(b - a + 1)} terms, "
            f"over the limit of {MAX_TERMS}"
        )


def gamma_definition_check(p: int) -> float:
    """Definition-based gamma: harmonic number H_p minus ln p.

    H_p is summed term by term over the window [1, p], with no O(1)
    shortcut: every asymptotic form of H_p contains gamma, the value this
    check exists to estimate.  So p counts against the work limit: past
    MAX_TERMS it raises OverflowLimitError before any term is added.  Each
    term is the correctly rounded int quotient 1/k, the same float as 1.0/k
    for k < 2**53 (the limit keeps p below that), and faster.
    """
    if p < 1:
        raise DomainError(f"gamma_definition_check requires p >= 1, got {shown(p)}")
    _check_work(1, p)
    harmonic = math.fsum(map(truediv, repeat(1), range(p, 0, -1)))
    return harmonic - (0.0 if p == 1 else ln_value(p))
