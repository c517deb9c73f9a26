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
"""

import math
from enum import Enum
from itertools import repeat
from operator import truediv

from ._frozen import Frozen
from .errors import DomainError, shown
from .harmonic import _check_work, correction_sum, odd_harmonic_sum
from .oracle import LN2, ln_value

# Closed-form pieces of the integral variant.
INTEGRAL_OFFSET = 16.67560703904

# True gamma, correctly rounded to binary64, for error reporting only.
EULER_GAMMA_REFERENCE = 0.5772156649015329

# Term count at which the direct series' tail bound 1/(8 N**4) drops
# below 1e-12.
DIRECT_SERIES_CONVERGED_TERMS = 595


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


def nr_empirical_limit(n: int) -> float:
    """ln n minus twice the odd harmonic sum up to n (oracle logarithm).

    n = 1 gives exactly 0: ln 1 minus the empty sum S(2, 1).
    """
    if n < 1:
        raise DomainError(f"nr_empirical_limit requires n >= 1, got {shown(n)}")
    return ln_value(n) - 2.0 * odd_harmonic_sum(2, n)


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
