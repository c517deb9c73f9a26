"""Odd-harmonic-series engine: partial sums and logarithm estimates.

The working identity: twice the odd harmonic sum over k = 2..n (terms
1/(2k-1)) plus twice a correction sum (terms 1/(k**3 (2k-1)**2))
approximates ln(n).  Quotients shift the index window instead of
differencing two full sums, and a rational p/q is scaled to mp/mq so the
window sits where the correction terms are negligible.

Every sum checks its index window with `_window`, which builds nothing: only
a sum that adds terms one by one builds a range over them, and only those
terms count against the work limit, `MAX_TERMS`.  An odd window with up to
48 terms (`_DIRECT_MAX_TERMS`) from k = max(a, 41) on is the correctly
rounded value of the exact sum of its float terms (`math.fsum`, Shewchuk's
algorithm, in a C-level loop), so the order of the terms does not change
it.  A longer odd window is the same finite sum, not a different
approximation, evaluated in O(1) within 0.501 ulp, whatever its start:
from k = c = max(a, 41) on as four floats from the digamma function's
expansion about x + 1/2 (`_psi_series`, and the integer logarithm
`oracle._ln_ratio` of b/(c-1)), plus, for a window that starts below k = 41,
its head S(a, 40) as two floats from exact integers (`_odd_head`, memoised
per a).  One evaluator, `_odd_sums`, takes the windows S(m lo + 1, m hi)
of a multiplier grid in one pass; `odd_harmonic_sum` is its grid of one.
For every m with m lo >= 40, b/(c-1) is hi/lo itself, so the whole grid
takes that logarithm from one `_ln_ratio` call (memoised in lowest terms).
The fast-decaying series 1/(k**3 (2k-1)**r) (the correction sum, r = 2,
and the factorial's tail sum, r = 1, `_decaying_sum`) sum a head exactly
and enclose the rest from a 16-coefficient Hurwitz-zeta polynomial, whose
relative error is one proven width per series; when both ends of the
enclosure round the sum to the same float, that float is the sum of every
term, and otherwise the head doubles and the enclosure is tried again.
Either way the result is bit-identical to summing every term.  One memo,
`_head`, keeps each head, first or doubled, as its exact parts with the
tail polynomial's value at its end, so a repeated window sums no head term,
and the heads from k = 2, where every series in the paper starts, are literals.
"""

import math
from collections.abc import Iterable, Iterator
from enum import Enum
from functools import cache, lru_cache
from itertools import chain, islice, repeat
from operator import index, mul, neg, truediv

from ._frozen import Frozen
from .errors import (
    DomainError,
    NegativeInputError,
    OverflowLimitError,
    ZeroOrInfiniteError,
    shown,
)
from .oracle import _hi_lo, _ln_ratio

# Auto-scaling pushes both m*p and m*q above this; per-mille-level percent
# errors need ~150, the documented alternative 100 gives multiples of 1e-4.
DEFAULT_THRESHOLD = 150

# Window indices stay below 2**63 - 1, so that the big-int denominator
# k**3 (2k-1)**2 of a correction term still converts to a float.
_INDEX_CAP = 2**63 - 1

# Most terms one sum may add one by one: 30-60 s at the slowest kernel's
# 310-560 ns per term (a correction window too short for the tail enclosure,
# CPython 3.11 on x86-64 Xeon VMs).
# Only `_check_work` compares against it, before any term is added; a
# window's length alone is not limited, since the odd sum past 48 terms and
# the fast-decaying sums past their head take O(1).
MAX_TERMS = 10**8


class LogVariant(Enum):
    FULL = "full"  # harmonic + correction terms
    TRUNCATED = "truncated"  # harmonic terms only


def _window(a: int, b: int, first: int = 1) -> None:
    """Check the series window [a, b]; b = a-1 encodes the empty window.

    Raises DomainError for a < first or b < a-1, OverflowLimitError past the
    index cap, and then TypeError for an a or b that is not an int, before a
    sum does any arithmetic with them.  Only a sum that adds its terms one by
    one builds a range over them.
    """
    if a < first or b < a - 1:
        raise DomainError(f"invalid series window [{shown(a)}, {shown(b)}]")
    if b > _INDEX_CAP:
        raise OverflowLimitError(f"window index {shown(b)} exceeds 63-bit cap")
    index(a), index(b)


def _check_work(a: int, b: int) -> None:
    """OverflowLimitError if summing the terms a..b one by one passes MAX_TERMS."""
    if b - a + 1 > MAX_TERMS:
        raise OverflowLimitError(
            f"summing [{shown(a)}, {shown(b)}] term by term adds {shown(b - a + 1)} terms, "
            f"over the limit of {MAX_TERMS}"
        )


def _terms(ks: range, r: int) -> Iterator[float]:
    """1.0 / (k**3 (2k-1)**r) for k in ks, in a C-level loop.

    The big-int denominator is rounded to a float once and divided once, as
    in `1.0 / int`.
    """
    odd = range(2 * ks.start - 1, 2 * ks.stop - 1, 2 * ks.step)  # 2k-1 for k in ks
    denominators = map(mul, map(pow, ks, repeat(3)), map(pow, odd, repeat(r)))
    return map(truediv, repeat(1.0), denominators)


# -- fast-decaying sums ------------------------------------------------------
# For t(k) = 1/(k**3 (2k-1)**r) with r in {1, 2} and s0 = 3 + r,
#     t(k) = k**-s0 (1 - 1/(2k))**-r / 2**r = sum_j w_j k**-(s0+j),
#     w_j = C(r+j-1, j) / 2**(j+r),
# so the tail T(m) = sum_{k>=m} t(k) = sum_j w_j zeta(s0+j, m) (Hurwitz zeta).
# With j < _J_TERMS and each zeta from Euler-Maclaurin with _EM_TERMS
# Bernoulli terms (DLMF 2.10.1 with n -> infinity, f(x) = x**-s),
#     zeta(s, m) = x**(s-1)/(s-1) + x**s/2
#                  + sum_{i<=P} B_2i/(2i)! (s)_{2i-1} x**(s+2i-1) + R_P,
# x = 1/m and (s)_n the rising factorial, T(m) is x**(s0-1) sum_n a_n x**n
# (n <= 25) plus remainders.  That(m) (`_tail`) keeps the degrees n < 16,
# A(x) = sum_{n<16} a_n x**n, evaluated in binary64 by Horner's rule.
# `_decaying_sum` sums a head [a, h] exactly and puts the rest [h+1, b] in
# [tail - delta, tail + delta], tail = That(h+1) - That(b+1).
#
# The width.  For every m >= 17, |T(m) - That(m)| <= W_r That(m), with one
# literal W_r per series (`_TAIL_WIDTHS`).  |T(m) - That(m)| is at most
# x**(s0-1) N(x), where N sums four polynomials in x with nonnegative
# coefficients:
# 1. The j-series truncation.  With v = 1/(2k) <= x/2, the omitted part of
#    (1 - v)**-r is v**J of it for r = 1 and (J+1-Jv) v**J <= (J+1) v**J of it
#    for r = 2, so it is at most (J+1) (x/2)**J T(m); and T(m) <=
#    (34/33)**r 2**-r x**(s0-1) (1/(s0-1) + x), from (1 - v)**-r <= (34/33)**r
#    for k >= 17 and sum_{k>=m} k**-s <= x**s + x**(s-1)/(s-1).
# 2. The Euler-Maclaurin remainders.  DLMF 2.10.2 writes R_P as an integral
#    of (B_2(P+1) - B~_2(P+1)(x)) f^(2P+2)(x) / (2P+2)!, and |B~_2n(x)| <=
#    |B_2n| (DLMF 24.9.1), so |R_P| <= 2 |B_2(P+1)| / (2P+2)! (s)_{2P+1}
#    x**(s+2P+1) (f^(2P+2) > 0 integrates to |f^(2P+1)(m)|).  Weighted by
#    w_j, these are coefficients e_n >= 0 of degrees 2P+2 = 16 to 27.
# 3. The dropped degrees, |a_n| x**n for n = 16..25.
# 4. The float error of That(m).  x = 1.0/m is two roundings off 1/m; a_n is
#    rounded once; Horner's rule gives a_n x**n a factor (1 + theta_{2n+1})
#    (Higham, Accuracy and Stability, eq. 5.3); x**(s0-1) takes s0-2 products
#    and the final product one more.  So the term of degree n is off by at
#    most gamma_K |a_n| x**(s0-1+n), K = 3 s0 + 4n + 1, gamma_K = Ku/(1-Ku)
#    (Higham lemma 3.1), u = 2**-53; call their sum x**(s0-1) G(x).
# N grows with x, so N(x) <= N(1/17).  That(m) >= x**(s0-1) (A(x) - G(x)),
# and A(x) is at least D = a_0 plus its negative terms taken at x = 1/17, so
# That(m) >= x**(s0-1) (D - G(1/17)).  Hence the ratio at m = 17 bounds
# every m >= 17: N(1/17) / (D - G(1/17)) is 24.04u for the correction sum
# and 15.63u for the factorial's tail, rounded up to W_2 = 24.1u and
# W_1 = 15.7u.  Item 4 is most of it (16.7u and 13.4u of That(17)).
#
# delta covers the gap between the tail and R, the exact sum of the float
# terms fl(t(k)) for k = h+1..b that summing every term would add.  fl(t(k))
# rounds the big-int denominator to a float and then its reciprocal, so
# |R - R*| <= 2u/(1-u) R*, R* = T(h+1) - T(b+1) <= (1 + W) That(h+1) (no term
# is subnormal: k < 2**63 keeps t(k) above 2**-320).  |R* - (That(h+1) -
# That(b+1))| <= W (That(h+1) + That(b+1)), and the subtraction rounds once,
# by at most u (1 + 3W) That(h+1).  So
#     |R - tail| <= 1.001 (3u That(h+1) + W (That(h+1) + That(b+1))),
# where the factor 1.001 covers the products of u and W with the rest and the
# rounding of delta's own few operations (each well under 1e-12 relative).
# The ends tail -+ delta round once more, so they are moved one float outward
# with math.nextafter.  fsum is correctly rounded, hence monotone: when
# fsum(head + [lo]) equals fsum(head + [hi]), it equals the sum of every term.
#
# The coefficients a_n are literals (`_TAIL_POLYNOMIALS`), each the correctly
# rounded value of an exact rational, written as its shortest round-tripping
# decimal, so no process spends time deriving them.
# `fraction_tail_polynomials` in tests/test_harmonic.py derives them and
# N(1/17) / (D - G(1/17)) from _EM_TERMS, _J_TERMS and the Bernoulli numbers
# in Fraction arithmetic, and the tests check every coefficient against it bit
# for bit and each W_r against the bound.
_EM_TERMS = 7  # Bernoulli numbers B2..B14 kept; B16 bounds the remainder
_J_TERMS = 12  # j = 0..11; item 1 is then under 0.06u of That(m) from m = 17
_U = 2.0**-53
# Terms a head holds in memory at a time; `_exact_parts` folds each chunk
# into a few floats, so a head of any length takes little memory.
_CHUNK = 1 << 14


# a_n for n = 15 down to 0, keyed by r: 2 is the correction sum and 1 the
# factorial's tail.
_TAIL_POLYNOMIALS = {
    2: (
        109.94266183035714, 13.010367838541667, -14.184375, -1.88665771484375,
        2.3363037109375, 0.3595226469494048, -0.49768522493131867, -0.07381184895833333,
        0.17915482954545456, 0.078515625, 0.0109375, 0.10872395833333333,
        0.23660714285714285, 0.2604166666666667, 0.175, 0.0625,
    ),
    1: (
        35.851719835069446, 14.1841796875, -5.20391845703125, -2.3330973307291667,
        0.9791003999255953, 0.5072036687271062, -0.24601236979166666, -0.14760890151515152,
        0.097265625, 0.08229166666666667, -0.018880208333333332, 0.01488095238095238,
        0.17708333333333334, 0.31666666666666665, 0.3125, 0.16666666666666666,
    ),
}
# W_r, the proven bound on |T(m) - That(m)| / That(m) for m >= 17.
_TAIL_WIDTHS = {2: 24.1 * _U, 1: 15.7 * _U}


def _tail(m: int, r: int) -> float:
    """That(m), the tail from k = m on, within W_r That(m) for m >= 17 (see above).

    Horner's rule on A(x), written out from a_15 down to a_0, times
    x**(s0-1) as a product of x's taken from the left.
    """
    a15, a14, a13, a12, a11, a10, a9, a8, a7, a6, a5, a4, a3, a2, a1, a0 = _TAIL_POLYNOMIALS[r]
    x = 1.0 / m
    value = (((((((((((((((a15 * x + a14) * x + a13) * x + a12) * x + a11) * x + a10) * x + a9)
        * x + a8) * x + a7) * x + a6) * x + a5) * x + a4) * x + a3) * x + a2) * x + a1) * x + a0)
    power = x * x * x
    return value * (power * x if r == 2 else power)


def _tail_enclosure(first: int, last: int, r: int, t_first: float) -> tuple[float, float]:
    """Floats lo <= hi around the exact sum of the float terms for k = first..last.

    t_first is `_tail(first, r)`, from the head that ends at first - 1.
    Proven for first >= 17 (see above).
    """
    t_last = _tail(last + 1, r)
    tail = t_first - t_last
    delta = 1.001 * (3.0 * _U * t_first + _TAIL_WIDTHS[r] * (t_first + t_last))
    return math.nextafter(tail - delta, -math.inf), math.nextafter(tail + delta, math.inf)


def _exact_parts(terms: Iterator[float]) -> list[float]:
    """A few floats whose exact sum is the exact sum of terms.

    fsum rounds the exact sum correctly, so each part leaves a residual
    2**-53 times smaller that is still a sum of floats, hence a multiple of
    the smallest ulp among them: it reaches exactly zero after a few parts.
    """
    parts: list[float] = []
    while chunk := list(islice(terms, _CHUNK)):
        values, parts = parts + chunk, []
        while part := math.fsum(chain(values, map(neg, parts))):
            parts.append(part)
    return parts


# The first head [2, 16] of each series, as `_head(2, 16, r)` would build it:
# its exact parts and `_tail(17, r)`.  tests/test_harmonic.py derives both.
_FIRST_HEADS = {
    2: ((0.015864355255338754, -5.397717456378029e-19), 8.829478324700383e-07),
    1: ((0.053214512047626034, 7.165898733771381e-19), 3.789557588928057e-05),
}


@lru_cache(maxsize=128)
def _head(a: int, h: int, r: int) -> tuple[tuple[float, ...], float]:
    """The exact parts of the head [a, h], h = 8a 2**i, and `_tail(h + 1, r)`, memoised.

    The head [2, 16] is its literal; a doubled head is the parts of [a, h/2],
    themselves memoised, and the terms (h/2, h].
    """
    if h == 16 and a == 2:
        return _FIRST_HEADS[r]
    start = h // 2 if h > 8 * a else a - 1
    below = _head(a, start, r)[0] if h > 8 * a else ()
    terms = chain(below, _terms(range(h, start, -1), r))
    return tuple(_exact_parts(terms)), _tail(h + 1, r)


def _decaying_sum(a: int, b: int, r: int) -> float:
    """Sum of 1/(k**3 (2k-1)**r) for k = a..b, r in {1, 2}; b = a-1 is empty.

    Bit-identical to math.fsum over every term.  The head [a, h] first ends at
    h = 8a, so the tail starts at h + 1 >= 17 and, for a window far longer
    than its head, is a share of about 8**-(s0-1) of the sum: small enough
    that its enclosure rarely straddles a rounding boundary.  When it does,
    the head doubles, which adds only h terms and shrinks the tail by a
    factor of about 2**(s0-1); a growth of 8h cost more on average, timed
    over the straddling windows of the factorial's tail (a = 2, b up to
    10**18).  Once the window ends by 2h, the head and the rest of the
    window are summed term by term.

    Every series of the paper starts at a = 2, so the same heads recur: each
    head, first or doubled, is memoised with That at its end (`_head`; the
    heads [2, 16] are literals), and a repeated window sums no head term.
    The work limit is checked before each lookup, as before the sum.
    """
    _window(a, b, first=2)
    head, summed, h = (), a - 1, 8 * a
    while b > 2 * h:
        _check_work(a, h)
        head, t_first = _head(a, h, r)
        summed = h
        lo, hi = _tail_enclosure(h + 1, b, r, t_first)
        low = math.fsum(head + (lo,))
        if low == math.fsum(head + (hi,)):
            return low
        h *= 2
    _check_work(a, b)
    return math.fsum(chain(head, _terms(range(b, summed, -1), r)))


# -- long odd windows --------------------------------------------------------
# psi(x+1) - psi(x) = 1/x for the digamma function psi, so for a <= c <= b
# and d = c - 1
#     S(a, b) = S(a, d) + (psi(b + 1/2) - psi(d + 1/2)) / 2.
# DLMF 5.11.2 gives, for real x > 0,
#     psi(x) = ln x - 1/(2x) - sum_{k=1..K} B_2k / (2k x**2k) + R_K(x),
# and the duplication formula psi(2x) = (psi(x) + psi(x + 1/2))/2 + ln 2
# (DLMF 5.5.8) turns it into the expansion about x + 1/2,
#     psi(x + 1/2) = ln x + sum_{k=1..K} (1 - 2**(1-2k)) B_2k / (2k x**2k)
#                    + 2 R_K(2x) - R_K(x).
# A window with more than _DIRECT_MAX_TERMS terms from c = max(a,
# _LOWEST_TAIL_START) on takes that part as
#     S(c, b) = ln(b/d)/2 + Q(b) - Q(d) + (E(b) - E(d))/2,
#     Q(x) = sum_{k=1..K} (1 - 2**(1-2k)) B_2k / (4k x**2k),
#     E(x) = 2 R_K(2x) - R_K(x),
# from the window's own integers: no gamma and no float constant.  For a
# scaled estimate 2 S(mq+1, mp) with mq >= 40, ln(b/d) is ln(p/q) itself, so
# `_odd_sums` takes it once, reduced by its gcd, for every such multiplier
# of a sweep (`oracle._ln_ratio` is memoised across sweeps).  A window from
# a <= 40 adds its head S(a, 40) = N_a / L, where L = lcm(1, 3, ..., 79) and
# N_a = sum_{k=a..40} L/(2k-1) are integers, as the floats hi, lo of
# `oracle._hi_lo`: hi = N_a / L and lo = N_a / L - hi, each an int quotient
# rounded once.  So no window adds a term one by one past the crossover,
# and the crossover counts only the terms from c on, since only those are
# saved.
#
# Error bound, with u = 2**-53, d = c - 1 >= 40 and n > 40 the terms from c
# on.  Each of them is above 1/(2b), and b = d + n, so S = S(a, b) >=
# S(c, b) > n/(2(d+n)).
# 1. Truncation.  Binet's formula (DLMF 5.9.13) is psi(x) = ln x - 1/(2x)
#    - 2 int_0^inf t dt / ((t**2 + x**2)(e**(2 pi t) - 1)).  Expanding
#    1/(t**2 + x**2) to K terms and using int_0^inf t**(2n-1) dt /
#    (e**(2 pi t) - 1) = |B_2n|/(4n) (DLMF 24.7.2) gives the sum above and a
#    remainder R_K(x) of one sign for every x, at most the first omitted term
#    |B_2(K+1)| / ((2K+2) x**(2K+2)).  2 R_K(2x) and R_K(x) share that sign,
#    so |E(x)| is at most the larger of them, |B_12| / (12 x**12) with K = 5.
#    E(b) and E(d) need not share a sign, so their halved difference is
#    bounded by the sum of both, under |B_12| / (12 d**12)
#    < |B_12|/6 (1/(n d**11) + 1/d**12) S < 2**-67 S.
# 2. The logarithm.  oracle._ln_ratio returns hi + lo within 2**-75 of
#    ln(b/d), relative to it, from integer arithmetic alone (see there);
#    halving them is exact.  ln(b/d)/2 is the sum of ln(k/(k-1))/2, the
#    integral of 1/(2x) over [k-1, k], for k = c..b, so by midpoint convexity
#    it is at least S(c, b).  It exceeds S(c, b) by Q(d) - Q(b) + (E(d) -
#    E(b))/2, under 1/(48 d**2): Q(b) > 0, and Q(d) falls short of its first
#    term by over 3e-3/d**4 (item 3), far more than item 1's E terms.  As
#    1/(48 d**2) < (1/24) (1/(n d) + 1/d**2) S(c, b) < 1e-4 S(c, b), this
#    is under 1.0001 2**-75 S.
# 3. y = 1/(x*x) is an int quotient, rounded once.  Q(x) is positive and
#    below its first term 1/(48 x**2): the terms alternate and shrink for
#    x >= 40, the second is -7/(1920 x**4), and all but the first together
#    are under 2e-4 of it.  Horner's rule on the five rounded
#    coefficients gives the term of degree k at most 3k + 1 roundings
#    (Higham, Accuracy and Stability, eq. 5.3, with y's own and the final
#    product's), so each of Q(b) and Q(d) is off by under 5u/(48 x**2), and
#    together by under 5u/(24 d**2) < (5u/12) (1/(n d) + 1/d**2) S
#    < u S/1900.
# 4. The head.  From a <= 40, hi + lo is within 2**-105 S(a, 40) <= 2**-105 S
#    of S(a, 40) (see `oracle._hi_lo`); from a >= 41 there is no head.
# 5. So the four tail floats and the head's two sum to S within under
#    2**-67 S + 1.0001 2**-75 S + (1/1900 + 2**-52) u S < 0.0006 u S.  fsum
#    rounds that exact sum correctly, to R within half an ulp of it, and
#    u R < ulp(R): R is within 0.5 + 0.0006 (1 + 2u) < 0.501 ulp of S, from
#    any a.
#    tests/test_referee.py checks this bound against a 50-digit sum, and
#    tests/test_harmonic.py 2 ulp against the fsum of every float term.
# The crossover is the measured break-even of this path.  Timed over 400
# windows of 41 to 128 terms, log-uniform in a from 41 to 2**62 (CPython
# 3.11, x86-64 Xeon, least of 15 runs of 50), the O(1) path took 4.2-13 us
# (median 7.1) and a direct term 77-222 ns (the wider the index, the
# slower); the two cost the same at 49-56 terms (median ratio 0.99), and the
# 400 windows took least with the crossover at 48: 2.88 ms, against 2.89 at
# 40 and 56, 2.94 at 64, 3.54 at 96 and 4.60 at 128.  The head of a window
# from a <= 40 adds two floats to the same fsum, so the crossover holds from
# every a.  It is at least _LOWEST_TAIL_START - 1, so that n > 40.  Every
# tests/golden/ file is the same with it at 48 as with every window of up to
# 10**6 terms summed term by term.
#
# A direct window whose 2k-1 passes 2**53, of at most 48 terms, has each
# term rounded twice: 2k-1 to a float, then 1.0 divided by it.  Each rounding
# is a factor 1 + d with |d| <= u/(1+u), so a term is within 2u of 1/(2k-1),
# the exact sum of the float terms is within 2u S of S, and fsum adds half an
# ulp of its result R.  As ulp(R) > u R, R is within 2 S/R + 1/2 ulp of S:
# about 2.5 ulp.  Neighbouring terms share the rounding of their
# denominators, so it does not cancel, and such windows do pass 1 ulp;
# tests/test_referee.py checks 2.5 ulp there.  The O(1) path's floats are
# int quotients, rounded once, so past 2**53 its bound above still holds.
_DIRECT_MAX_TERMS = 48
_LOWEST_TAIL_START = 41  # so that d >= 40 in items 1, 2, 3 and 5


def _psi_series(x: int) -> float:
    """Q(x) = sum_{k=1..5} (1 - 2**(1-2k)) B_2k / (4k x**2k), by Horner's rule in 1/x**2.

    The coefficients, k = 5 down to 1, are int quotients, each correctly
    rounded; B_12 bounds the remainder (item 1 above).
    """
    y = 1 / (x * x)
    return ((((511 / 135168 * y - 127 / 61440) * y + 31 / 16128) * y - 7 / 1920) * y + 1 / 48) * y


# L = lcm(1, 3, ..., 79) and N_1 = sum_{k=1..40} L/(2k-1) as literals, which
# tests/test_harmonic.py derives, so that a head's first build divides only
# for its terms below a; the head from a = 2 of ln n's odd sum, S(2, 40), is
# the literal pair `_hi_lo` gives it.
_HEAD_LCM = 506779050856155982994105817275475
_HEAD_FROM_1 = 1432262885870223732401714405337152
_ODD_HEAD_FROM_2 = (1.8262077594773285, 3.58237352971354e-17)


@cache
def _odd_head(a: int) -> tuple[float, float]:
    """S(a, 40) for 1 <= a <= 40 as floats hi, lo (see above), memoised.

    N_a is N_1 less L/(2k-1) for k = 1..a-1.
    """
    if a == 2:
        return _ODD_HEAD_FROM_2
    below = sum(_HEAD_LCM // d for d in range(1, 2 * a - 2, 2))
    return _hi_lo(_HEAD_FROM_1 - below, _HEAD_LCM)


def _odd_sums(lo: int, hi: int, multipliers: Iterable[int]) -> list[float]:
    """S(m lo + 1, m hi) for each m, over windows already checked (see above).

    A window with up to _DIRECT_MAX_TERMS terms from k = c = max(m lo + 1,
    41) on is the correctly rounded sum of its float terms.  A longer one is
    the same finite sum, within 0.501 ulp, in O(1): from c on, four floats
    from the digamma function, plus the two of the head S(m lo + 1, 40) of a
    window that starts below c.  Every window from k = 41 on takes ln(hi/lo),
    so one `_ln_ratio` call serves all of them.
    """
    sums, shared = [], None
    for m in multipliers:
        a, b = m * lo + 1, m * hi
        d = a - 1 if a > _LOWEST_TAIL_START else _LOWEST_TAIL_START - 1
        if b - d <= _DIRECT_MAX_TERMS:
            sums.append(math.fsum(map(truediv, repeat(1.0), range(2 * b - 1, 2 * a - 2, -2))))
            continue
        if a <= d or not shared:
            ln = _ln_ratio(b // (g := math.gcd(b, d)), d // g)
        if a > d:  # b/d is hi/lo: one logarithm serves every such m
            ln = shared = shared or ln
        head = _odd_head(a) if a <= d else ()
        sums.append(math.fsum((ln[0] / 2, ln[1] / 2, _psi_series(b), -_psi_series(d), *head)))
    return sums


def odd_harmonic_sum(a: int, b: int) -> float:
    """Sum of 1/(2k-1) for k = a..b; b = a-1 encodes the empty range.

    A window with up to _DIRECT_MAX_TERMS terms from k = c = max(a, 41) on
    is the correctly rounded sum of its float terms.  A longer one is the
    same finite sum, within 0.501 ulp (see above), in O(1) (`_odd_sums`).
    """
    _window(a, b)
    return _odd_sums(a - 1, b, (1,))[0]


def correction_sum(a: int, b: int) -> float:
    """Sum of 1/(k**3 (2k-1)**2) for k = a..b; empty range is 0."""
    return _decaying_sum(a, b, 2)


def _check_scaled(p: int, q: int, multipliers: Iterable[int]) -> None:
    """Validate p/q with each multiplier m of a grid as `ScaledRational` does.

    DomainError for p or q below 1, then for each m in grid order
    DomainError below 1 and OverflowLimitError when the window's top index
    m * max(p, q) passes the index cap.  TypeError for a p, q or m that is
    not an int, before it is multiplied.
    """
    if p < 1 or q < 1:
        raise DomainError(f"p and q must be positive, got {shown(p)}/{shown(q)}")
    top = max(index(p), index(q))
    for m in multipliers:
        if m < 1:
            raise DomainError(f"multiplier m must be >= 1, got {shown(m)}")
        if index(m) * top > _INDEX_CAP:
            raise OverflowLimitError(f"window index {shown(m * top)} exceeds 63-bit cap")


class ScaledRational(Frozen):
    """A positive rational p/q with multiplier m, kept unreduced as mp/mq."""

    __slots__ = ()
    _fields = ("p", "q", "m")

    def __init__(self, p: int, q: int, m: int) -> None:
        _check_scaled(p, q, (m,))
        object.__setattr__(self, "_values", (p, q, m))

    @property
    def scaled_p(self) -> int:
        return self.m * self.p

    @property
    def scaled_q(self) -> int:
        return self.m * self.q


def ln_quotient(x: int, y: int, variant: LogVariant = LogVariant.FULL) -> float:
    """Estimate of ln(x) - ln(y) from the index window between y and x.

    The window is k = lo+1..hi, lo and hi the smaller and larger of x and y
    (odd denominators 2lo+1..2hi-1).  For x < y its estimate is negated,
    which is exact, so antisymmetry is exact.
    """
    if x < 1 or y < 1:
        raise DomainError(f"ln_quotient requires positive integers, got {shown(x)}, {shown(y)}")
    if x == y:
        return 0.0
    lo, hi = (y, x) if x > y else (x, y)
    total = 2.0 * odd_harmonic_sum(lo + 1, hi)
    if variant is LogVariant.FULL:
        total += 2.0 * correction_sum(lo + 1, hi)
    return total if x > y else -total


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
        raise DomainError(f"ln_product requires positive integers, got {shown(x)}, {shown(y)}")
    lo, hi = min(x, y), max(x, y)
    total = 4.0 * odd_harmonic_sum(2, lo) + 2.0 * odd_harmonic_sum(lo + 1, hi)
    if variant is LogVariant.FULL:
        total += 4.0 * correction_sum(2, lo) + 2.0 * correction_sum(lo + 1, hi)
    return total


def ln_rational(r: ScaledRational, variant: LogVariant = LogVariant.TRUNCATED) -> float:
    """Estimate of ln(p/q) via the scaled window between mq and mp.

    TypeError for an r that is not a ScaledRational.
    """
    if not isinstance(r, ScaledRational):
        raise TypeError(f"ln_rational requires a ScaledRational, got {type(r).__name__}")
    return ln_quotient(r.scaled_p, r.scaled_q, variant)


def select_multiplier(p: int, q: int, threshold: int = DEFAULT_THRESHOLD) -> int:
    """Smallest m with min(m*p, m*q) > threshold, for positive p and q.

    DomainError for p, q or threshold below 1, then TypeError for a p, q or
    threshold that is not an int (nan and the infinities too), before any
    arithmetic.
    """
    if p < 1 or q < 1:
        raise DomainError(f"p and q must be positive, got {shown(p)}/{shown(q)}")
    if threshold < 1:
        raise DomainError(f"threshold must be >= 1, got {shown(threshold)}")
    return index(threshold) // min(index(p), index(q)) + 1


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
