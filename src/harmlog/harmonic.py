"""Odd-harmonic-series engine: partial sums and logarithm estimates.

The working identity: twice the odd harmonic sum over k = 2..n (terms
1/(2k-1)) plus twice a correction sum (terms 1/(k**3 (2k-1)**2))
approximates ln(n).  Quotients shift the index window instead of
differencing two full sums, and a rational p/q is scaled to mp/mq so the
window sits where the correction terms are negligible.

Every sum checks its index window with `_window`, which builds nothing: only
a sum that adds terms one by one builds a range over them.  An odd window's
first index a alone picks its evaluator.  From a <= 40 it is one integer,
`_two_s_fixed(b) - _HEAD_FIXED[a - 1]`, rounded once, whatever its length.
`_two_s_fixed(n)` is 2 S(1, n) in 128-bit fixed point: up to n = 40 the
head table `_HEAD_FIXED`, exact over lcm(1, 3, ..., 79) and built once,
and from there ln n (`oracle._ln_fraction`) less the Number Constant's
limit N plus 2 Q(n), with no float and no memo.  From a >= 41 it is the
same finite sum, not a different approximation, in O(1) whatever its
length: four floats from the digamma function's expansion about x + 1/2
(`_psi_series`, and the integer logarithm `oracle._ln_ratio` of b/(a-1)),
summed by `math.fsum`, within 0.512 ulp (0.501 past 40 terms).  No odd
window adds its terms one by one.  One evaluator, `_odd_sums`, takes the
windows S(m lo + 1, m hi) of a multiplier grid in one pass;
`odd_harmonic_sum` is its grid of one.  For every m with m lo >= 40, b/(a-1)
is hi/lo itself, so the whole grid takes that logarithm from one
`_ln_ratio` call (memoised in lowest terms).
The fast-decaying series 1/(k**3 (2k-1)**r) (the correction sum, r = 2,
and the factorial's tail sum, r = 1, `_decaying_fixed`) are each one
exact difference of tails T(a) - T(b+1), integers in fixed point sized to
the window's first term: a tail from m >= 64 is a Horner polynomial in m
over literal integer coefficients, one from m < 64 a literal T(2) less the
terms below m.  Rounded once, each is the exact sum within half an ulp
plus 2**-92 relative, in O(1) from any start, with no memo and no work
limit.
The paper's estimate of ln(hi/lo), 2 S(lo + 1, hi) plus 2 C(lo + 1, hi) for
the full variant, is for lo <= 39 the sum of those integers, rounded once
(`ln_quotient`, and `ln_integer`, its lo = 1); `ln_product` rounds the sum
of two from lo = 1.  Each is within half an ulp plus 2**-78.8 of its exact
value, relative, and 2**-82 from lo = 1.  From lo >= 40, `ln_quotient`
adds the rounded odd and correction sums.
"""

import math
from collections.abc import Iterable
from enum import Enum
from itertools import accumulate, repeat
from operator import floordiv, index

from ._frozen import Frozen
from .errors import (
    DomainError,
    NegativeInputError,
    OverflowLimitError,
    ZeroOrInfiniteError,
    shown,
)
from .oracle import _ln_fraction, _ln_ratio

# Auto-scaling pushes both m*p and m*q above this; per-mille-level percent
# errors need ~150, the documented alternative 100 gives multiples of 1e-4.
DEFAULT_THRESHOLD = 150

# Window indices stay below 2**63 - 1, the range the proofs below cover.
_INDEX_CAP = 2**63 - 1


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


# -- fast-decaying sums ------------------------------------------------------
# For t(k) = 1/(k**3 (2k-1)**r) with r in {1, 2} and s0 = 3 + r, the window
# [a, b] is V = T(a) - T(b+1), T(m) = sum_{k>=m} t(k).  `_decaying_fixed`
# takes both tails in fixed point, as integers in units of 2**-w, and returns
# their difference; each caller rounds one integer once.
#
# Tails from m >= 64.  t(k) = k**-s0 (1 - 1/(2k))**-r / 2**r = sum_j w_j
# k**-(s0+j), w_j = C(r+j-1, j) / 2**(j+r), so T(m) = sum_j w_j zeta(s0+j, m)
# (Hurwitz zeta), and Euler-Maclaurin on each zeta (DLMF 2.10.1)
# gives T(m) = m**-(s0-1) sum_n a_n m**-n with exact rational a_n.  The
# degrees n <= 20 are kept as integers c_n over one common denominator L,
# a_n = c_n / L (`_TAIL_NUMERATORS`, `_TAIL_DENOMINATOR`).  Keeping only the
# degrees n <= d leaves an error under R_d m**-(s0+d) for every m >= 64.
# R_d takes the next three degrees at |a_n| and bounds the rest by parts
# (the binomial series past the kept j, zeta(s, m) - m**(1-s)/(s-1) in
# [0, m**-s], and each Euler-Maclaurin remainder, at most 2 |B_2(P+1)| /
# (2P+2)! (s)_{2P+1} m**-(s+2P+1) by DLMF 2.10.2 and 24.9.1), all with
# nonnegative coefficients in 1/m, so R_d taken at m = 64 holds for every
# larger m.  For every d <= 20, R_d <= 2**(d-1), in both series.  With
# e = m.bit_length() - 1, m >= 2**e, so the least d >= 0 with
# e (s0 + d) >= w + d leaves an error under 2**-(w+1): half a unit.  The
# widest w of a window makes that d at most 20 (at e = 6).  The kept part is the
# exact fraction N / (L m**(s0-1+d)), N = sum_{n<=d} c_n m**(d-n) by Horner's
# rule in m, floored once in units of 2**-w: the tail is within (-1.5, 0.5]
# units of 2**w T(m).
#
# Tails from m < 64.  T(m) is T(2) less the terms k = 2..m-1.  T(2) is a
# literal in units of 2**-136 (`_TAIL_FROM_2`; in closed form zeta(3) + 5 pi**2/3
# - 24 ln 2 - 1 for r = 2 and 8 ln 2 - pi**2/3 - zeta(3) - 1 for r = 1); each term
# is an int quotient in the same units, and the difference is shifted down
# to units of 2**-w, w <= 125 here: within (-1.01, 0.03) units of 2**w T(m).
#
# The unit.  a**3 (2a-1)**r < 2**(s0 L + r) for L = a.bit_length(), so
# w = s0 L + r + 53 + _GUARD_BITS puts 2**-w below 2**-93 t(a) <= 2**-93 V.
# The two tails are each within (-1.5, 0.5] units, so their difference is
# within 2 units, under 2**-92 V, of 2**w V.  math.ldexp rounds that integer
# to a float once and scales it by 2**-w exactly (V is above 2**-320, far
# from subnormal); a caller that adds it to other integers first shifts it
# to their unit, which is exact.  So the sum is within half an ulp plus
# 2**-92 V of V: the correctly rounded V unless V lies that close to a
# midpoint of two floats.
# tests/test_referee.py checks that bound and the rounding on every window
# [2, n] to n = 3,000 and on sampled windows up to the index cap, and
# tests/test_harmonic.py derives every literal and R_d in Fraction.
_GUARD_BITS = 40
_HEAD_BITS = 136
_TAIL_DENOMINATOR = 3742877268049920
# c_0 .. c_20 for r = 2 (the correction sum) and r = 1 (the factorial's tail).
_TAIL_NUMERATORS = {
    2: (
        233929829253120, 655003521908736, 974707621888000, 885591496458240,
        406940432138240, 40937720119296, 293874347999232, 670554538967040,
        -276268691578880, -1862774715039744, 1345649142616064, 8744498050928640,
        -7061342660211840, -53088795776400384, 48701264423908096, 411504740833655040,
        -421905258282919840, -3960901509968754624, 4488598241054582928,
        46352736416214468240, -57531134976832471955,
    ),
    1: (
        623812878008320, 1169649146265600, 1185244468215808, 662801182883840,
        55697578393600, -70666302586880, 308007608516608, 364053296775168,
        -552482002042880, -920794106552320, 1898401081950208, 3664652630020096,
        -8732466503720960, -19477385372565120, 53090373853124608, 134188971109217024,
        -411500687543728640, -1162450424460834080, 3960894212165607808,
        12366930328894766352, -46352714242128213920,
    ),
}
# floor(2**136 T(2)).
_TAIL_FROM_2 = {
    2: 1382057166730137839791232538631852659508,
    1: 4638938959454315457597875505461123146776,
}


def _fixed_tail(m: int, w: int, r: int) -> int:
    """T(m) in units of 2**-w, within (-1.5, 0.5] units (see above).

    w is at most 125 for m < 64, as `_decaying_fixed` sizes it.
    """
    if m < 64:
        tail = _TAIL_FROM_2[r]
        if m > 2:
            one = 1 << _HEAD_BITS
            tail -= sum(one // (k**3 * (2 * k - 1) ** r) for k in range(2, m))
        return tail >> (_HEAD_BITS - w)
    s0, e = 3 + r, m.bit_length() - 1
    d = -((s0 * e - w) // (e - 1))  # the least d with e (s0 + d) >= w + d
    if d < 0:
        d = 0
    numerator = 0
    for c in _TAIL_NUMERATORS[r][: d + 1]:
        numerator = numerator * m + c
    return (numerator << w) // (_TAIL_DENOMINATOR * m ** (s0 - 1 + d))


def _decaying_fixed(a: int, b: int, r: int) -> tuple[int, int]:
    """Sum of 1/(k**3 (2k-1)**r) for k = a..b, r in {1, 2}, as (X, -w); b = a-1 is empty.

    X is T(a) - T(b+1) in units of 2**-w, w sized to the first term: within
    2 units and 2**-92 of the exact sum, relative (see above), in O(1) from
    any a.  math.ldexp(X, -w) rounds it once.
    """
    _window(a, b, first=2)
    w = (3 + r) * a.bit_length() + r + 53 + _GUARD_BITS
    return _fixed_tail(a, w, r) - _fixed_tail(b + 1, w, r), -w


# -- odd windows from a >= 41 -------------------------------------------------
# psi(x+1) - psi(x) = 1/x for the digamma function psi, so with d = a - 1
#     S(a, b) = (psi(b + 1/2) - psi(d + 1/2)) / 2.
# DLMF 5.11.2 gives, for real x > 0,
#     psi(x) = ln x - 1/(2x) - sum_{k=1..K} B_2k / (2k x**2k) + R_K(x),
# and the duplication formula psi(2x) = (psi(x) + psi(x + 1/2))/2 + ln 2
# (DLMF 5.5.8) turns it into the expansion about x + 1/2,
#     psi(x + 1/2) = ln x + sum_{k=1..K} (1 - 2**(1-2k)) B_2k / (2k x**2k)
#                    + 2 R_K(2x) - R_K(x).
# Every window from a >= _LOWEST_TAIL_START, of any length, is taken as
#     S(a, b) = ln(b/d)/2 + Q(b) - Q(d) + (E(b) - E(d))/2,
#     Q(x) = sum_{k=1..K} (1 - 2**(1-2k)) B_2k / (4k x**2k),
#     E(x) = 2 R_K(2x) - R_K(x),
# from the window's own integers: no gamma and no float constant.  For a
# scaled estimate 2 S(mq+1, mp) with mq >= 40, ln(b/d) is ln(p/q) itself, so
# `_odd_sums` takes it once, reduced by its gcd, for every such multiplier
# of a sweep (`oracle._ln_ratio` is memoised across sweeps).  A window from
# a <= 40 is one integer of the next section, rounded once.  So a window's
# start picks its evaluator, and its length never does.
#
# Error bound, with u = 2**-53, d = a - 1 >= 40 and n >= 1 the window's
# terms (the empty window, b = d, is exactly 0: ln 1 = 0 and Q(b) - Q(d)
# cancels).  Each term is above 1/(2b), and b = d + n, so S = S(a, b) >
# n/(2(d+n)), and 1/d**2 < 2 h S with h = 1/(n d) + 1/d**2, at most
# 1/40 + 1/1600 (n = 1, d = 40), and at most 1/1640 + 1/1600 for n > 40.
# 1. Truncation.  Binet's formula (DLMF 5.9.13) is psi(x) = ln x - 1/(2x)
#    - 2 int_0^inf t dt / ((t**2 + x**2)(e**(2 pi t) - 1)).  Expanding
#    1/(t**2 + x**2) to K terms and using int_0^inf t**(2n-1) dt /
#    (e**(2 pi t) - 1) = |B_2n|/(4n) (DLMF 24.7.2) gives the sum above and a
#    remainder R_K(x) of one sign for every x, at most the first omitted term
#    |B_2(K+1)| / ((2K+2) x**(2K+2)).  2 R_K(2x) and R_K(x) share that sign,
#    so |E(x)| is at most the larger of them, |B_12| / (12 x**12) with K = 5.
#    E(b) and E(d) need not share a sign, so their halved difference is
#    bounded by the sum of both, under |B_12| / (12 d**12)
#    < |B_12| h S / (6 d**10): under 2**-63 S, and 2**-67 S for n > 40.
# 2. The logarithm.  oracle._ln_ratio returns hi + lo within 2**-75 of
#    ln(b/d), relative to it, from integer arithmetic alone (see there);
#    halving them is exact.  ln(b/d)/2 is the sum of ln(k/(k-1))/2, the
#    integral of 1/(2x) over [k-1, k], for k = a..b, so by midpoint convexity
#    it is at least S.  It exceeds S by Q(d) - Q(b) + (E(d) - E(b))/2, under
#    1/(48 d**2): Q(b) > 0, and Q(d) falls short of its first term by over
#    3e-3/d**4 (item 3), far more than item 1's E terms.  As 1/(48 d**2)
#    < h S / 24 < 0.0011 S (1e-4 S for n > 40), this is under
#    1.0011 2**-75 S (1.0001 2**-75 S).
# 3. y = 1/(x*x) is an int quotient, rounded once.  Q(x) is positive and
#    below its first term 1/(48 x**2): the terms alternate and shrink for
#    x >= 40, the second is -7/(1920 x**4), and all but the first together
#    are under 2e-4 of it.  Horner's rule on the five rounded
#    coefficients gives the term of degree k at most 3k + 1 roundings
#    (Higham, Accuracy and Stability, eq. 5.3, with y's own and the final
#    product's), so each of Q(b) and Q(d) is off by under 5u/(48 x**2), and
#    together by under 5u/(24 d**2) < (5u/12) h S: under 0.0107 u S, and
#    u S/1900 for n > 40.  This item dominates the bound at n = 1.
# 4. The four floats are the whole window: no term below a is added.
# 5. So the four floats sum to S within under
#    2**-63 S + 1.0011 2**-75 S + 0.0107 u S < 0.0117 u S.  fsum rounds that
#    exact sum correctly, to R within half an ulp of it, and u R < ulp(R):
#    R is within 0.5 + 0.0117 (1 + 2u) < 0.512 ulp of S.  For n > 40 the
#    same items give 2**-67 S + 1.0001 2**-75 S + u S/1900 < 0.0006 u S,
#    so R is within 0.5 + 0.0006 (1 + 2u) < 0.501 ulp of S.
# 6. `ln_quotient(hi, lo)` from lo >= 40 doubles R, exactly, for TRUNCATED.
#    FULL adds 2 c, c the rounded C(a, b), and rounds once more, to F.  Term
#    by term C is at most S/(a**3 (2a-1)) < 1.8e-7 S, and 2 R <= F, so F is
#    within 0.5 + 0.512 + 2e-7 < 1.013 ulp of 2 (S + C).
# tests/test_referee.py checks these bounds against a 50-digit sum, and
# tests/test_harmonic.py derives their constants in Fraction.
_LOWEST_TAIL_START = 41  # past the head table, so that d >= 40 in items 1 to 6


def _psi_series(x: int) -> float:
    """Q(x) = sum_{k=1..5} (1 - 2**(1-2k)) B_2k / (4k x**2k), by Horner's rule in 1/x**2.

    The coefficients, k = 5 down to 1, are int quotients, each correctly
    rounded; B_12 bounds the remainder (item 1 above).
    """
    y = 1 / (x * x)
    return ((((511 / 135168 * y - 127 / 61440) * y + 31 / 16128) * y - 7 / 1920) * y + 1 / 48) * y


# -- the odd sum from k = 1 in fixed point ----------------------------------
# `_two_s_fixed(n)` is 2 S(1, n) in units of 2**-W, W = _NR_BITS = 128.
# Up to n = 40 it is floor(2**W 2 N_n / L), exactly: L = lcm(1, 3, ..., 79)
# and N_n = sum_{k=1..n} L/(2k-1) are integers (0 for n = 0); the head
# table `_HEAD_FIXED` holds those 41 floors, built once.  From n = 41 on,
# the long windows' identity from a = 41 with K = 8 (every B_2k of
# oracle._BERNOULLI) gives
#     2 S(1, n) = 2 + 2 S(2, 40) + 2 S(41, n) = 2 + ln n - N + 2 Q(n) + E(n),
#     N = ln 40 - 2 S(2, 40) + 2 Q(40) + E(40) = 2 - 2 ln 2 - gamma,
# the limit of the Number Constant N(n) = ln n - 2 S(2, n) as n grows (both
# Q and E vanish).  In units of 2**-W the kernel sums floor(2**W P/Q), with
# P/Q = oracle._ln_fraction(n, 1) within 2**-85.1 ln n of ln n (its case
# k >= 1), then 2 2**W, -_NR_LIMIT = -floor(2**W N) and _two_q_fixed(n) =
# floor(2**W 2 Q(n)).  The three floors are off by under 3 units together,
# and the E(n) it drops is under |B_18| / (18 n**18) < 2**-94 (item 1 above
# with K = 8).  So for n >= 41 the integer is within 2**-85.1 ln n + 2**-93
# of 2**W 2 S(1, n), and 2 S(1, n) > 2 + ln n - N > ln n.
# - A window [a, b] from a <= 40 is _two_s_fixed(b) - _HEAD_FIXED[a - 1].
#   Up to b = 40 both are exact heads floored: within 2 units, under 2**-120
#   of 2**W 2 S(a, b) >= 2**W 2/79, relative.  Past b = 40, 2 S(a, b) >=
#   2 S(40, b), and ln b / 2 S(40, b) is largest at b = 41, under 74.3; past
#   b = 10**4, where 2 S(40, b) > ln((2b + 1)/79) > ln b - 3.68, it is under
#   1.7.  With 2 S(40, 41) > 0.05, the difference, one more floor, is within
#   2**-85.1 74.3 + (2**-93 + 2**-128)/0.05 < 2**-78.8 of 2**W 2 S(a, b),
#   relative; the window [40, 41] is the worst case.
# - `ln_quotient(hi, lo)` for lo <= 39 is that window from a = lo + 1, and
#   its full variant adds 2 C(lo + 1, hi), `_decaying_fixed`'s integer at
#   w <= 125 shifted to 2**-W (exact), within 2**-92 of it, relative, so
#   the sum stays within 2**-78.8.  `ln_integer(n)` is lo = 1: 2 S(2, n) =
#   2 S(1, n) - 2, above ln n - N > (ln n)/1.01 from n = 41 on, within
#   2**-85 of it, relative.
# - `nr_empirical_limit(n)` up to n = 40 is floor(2**W P/Q) + 2 2**W -
#   _HEAD_FIXED[n]: see there.
# Each caller rounds its integer once with math.ldexp, so each value is
# within half an ulp plus 2**-78.8 of its exact sum, relative (2**-82 from
# a = 2): the correctly rounded sum unless it lies that close to a midpoint
# of two floats.
# tests/test_referee.py checks every one bit for bit against a 50-digit sum.
_NR_BITS = 128
# floor(2**128 (2 - 2 ln 2 - gamma)).  tests/test_constants.py derives it
# from ln A - 2 S(2, A) + 2 Q(A) at A = 1000 in 60-digit decimal, not from
# gamma.
_NR_LIMIT = 12416894714313472295520999196213069642
# c_1..c_8 and D with 2 Q(n) = sum_k c_k / (D n**2k), c_k / D = (1 - 2**(1-2k))
# B_2k / (2k), over the least common denominator; tests/test_constants.py
# derives them from oracle._BERNOULLI.
_TWO_Q_NUMERATORS = (
    33456783360, -5854937088, 3086786560, -3319540224,
    6071170560, -16928460736, 66905398560, -355910271717,
)
_TWO_Q_DENOMINATOR = 802962800640
# L = lcm(1, 3, ..., 79), which tests/test_harmonic.py derives.
_HEAD_LCM = 506779050856155982994105817275475
# floor(2**W 2 N_n / L) for n = 0..40, built once from the running sums N_n.
_HEAD_FIXED = tuple((head << _NR_BITS + 1) // _HEAD_LCM for head in accumulate(
    map(floordiv, repeat(_HEAD_LCM), range(1, 80, 2)), initial=0))


def _two_q_fixed(n: int) -> int:
    """floor(2**W 2 Q(n)), W = _NR_BITS, for n >= 1.

    2 Q(n) is one exact fraction, its numerator built by Horner's rule in
    n**2 from the c_k, and is floored once.
    """
    m = n * n
    total = 0
    for c in _TWO_Q_NUMERATORS:
        total = total * m + c
    return (total << _NR_BITS) // (_TWO_Q_DENOMINATOR * m ** len(_TWO_Q_NUMERATORS))


def _two_s_fixed(n: int) -> int:
    """2 S(1, n) in units of 2**-W, W = _NR_BITS, for n >= 0 (see above).

    The floor of 2**W 2 S(1, n) up to n = 40, from the head table; from
    n = 41 on, ln n - N + 2 + 2 Q(n), within 2**-85 of it, relative.
    """
    if n < _LOWEST_TAIL_START:
        return _HEAD_FIXED[n]
    p, q = _ln_fraction(n, 1)
    return (p << _NR_BITS) // q + (2 << _NR_BITS) - _NR_LIMIT + _two_q_fixed(n)


def _ln_fixed(lo: int, hi: int, variant: LogVariant) -> int:
    """2 S(lo + 1, hi), plus 2 C(lo + 1, hi) for FULL, in units of 2**-W, for 1 <= lo <= 39.

    `_window` checks hi; C's integer, at w <= 125, shifts to 2**-W exactly.
    """
    _window(lo + 1, hi)
    total = _two_s_fixed(hi) - _HEAD_FIXED[lo]
    if variant is LogVariant.FULL:
        c, e = _decaying_fixed(lo + 1, hi, 2)
        total += c << _NR_BITS + 1 + e
    return total


def _odd_sums(lo: int, hi: int, multipliers: Iterable[int]) -> list[float]:
    """S(m lo + 1, m hi) for each m, over windows already checked (see above).

    The window's first index a alone picks its evaluator, whatever its
    length.  From a <= 40 it is one fixed-point integer rounded once, so
    that 2 S(lo + 1, hi) is ln_quotient(hi, lo, TRUNCATED) bit for bit.
    From a >= 41 it is four floats from the digamma function, within 0.512
    ulp, each window taking ln(b/(a-1)) = ln(hi/lo) from one `_ln_ratio` call.
    """
    sums, shared = [], None
    for m in multipliers:
        a, b = m * lo + 1, m * hi
        if a < _LOWEST_TAIL_START:
            sums.append(math.ldexp(_two_s_fixed(b) - _HEAD_FIXED[a - 1], -_NR_BITS - 1))
        else:  # b/(a-1) is hi/lo: one logarithm serves every such m
            ln = shared = shared or _ln_ratio(hi // (g := math.gcd(hi, lo)), lo // g)
            sums.append(math.fsum((ln[0] / 2, ln[1] / 2, _psi_series(b), -_psi_series(a - 1))))
    return sums


def odd_harmonic_sum(a: int, b: int) -> float:
    """Sum of 1/(2k-1) for k = a..b; b = a-1 encodes the empty range.

    In O(1) whatever its length: from a <= 40 one fixed-point integer
    rounded once, within half an ulp plus 2**-78.8 of the sum, relative, and
    from a >= 41 four floats within 0.512 ulp (see above and `_odd_sums`).
    """
    _window(a, b)
    return _odd_sums(a - 1, b, (1,))[0]


def correction_sum(a: int, b: int) -> float:
    """Sum of 1/(k**3 (2k-1)**2) for k = a..b, the exact sum rounded once; empty range is 0.

    T(a) - T(b+1) in fixed point (`_decaying_fixed`): within half an ulp
    plus 2**-92 of the exact sum, relative, in O(1) from any a.
    """
    return math.ldexp(*_decaying_fixed(a, b, 2))


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
    (odd denominators 2lo+1..2hi-1).  For lo <= 39 it is one fixed-point
    integer rounded once, within half an ulp plus 2**-78.8 of the exact
    value, relative; from lo >= 40 it adds the rounded sums of
    `odd_harmonic_sum` and, for FULL, `correction_sum`: within 0.512 ulp
    for TRUNCATED and 1.013 ulp for FULL (item 6 above).  For x < y its
    estimate is negated, which is exact, so antisymmetry is exact.
    DomainError for x or y below 1, then TypeError for an x or y that is
    not an int.
    """
    if x < 1 or y < 1:
        raise DomainError(f"ln_quotient requires positive integers, got {shown(x)}, {shown(y)}")
    index(x), index(y)
    if x == y:
        return 0.0
    lo, hi = (y, x) if x > y else (x, y)
    if lo + 1 < _LOWEST_TAIL_START:
        total = math.ldexp(_ln_fixed(lo, hi, variant), -_NR_BITS)
    else:
        total = 2.0 * odd_harmonic_sum(lo + 1, hi)
        if variant is LogVariant.FULL:
            total += 2.0 * correction_sum(lo + 1, hi)
    return total if x > y else -total


def ln_integer(n: int, variant: LogVariant = LogVariant.FULL) -> float:
    """Estimate 2 S(2, n) of ln(n), plus 2 C(2, n) for FULL; n = 1 gives exactly 0.

    The sum in fixed point, rounded once: within half an ulp plus 2**-82 of
    it, relative (see above).
    """
    return ln_quotient(n, 1, variant)


def exp_form(n: int, variant: LogVariant = LogVariant.FULL) -> float:
    """Reconstruct n approximately as e**ln_integer(n)."""
    return math.exp(ln_integer(n, variant))


def ln_product(x: int, y: int, variant: LogVariant = LogVariant.FULL) -> float:
    """Estimate of ln(x) + ln(y) via the regrouped shared-prefix form.

    The shared window k = 2..min(x, y) counted four times and the remainder
    twice, which regroups the sum of the two estimates of ln_integer: the
    sum of their fixed-point integers, rounded once (see above).
    """
    if x < 1 or y < 1:
        raise DomainError(f"ln_product requires positive integers, got {shown(x)}, {shown(y)}")
    return math.ldexp(_ln_fixed(1, x, variant) + _ln_fixed(1, y, variant), -_NR_BITS)


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
