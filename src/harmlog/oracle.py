"""Independent reference values: logarithms, factorials, error metric.

The reference logarithm ln(n/d) of positive integers n, d is P/Q of
`_ln_fraction` rounded once to a float, and P/Q, an integer atanh series,
is proven within 2**-82.3 of ln(n/d), relative.  Its range reduction is
binary, then by the nearest c/16 from a table of 13 fixed-point logarithms
built at import, so the series keeps at most 8 terms.  A float x enters as
its exact x.as_integer_ratio(), so no quotient is rounded before the kernel
sees it.  The platform `math.log` checks the value each time it is
computed, on the exact ratio scaled by a power of two into (1/2, 2), so no
positive ratio is refused for a quotient that leaves binary64; `ln_value` is
memoised on its arguments.
`harmonic`'s O(1) odd windows take their logarithm from the same kernel,
as `_ln_ratio`, memoised on the ratio in lowest terms (every multiplier of
a scaled p/q takes the logarithm of p/q itself), and the
50-digit `decimal` referee of the tests judges both.  ln n! takes the same
kernel: the reference logarithm of the exact n! below n = 32, and from
there Stirling's series with ln n from `_ln_fraction`, summed in 128-bit
fixed point and rounded once; it is proven within half an ulp plus
2**-81 ln n!, and `math.lgamma` only checks it.
"""

import math
import sys
from functools import lru_cache

from ._frozen import Frozen
from .errors import DomainError, OracleIntegrityError, OverflowLimitError, shown

# ln agreement demanded between math.log (or math.lgamma) and the kernel.
_LN_AGREEMENT_REL = 1e-13
# ln 2 as the platform rounds it, for the check of ln_value.
_PLATFORM_LN2 = math.log(2)
# B_2k as (numerator, denominator), k = 1..8.  Stirling's series for ln n!
# keeps all eight.  `harmonic`'s Euler-Maclaurin tail coefficients are
# literals; tests/test_harmonic.py derives them from this table.
_BERNOULLI = {
    1: (1, 6),
    2: (-1, 30),
    3: (1, 42),
    4: (-1, 30),
    5: (5, 66),
    6: (-691, 2730),
    7: (7, 6),
    8: (-3617, 510),
}


class ReferenceValue(Frozen):
    """A reference value with a documented absolute error bound."""

    __slots__ = ()
    _fields = ("value", "guaranteed_abs_error")

    def __init__(self, value: float, guaranteed_abs_error: float) -> None:
        if guaranteed_abs_error < 0:
            raise DomainError("guaranteed_abs_error must be >= 0")
        object.__setattr__(self, "_values", (value, guaranteed_abs_error))


def _atanh_sum(t: int, s: int, bits: int) -> int:
    """2**bits sum_{j>=0} z**2j/(2j+1) for z = t/s, never above it.

    atanh(z) is z times this sum.  It is summed in fixed point with `bits`
    fraction bits: z**2 is floored, each power of it floored after its
    product and each term after its division, until a term floors to 0.
    For z**2 <= 1/9, each power is under e = 2/(1 - z**2) below its exact
    value (under 1 from z**2, 1 from the floor, e z**2 carried), so each
    term kept, j >= 1, is under 1 + e/(2j+1) below its own, and the terms
    omitted add under 0.14.
    """
    y = (t * t << bits) // (s * s)
    power = total = 1 << bits
    j = term = 1
    while term:
        j += 2
        power = power * y >> bits
        term = power // j
        total += term
    return total


# Fraction bits of the fixed point in _ln_fraction; the proof there needs
# 81 or more for its bound at ln(33/32).
_ATANH_BITS = 88


def _ln_fixed(t: int, s: int) -> int:
    """2**W ln((s+t)/(s-t)) = 2**W 2 atanh(t/s), W = _ATANH_BITS, for |t| <= s/3.

    Summed with 16 more bits, it is within 1.001 of the exact value: z = t/s
    has z**2 <= 1/9, so the sum keeps at most 31 terms past the first
    (2**(W+16) z**62 < 63) and is under 31 + 2.25 (1/3 + ... + 1/63) + 0.14
    < 35.1 units of 2**-(W+16) low; times 2|z| <= 2/3 that is under 23.4 of
    them, either way, the floor of the division takes under one more, and
    the final shift floors under one unit of 2**-W.
    """
    return (2 * t * _atanh_sum(t, s, _ATANH_BITS + 16) // s) >> 16


# ln 2 = 2 atanh(1/3) in fixed point.
_LN2 = _ln_fixed(1, 3)
# ln(c/16) = 2 atanh((c-16)/(c+16)) in fixed point for c = 11..23, the c
# nearest 16 N/D for N/D in [1/sqrt 2, sqrt 2).
_LN_SIXTEENTHS = {c: _ln_fixed(c - 16, c + 16) for c in range(11, 24)}


def _ln_fraction(n: int, d: int) -> tuple[int, int]:
    """Integers P and Q > 0 with P/Q within 2**-75 of ln(n/d), relative.

    For n < d it is -P, Q of _ln_fraction(d, n), so antisymmetry is exact.
    For n >= d, k is the integer with 4**k <= 2 (n/d)**2 < 4**(k+1), so that
    N/D = n/(d 2**k) is in [1/sqrt 2, sqrt 2), and c = 11..23 is the integer
    nearest 16 N/D (Tang's table-driven reduction, ACM TOMS 16(4), 1990).
    Then ln(n/d) = k ln 2 + ln(c/16) + 2 atanh(z), z = (16N - cD)/(16N + cD);
    |16N - cD| <= D/2 and 16N + cD >= (2c - 1/2) D >= 21.5 D, so
    |z| <= 1/43 and z**2 < 1/1849.
    With W = _ATANH_BITS = 88, A = _atanh_sum(16N - cD, 16N + cD, W) keeps
    at most 8 terms past the first (2**W z**16 < 17, so the 8th floors to 0),
    so it is under 8 + 2.002 (1/3 + 1/5 + ... + 1/17) + 0.14 < 10.4 below
    2**W times the exact sum; _LN2 is within 1.001 of 2**W ln 2, and
    L = _LN_SIXTEENTHS[c] within 1.001 of 2**W ln(c/16) (0 for c = 16).
    Then
        P/Q = (2 (16N - cD) A + (k _LN2 + L) (16N + cD)) / ((16N + cD) 2**W)
    is off from ln(n/d) by under 20.8 |z| + 1.001 (k + [c != 16]) units of
    2**-W, at most 0.49 + 1.001 (k + [c != 16]).  Relative to ln(n/d):
    - k = 0, c = 16: ln(n/d) >= 2 |z|, so under 10.4 2**-W;
    - k = 0, c != 16: n/d >= 1 puts c in 17..23, so n/d >= 33/32 and
      ln(n/d) > 0.0307: under 1.5/0.0307 < 48.9 units of 2**-W, which is
      the case that needs W >= 81 for 2**-75;
    - k >= 1: ln(n/d) >= (k - 1/2) ln 2 >= k ln(2)/2, so under 2.5 k/(0.346 k)
      < 7.3 units of 2**-W.
    So P/Q is within 48.9 2**-88 < 2**-82.3 of ln(n/d), relative.  For n = d,
    P = 0.
    """
    if n < d:
        p, q = _ln_fraction(d, n)
        return -p, q
    # floor(log2(2 (n/d)**2)) is that of its integer part, halved to k.
    k = ((2 * n * n // (d * d)).bit_length() - 1) >> 1
    d <<= k
    c = ((n << 5) + d) // (d << 1)  # floor(16 N/D + 1/2)
    n <<= 4
    d *= c
    t, s = n - d, n + d
    p = 2 * t * _atanh_sum(t, s, _ATANH_BITS) + (k * _LN2 + _LN_SIXTEENTHS[c]) * s
    return p, s << _ATANH_BITS


@lru_cache(maxsize=128)
def _ln_ratio(n: int, d: int) -> tuple[float, float]:
    """Floats hi, lo with hi + lo within 2**-75 of ln(n/d), relative, memoised.

    With P/Q of _ln_fraction, hi is P/Q and lo the rest P/Q - hi, each
    rounded once as an int quotient: |P/Q - hi| <= u |hi| with u = 2**-53,
    so lo's rounding adds under u**2 |hi| < 2**-105 |P/Q|.  Every step
    depends only on the ratio n/d, so a caller that reduces it to lowest
    terms gets the same floats and shares one cache entry among all its
    multiples.
    """
    p, q = _ln_fraction(n, d)
    hi = p / q
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (p * hi_den - hi_num * q) / (q * hi_den)


def _ln_tolerance(ln_x: float) -> float:
    """The agreement demanded of math.log: relative above |ln x| = 1, absolute below."""
    return _LN_AGREEMENT_REL * max(abs(ln_x), 1.0)


@lru_cache(maxsize=128, typed=True)
def ln_value(x: float, d: int = 1) -> float:
    """ln(x/d) of a float or int x over an int d, x/d positive and finite.

    It is P/Q of _ln_fraction on the exact ratio n/m (x.as_integer_ratio()
    of a float, or the ints x and d), rounded once.  The check forms no
    float quotient of x/d, which may underflow, overflow or lose bits as a
    subnormal: with e = n.bit_length() - m.bit_length(), n/(m 2**e) is a
    float in (1/2, 2), rounded once, and math.log of it plus e math.log(2)
    (the platform's ln 2, not the kernel's) must agree with the value within
    1e-13 max(|ln(x/d)|, 1), or OracleIntegrityError is raised.  Memoised on
    its arguments and their types (an int and an equal float take their own
    paths): a hit returns the float that passed the check, and an error is
    raised again on each call.  A d that is not an int raises TypeError; an
    x/d that is not positive and finite, DomainError.
    """
    if not isinstance(d, int):
        raise TypeError(f"ln_value: d must be an int, got {type(d).__name__}")
    if not (0 < x < math.inf if d > 0 else d < 0 and -math.inf < x < 0):  # also nan
        raise DomainError(
            f"ln_ref requires a finite x/d > 0, got x = {shown(x)} and d = {shown(d)}"
        )
    n, m = x.as_integer_ratio()
    n, m = abs(n), abs(m * d)
    p, q = _ln_fraction(n, m)
    value = p / q
    e = n.bit_length() - m.bit_length()
    scaled = n / (m << e) if e >= 0 else (n << -e) / m
    platform = math.log(scaled) + e * _PLATFORM_LN2
    if abs(platform - value) > _ln_tolerance(platform):
        raise OracleIntegrityError(
            f"log paths disagree at x={shown(x)}, d={shown(d)}: "
            f"platform={platform!r}, series={value!r}"
        )
    return value


def ln_ref(x: float) -> ReferenceValue:
    """ln_value(x) with its tolerance, 1e-13 max(|ln x|, 1), as guaranteed_abs_error.

    The tolerance is relative above |ln x| = 1 and absolute below it.  The
    value is P/Q rounded once, so within half an ulp plus 2**-82.3 |ln x| of
    ln x, far inside guaranteed_abs_error; the check holds the platform's
    logarithm of x (see ln_value) within guaranteed_abs_error of it.
    """
    value = ln_value(x)
    return ReferenceValue(value=value, guaranteed_abs_error=_ln_tolerance(value))


LN2 = ln_value(2.0)


# From this n on, ln n! is Stirling's series; below it, ln_value of n!.
_STIRLING_MIN = 32
# Bernoulli terms Stirling's series keeps, and the fraction bits of the
# fixed point it is summed in.
_STIRLING_TERMS = 8
_STIRLING_BITS = 128
# floor(2**128 ln(2 pi)/2), derived in the tests from a 60-digit decimal pi.
_HALF_LN_2PI = 312698579133741443615516216275072786467


def _stirling_sum(n: int) -> int:
    """floor(2**W sum_{k=1..K} B_2k / (2k (2k-1) n**(2k-1))), n >= 1.

    W = _STIRLING_BITS, K = _STIRLING_TERMS.  The sum is one exact fraction,
    built by Horner's rule in 1/n**2 from the last term, and floored once.
    """
    m = n * n
    num, den = 0, 1
    for k in range(_STIRLING_TERMS, 0, -1):
        b, d = _BERNOULLI[k]
        d *= 2 * k * (2 * k - 1)
        # num/den becomes n**(2k-3) times the terms from k to K.
        num, den = b * den + num * d, d * den * m
    return (num * n << _STIRLING_BITS) // den


def _stirling_fixed(n: int) -> int:
    """2**W ln n! for n >= 32 by Stirling's series, as an integer (see factorial_exact_ln)."""
    p, q = _ln_fraction(n, 1)
    w = _STIRLING_BITS
    main = ((2 * n + 1) * p << w) // (2 * q)  # 2**W (n + 1/2) P/Q, floored
    return main - (n << w) + _HALF_LN_2PI + _stirling_sum(n)


@lru_cache(maxsize=128)
def factorial_exact_ln(n: int) -> float:
    """ln n! of an integer n >= 0 (an int, or a float with an integral value).

    Below n = 32 it is ln_value(n!) of the exact factorial, so 0! and 1!
    give 0.0.  From n = 32 on it is Stirling's series, DLMF 5.11.1 at z = n
    plus ln n:
        ln n! = (n + 1/2) ln n - n + ln(2 pi)/2
                + sum_{k=1..K} B_2k / (2k (2k-1) n**(2k-1)) + R_K(n),
    where for real n > 0 the remainder R_K(n) has the sign of the first
    omitted term and is at most its size (DLMF 5.11(ii)).  With K = 8,
    |R_8(n)| <= |B_18| / (306 n**17) < 0.1797 n**-17, as B_18 = 43867/798.

    In units of 2**-W, W = 128, it sums
    - 2**W (n + 1/2) P/Q, floored, with P/Q of _ln_fraction(n, 1) within
      2**-82.3 ln n of ln n;
    - -n 2**W, exactly;
    - _HALF_LN_2PI = floor(2**W ln(2 pi)/2);
    - _stirling_sum(n), the floor of 2**W times the exact K-term sum;
    and divides by 2**W, rounded once as an int quotient.  Its error is
    under 3 units from the three floors, (n + 1/2) ln n 2**-82.3 from P/Q,
    and |R_8(n)|.  R_0(n) has the sign of B_2 > 0, so ln n! is above
    (n + 1/2) ln n - n + ln(2 pi)/2, and (n + 1/2) ln n / ln n! is under
    1.382 from n = 32 on, where ln n! > 81.5 (the ratio falls as n grows):
    - P/Q adds under 1.382 2**-82.3 ln n! < 2**-81.83 ln n!;
    - 3 2**-W + 0.1797 n**-17 is under 4.7e-27 < 2**-93.8 ln n! at n = 32,
      and a smaller share of ln n! for every larger n.
    So the value is within half an ulp plus 2**-81 ln n! of ln n!; below
    n = 32, ln_value is within half an ulp plus 2**-82.3 ln n!.  Raises
    OracleIntegrityError if math.lgamma(n + 1) differs from it by more than
    1e-13 max(ln n!, 1).

    DomainError for n < 0 or a non-finite n, TypeError for a non-integral
    one; past n ~ 2.5e305, ln n! overflows binary64: OverflowLimitError.
    Memoised on n.
    """
    if n < 0:
        raise DomainError(f"factorial_exact_ln requires n >= 0, got {shown(n)}")
    if not n < math.inf:  # nan or inf
        raise DomainError(f"factorial_exact_ln requires a finite n, got {n}")
    if n % 1:
        raise TypeError(f"factorial_exact_ln requires an integral n, got {n!r}")
    if n < _STIRLING_MIN:
        return ln_value(math.factorial(int(n)))
    try:
        if n > sys.float_info.max:  # ln n! > n here, so past binary64 too
            raise OverflowError
        value = _stirling_fixed(int(n)) / (1 << _STIRLING_BITS)
    except OverflowError:
        raise OverflowLimitError(f"ln n! overflows binary64 at n = {shown(n)}") from None
    platform = math.lgamma(n + 1)
    if abs(platform - value) > _ln_tolerance(platform):
        raise OracleIntegrityError(
            f"ln n! paths disagree at n={shown(n)}: lgamma={platform!r}, series={value!r}"
        )
    return value


def _is_finite(x: float, name: str, owner: str = "") -> bool:
    """math.isfinite(x); OverflowLimitError naming x, as "owner: name" or as
    name without an owner, for an int past binary64."""
    try:
        return math.isfinite(x)
    except OverflowError:
        label = f"{owner}: {name}" if owner else name
        raise OverflowLimitError(f"{label} = {shown(x)} is past binary64") from None


def percent_error(approx: float, reference: float) -> float:
    """Signed percentage error (approx - reference) / reference * 100.

    DomainError for a non-finite input or a zero reference (an exact 0
    against it is a 0 % error); OverflowLimitError for an int input or an
    error past binary64.
    """
    if not (_is_finite(approx, "approx") and _is_finite(reference, "reference")):
        # A non-finite approx skips the check of reference, which may then be
        # an int past str()'s digit limit: `shown` names it.
        raise DomainError(
            f"percent_error requires finite values, got {shown(approx)} and {shown(reference)}"
        )
    if reference == 0:
        if approx == 0:
            return 0.0  # an exact zero is a 0 % error
        raise DomainError("percent_error undefined for reference = 0")
    return _finite_percent((approx - reference) / reference * 100.0, approx, reference)


def percent_error_from_ln(ln_approx: float, ln_reference: float) -> float:
    """percent_error computed from natural logs (safe when values overflow).

    DomainError for a non-finite logarithm; OverflowLimitError for an int
    logarithm or an error past binary64.
    """
    if not (_is_finite(ln_approx, "ln_approx") and _is_finite(ln_reference, "ln_reference")):
        raise DomainError(
            f"percent_error_from_ln requires finite logarithms, got {shown(ln_approx)} and "
            f"{shown(ln_reference)}"
        )
    try:
        error = (math.exp(ln_approx - ln_reference) - 1.0) * 100.0
    except OverflowError:
        error = math.inf
    return _finite_percent(error, ln_approx, ln_reference)


def _finite_percent(error: float, approx: float, reference: float) -> float:
    """error, or OverflowLimitError if it is past binary64 (an infinity)."""
    if math.isinf(error):
        raise OverflowLimitError(
            f"percent error of {shown(approx)} against {shown(reference)} overflows binary64"
        )
    return error
