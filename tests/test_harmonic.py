import functools
import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from harmlog import harmonic, oracle
from harmlog.errors import (
    DomainError,
    NegativeInputError,
    OverflowLimitError,
    ZeroOrInfiniteError,
)
from harmlog.harmonic import LogVariant, ScaledRational
from harmlog.oracle import ln_value
from test_cli import NR_SERIES, S_TAIL


def brute_odd_harmonic(a: int, b: int, scale: int = 10**30) -> float:
    """Independent fixed-point oracle: exact integer arithmetic at 30 digits."""
    return sum(scale // (2 * k - 1) for k in range(a, b + 1)) / scale


def brute_correction(a: int, b: int, scale: int = 10**30) -> float:
    return sum(scale // (k**3 * (2 * k - 1) ** 2) for k in range(a, b + 1)) / scale


class TestOddHarmonicSum:
    def test_single_term(self):
        assert harmonic.odd_harmonic_sum(2, 2) == 1.0 / 3.0

    def test_empty_range(self):
        assert harmonic.odd_harmonic_sum(2, 1) == 0.0

    def test_against_brute_force_oracle(self):
        value = harmonic.odd_harmonic_sum(2, 10**6)
        assert value == pytest.approx(brute_odd_harmonic(2, 10**6), rel=1e-12)

    def test_exact_rational_small(self):
        exact = float(sum(Fraction(1, 2 * k - 1) for k in range(2, 60)))
        assert harmonic.odd_harmonic_sum(2, 59) == pytest.approx(exact, rel=1e-15)

    def test_rejects_bad_range(self):
        with pytest.raises(DomainError):
            harmonic.odd_harmonic_sum(0, 5)
        with pytest.raises(DomainError):
            harmonic.odd_harmonic_sum(5, 2)

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: harmonic.odd_harmonic_sum(2.5, 10**6), TypeError),
            (lambda: harmonic.ln_quotient(10**200, math.nan), TypeError),
            (lambda: harmonic.correction_sum(2, math.nan), TypeError),
            # A window that fails its range or cap check keeps that error.
            (lambda: harmonic.odd_harmonic_sum(5, 2.5), DomainError),
            (lambda: harmonic.odd_harmonic_sum(2, 1e300), OverflowLimitError),
        ],
        ids=["S(2.5, 10**6)", "ln_quotient(10**200, nan)", "C(2, nan)", "S(5, 2.5)", "S(2, 1e300)"],
    )
    def test_a_non_int_index_is_checked_before_any_arithmetic(self, call, error):
        # A float that passes the range and cap checks is a TypeError before
        # the sum takes a step with it: never a bare OverflowError from
        # mixing a float with a big int.
        with pytest.raises(Exception) as raised:
            call()
        assert type(raised.value) is error

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.integers(min_value=2, max_value=500),
        span1=st.integers(min_value=0, max_value=500),
        span2=st.integers(min_value=0, max_value=500),
    )
    def test_additivity(self, a, span1, span2):
        b = a + span1
        c = b + span2
        whole = harmonic.odd_harmonic_sum(a, c)
        split = harmonic.odd_harmonic_sum(a, b) + harmonic.odd_harmonic_sum(b + 1, c)
        assert abs(whole - split) <= 4 * math.ulp(max(abs(whole), 1.0))


class TestCorrectionSum:
    def test_single_term(self):
        assert harmonic.correction_sum(2, 2) == pytest.approx(1.0 / 72.0, rel=1e-15)

    def test_two_terms(self):
        assert harmonic.correction_sum(2, 3) == pytest.approx(
            1.0 / 72.0 + 1.0 / 675.0, rel=1e-15
        )

    def test_against_brute_force_oracle(self):
        value = harmonic.correction_sum(2, 10**5)
        assert value == pytest.approx(brute_correction(2, 10**5), abs=1e-14)

    def test_positive_for_nonempty(self):
        assert harmonic.correction_sum(7, 7) > 0.0

    def test_empty_range(self):
        assert harmonic.correction_sum(5, 4) == 0.0


_CAP = 2**63 - 1

# The two decaying series by r, the exponent of 2k-1 in 1/(k**3 (2k-1)**r);
# each id names the exponents of k and 2k-1.
KERNELS = [pytest.param(2, id="3-2"), pytest.param(1, id="3-1")]


def term(k: int, r: int) -> Fraction:
    return Fraction(1, k**3 * (2 * k - 1) ** r)


def unit_bits(a: int, r: int) -> int:
    """w of the window [a, b], as `harmonic._decaying_fixed` sizes it."""
    return (3 + r) * a.bit_length() + r + 53 + harmonic._GUARD_BITS


def decaying(a: int, b: int, r: int) -> float:
    """The window's integer of `harmonic._decaying_fixed`, rounded once as its callers do."""
    return math.ldexp(*harmonic._decaying_fixed(a, b, r))


class TestDecayingSum:
    """correction_sum and s_sum_exact: T(a) - T(b+1) in fixed point, rounded once."""

    @pytest.mark.parametrize("r", KERNELS)
    @pytest.mark.parametrize("a", [2, 3, 63, 64, 65, 10**6, _CAP])
    def test_an_empty_window_is_positive_zero(self, r, a):
        value = decaying(a, a - 1, r)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    @pytest.mark.parametrize("r", KERNELS)
    @pytest.mark.parametrize("a", [2, 3, 40, 62, 63, 64, 65, 127, 128, 10**6, 2**53 + 1, _CAP])
    def test_a_single_term_is_within_half_an_ulp_and_2_to_the_minus_92(self, r, a):
        # Correctly rounded unless the term lies that close to a midpoint,
        # as 1/(a**3 (2a-1)) does for a = 2**53 + 1: 2**-213 (1 - 3.5 2**-53
        # + O(2**-104)).
        value, exact = decaying(a, a, r), term(a, r)
        assert abs(Fraction(value) - exact) <= Fraction(math.ulp(value)) / 2 + exact / 2**92

    @pytest.mark.parametrize("r", KERNELS)
    @pytest.mark.parametrize(
        "a, b",
        [
            (10**6 + 1, 2 * 10**6),
            (10**8 + 1, 4 * 10**8),
            (5015, 364619768921238531),
            (9069, 4536968482200627615),
            (2, _CAP),
            (2**62, _CAP),
        ],
    )
    def test_a_long_window_from_any_start_takes_o1(self, r, a, b):
        # Windows that summed their terms one by one, or their heads past
        # the first doubling, before the tails were exact: a few µs each.
        start = time.perf_counter()
        value = decaying(a, b, r)
        assert time.perf_counter() - start < 0.05
        (first_lo, first_hi), (end_lo, end_hi) = exact_tail(a, r), exact_tail(b + 1, r)
        assert float(first_lo - end_hi) == value == float(first_hi - end_lo)


# -- the tail expansion ------------------------------------------------------
# T(m) = sum_{k>=m} 1/(k**3 (2k-1)**r) = m**-(s0-1) sum_n a_n m**-n, s0 = 3 + r,
# as harmonic derives it: the binomial series of (1 - 1/(2k))**-r, then
# Euler-Maclaurin on each Hurwitz zeta, collected by degree.  Every bound is
# taken at m = 64 and holds for every larger m, since its coefficients in 1/m
# are nonnegative.
_KEPT_DEGREES = 21  # degrees 0..20
_FROM = 64


@functools.cache
def bernoulli(count: int) -> tuple[Fraction, ...]:
    """B_0 .. B_2count from sum_{j<=m} C(m+1, j) B_j = 0, in exact fractions."""
    b = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return tuple(b)


def binomial_weight(j: int, r: int) -> Fraction:
    """w_j, the coefficient of k**-(s0+j) in 1/(k**3 (2k-1)**r)."""
    return Fraction(math.comb(r + j - 1, j), 2 ** (j + r))


@functools.cache
def tail_coefficients(r: int, top: int) -> tuple[Fraction, ...]:
    """a_0 .. a_top in Fraction."""
    b = bernoulli(top // 2 + 1)
    a = [Fraction(0)] * (top + 1)
    for j in range(top + 1):
        w, s = binomial_weight(j, r), 3 + r + j
        a[j] += w / (s - 1)  # the integral m**(1-s)/(s-1)
        if j + 1 <= top:
            a[j + 1] += w / 2  # half the first term
        for i in range(1, (top - j) // 2 + 1):  # B_2i/(2i)! (s)_{2i-1} m**(1-s-2i)
            rising = math.perm(s + 2 * i - 2, 2 * i - 1)
            a[j + 2 * i] += w * b[2 * i] / math.factorial(2 * i) * rising
    return tuple(a)


def remainder_bound(r: int, d: int, m: int = _FROM) -> Fraction:
    """R with |T(m') - sum_{n<=d} a_n m'**-(s0-1+n)| <= R m'**-(s0+d) for all m' >= m.

    The parts: the binomial series past j = d, each zeta(s, m') at most
    m'**(1-s) (1/(s-1) + 1/m') and the weights falling by at least half; for
    each kept j, zeta(s, m') less its integral in [0, m'**-s] when only the
    integral is kept, and otherwise the Euler-Maclaurin remainder after B_2P,
    at most 2 |B_2(P+1)| / (2P+2)! (s)_{2P+1} m'**-(s+2P+1).
    """
    s0, x = 3 + r, Fraction(1, m)
    b = bernoulli(d // 2 + 1)
    total = binomial_weight(d + 1, r) * (Fraction(1, s0 + d) + x) / (1 - x)
    for j in range(d + 1):
        s, q = s0 + j, d - j
        if q == 0:
            degree, c = 1, Fraction(1)
        else:
            p = q // 2
            degree = 2 * p + 2
            c = 2 * abs(b[2 * p + 2]) / math.factorial(2 * p + 2) * math.perm(s + 2 * p, 2 * p + 1)
        total += binomial_weight(j, r) * c * x ** (j + degree - d - 1)
    return total


def truncation_bound(r: int, d: int) -> Fraction:
    """R_d of harmonic's proof: the next three |a_n| at m = 64 and the bound past them."""
    a, x = tail_coefficients(r, d + 3), Fraction(1, _FROM)
    next_three = sum(abs(a[n]) * x ** (n - d - 1) for n in range(d + 1, d + 4))
    return next_three + remainder_bound(r, d + 3) * x**3


def exact_tail(m: int, r: int) -> tuple[Fraction, Fraction]:
    """T(m) within [lo, hi]: the terms m..M-1 exactly and the expansion from
    M = max(m, 128) to degree 30 with its remainder bound."""
    s0, top = 3 + r, 30
    big = max(m, 128)
    head = sum((term(k, r) for k in range(m, big)), Fraction(0))
    a = tail_coefficients(r, top)
    kept = sum(a[n] * Fraction(1, big) ** (s0 - 1 + n) for n in range(top + 1))
    error = remainder_bound(r, top, big) * Fraction(1, big) ** (s0 + top)
    return head + kept - error, head + kept + error


class TestTailExpansion:
    def test_the_numerators_are_the_fraction_derivation(self):
        series = {r: tail_coefficients(r, _KEPT_DEGREES - 1) for r in (1, 2)}
        denominator = math.lcm(*(c.denominator for a in series.values() for c in a))
        assert harmonic._TAIL_DENOMINATOR == denominator
        for r, a in series.items():
            assert harmonic._TAIL_NUMERATORS[r] == tuple(c * denominator for c in a)

    @pytest.mark.parametrize("r", KERNELS)
    def test_every_kept_degree_meets_its_bound(self, r):
        # R_d <= 2**(d-1): a degree d with e (s0 + d) >= w + d, m >= 2**e,
        # leaves under half a unit of 2**-w.
        for d in range(_KEPT_DEGREES):
            assert truncation_bound(r, d) <= Fraction(2) ** (d - 1), d

    @pytest.mark.parametrize("r", KERNELS)
    def test_the_degree_rule_uses_every_kept_degree_and_no_more(self, r):
        # Over every a and every tail start m >= max(a, 64) the rule's
        # degree, ceil((w - s0 e) / (e - 1)) with e = m.bit_length() - 1,
        # reaches the last kept degree and never passes it.
        s0, degrees = 3 + r, set()
        for length in range(2, 64):
            w = unit_bits(2 ** (length - 1), r)
            for e in range(max(6, length - 1), 64):
                degrees.add(max(0, -((s0 * e - w) // (e - 1))))
        assert max(degrees) == _KEPT_DEGREES - 1

    @pytest.mark.parametrize("r", KERNELS)
    def test_the_head_path_keeps_its_spare_bits(self, r):
        # A tail from m < 64 comes from a window with a < 64: w <= 125, so
        # 62 int quotients at 2**-136 add under 0.03 units of 2**-w.
        assert unit_bits(63, r) <= harmonic._HEAD_BITS - 11

    @pytest.mark.parametrize("r", KERNELS)
    def test_the_tail_from_2_is_derived(self, r):
        lo, hi = exact_tail(2, r)
        scale = 2**harmonic._HEAD_BITS
        assert math.floor(lo * scale) == math.floor(hi * scale) == harmonic._TAIL_FROM_2[r]

    def test_the_tails_from_2_match_their_closed_forms(self):
        # zeta(3) + 5 pi**2/3 - 24 ln 2 - 1 (half the direct Number Constant)
        # and 8 ln 2 - pi**2/3 - zeta(3) - 1, at 50 digits.
        with localcontext() as ctx:
            ctx.prec = 50
            closed = {2: NR_SERIES / 2, 1: S_TAIL}
            for r, value in closed.items():
                literal = Decimal(harmonic._TAIL_FROM_2[r]) / Decimal(2) ** harmonic._HEAD_BITS
                assert abs(literal - value) < Decimal("1e-40"), r

    @pytest.mark.parametrize("r", KERNELS)
    def test_each_tail_is_within_its_units(self, r):
        # (-1.5, 0.5] units of 2**-w for every w a window can give it: from
        # m = 2 past the switch at 64, and in every bit-length band up to the cap.
        rng = random.Random(2300 + r)
        ms = list(range(2, 200)) + [2**e + rng.randint(0, 2**e - 1) for e in range(8, 63)]
        for m in ms:
            lo, hi = exact_tail(m, r)
            for a in {2, 3, min(m, 63), m, rng.randint(2, m)}:
                w = unit_bits(a, r)
                if m < 64 and w > harmonic._HEAD_BITS - 11:
                    continue
                units = harmonic._fixed_tail(m, w, r)
                assert lo * 2**w - Fraction(3, 2) < units <= hi * 2**w + Fraction(1, 2), (m, a)


def plain_odd(a: int, b: int) -> float:
    """Every term of S(a, b), each an int quotient rounded once, summed by math.fsum."""
    return math.fsum(1 / (2 * k - 1) for k in range(a, b + 1))


def psi_coefficient(k: int) -> Fraction:
    """(1 - 2**(1-2k)) B_2k/(4k), the coefficient of 1/x**2k in Q(x)."""
    return (1 - Fraction(1, 2 ** (2 * k - 1))) * Fraction(*oracle._BERNOULLI[k]) / (4 * k)


class TestLongOddWindows:
    """From a >= 41, S is the same finite sum at any length, evaluated in O(1)."""

    @pytest.mark.parametrize("a", [2, 41, 1009, 2**40 + 3, 2**62 - 10**4])
    def test_a_window_of_65_terms_within_2_ulp_of_the_plain_sum(self, a):
        b = a + 64
        value = harmonic.odd_harmonic_sum(a, b)
        assert abs(value - plain_odd(a, b)) <= 2 * math.ulp(value)

    @pytest.mark.parametrize("a, summed", [(1, 0), (40, 0), (41, 3), (10**6, 3), (2**62, 3)])
    def test_floats_summed_by_window_start(self, monkeypatch, a, summed):
        # A structural count, not a bound: the three tail floats from a >= 41
        # (the logarithm's two and the psi polynomial) at every length, the
        # empty window too; from a <= 40 no float at all, but one fixed-point
        # integer.
        counted = []
        fsum = math.fsum

        def counting(values):
            values = list(values)
            counted.append(len(values))
            return fsum(values)

        monkeypatch.setattr(math, "fsum", counting)
        for terms in [0, 1, 48, 49, 10**6]:
            counted.clear()
            harmonic.odd_harmonic_sum(a, a + terms - 1)
            assert counted == ([summed] if summed else []), terms

    @pytest.mark.parametrize("a", [1, 2, 3, 20, 39, 40])
    def test_a_window_from_a_up_to_40_is_one_integer_whatever_its_length(self, monkeypatch, a):
        # The window's start alone picks its evaluator: from a <= 40 it sums
        # no float and takes no float logarithm, short or long.
        def refuse(*args):
            raise AssertionError("a float kernel ran")

        monkeypatch.setattr(math, "fsum", refuse)
        monkeypatch.setattr(harmonic, "_ln_ratio", refuse)
        for b in [a - 1, a, a + 7, 40, 41, a + 48, 10**6, 2**63 - 1]:
            fixed = harmonic._two_s_fixed(b) - harmonic._HEAD_FIXED[a - 1]
            assert harmonic.odd_harmonic_sum(a, b) == math.ldexp(fixed, -harmonic._NR_BITS - 1), b

    def test_head_lcm_is_derived(self):
        last = 2 * harmonic._LOWEST_TAIL_START - 3  # the odd denominator of k = 40
        assert harmonic._HEAD_LCM == math.lcm(*range(1, last + 1, 2))

    def test_two_s_fixed_up_to_40_is_the_exact_head_floored(self):
        # The head table, derived in Fraction: floor(2**W 2 S(1, n)) for
        # n = 0..40, which _two_s_fixed returns below k = 41.
        assert len(harmonic._HEAD_FIXED) == harmonic._LOWEST_TAIL_START
        exact = Fraction(0)
        for n in range(harmonic._LOWEST_TAIL_START):
            exact += Fraction(2, 2 * n - 1) if n else 0
            floored = math.floor(exact * 2**harmonic._NR_BITS)
            assert harmonic._HEAD_FIXED[n] == harmonic._two_s_fixed(n) == floored, n

    @pytest.mark.parametrize("n", [41, 42, 88, 89, 100, 1000, 4999])
    def test_two_s_fixed_from_41_within_2_pow_minus_85(self, n):
        # The kernel's bound from the limit: 2**-85.1 ln n from ln n, 3 units
        # from the floors and under 2**-94 from E(n), against 2 S(1, n) > ln n.
        # The referee floors each term at 2**-200, so it is within n 2**-200
        # below the exact sum.
        one = 1 << 200
        exact = Fraction(2 * sum(one // (2 * k - 1) for k in range(1, n + 1)), one)
        error = abs(Fraction(harmonic._two_s_fixed(n), 2**harmonic._NR_BITS) - exact)
        assert error < exact / 2**85 + Fraction(2 * n, one), n

    def test_the_fixed_point_bounds(self):
        # The arithmetic of the fixed-point proof: E(n) from n = 41 on, and
        # for a window [a, b] from a <= 40 that crosses 40, ln b against
        # 2 S(a, b) >= 2 S(40, b), largest at [40, 41]; past b = 10**4,
        # 2 S(40, b) > ln((2b + 1)/79) > ln b - 3.68 keeps it under 1.7.
        assert Fraction(43867, 798) / (18 * 41**18) < Fraction(1, 2**94)
        ratios, head = [], 0.0
        for b in range(40, 10**4):
            head += 2 / (2 * b - 1)
            if b > 40:
                ratios.append(math.log(b) / head)
        assert max(ratios) == ratios[0] < 74.3
        assert math.log(10**4) / (math.log(10**4) - 3.68) < 1.7
        # 2**-85.1 ln b from ln b, 2**-93 from E(b) and the floors, and one
        # unit of 2**-128 from the head's floor, against 2 S(40, 41) > 0.05.
        assert Fraction(2, 79) + Fraction(2, 81) > Fraction(1, 20)
        assert 2**-85.1 * 74.3 + (2**-93 + 2**-128) / 0.05 < 2**-78.8

    @pytest.mark.parametrize(
        "n, truncation, log, total, ulps",
        [
            (1, Fraction(1, 2**63), Fraction(11, 10**4), Fraction(14, 10**4), Fraction(502, 1000)),
            (41, Fraction(1, 2**67), Fraction(1, 10**4), Fraction(5, 10**4), Fraction(501, 1000)),
        ],
    )
    def test_tail_floats_within_their_bound(self, n, truncation, log, total, ulps):
        # Items 1 to 5 of the odd-window proof at their worst, d = 40, for
        # n = 1 term (any length) and n = 41 terms (past 40): h = 1/(n d) +
        # 1/d**2 is largest at the least n and d, and the three tail floats
        # are off by under `total` u 2 S, so within `ulps` ulp, inside the
        # 0.512 and 0.501 ulp that tests/test_referee.py checks.
        u, d = Fraction(1, 2**53), harmonic._LOWEST_TAIL_START - 1
        b12 = Fraction(*oracle._BERNOULLI[6])
        assert d == 40
        h = Fraction(1, n * d) + Fraction(1, d**2)
        assert abs(b12) / 6 * h / d**10 < truncation
        assert h / 24 < log
        # Item 3, for every n: the term of degree k within gamma_(k (k + 5))
        # of 2 |q_k| (d**-2k - b**-2k) <= 2 k |q_k| d**(2-2k) (d**-2 - b**-2),
        # and d**-2 - b**-2 < 4 S / d**2.
        gamma = [j * u / (1 - j * u) for j in range(51)]
        share = sum(
            gamma[k * (k + 5)] * 2 * k * abs(psi_coefficient(k)) / Fraction(d) ** (2 * k - 2)
            for k in range(1, 6)
        )
        assert share < Fraction(2502, 10**4) * u
        rounding = Fraction(2502, 10**4) * 4 / d**2 / 2  # of 2 S, in units of u
        assert rounding < Fraction(4, 10**4)
        assert truncation + (1 + log) / 2**75 + Fraction(4, 10**4) * u < total * u
        assert Fraction(1, 2) + total * (1 + 2 * u) < ulps <= Fraction(512, 1000)

    def test_full_quotient_from_lo_40_within_1_013_ulp(self):
        # Item 6: C is under 1.8e-7 S term by term from a = 41, so its
        # rounding adds under 2e-7 ulp to S's 0.512 and the final half.
        a = harmonic._LOWEST_TAIL_START
        assert Fraction(1, a**3 * (2 * a - 1)) < Fraction(18, 10**8)
        assert Fraction(1, 2) + Fraction(512, 1000) + Fraction(2, 10**7) < Fraction(1013, 1000)

    @pytest.mark.parametrize(
        "lo, hi", [(40, 40), (40, 41), (40, 100), (1, 2), (2, 3), (3, 4), (7, 1000),
                   (10**6 - 1, 10**6 + 999), (2**62 - 10**4, 2**62), (2**31 - 1, 2**31 + 1)]
    )
    def test_psi_polynomial_on_the_grid_coefficients(self, lo, hi):
        # Item 3: 2 Q(b) - 2 Q(d) = sigma w sum_k 2 q_k s_k w**(k-1), w = 1/d**2,
        # from sigma = (lo/hi)**2 - 1 rounded once, rho = sigma + 1 and the
        # literals 2 q_k correctly rounded.  Each s_k is within
        # (k - 1)(k + 4)/2 u (1 + 2**-40) of its value, and the polynomial
        # within 0.2502 u (d**-2 - b**-2) of 2 Q(b) - 2 Q(d), for every
        # multiplier of the grid: d = m lo and b = m hi.
        u = Fraction(1, 2**53)
        sigma = float(Fraction(lo * lo - hi * hi, hi * hi))
        rho, exact_rho = sigma + 1.0, Fraction(lo * lo, hi * hi)
        s = [1.0]
        for k in range(2, 6):
            s.append(s[-1] * rho + 1.0)
        for k in range(1, 6):
            exact = sum(exact_rho**j for j in range(k))
            bound = Fraction((k - 1) * (k + 4), 2) * u * (1 + Fraction(1, 2**40))
            assert abs(Fraction(s[k - 1]) - exact) <= bound * exact, k
        two_q = [float(2 * psi_coefficient(k)) for k in range(1, 6)]
        coefficients = [two_q[0]] + [q * s_k for q, s_k in zip(two_q[1:], s[1:])]
        g = math.gcd(hi, lo)
        ln_hi, ln_lo = oracle._ln_ratio(hi // g, lo // g)
        first, cap = -(-40 // lo), (2**63 - 1) // hi  # d >= 40 and b below the index cap
        for m in sorted({min(m, cap) for m in (first, first + 1, 7 * first, cap)}):
            d, b = m * lo, m * hi
            w = 1 / (d * d)
            psi = 0.0
            for c in reversed(coefficients):
                psi = psi * w + c
            psi = psi * w * sigma
            assert harmonic._odd_sums(lo, hi, [m]) == [math.fsum((ln_hi, ln_lo, psi))], m
            exact = sum(
                2 * psi_coefficient(k) * (Fraction(1, b ** (2 * k)) - Fraction(1, d ** (2 * k)))
                for k in range(1, 6)
            )
            spread = Fraction(1, d * d) - Fraction(1, b * b)
            assert abs(Fraction(psi) - exact) <= Fraction(2502, 10**4) * u * spread, m

    def test_psi_series_terms_after_the_first_under_2e_4_of_it(self):
        # Item 3 of the long-window proof: from x = 40 on, the terms of Q
        # past 1/(48 x**2) add under 2e-4 of it, and they alternate, so Q is
        # positive and below its first term.
        y = Fraction(1, 40**2)
        terms = [psi_coefficient(k) * y**k for k in range(1, 6)]
        assert terms[0] == y / 48
        assert sum(map(abs, terms[1:])) < Fraction(2, 10**4) * terms[0]
        assert all(t * s < 0 and abs(t) > abs(s) for t, s in zip(terms, terms[1:]))


class TestLnInteger:
    def test_one_is_zero(self):
        assert harmonic.ln_integer(1) == 0.0

    def test_table_row_2(self):
        assert harmonic.ln_integer(2, LogVariant.FULL) == pytest.approx(
            0.69444, abs=1e-5
        )

    def test_table_row_10(self):
        assert harmonic.ln_integer(10, LogVariant.FULL) == pytest.approx(
            2.29823, abs=1e-5
        )

    def test_full_beats_truncated(self):
        for n in range(2, 31):
            ref = ln_value(n)
            err_full = abs(harmonic.ln_integer(n, LogVariant.FULL) - ref)
            err_trunc = abs(harmonic.ln_integer(n, LogVariant.TRUNCATED) - ref)
            assert err_full < err_trunc

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            harmonic.ln_integer(0)

    @pytest.mark.parametrize(
        "n, error",
        [
            (0, DomainError), (-1, DomainError), (0.5, DomainError), (-math.inf, DomainError),
            (math.inf, TypeError), (math.nan, TypeError), (1.0, TypeError), (2.0, TypeError),
            (2**63, OverflowLimitError), (2**64, OverflowLimitError),
        ],
    )
    def test_errors_are_those_of_ln_quotient_n_1(self, n, error):
        # DomainError below 1 first, then TypeError for a non-int (the
        # infinities and nan too), then OverflowLimitError past the index
        # cap: the classes and the order of ln_quotient(n, 1).
        for variant in LogVariant:
            for call in (harmonic.ln_integer, lambda n, v: harmonic.ln_quotient(n, 1, v)):
                with pytest.raises(error) as raised:
                    call(n, variant)
                assert type(raised.value) is error, (call, variant)

    @pytest.mark.parametrize("n", [1, 2, 39, 40, 41, 1000, 10**6 + 1, 2**53 + 1, 2**63 - 1])
    def test_values_are_those_of_ln_quotient_n_1(self, n):
        for variant in LogVariant:
            value = harmonic.ln_integer(n, variant)
            assert value.hex() == harmonic.ln_quotient(n, 1, variant).hex(), variant


class TestExpForm:
    def test_one(self):
        assert harmonic.exp_form(1) == 1.0

    def test_two(self):
        assert harmonic.exp_form(2) == pytest.approx(math.exp(0.6944444444), abs=1e-6)

    def test_systematic_offset_band(self):
        # The full-form integer log under-shoots by a near-constant amount,
        # so exponentiating lands about 0.47% low regardless of n.
        for n in (10, 30, 100, 750):
            rel = harmonic.exp_form(n) / n - 1.0
            assert -0.0049 < rel < -0.0043


class TestLnProduct:
    def test_coincident(self):
        assert harmonic.ln_product(6, 6) == pytest.approx(
            2.0 * harmonic.ln_integer(6), abs=4 * math.ulp(4.0)
        )

    def test_unit_prefix(self):
        assert harmonic.ln_product(1, 10) == pytest.approx(
            harmonic.ln_integer(10), abs=4 * math.ulp(3.0)
        )

    def test_three_times_seven(self):
        expected = harmonic.ln_integer(3) + harmonic.ln_integer(7)
        assert harmonic.ln_product(3, 7) == pytest.approx(expected, abs=4 * math.ulp(4.0))
        assert expected == pytest.approx(1.09740 + 1.94195, abs=2e-5)

    @pytest.mark.parametrize("variant", [LogVariant.FULL, LogVariant.TRUNCATED])
    def test_regrouped_equals_sum_form(self, variant):
        for x, y in [(2, 9), (17, 5), (40, 40), (1, 3), (250, 13)]:
            regrouped = harmonic.ln_product(x, y, variant)
            summed = harmonic.ln_integer(x, variant) + harmonic.ln_integer(y, variant)
            assert abs(regrouped - summed) <= 4 * math.ulp(max(abs(summed), 1.0))


class TestLnQuotient:
    def test_equal_is_zero(self):
        assert harmonic.ln_quotient(5, 5) == 0.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda: harmonic.ln_quotient(2.5, 2.5),
            lambda: harmonic.ln_quotient(2.5, 3),
            lambda: harmonic.ln_quotient(4, 4.0),
            lambda: harmonic.ln_integer(1.0),
            lambda: harmonic.ln_integer(2.0),
            lambda: harmonic.exp_form(1.0),
        ],
        ids=["2.5/2.5", "2.5/3", "4/4.0", "ln_integer(1.0)", "ln_integer(2.0)", "exp_form(1.0)"],
    )
    def test_a_non_int_is_a_type_error_even_for_an_empty_window(self, call):
        # Both arguments are checked before x == y, or x = 1, returns early.
        with pytest.raises(TypeError):
            call()

    @pytest.mark.parametrize("variant", [LogVariant.FULL, LogVariant.TRUNCATED])
    def test_equal_is_positive_zero(self, variant):
        for x in (1, 5, 41, 10**6):
            assert math.copysign(1.0, harmonic.ln_quotient(x, x, variant)) == 1.0

    def test_unit_denominator(self):
        assert harmonic.ln_quotient(10, 1) == harmonic.ln_integer(10)

    @pytest.mark.parametrize("variant", [LogVariant.FULL, LogVariant.TRUNCATED])
    def test_antisymmetry_bit_exact(self, variant):
        pairs = [(k + 2, 3 * k + 5) for k in range(20)]
        for x, y in pairs:
            assert harmonic.ln_quotient(x, y, variant) == -harmonic.ln_quotient(
                y, x, variant
            )


class TestLnRational:
    def test_rejects_a_non_scaled_rational_by_type(self):
        with pytest.raises(TypeError, match="^ln_rational requires a ScaledRational, got int$"):
            harmonic.ln_rational(0)

    def test_worked_example(self):
        value = harmonic.ln_rational(ScaledRational(p=1, q=2, m=25))
        assert value == pytest.approx(-0.693097198, abs=5e-9)

    @pytest.mark.parametrize(
        "m,p,q,expected",
        [(40, 3, 4, -0.2876808066), (30, 5, 4, 0.2231425097)],
    )
    def test_table_rows(self, m, p, q, expected):
        value = harmonic.ln_rational(ScaledRational(p=p, q=q, m=m))
        assert value == pytest.approx(expected, abs=1e-9)

    def test_consistency_with_ln_integer(self):
        for p in (2, 7, 19):
            assert harmonic.ln_rational(
                ScaledRational(p=p, q=1, m=1), LogVariant.FULL
            ) == harmonic.ln_integer(p, LogVariant.FULL)

    @given(
        p=st.integers(min_value=1, max_value=60),
        q=st.integers(min_value=1, max_value=60),
        m=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry_under_reciprocal(self, p, q, m):
        for variant in (LogVariant.FULL, LogVariant.TRUNCATED):
            forward = harmonic.ln_rational(ScaledRational(p=p, q=q, m=m), variant)
            backward = harmonic.ln_rational(ScaledRational(p=q, q=p, m=m), variant)
            assert forward == -backward

    @pytest.mark.parametrize("p,q", [(1, 2), (3, 4), (5, 4), (19, 10)])
    def test_error_decays_in_m(self, p, q):
        ref = ln_value(p / q)
        err_50 = abs(harmonic.ln_rational(ScaledRational(p=p, q=q, m=50)) - ref)
        err_400 = abs(harmonic.ln_rational(ScaledRational(p=p, q=q, m=400)) - ref)
        assert err_400 <= err_50

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            ScaledRational(p=0, q=2, m=10)

    @pytest.mark.parametrize("args", [(2.0, 1, 3), (2, 1.0, 3), (2, 1, 3.0)])
    def test_rejects_a_non_int(self, args):
        with pytest.raises(TypeError):
            ScaledRational(*args)

    def test_overflow_guard(self):
        with pytest.raises(OverflowLimitError):
            ScaledRational(p=2**40, q=1, m=2**40)

    def test_a_full_estimate_of_a_long_window_takes_o1(self):
        # Window [m+1, 4m] has 3 * 10**8 terms: its odd sum and its
        # correction sum each take O(1), and the full estimate is within the
        # truncated one's bound.
        r = ScaledRational(p=4, q=1, m=10**8)
        bound = 1.01 / 24 * (1 / r.scaled_q**2 - 1 / r.scaled_p**2) + 1e-13
        assert abs(harmonic.ln_rational(r) - math.log(4)) <= bound
        start = time.perf_counter()
        value = harmonic.ln_rational(r, LogVariant.FULL)
        assert time.perf_counter() - start < 1.0
        assert abs(value - math.log(4)) <= bound


class TestLnAuto:
    def test_smallest_multiplier(self):
        m, value = harmonic.ln_auto(1, 2)
        assert m == 151
        assert value == pytest.approx(math.log(0.5), abs=2e-5)

    def test_threshold_already_met(self):
        m, _ = harmonic.ln_auto(200, 151)
        assert m == 1

    def test_rejects_negative(self):
        with pytest.raises(NegativeInputError):
            harmonic.ln_auto(-3, 2)

    def test_rejects_zero(self):
        with pytest.raises(ZeroOrInfiniteError):
            harmonic.ln_auto(0, 2)
        with pytest.raises(ZeroOrInfiniteError):
            harmonic.ln_auto(2, 0)

    def test_both_negative_is_positive_ratio(self):
        m, value = harmonic.ln_auto(-1, -2)
        assert value == pytest.approx(math.log(0.5), abs=2e-5)


class TestSelectMultiplier:
    @pytest.mark.parametrize(
        "p, q, message",
        [
            (-1, 5, "p and q must be positive, got -1/5"),
            (0, 5, "p and q must be positive, got 0/5"),
            (5, 0, "p and q must be positive, got 5/0"),
            (5, -2, "p and q must be positive, got 5/-2"),
        ],
    )
    def test_rejects_a_non_positive_ratio(self, p, q, message):
        with pytest.raises(DomainError) as raised:
            harmonic.select_multiplier(p, q)
        assert str(raised.value) == message

    def test_smallest_multiplier_past_the_threshold(self):
        assert harmonic.select_multiplier(1, 2) == 151
        assert harmonic.select_multiplier(200, 151) == 1
        assert harmonic.select_multiplier(7, 3, threshold=6) == 3

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 150.0, 2.5])
    def test_a_threshold_that_is_not_an_int_is_a_type_error(self, threshold):
        # Not a silent nan, and checked before any arithmetic with p and q.
        with pytest.raises(TypeError):
            harmonic.select_multiplier(3, 2, threshold)
        with pytest.raises(TypeError):
            harmonic.select_multiplier(10**400, 10**400, threshold)

    @pytest.mark.parametrize("p, q", [(2.0, 1), (2, 1.0), (math.inf, 2), (2, math.nan)])
    def test_a_ratio_that_is_not_of_ints_is_a_type_error(self, p, q):
        # Before the threshold, past binary64, is divided by a float.
        with pytest.raises(TypeError):
            harmonic.select_multiplier(p, q, 10**320)

    @pytest.mark.parametrize("threshold", [0.5, -math.inf, 0])
    def test_a_threshold_below_one_is_a_domain_error(self, threshold):
        with pytest.raises(DomainError, match="^threshold must be >= 1, got "):
            harmonic.select_multiplier(3, 2, threshold)


class TestPositiveRatio:
    def test_normalises_a_negative_pair(self):
        assert harmonic.positive_ratio(-3, -4) == (3, 4)
        assert harmonic.positive_ratio(3, 4) == (3, 4)


class TestScaledRationalValue:
    """ScaledRational keeps the behaviour of the frozen dataclass it was."""

    def test_repr(self):
        assert repr(ScaledRational(p=4, q=1, m=100)) == "ScaledRational(p=4, q=1, m=100)"

    def test_positional_and_keyword_construction_agree(self):
        r = ScaledRational(3, 4, 40)
        assert (r.p, r.q, r.m) == (3, 4, 40)
        assert r == ScaledRational(p=3, q=4, m=40)
        assert hash(r) == hash(ScaledRational(p=3, q=4, m=40))
        assert (r.scaled_p, r.scaled_q) == (120, 160)

    def test_compares_by_fields_only(self):
        assert ScaledRational(1, 2, 3) != ScaledRational(1, 2, 4)
        assert ScaledRational(1, 2, 3) != (1, 2, 3)
        assert len({ScaledRational(1, 2, 3), ScaledRational(1, 2, 3)}) == 1

    def test_immutable(self):
        r = ScaledRational(1, 2, 3)
        with pytest.raises(AttributeError):
            r.m = 4
        with pytest.raises(AttributeError):
            del r.p
        with pytest.raises(AttributeError):
            r.extra = 1
        assert r.m == 3

    @pytest.mark.parametrize(
        "args,message",
        [
            ((0, 2, 10), "p and q must be positive, got 0/2"),
            ((2, -1, 10), "p and q must be positive, got 2/-1"),
            ((1, 2, 0), "multiplier m must be >= 1, got 0"),
        ],
    )
    def test_domain_messages(self, args, message):
        with pytest.raises(DomainError) as excinfo:
            ScaledRational(*args)
        assert str(excinfo.value) == message

    def test_copy_and_pickle_round_trip(self):
        import copy
        import pickle

        r = ScaledRational(3, 4, 40)
        assert copy.copy(r) == r
        assert pickle.loads(pickle.dumps(r)) == r
