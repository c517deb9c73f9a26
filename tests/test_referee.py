"""High-precision referee: 50-digit decimal sums and logarithms.

The binary64 kernels are checked against `decimal` at 50 significant
digits, whose own rounding error (at most one half-unit in the 50th digit
per operation, at most a few million operations) is far below one binary64
ulp.
"""

import functools
import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from harmlog import constants, factorial, harmonic, oracle, tables
from harmlog.harmonic import LogVariant

_PREC = 50


def _ulps(got: float, exact: Decimal) -> Decimal:
    """|got - exact| in units of the last place of got."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        return abs(Decimal(got) - exact) / Decimal(math.ulp(got))


def _decimal_sum(denominator, a: int, b: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = _PREC
        return sum(Decimal(1) / Decimal(denominator(k)) for k in range(a, b + 1))


def _windows(seed: int, first: int) -> list[tuple[int, int]]:
    rng = random.Random(seed)
    windows = []
    for _ in range(40):
        a = rng.randint(first, 3000)
        windows.append((a, a + rng.randint(1, 3000) - 1))
    return windows


@pytest.mark.parametrize("a, b", _windows(seed=1, first=1))
def test_odd_harmonic_sum_within_one_ulp(a, b):
    exact = _decimal_sum(lambda k: 2 * k - 1, a, b)
    assert _ulps(harmonic.odd_harmonic_sum(a, b), exact) <= 1


def test_odd_harmonic_sum_past_2_53_within_its_bound():
    # Past 2**53 each term is an int quotient rounded once, and fsum rounds
    # their exact sum, so a direct window is within 1.5 ulp (see harmonic).
    rng = random.Random(12)
    for _ in range(200):
        a = rng.randint(2**53, 2**63 - 40)
        b = a + rng.randint(1, 40) - 1
        exact = _decimal_sum(lambda k: 2 * k - 1, a, b)
        assert _ulps(harmonic.odd_harmonic_sum(a, b), exact) <= 1.5 + 1e-9, (a, b)


def _start(rng: random.Random, width: int) -> int:
    """A window start that is small, middle or near the 2**63 index cap."""
    small, middle = rng.randint(1, 100), round(10 ** rng.uniform(2, 15))
    return rng.choice([small, middle, rng.randint(2**62, 2**63 - width)])


def _long_windows(seed: int) -> list[tuple[int, int]]:
    """Windows of 51 to 10**5 terms, from a = 2 to the 2**63 index cap."""
    rng = random.Random(seed)
    windows = [(2, 10**5 + 1), (2**62, 2**62 + 10**5 - 1), (2**63 - 10**5, 2**63 - 1)]
    for _ in range(40):
        width = round(10 ** rng.uniform(math.log10(51), 5))
        a = _start(rng, width)
        windows.append((a, a + width - 1))
    return windows


def _past_the_crossover(a: int, b: int) -> bool:
    """Whether the window [a, b] is longer than the crossover, counted from a:
    odd_harmonic_sum(a, b) takes the O(1) digamma path from a >= 41, and
    the fixed-point integer, as every window, from a <= 40."""
    return b - a + 1 > harmonic._DIRECT_MAX_TERMS


# The O(1) paths' proven bound: item 5 of harmonic's long-window proof from
# a >= 41, and half an ulp plus 2**-78.8 from a <= 40.
_PROVEN_ULPS = 0.501


@pytest.mark.parametrize("a, b", _long_windows(seed=3))
def test_odd_harmonic_sum_past_the_crossover_within_one_ulp(a, b):
    # At the shipped crossover every one of these windows takes an O(1)
    # path.
    assert _past_the_crossover(a, b)
    exact = _decimal_sum(lambda k: 2 * k - 1, a, b)
    assert _ulps(harmonic.odd_harmonic_sum(a, b), exact) <= _PROVEN_ULPS


def _crossover_windows(seed: int, shortest: int) -> list[tuple[int, int]]:
    """Windows of `shortest` to 3,000 terms, from a = 1 to the 2**63 index cap."""
    rng = random.Random(seed)
    windows = []
    for _ in range(40):
        width = rng.randint(shortest, 3000)
        a = _start(rng, width)
        windows.append((a, a + width - 1))
    return windows


# Drawn past an earlier crossover of 256 terms; they stay as 40 more O(1)
# windows.
@pytest.mark.parametrize("a, b", _crossover_windows(seed=4, shortest=257))
def test_odd_harmonic_sum_just_past_the_crossover_within_one_ulp(a, b):
    assert _past_the_crossover(a, b)
    exact = _decimal_sum(lambda k: 2 * k - 1, a, b)
    assert _ulps(harmonic.odd_harmonic_sum(a, b), exact) <= _PROVEN_ULPS


@pytest.mark.parametrize(
    "a, b", _crossover_windows(seed=7, shortest=harmonic._DIRECT_MAX_TERMS + 1)
)
def test_odd_harmonic_sum_past_the_shipped_crossover_within_the_proven_bound(a, b):
    # From one term past the shipped crossover: these windows take an O(1)
    # path.
    assert _past_the_crossover(a, b)
    exact = _decimal_sum(lambda k: 2 * k - 1, a, b)
    assert _ulps(harmonic.odd_harmonic_sum(a, b), exact) <= _PROVEN_ULPS


def _head_free_windows(seed: int) -> list[tuple[int, int]]:
    """From a = 41 to 100, 1 to 64 terms longer than the crossover: windows
    with no float term summed one by one."""
    rng = random.Random(seed)
    windows = []
    for _ in range(60):
        a = rng.randint(harmonic._LOWEST_TAIL_START, 100)
        windows.append((a, a + harmonic._DIRECT_MAX_TERMS + rng.randint(1, 64) - 1))
    return windows


@pytest.mark.parametrize("a, b", _head_free_windows(seed=5))
def test_head_free_windows_just_past_the_crossover_within_0_501_ulp(a, b):
    assert a >= harmonic._LOWEST_TAIL_START
    assert _past_the_crossover(a, b)
    exact = _decimal_sum(lambda k: 2 * k - 1, a, b)
    assert _ulps(harmonic.odd_harmonic_sum(a, b), exact) <= _PROVEN_ULPS


def _head_and_short_tail_windows(seed: int) -> list[tuple[int, int]]:
    """From a = 1 to 40, with 1 to 16 terms more from k = 41 on than the
    crossover: each one fixed-point integer, as every window from a <= 40."""
    rng = random.Random(seed)
    first = harmonic._LOWEST_TAIL_START
    windows = []
    for _ in range(60):
        a = rng.randint(1, first - 1)
        windows.append((a, first + harmonic._DIRECT_MAX_TERMS + rng.randint(1, 16) - 1))
    return windows


@pytest.mark.parametrize("a, b", _head_and_short_tail_windows(seed=6))
def test_head_and_short_tail_windows_within_0_501_ulp(a, b):
    assert a < harmonic._LOWEST_TAIL_START
    assert _past_the_crossover(a, b)
    exact = _decimal_sum(lambda k: 2 * k - 1, a, b)
    assert _ulps(harmonic.odd_harmonic_sum(a, b), exact) <= _PROVEN_ULPS


@pytest.mark.parametrize("a", range(1, harmonic._LOWEST_TAIL_START))
def test_every_head_one_term_past_the_crossover_within_0_501_ulp(a):
    b = a + harmonic._DIRECT_MAX_TERMS
    assert _past_the_crossover(a, b) and not _past_the_crossover(a, b - 1)
    exact = _decimal_sum(lambda k: 2 * k - 1, a, b)
    assert _ulps(harmonic.odd_harmonic_sum(a, b), exact) <= _PROVEN_ULPS


def _scaled_windows(seed: int) -> list[tuple[int, int, int]]:
    """(p, q, m) with coprime p > q and mq >= 40, whose window mq+1..mp of
    49 to 3,000 terms takes the O(1) path from d = mq: d = 40 exactly, p and
    q up to 10**6, and m p near 2**62."""
    rng = random.Random(seed)
    cases = []
    for q in (1, 2, 4, 5, 8, 10, 20, 40):
        m = 40 // q
        k = rng.randint(-(-49 // m), 3000 // m)
        while math.gcd(q + k, q) != 1:
            k += 1
        cases.append((q + k, q, m))
    while len(cases) < 40:
        q, k = rng.randint(1, 10**6), rng.randint(1, 60)
        m = rng.randint(max(-(-40 // q), -(-49 // k)), max(-(-40 // q), 3000 // k))
        if math.gcd(q + k, q) == 1:
            cases.append((q + k, q, m))
    for _ in range(20):
        m, k = rng.randint(49, 1500), rng.choice((1, 2))
        q = 2**62 // m - rng.randint(1, 2**20) | 1
        cases.append((q + k, q, m))
    return cases


@pytest.mark.parametrize("p, q, m", _scaled_windows(seed=15))
def test_scaled_windows_within_the_proven_bound(p, q, m):
    # A scaled estimate 2 S(mq+1, mp) takes ln(b/d) = ln(p/q) itself.
    a, b = m * q + 1, m * p
    assert a > harmonic._LOWEST_TAIL_START - 1 and _past_the_crossover(a, b)
    exact = _decimal_sum(lambda k: 2 * k - 1, a, b)
    assert _ulps(harmonic.odd_harmonic_sum(a, b), exact) <= _PROVEN_ULPS


@pytest.mark.parametrize("a, b", _windows(seed=2, first=2))
def test_correction_sum_within_one_ulp(a, b):
    # Each term's big-int denominator is rounded once to a float, so the
    # sum is not always correctly rounded; one ulp still holds.
    exact = _decimal_sum(lambda k: k**3 * (2 * k - 1) ** 2, a, b)
    assert _ulps(harmonic.correction_sum(a, b), exact) <= 1


# -- the fast-decaying sums --------------------------------------------------
# C(a, b) and the factorial's tail s, the sums of 1/(k**3 (2k-1)**r) for r = 2
# and r = 1, are T(a) - T(b+1) in units of 2**-w, rounded once (see
# harmonic): before that rounding within 2 units, and under 2**-92 of the sum,
# of the exact sum.  The referees are exact: incremental Fraction sums, and
# 700-bit fixed-point sums whose floors leave each term under 2**-700 low.
_DECAYING = [pytest.param(2, id="C"), pytest.param(1, id="s")]
_BRUTE_BITS = 700


def _assert_within_its_bound(a: int, b: int, r: int, lo: Fraction, hi: Fraction) -> None:
    """The window before its one rounding, as _decaying_fixed takes it,
    within 2 units of 2**-w and 2**-92 of the sum of an exact sum in [lo, hi]."""
    w = (3 + r) * a.bit_length() + r + 53 + harmonic._GUARD_BITS
    units = harmonic._fixed_tail(a, w, r) - harmonic._fixed_tail(b + 1, w, r)
    assert harmonic._decaying_fixed(a, b, r) == (units, -w)
    fixed = Fraction(units, 2**w)
    gap = max(fixed - lo, hi - fixed)
    assert gap < Fraction(2, 2**w) and gap < lo / 2**92, (a, b)


# The public sums from k = 2, by r.
_FROM_2 = {2: lambda n: harmonic.correction_sum(2, n), 1: factorial.s_sum_exact}


@pytest.mark.parametrize("r", _DECAYING)
def test_every_window_from_2_to_3000_is_the_exact_sum_rounded_once(r):
    total, mismatches = Fraction(0), []
    for n in range(2, 3001):
        total += Fraction(1, n**3 * (2 * n - 1) ** r)
        if _FROM_2[r](n) != float(total):
            mismatches.append(n)
        _assert_within_its_bound(2, n, r, total, total)
    assert mismatches == []


def _brute(a: int, b: int, r: int) -> tuple[Fraction, Fraction]:
    """The window's exact sum within [lo, hi], from 700-bit floors."""
    one = 1 << _BRUTE_BITS
    floors = sum(one // (k**3 * (2 * k - 1) ** r) for k in range(a, b + 1))
    return Fraction(floors, one), Fraction(floors + b - a + 1, one)


def _band_windows(length: int) -> list[tuple[int, int]]:
    """Four windows of 1 to 2,000 terms from a of the bit length, below 2**63."""
    rng, cap = random.Random(f"band {length}"), 2**63 - 1
    windows = []
    for _ in range(4):
        a = rng.randint(max(2, 2 ** (length - 1)), 2**length - 1)
        width = round(2000 ** rng.random())
        windows.append((a, min(a + width - 1, cap)))
    return windows


def _assert_rounded_once(r: int, windows: list[tuple[int, int]]) -> None:
    """Each window bit-equal to its 700-bit referee rounded once; a referee
    whose ends round apart leaves its window undecided, and none may."""
    undecided, mismatches = [], []
    for a, b in windows:
        lo, hi = _brute(a, b, r)
        if float(lo) != float(hi):
            undecided.append((a, b))
            continue
        if math.ldexp(*harmonic._decaying_fixed(a, b, r)) != float(lo):
            mismatches.append((a, b))
        _assert_within_its_bound(a, b, r, lo, hi)
    assert (undecided, mismatches) == ([], [])


@pytest.mark.parametrize("r", _DECAYING)
@pytest.mark.parametrize("length", range(2, 64))
def test_windows_from_every_bit_length_are_the_exact_sum_rounded_once(r, length):
    _assert_rounded_once(r, _band_windows(length))


# The windows of earlier tests: near the index cap and past 2**53, and the
# factorial's tails [2, b] past 3,000 whose float enclosure once straddled
# a rounding boundary more than once.
_OLD_WINDOWS = [
    (2**63 - 3001, 2**63 - 1),
    (2**63 - 1, 2**63 - 1),
    (2**62, 2**62 + 5000),
    (2**53 - 7, 2**53 + 7),
    (2, 3084),
    (2, 3508),
    (2, 3557),
    (2, 3782),
]


@pytest.mark.parametrize("r", _DECAYING)
def test_the_old_windows_are_the_exact_sum_rounded_once(r):
    _assert_rounded_once(r, _OLD_WINDOWS)


def _table_cases(rng: random.Random) -> list[tuple[int, int]]:
    """Ratios 2**k c/16 on each table entry c = 11..23 (z = 0), and on and
    on either side of each band edge 2**k (c + 1/2)/16, c = 10..23, at a
    small and a 62-bit d and for k = 0, 1, 5 and 40."""
    cases = []
    for d in (32 * rng.randint(1, 32), 32 * rng.randint(2**56, 2**57)):
        for k in (0, 1, 5, 40):
            cases += [((c * d << k) // 16, d) for c in range(11, 24)]
            for c in range(10, 24):
                edge = ((2 * c + 1) * d << k) // 32  # exact, as 32 divides d
                cases += [(edge - 1, d), (edge, d), (edge + 1, d)]
    return cases


def _ln_ratio_cases(seed: int) -> list[tuple[int, int]]:
    """n > d: n - d in {1, 2} near 2**62 and at the index cap, ratios on
    either side of each reduction boundary sqrt(2) 2**k, on and on either
    side of each table entry's band, and ratios up to 2**63."""
    rng = random.Random(seed)
    cases = [(2**64 - 1, 2**64 - 2), (2**64 - 1, 2**64 - 3), (2**64 - 1, 1)]
    for base in (2**62, 2**63, 2**64 - 2**20):
        for _ in range(20):
            d = base + rng.randint(-(2**19), 2**19)
            cases += [(d + 1, d), (d + 2, d)]
    for k in range(63):
        d = rng.randint(2, 2**40)
        below = math.isqrt(2 * d * d << 2 * k)  # sqrt(2) 2**k d, floored
        cases += [(below, d), (below + 1, d)]
    for _ in range(100):
        d = rng.randint(1, 2**rng.randint(1, 62))
        cases.append((rng.randint(d + 1, d << 63), d))
    cases += _table_cases(rng)
    return [(n, d) for n, d in cases if n > d]


def test_ln_ratio_within_its_bound():
    # _ln_ratio's docstring proves hi + lo within 2**-75 of ln(n/d), relative;
    # swapping n and d negates both floats exactly.
    with localcontext() as ctx:
        ctx.prec = _PREC
        for n, d in _ln_ratio_cases(seed=13):
            hi, lo = oracle._ln_ratio(n, d)
            exact = (Decimal(n) / Decimal(d)).ln()
            assert abs(Decimal(hi) + Decimal(lo) - exact) <= exact * Decimal(2) ** -75, (n, d)
            assert oracle._ln_ratio(d, n) == (-hi, -lo), (n, d)
            assert oracle._ln_ratio(n, n) == (0.0, 0.0), n


def _integer_pairs(seed: int) -> list[tuple[int, int]]:
    """(p, q) with p - q = +-1 near 2**62, random below 2**63, and p/q in [1/16, 16]."""
    rng = random.Random(seed)
    cases = []
    for _ in range(20):
        q = 2**62 + rng.randint(-(2**40), 2**40)
        cases += [(q + 1, q), (q - 1, q)]
    for _ in range(100):
        cases.append((rng.randint(1, 2**63 - 1), rng.randint(1, 2**63 - 1)))
    for _ in range(100):
        q = rng.randint(1, 2**rng.randint(4, 62))
        cases.append((rng.randint(-(-q // 16), 16 * q), q))
    return [(p, q) for p, q in cases if p != q]


def test_ln_value_of_integer_pairs_within_half_an_ulp_and_the_kernel_bound():
    # ln_value(p, q) is P/Q of _ln_fraction, within 2**-82.3 of ln(p/q),
    # relative, rounded once; swapping p and q negates it exactly.
    with localcontext() as ctx:
        ctx.prec = _PREC
        for p, q in _integer_pairs(seed=14):
            value = oracle.ln_value(p, q)
            exact = (Decimal(p) / Decimal(q)).ln()
            bound = Decimal(math.ulp(value)) / 2 + abs(exact) * Decimal(2) ** -82
            assert abs(Decimal(value) - exact) <= bound, (p, q)
            assert oracle.ln_value(q, p) == -value, (p, q)
            assert oracle.ln_value(p, p) == 0.0, p


def _reduction(n: int, d: int) -> tuple[int, int]:
    """k and c of _ln_fraction's range reduction for n >= d, from Decimal:
    n/d = 2**k N/D with N/D in [1/sqrt 2, sqrt 2), c nearest 16 N/D."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        ratio = Decimal(n) / Decimal(d)
        k = 0
        while ratio >= Decimal(2).sqrt():
            ratio /= 2
            k += 1
        c = int((16 * ratio + Decimal("0.5")).to_integral_value(rounding="ROUND_FLOOR"))
    return k, c


def test_ln_fraction_within_its_absolute_bound():
    # _ln_fraction's docstring: P/Q is within 0.49 + 1.001 (k + [c != 16])
    # units of 2**-W of ln(n/d).
    unit = Decimal(2) ** -oracle._ATANH_BITS
    with localcontext() as ctx:
        ctx.prec = _PREC
        for n, d in _ln_ratio_cases(seed=13):
            p, q = oracle._ln_fraction(n, d)
            error = abs(Decimal(p) / Decimal(q) - (Decimal(n) / Decimal(d)).ln())
            k, c = _reduction(n, d)
            assert error <= (Decimal("0.49") + Decimal("1.001") * (k + (c != 16))) * unit, (n, d)


def test_atanh_bits_meet_the_bound_at_ln_33_32():
    # The docstring's worst case: k = 0, c = 17, so n/d >= 33/32 and the
    # error is under 0.49 + 1.001 units of 2**-W; W = 80 falls short.
    assert (0.49 + 1.001) * 2.0**-oracle._ATANH_BITS / math.log(33 / 32) < 2.0**-75


def test_reduced_argument_within_1_43(monkeypatch):
    # The proof's |z| <= 1/43, which bounds the terms _atanh_sum keeps.
    reduced = []
    atanh_sum = oracle._atanh_sum

    def recording(t, s, bits):
        reduced.append((t, s))
        return atanh_sum(t, s, bits)

    monkeypatch.setattr(oracle, "_atanh_sum", recording)
    cases = _ln_ratio_cases(seed=13)
    for n, d in cases:
        oracle._ln_fraction(n, d)
    assert len(reduced) == len(cases)
    assert all(43 * abs(t) <= s for t, s in reduced)


def test_table_constants_within_their_bound():
    # Each entry, and _LN2, is within 1.001 units of 2**-W of its logarithm.
    scale = Decimal(2) ** oracle._ATANH_BITS
    with localcontext() as ctx:
        ctx.prec = _PREC
        assert sorted(oracle._LN_SIXTEENTHS) == list(range(11, 24))
        assert oracle._LN_SIXTEENTHS[16] == 0
        constants = [(Decimal(c) / 16, value) for c, value in oracle._LN_SIXTEENTHS.items()]
        for x, value in constants + [(Decimal(2), oracle._LN2)]:
            assert abs(x.ln() * scale - value) < Decimal("1.001"), x


# From the least subnormal to the largest float, and the neighbours of 1.
_LN_GRID = [10.0 ** (-300 + 600 * i / 399) for i in range(400)] + [
    5e-324,
    2.0**-1022,
    sys.float_info.max,
    math.nextafter(1.0, 0.0),
    math.nextafter(1.0, 2.0),
]


def test_ln_ref_within_one_ulp_and_its_bound():
    with localcontext() as ctx:
        ctx.prec = _PREC
        for x in _LN_GRID:
            ref = oracle.ln_ref(x)
            exact = Decimal(x).ln()
            assert _ulps(ref.value, exact) <= 1, x
            assert abs(Decimal(ref.value) - exact) <= Decimal(ref.guaranteed_abs_error), x


def _pi() -> Decimal:
    """pi to the current precision: the recipe of the `decimal` docs."""
    with localcontext() as ctx:
        ctx.prec += 2
        lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
        while s != lasts:
            lasts = s
            n, na = n + na, na + 8
            d, da = d + da, da + 32
            t = (t * n) / d
            s += t
    return +s


def _half_ln_2pi() -> Decimal:
    with localcontext() as ctx:
        ctx.prec = 60
        return (2 * _pi()).ln() / 2


def test_half_ln_2pi_is_derived_from_a_60_digit_pi():
    with localcontext() as ctx:
        ctx.prec = 60
        scaled = _half_ln_2pi() * 2**128
        floor = int(scaled.to_integral_value(rounding="ROUND_FLOOR"))
        # Far from an integer, so 60 digits settle the floor.
        assert Decimal("1e-15") < scaled - floor < 1 - Decimal("1e-15")
    assert oracle._HALF_LN_2PI == floor


@functools.cache
def _bernoulli(count: int) -> list[Fraction]:
    """B_0 .. B_2count from sum_{j<=m} C(m+1, j) B_j = 0, in exact fractions."""
    b = [Fraction(1)]
    for m in range(1, 2 * count + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def test_bernoulli_table():
    b = _bernoulli(9)
    assert {k: Fraction(*ratio) for k, ratio in oracle._BERNOULLI.items()} == {
        k: b[2 * k] for k in range(1, 9)
    }
    assert b[18] == Fraction(43867, 798)  # the proof's B_18


# Stirling terms the referee keeps: at n = 31 the 25th is under 1e-50.
_REFEREE_TERMS = 24


def _ln_factorial(n: int) -> Decimal:
    """ln n! to 50 digits from `decimal` alone: Stirling's series with 24
    Bernoulli terms for n >= 31, and the log of the exact n! below."""
    with localcontext() as ctx:
        ctx.prec = _PREC
        if n < 31:
            return Decimal(math.factorial(n)).ln()
        b = _bernoulli(_REFEREE_TERMS)
        x = Decimal(n)
        total = (x + Decimal("0.5")) * x.ln() - x + _half_ln_2pi()
        for k in range(1, _REFEREE_TERMS + 1):
            c = b[2 * k] / (2 * k * (2 * k - 1))
            total += Decimal(c.numerator) / (Decimal(c.denominator) * x ** (2 * k - 1))
        return +total


def _factorial_cases(seed: int) -> list[int]:
    """Every n from 2 to 199 (31, 32, 33 cross the switch), 150 uniform up
    to 20,000 and 150 log-uniform from 2*10**4 to 10**12."""
    rng = random.Random(seed)
    cases = list(range(2, 200))
    cases += [rng.randint(2, 20_000) for _ in range(150)]
    cases += [round(10 ** rng.uniform(math.log10(2e4), 12)) for _ in range(150)]
    return cases + [10**12]


def test_ln_factorial_within_half_an_ulp_and_the_proven_bound():
    # factorial_exact_ln's docstring: within half an ulp plus 2**-81 ln n!.
    for n in _factorial_cases(seed=18):
        value = oracle.factorial_exact_ln(n)
        exact = _ln_factorial(n)
        bound = Decimal(math.ulp(value)) / 2 + exact * Decimal(2) ** -81
        assert abs(Decimal(value) - exact) <= bound, n


def test_ln_factorial_referee_agrees_with_the_exact_factorial():
    # The Stirling referee against the log of the exact n!, across its switch.
    for n in (31, 32, 33, 100, 1000):
        with localcontext() as ctx:
            ctx.prec = _PREC
            exact = Decimal(math.factorial(n)).ln()
        assert abs(_ln_factorial(n) - exact) <= exact * Decimal("1e-48"), n


@pytest.mark.parametrize("n", [32, 33, 40, 64, 100, 1000])
def test_stirling_sum_within_the_first_omitted_term(n):
    # The remainder after K = 8 terms is at most |B_18|/(306 n**17)
    # (DLMF 5.11(ii)); the floor adds under one unit of 2**-W.
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(n)
        tail = Decimal(math.factorial(n)).ln() - (x + Decimal("0.5")) * x.ln() + x - _half_ln_2pi()
        got = Decimal(oracle._stirling_sum(n)) / 2**oracle._STIRLING_BITS
        bound = Decimal(43867) / (798 * 306 * x**17) + Decimal(2) ** -oracle._STIRLING_BITS
        assert abs(got - tail) <= bound


# -- the Number Constant -----------------------------------------------------
# N(n) = ln n - 2 S(2, n), which the code takes from its limit past n = 40.
# The referee sums S(2, n) term by term up to _NR_DIRECT.  Past it, S(A + 1, n)
# comes from Euler-Maclaurin on f(k) = 1/(2k - 1) at the window's two ends
# (DLMF 2.10.1), an expansion independent of the code's, with _NR_EM_TERMS
# Bernoulli terms; its remainder is under 2 zeta(2P)/(2 pi)**2P times
# 2**(2P-1) (2P-1)!/(2A + 1)**2P, under 1e-68 with P = 12 from A = 1000.
_NR_DIRECT = 1000
_NR_EM_TERMS = 12


def _odd_sum_by_euler_maclaurin(a: int, b: int) -> Decimal:
    """S(a, b) to 50 digits: the integral, the ends' half terms, and
    B_2j/(2j)! (f^(2j-1)(b) - f^(2j-1)(a)), f^(2j-1)(x) = -2**(2j-1)
    (2j-1)!/(2x - 1)**2j."""
    bernoulli = _bernoulli(_NR_EM_TERMS)
    with localcontext() as ctx:
        ctx.prec = _PREC + 10
        lo, hi = Decimal(2 * a - 1), Decimal(2 * b - 1)
        total = (hi / lo).ln() / 2 + (1 / lo + 1 / hi) / 2
        for j in range(1, _NR_EM_TERMS + 1):
            c = bernoulli[2 * j] * 2 ** (2 * j - 1) / (2 * j)
            total -= Decimal(c.numerator) / c.denominator * (1 / hi ** (2 * j) - 1 / lo ** (2 * j))
        return +total


@functools.cache
def _odd_sums_to_the_direct_end() -> list[Decimal]:
    """S(2, n) for n = 0..._NR_DIRECT, term by term (0 for n <= 1)."""
    sums = [Decimal(0), Decimal(0)]
    with localcontext() as ctx:
        ctx.prec = _PREC + 10
        for k in range(2, _NR_DIRECT + 1):
            sums.append(sums[-1] + Decimal(1) / (2 * k - 1))
    return sums


def _odd_from_2(n: int) -> Decimal:
    """S(2, n) to 60 digits for n >= 0: term by term up to _NR_DIRECT, then
    by Euler-Maclaurin."""
    if n <= _NR_DIRECT:
        return _odd_sums_to_the_direct_end()[n]
    with localcontext() as ctx:
        ctx.prec = _PREC + 10
        return _odd_sums_to_the_direct_end()[_NR_DIRECT] + _odd_sum_by_euler_maclaurin(
            _NR_DIRECT + 1, n
        )


def _nr_referee(n: int) -> Decimal:
    """ln n - 2 S(2, n) to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = _PREC + 10
        exact = Decimal(n).ln() - 2 * _odd_from_2(n)
        ctx.prec = _PREC
        return +exact


def test_nr_referee_by_euler_maclaurin_agrees_with_the_term_by_term_sum():
    a, b = 1001, 4000
    assert abs(_odd_sum_by_euler_maclaurin(a, b) - _decimal_sum(lambda k: 2 * k - 1, a, b)) < (
        Decimal("1e-48")
    )


def test_nr_empirical_limit_correctly_rounded_for_every_n_to_200():
    # From n = 41 on, the value from the limit; below it, the exact sum.
    for n in range(1, 201):
        assert constants.nr_empirical_limit(n) == float(_nr_referee(n)), n


def test_nr_empirical_limit_correctly_rounded_for_log_uniform_n_to_10_18():
    rng = random.Random(28)
    ns = [round(10 ** rng.uniform(math.log10(201), 18)) for _ in range(150)]
    for n in ns + [_NR_DIRECT, _NR_DIRECT + 1, 10**4, 10**6, 10**18]:
        assert constants.nr_empirical_limit(n) == float(_nr_referee(n)), n


# -- odd windows from a <= 40 -------------------------------------------------
# Each, short or long, is one fixed-point integer rounded once (harmonic's
# `_two_s_fixed` less its head table), within half an ulp plus 2**-78.8 S:
# the exact sum correctly rounded.
def _odd_prefix(n: int) -> list[Fraction]:
    """S(1, k) for k = 0..n, exact."""
    sums = [Fraction(0)]
    for k in range(1, n + 1):
        sums.append(sums[-1] + Fraction(1, 2 * k - 1))
    return sums


def test_every_window_from_a_up_to_40_to_b_130_is_correctly_rounded():
    # The 4,460 windows S(a, b), a <= 40 and a - 1 <= b <= 130, against
    # exact sums.  Summed float by float when short, 149 missed.
    odd = _odd_prefix(130)
    misses = [
        (a, b)
        for a in range(1, harmonic._LOWEST_TAIL_START)
        for b in range(a - 1, 131)
        if harmonic.odd_harmonic_sum(a, b) != float(odd[b] - odd[a - 1])
    ]
    assert misses == []


_HEAD_WINDOW_ENDS = [89, 10**6, 2**63 - 1] + [
    round(2 ** random.Random(1903).uniform(math.log2(90), 62.9)) for _ in range(3)
]


@pytest.mark.parametrize("a", range(1, harmonic._LOWEST_TAIL_START))
def test_every_long_window_from_a_up_to_40_is_correctly_rounded(a):
    for b in _HEAD_WINDOW_ENDS:
        assert _past_the_crossover(a, b)
        with localcontext() as ctx:
            ctx.prec = _PREC + 10
            exact = _odd_from_2(b) - _odd_from_2(a - 1) + (1 if a == 1 else 0)
        assert harmonic.odd_harmonic_sum(a, b) == float(exact), (a, b)


# -- the estimates from k = 2, rounded once ------------------------------------
# ln_integer(n) = 2 S(2, n), plus 2 C(2, n) for the full variant, ln_product
# (x, y) the sum of two of those, and ln_factorial_series(n) = (n + 1/2) ln n
# - (n - 1) - s(n), s(n) the sum of 1/(x**3 (2x-1)) for x = 2..n, are each
# one fixed-point integer rounded once, within half an ulp plus 2**-82 of the
# exact value: each must be the exact value correctly rounded.  The float
# sums they replaced were up to 0.997 ulp (ln_integer FULL, n = 7566) and
# 2.37 ulp (ln_factorial_series, n = 4077) off; both n are cases below.
_ESTIMATES = {
    "truncated": lambda n: harmonic.ln_integer(n, LogVariant.TRUNCATED),
    "full": lambda n: harmonic.ln_integer(n, LogVariant.FULL),
    "series": factorial.ln_factorial_series,
}


def _misses(n: int, m: int, exact: dict[str, Decimal], exact_m: dict[str, Decimal]) -> list:
    """The estimates at n, and ln_product(n, m), that are not their exact
    values (by estimate name, to 50 digits) correctly rounded."""
    misses = [
        (name, n) for name, estimate in _ESTIMATES.items() if estimate(n) != float(exact[name])
    ]
    for name, variant in (("truncated", LogVariant.TRUNCATED), ("full", LogVariant.FULL)):
        with localcontext() as ctx:
            ctx.prec = _PREC
            product = exact[name] + exact_m[name]
        if harmonic.ln_product(n, m, variant) != float(product):
            misses.append(("product " + name, n, m))
    return misses


def test_estimates_from_2_to_3000_are_correctly_rounded():
    # One pass of incremental 50-digit prefix sums, for n = 2..3000, 4077
    # and 7566, and ln_product(n, m) with a seeded m in 1..n.
    rng = random.Random(1901)
    cases = {*range(2, 3001), 4077, 7566}
    zero = {"truncated": Decimal(0), "full": Decimal(0)}
    exact, misses = {1: zero}, []
    with localcontext() as ctx:
        ctx.prec = _PREC
        s = c = odd = Decimal(0)
        for n in range(2, max(cases) + 1):
            cube = n * n * n
            s += Decimal(1) / (cube * (2 * n - 1))
            c += Decimal(1) / (cube * (2 * n - 1) ** 2)
            odd += Decimal(1) / (2 * n - 1)
            exact[n] = {"truncated": 2 * odd, "full": 2 * (odd + c)}
            if n in cases:
                exact[n]["series"] = (n + Decimal("0.5")) * Decimal(n).ln() - (n - 1) - s
                m = rng.randint(1, n)
                misses += _misses(n, m, exact[n], exact[m])
    assert misses == []


# Past n = 3000 the referee takes the decaying sums from their tails: with
# partial fractions
#     1/(k**3 (2k-1)) = 8/(2k-1) - 4/k - 2/k**2 - 1/k**3,
#     1/(k**3 (2k-1)**2) = 1/k**3 + 4/k**2 + 12/k - 24/(2k-1) + 8/(2k-1)**2,
# the tail T(m) from k = m is a sum of Hurwitz zetas zeta(s, m) and
# zeta(2, m - 1/2)/4, and of psi(m) - psi(m - 1/2) = sum_{k>=m} (2/(2k-1) -
# 1/k), each by its asymptotic series (DLMF 25.11.43 and 5.11.2) with
# _NR_EM_TERMS Bernoulli terms, at 80 digits, from m = 3001 on, where the
# first omitted term is under 1e-80.  The sum from k = 2 to 3000 is added
# term by term.
_TAIL_REFEREE_FROM = 3001
_TAIL_PREC = 80


def _hurwitz_zeta(s: int, x: Decimal) -> Decimal:
    bernoulli = _bernoulli(_NR_EM_TERMS)
    total = x ** (1 - s) / (s - 1) + x**-s / 2
    for j in range(1, _NR_EM_TERMS + 1):
        c = bernoulli[2 * j] / math.factorial(2 * j) * math.perm(s + 2 * j - 2, 2 * j - 1)
        total += Decimal(c.numerator) / c.denominator * x ** (1 - s - 2 * j)
    return total


def _digamma(x: Decimal) -> Decimal:
    bernoulli = _bernoulli(_NR_EM_TERMS)
    total = x.ln() - 1 / (2 * x)
    for j in range(1, _NR_EM_TERMS + 1):
        c = bernoulli[2 * j] / (2 * j)
        total -= Decimal(c.numerator) / c.denominator * x ** (-2 * j)
    return total


def _decaying_tail(r: int, m: int) -> Decimal:
    """T(m) = sum_{k>=m} 1/(k**3 (2k-1)**r) for m >= _TAIL_REFEREE_FROM."""
    x, half = Decimal(m), Decimal("0.5")
    odd_less_inverse = _digamma(x) - _digamma(x - half)
    zeta3, zeta2 = _hurwitz_zeta(3, x), _hurwitz_zeta(2, x)
    if r == 1:
        return 4 * odd_less_inverse - 2 * zeta2 - zeta3
    return zeta3 + 4 * zeta2 - 12 * odd_less_inverse + 2 * _hurwitz_zeta(2, x - half)


@functools.cache
def _decaying_head(r: int) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = _TAIL_PREC
        return sum(
            Decimal(1) / (k**3 * (2 * k - 1) ** r) for k in range(2, _TAIL_REFEREE_FROM)
        )


def _decaying_from_2(r: int, n: int) -> Decimal:
    """The sum of 1/(k**3 (2k-1)**r) for k = 2..n, n >= 3000, to 80 digits."""
    with localcontext() as ctx:
        ctx.prec = _TAIL_PREC
        tail = _decaying_tail(r, _TAIL_REFEREE_FROM) - _decaying_tail(r, n + 1)
        return _decaying_head(r) + tail


@pytest.mark.parametrize("r", _DECAYING)
def test_decaying_referee_by_its_tails_agrees_with_the_term_by_term_sum(r):
    n = 7566
    direct = _decimal_sum(lambda k: k**3 * (2 * k - 1) ** r, 2, n)
    assert abs(_decaying_from_2(r, n) - direct) < Decimal("1e-48")


def _exact_estimates(n: int) -> dict[str, Decimal]:
    with localcontext() as ctx:
        ctx.prec = _TAIL_PREC
        odd, x = _odd_from_2(n), Decimal(n)
        return {
            "truncated": 2 * odd,
            "full": 2 * (odd + _decaying_from_2(2, n)),
            "series": (x + Decimal("0.5")) * x.ln() - (x - 1) - _decaying_from_2(1, n),
        }


def test_estimates_from_2_are_correctly_rounded_for_seeded_n_to_10_18():
    # 150 log-uniform n from 3001 to 10**18, and 10**18; ln_product pairs
    # each n with the one before it.
    rng = random.Random(1902)
    ns = [round(10 ** rng.uniform(math.log10(3001), 18)) for _ in range(150)] + [10**18]
    exact = {n: _exact_estimates(n) for n in ns}
    misses = []
    for n, m in zip(ns, ns[-1:] + ns[:-1]):
        misses += _misses(n, m, exact[n], exact[m])
    assert misses == []


# -- log windows from lo + 1 <= 40 ----------------------------------------------
# ln_quotient(hi, lo) for lo <= 39 is 2 S(lo + 1, hi), plus 2 C(lo + 1, hi)
# for the full variant, one fixed-point integer rounded once: the exact value
# correctly rounded.  A sweep row is ln_rational's float bit for bit on
# either side of that boundary.
def test_ln_quotient_from_lo_up_to_39_to_hi_below_200_is_correctly_rounded():
    # Every lo <= 39 and lo <= hi < 200, 7,020 pairs per variant, against
    # exact sums.  As two rounded sums, 1,800 full and 140 truncated missed.
    odd, corr = _odd_prefix(199), [Fraction(0)]
    for k in range(1, 200):
        corr.append(corr[-1] + Fraction(1, k**3 * (2 * k - 1) ** 2))
    misses = []
    for lo in range(1, harmonic._LOWEST_TAIL_START - 1):
        for hi in range(lo, 200):
            truncated = 2 * (odd[hi] - odd[lo])
            full = truncated + 2 * (corr[hi] - corr[lo])
            for variant, exact in ((LogVariant.TRUNCATED, truncated), (LogVariant.FULL, full)):
                if harmonic.ln_quotient(hi, lo, variant) != float(exact):
                    misses.append((variant.value, lo, hi))
    assert misses == []


def _correction_from_2(n: int) -> Decimal:
    """C(2, n) to 50 digits: term by term below _TAIL_REFEREE_FROM, then by its tails."""
    if n < _TAIL_REFEREE_FROM:
        return _decimal_sum(lambda k: k**3 * (2 * k - 1) ** 2, 2, n)
    return _decaying_from_2(2, n)


def test_ln_quotient_from_lo_up_to_39_is_correctly_rounded_for_seeded_hi_to_10_18():
    # 30 log-uniform hi from 200 to 10**18, and 10**18, each with every lo <= 39.
    rng = random.Random(1904)
    his = [round(10 ** rng.uniform(math.log10(200), 18)) for _ in range(30)] + [10**18]
    misses = []
    for hi in his:
        odd_hi, corr_hi = _odd_from_2(hi), _correction_from_2(hi)
        for lo in range(1, harmonic._LOWEST_TAIL_START - 1):
            with localcontext() as ctx:
                ctx.prec = _PREC + 10
                truncated = 2 * (odd_hi - _odd_from_2(lo))
                full = truncated + 2 * (corr_hi - _correction_from_2(lo))
            for variant, exact in ((LogVariant.TRUNCATED, truncated), (LogVariant.FULL, full)):
                if harmonic.ln_quotient(hi, lo, variant) != float(exact):
                    misses.append((variant.value, lo, hi))
    assert misses == []


def _boundary_sweeps(seed: int) -> list:
    """(p, q, grid): every grid m with m min(p, q) in {39, 40, 41}, for each
    divisor min(p, q) of those, p/q above and below 1, and windows of 1 to
    about 150 terms, so that rows from lo = 40 take both the direct and the
    O(1) digamma path."""
    rng = random.Random(seed)
    cases = []
    for low in sorted({d for t in (39, 40, 41) for d in range(1, t + 1) if t % d == 0}):
        grid = [t // low for t in (39, 40, 41) if t % low == 0]
        for k in sorted({1, 2, -(-49 // grid[0]), rng.randint(1, 150 // grid[0] + 1)}):
            for p, q in ((low + k, low), (low, low + k)):
                cases.append(pytest.param(p, q, grid, id=f"{p}/{q} m={','.join(map(str, grid))}"))
    return cases


@pytest.mark.parametrize("p, q, grid", _boundary_sweeps(seed=1905))
def test_sweep_rows_at_the_boundary_are_ln_rational(p, q, grid):
    report = tables.sweep_ln_rational(p, q, grid)
    for m, row in zip(grid, report.rows):
        value = harmonic.ln_rational(harmonic.ScaledRational(p, q, m))
        assert row.calculated == value, m
        if m * min(p, q) == 39:
            # 2 S(mq + 1, mp) for p > q, and its negation for p < q.
            odd = _odd_prefix(m * max(p, q))
            assert value == float(2 * (odd[m * p] - odd[m * q])), m
