import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from harmlog import factorial, harmonic, oracle
from harmlog.errors import (
    DomainError,
    NegativeInputError,
    OverflowLimitError,
    ZeroOrInfiniteError,
)
from harmlog.harmonic import LogVariant, ScaledRational
from harmlog.oracle import ln_value


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


def plain_correction(a: int, b: int) -> float:
    """Every term of C(a, b), summed by math.fsum."""
    return math.fsum(1.0 / (k**3 * (2 * k - 1) ** 2) for k in range(a, b + 1))


def plain_s_sum(n: int) -> float:
    """Every term of the factorial's tail sum, summed by math.fsum."""
    return math.fsum(1.0 / (x**3 * (2 * x - 1)) for x in range(2, n + 1))


_CAP = 2**63 - 1
# The 16 windows [2, b] of the factorial's tail, b = 33..4152, whose
# enclosure straddles a rounding boundary more than once: (b, straddles).
MULTI_STRADDLES = [
    (674, 2), (860, 3), (895, 2), (1097, 2), (1123, 2), (1139, 2), (1185, 2), (1558, 2),
    (1645, 2), (2188, 3), (2193, 2), (2762, 2), (3084, 2), (3508, 2), (3557, 3), (3782, 2),
]


def clear_head_memo() -> None:
    harmonic._head.cache_clear()


# The two decaying series by r, the exponent of 2k-1 in 1/(k**3 (2k-1)**r);
# each id names the exponents of k and 2k-1.
KERNELS = [pytest.param(2, id="3-2"), pytest.param(1, id="3-1")]


class TestDecayingSum:
    """The tail shortcut of correction_sum and s_sum_exact changes no bit."""

    @settings(max_examples=25, deadline=None)
    @given(
        a_exp=st.floats(min_value=0.31, max_value=4.0),
        width_exp=st.floats(min_value=0.0, max_value=6.0),
    )
    def test_correction_sum_is_the_plain_sum(self, a_exp, width_exp):
        a = round(10**a_exp)
        b = a + round(10**width_exp) - 1
        assert harmonic.correction_sum(a, b) == plain_correction(a, b)

    @settings(max_examples=15, deadline=None)
    @given(n_exp=st.floats(min_value=0.31, max_value=6.0))
    def test_s_sum_exact_is_the_plain_sum(self, n_exp):
        n = round(10**n_exp)
        assert factorial.s_sum_exact(n) == plain_s_sum(n)

    @pytest.mark.parametrize(
        "a, b", [(_CAP - 3000, _CAP), (_CAP, _CAP), (2**62, 2**62 + 5000), (2**53 - 7, 2**53 + 7)]
    )
    def test_near_the_index_cap(self, a, b):
        assert harmonic.correction_sum(a, b) == plain_correction(a, b)

    @pytest.mark.parametrize("r", KERNELS)
    @pytest.mark.parametrize(
        "first, last",
        [(67, 300), (67, 4000), (700, 9000), (2**40, 2**40 + 2000), (_CAP - 2000, _CAP)]
        # The first tail of a head [a, 8a] for a = 2, 3, 5 and 9, and the
        # tails after the head [2, 16] doubled once, twice and three times.
        + [(first, last) for first in (17, 25, 41, 73, 33, 65, 129) for last in (first + 40, 4000)],
    )
    def test_enclosure_holds_the_exact_sum_of_the_float_terms(self, r, first, last):
        terms = harmonic._terms(range(first, last + 1), r)
        exact = sum(map(Fraction, terms))
        lo, hi = harmonic._tail_enclosure(first, last, r, harmonic._tail(first, r))
        assert lo <= exact <= hi

    def test_falls_back_when_the_enclosure_straddles_a_rounding_boundary(self, monkeypatch):
        a, b = 2, 5000
        proven = harmonic._tail_enclosure

        def wide(*args):
            lo, hi = proven(*args)
            return lo / 2, hi * 2

        monkeypatch.setattr(harmonic, "_tail_enclosure", wide)
        head = harmonic._exact_parts(harmonic._terms(range(16, 1, -1), 2))
        lo, hi = wide(17, b, 2, harmonic._tail(17, 2))
        assert math.fsum(head + [lo]) != math.fsum(head + [hi])
        assert harmonic._decaying_sum(a, b, 2) == plain_correction(a, b)

    @pytest.mark.parametrize(
        "a, b", [(5015, 364619768921238531), (9069, 4536968482200627615)]
    )
    def test_a_straddling_enclosure_grows_the_head(self, a, b):
        # At h = 8a the enclosure straddles a rounding boundary; one growth
        # of the head settles it, where summing the window would never end.
        h = 8 * a
        head = harmonic._exact_parts(harmonic._terms(range(h, a - 1, -1), 2))
        lo, hi = harmonic._tail_enclosure(h + 1, b, 2, harmonic._tail(h + 1, 2))
        low, high = math.fsum(head + [lo]), math.fsum(head + [hi])
        assert low != high
        start = time.perf_counter()
        value = harmonic.correction_sum(a, b)
        assert time.perf_counter() - start < 1.0
        assert low <= value <= high

    @pytest.mark.parametrize("b, straddles", MULTI_STRADDLES)
    def test_windows_that_straddle_more_than_once(self, b, straddles):
        # The factorial's tail from a = 2: the enclosures after the heads
        # [2, 16], [2, 32] (and [2, 64]) straddle before one settles or the
        # window ends within twice the head.
        plain = math.fsum(1.0 / (k**3 * (2 * k - 1)) for k in range(2, b + 1))
        for h in (16, 32, 64)[:straddles]:
            head = harmonic._exact_parts(harmonic._terms(range(h, 1, -1), 1))
            lo, hi = harmonic._tail_enclosure(h + 1, b, 1, harmonic._tail(h + 1, 1))
            low, high = math.fsum(head + [lo]), math.fsum(head + [hi])
            assert low != high
            assert low <= plain <= high
        assert harmonic._decaying_sum(2, b, 1) == plain
        assert factorial.s_sum_exact(b) == plain

    @pytest.mark.parametrize("a", range(2, 10))
    def test_windows_past_the_first_head_of_a_small_start(self, a):
        # b from 2h + 1, h = 8a, up to 2 max(a + 64, 8a): the windows that an
        # earlier, longer first head [a, max(a + 64, 8a)] summed term by term.
        for b in range(16 * a + 1, 2 * max(a + 64, 8 * a) + 1):
            assert harmonic.correction_sum(a, b) == plain_correction(a, b)
            assert harmonic._decaying_sum(a, b, 1) == math.fsum(
                1.0 / (k**3 * (2 * k - 1)) for k in range(a, b + 1)
            )

    @staticmethod
    def terms_summed(monkeypatch, a, b, r, memoised=False):
        """Terms _decaying_sum(a, b, r) sums one by one: with the head memo
        cleared, or, if memoised, after a first identical call has filled it."""
        clear_head_memo()
        if memoised:
            harmonic._decaying_sum(a, b, r)
        counted = []
        terms = harmonic._terms

        def counting(ks, r):
            for term in terms(ks, r):
                counted.append(term)
                yield term

        monkeypatch.setattr(harmonic, "_terms", counting)
        harmonic._decaying_sum(a, b, r)
        return len(counted)

    def test_the_first_head_ends_at_8a(self, monkeypatch):
        # From a = 3, whose first head [3, 24] is not a literal.
        assert self.terms_summed(monkeypatch, 3, 10**6, 2) == 22

    def test_a_straddle_doubles_the_head(self, monkeypatch):
        # The enclosures after [2, 16] and [2, 32] straddle, the one after
        # [2, 64] settles: the literal [2, 16] and 48 terms, where growing the
        # head eightfold sums [17, 128].
        assert self.terms_summed(monkeypatch, 2, 674, 1) == 48

    @pytest.mark.parametrize(
        "b, r",
        [
            pytest.param(10**6, 2, id="1000000-3-2"),
            pytest.param(10**5, 1, id="100000-3-1"),
            pytest.param(10**18, 1, id="1000000000000000000-3-1"),
        ],
    )
    def test_a_repeated_start_sums_no_head_term(self, monkeypatch, b, r):
        # The enclosure after the first head [2, 16] settles these windows.
        assert self.terms_summed(monkeypatch, 2, b, r, memoised=True) == 0

    def test_a_straddle_after_a_memo_hit_sums_no_head_term(self, monkeypatch):
        # [2, 674] straddles after [2, 16] and [2, 32]: the doubled heads
        # [2, 32] and [2, 64] are memoised too, so none of them is summed again.
        assert self.terms_summed(monkeypatch, 2, 674, 1, memoised=True) == 0

    @pytest.mark.parametrize("r", KERNELS)
    @pytest.mark.parametrize("a", [2, 3, 7, 41])
    def test_a_head_ends_in_the_tail_at_the_next_index(self, r, a):
        # The first head [a, 8a] and the heads doubled from it.
        clear_head_memo()
        for h in (8 * a, 16 * a, 32 * a):
            parts, end = harmonic._head(a, h, r)
            assert end.hex() == harmonic._tail(h + 1, r).hex()
            exact = sum(map(Fraction, harmonic._terms(range(a, h + 1), r)))
            assert sum(map(Fraction, parts)) == exact

    @pytest.mark.parametrize("b, straddles", MULTI_STRADDLES)
    def test_memo_hit_cleared_memo_and_plain_sum_agree_on_straddles(self, b, straddles):
        plain = math.fsum(1.0 / (k**3 * (2 * k - 1)) for k in range(2, b + 1))
        clear_head_memo()
        cleared = harmonic._decaying_sum(2, b, 1)
        hit = harmonic._decaying_sum(2, b, 1)
        assert harmonic._head.cache_info().hits >= 1
        assert cleared.hex() == hit.hex() == plain.hex()

    @pytest.mark.parametrize("r", KERNELS)
    def test_memo_hit_cleared_memo_and_plain_sum_agree_on_seeded_windows(self, r):
        rng = random.Random(1409 + r)
        windows = [(2, rng.randint(2, 5000)) for _ in range(60)]
        windows += [(rng.randint(2, 200), rng.randint(2000, 6000)) for _ in range(60)]
        for a, b in windows:
            plain = math.fsum(1.0 / (k**3 * (2 * k - 1) ** r) for k in range(a, b + 1))
            clear_head_memo()
            cleared = harmonic._decaying_sum(a, b, r)
            hit = harmonic._decaying_sum(a, b, r)
            assert cleared.hex() == hit.hex() == plain.hex(), (a, b)

    @pytest.mark.parametrize("r", KERNELS)
    def test_the_first_heads_from_2_are_derived(self, r):
        # The literal is what the memo's build would make of [2, 16]: its
        # exact parts and the tail from 17, bit for bit; `_head` returns it.
        parts, end = harmonic._FIRST_HEADS[r]
        built = harmonic._exact_parts(harmonic._terms(range(16, 1, -1), r))
        assert [part.hex() for part in parts] == [part.hex() for part in built]
        assert end.hex() == harmonic._tail(17, r).hex()
        assert harmonic._head(2, 16, r) is harmonic._FIRST_HEADS[r]

    def test_the_memos_are_bounded(self):
        assert 0 < harmonic._head.cache_info().maxsize < 1000

    def test_the_work_limit_is_checked_before_the_memo(self, monkeypatch):
        harmonic._decaying_sum(2, 10**6, 2)
        monkeypatch.setattr(harmonic, "MAX_TERMS", 14)
        with pytest.raises(OverflowLimitError):
            harmonic._decaying_sum(2, 10**6, 2)

    def test_exact_parts_across_chunks(self, monkeypatch):
        monkeypatch.setattr(harmonic, "_CHUNK", 7)
        terms = [1.0 / (k**3 * (2 * k - 1) ** 2) for k in range(2, 100)] + [1e10, 3.0, -1e10]
        parts = harmonic._exact_parts(iter(terms))
        assert sum(map(Fraction, parts)) == sum(map(Fraction, terms))
        assert len(parts) < 5


def fraction_tail_polynomials(r: int) -> tuple[tuple[float, ...], Fraction]:
    """`harmonic._TAIL_POLYNOMIALS[r]` and the bound that `_TAIL_WIDTHS[r]` rounds up,
    derived in `Fraction`.

    The bound is N(1/17) / (D - G(1/17)) of harmonic's proof.  N, the sum of
    the j-series truncation, the Euler-Maclaurin remainders, the dropped
    degrees and the Horner error G, has nonnegative coefficients, so it grows
    with x = 1/m and its value at x = 1/17 bounds every m >= 17.  A(x), the
    kept polynomial, is at least D = a_0 plus its negative terms at x = 1/17
    for every x <= 1/17, so That(m) >= x**(s0-1) (D - G(1/17)).
    """
    bernoulli = {i: Fraction(*ratio) for i, ratio in oracle._BERNOULLI.items()}
    s0, p, j_terms = 3 + r, harmonic._EM_TERMS, harmonic._J_TERMS
    size = j_terms + 2 * p + 2
    a = [Fraction(0)] * size
    e = [Fraction(0)] * size
    for j in range(j_terms):
        w = Fraction(math.comb(r + j - 1, j), 2 ** (j + r))
        s = s0 + j
        a[j] += w / (s - 1)
        a[j + 1] += w / 2
        for i in range(1, p + 1):
            rising = math.perm(s + 2 * i - 2, 2 * i - 1)  # (s)_{2i-1}
            a[j + 2 * i] += w * bernoulli[i] / math.factorial(2 * i) * rising
        rising = math.perm(s + 2 * p, 2 * p + 1)  # (s)_{2P+1}
        e[j + 2 * p + 2] += 2 * w * abs(bernoulli[p + 1]) / math.factorial(2 * p + 2) * rising
    kept = 16  # degrees 0..15
    u, x = Fraction(harmonic._U), Fraction(1, 17)
    gammas = [(3 * s0 + 4 * n + 1) * u / (1 - (3 * s0 + 4 * n + 1) * u) for n in range(kept)]
    horner = sum(g * abs(a_n) * x**n for n, (g, a_n) in enumerate(zip(gammas, a)))
    dropped = sum(abs(a_n) * x**n for n, a_n in enumerate(a) if n >= kept)
    remainders = sum(e_n * x**n for n, e_n in enumerate(e))
    tail_bound = (Fraction(34, 33) / 2) ** r * (1 / Fraction(s0 - 1) + x)  # T(m) / x**(s0-1)
    truncation = (j_terms + 1) * (x / 2) ** j_terms * tail_bound
    floor = a[0] + sum(a_n * x**n for n, a_n in enumerate(a[:kept]) if a_n < 0)
    width = (truncation + remainders + dropped + horner) / (floor - horner)
    return tuple(map(float, reversed(a[:kept]))), width


def loop_tail(m: int, r: int) -> float:
    """That(m) by Horner's rule as a loop from 0.0, the reference `_tail` writes out."""
    x = 1.0 / m
    value = 0.0
    for coefficient in harmonic._TAIL_POLYNOMIALS[r]:
        value = value * x + coefficient
    return value * math.prod([x] * (2 + r))


class TestTailPolynomials:
    @pytest.mark.parametrize("r", KERNELS)
    def test_tail_is_the_horner_loop_bit_for_bit(self, r):
        rng = random.Random(f"tail {r}")
        ms = [17, 18, 2**53, 2**63 - 1] + [rng.randint(17, 2**63 - 1) for _ in range(3000)]
        ms += [min(round(2 ** rng.uniform(math.log2(17), 63)), 2**63 - 1) for _ in range(3000)]
        for m in ms:
            assert harmonic._tail(m, r).hex() == loop_tail(m, r).hex(), m

    @pytest.mark.parametrize("r", KERNELS)
    def test_equal_to_the_fraction_derivation(self, r):
        got = harmonic._TAIL_POLYNOMIALS[r]
        expected, _ = fraction_tail_polynomials(r)
        assert list(map(float.hex, got)) == list(map(float.hex, expected))

    @pytest.mark.parametrize("r", KERNELS)
    def test_the_width_is_the_proven_bound_rounded_up(self, r):
        # Rounded up to a tenth of u: 24.04u -> 24.1u and 15.63u -> 15.7u.
        _, bound = fraction_tail_polynomials(r)
        width = harmonic._TAIL_WIDTHS[r]
        assert Fraction(width) >= bound
        assert width == math.ceil(bound / Fraction(harmonic._U) * 10) / 10 * harmonic._U


def plain_odd(a: int, b: int) -> float:
    """Every term of S(a, b), summed by math.fsum."""
    return math.fsum(1.0 / (2 * k - 1) for k in range(a, b + 1))


def psi_coefficient(k: int) -> Fraction:
    """(1 - 2**(1-2k)) B_2k/(4k), the coefficient of 1/x**2k in Q(x)."""
    return (1 - Fraction(1, 2 ** (2 * k - 1))) * Fraction(*oracle._BERNOULLI[k]) / (4 * k)


def exact_odd_head(a: int) -> Fraction:
    """S(a, 40), the head of a long window from a <= 40, exactly."""
    return sum(Fraction(1, 2 * k - 1) for k in range(a, harmonic._LOWEST_TAIL_START))


class TestLongOddWindows:
    """Past _DIRECT_MAX_TERMS terms, S is the same finite sum, evaluated in O(1)."""

    def test_the_longest_direct_window_is_the_plain_sum(self):
        # From a = 2: the 39 terms below k = 41 and _DIRECT_MAX_TERMS from it.
        b = harmonic._LOWEST_TAIL_START - 1 + harmonic._DIRECT_MAX_TERMS
        assert harmonic.odd_harmonic_sum(2, b) == plain_odd(2, b)

    def test_the_longest_direct_window_from_any_start_is_the_plain_sum(self):
        # One term more would take the O(1) path, whose float differs from
        # the plain sum's for about a third of these windows.
        rng = random.Random(41)
        for a in [1, 40, 41, 42] + [round(2 ** rng.uniform(5.4, 62)) for _ in range(200)]:
            b = max(a, harmonic._LOWEST_TAIL_START) - 1 + harmonic._DIRECT_MAX_TERMS
            assert harmonic.odd_harmonic_sum(a, b) == plain_odd(a, b), a

    @pytest.mark.parametrize("a", [2, 41, 1009, 2**40 + 3, 2**62 - 10**4])
    def test_just_past_the_crossover_within_2_ulp_of_the_plain_sum(self, a):
        c = max(a, harmonic._LOWEST_TAIL_START)
        b = c + harmonic._DIRECT_MAX_TERMS + 16
        assert b - c + 1 > harmonic._DIRECT_MAX_TERMS
        value = harmonic.odd_harmonic_sum(a, b)
        assert abs(value - plain_odd(a, b)) <= 2 * math.ulp(value)

    def test_every_long_window_reaches_past_the_tail_start(self):
        # A window past the crossover has b >= c + _DIRECT_MAX_TERMS and
        # n > _DIRECT_MAX_TERMS >= 40 terms, as the long-window proof uses.
        assert harmonic._DIRECT_MAX_TERMS >= harmonic._LOWEST_TAIL_START - 1

    @pytest.mark.parametrize("a, summed", [(1, 6), (40, 6), (41, 4), (10**6, 4), (2**62, 4)])
    def test_floats_summed_past_the_crossover(self, monkeypatch, a, summed):
        # A structural count, not a bound: the four tail floats, plus the
        # two of the head S(a, 40) from a <= 40.
        counted = []
        fsum = math.fsum

        def counting(values):
            values = list(values)
            counted.append(len(values))
            return fsum(values)

        monkeypatch.setattr(math, "fsum", counting)
        c = max(a, harmonic._LOWEST_TAIL_START)
        harmonic.odd_harmonic_sum(a, c + harmonic._DIRECT_MAX_TERMS)
        assert counted == [summed]

    def test_head_integers_are_derived(self):
        last = 2 * harmonic._LOWEST_TAIL_START - 3  # the odd denominator of k = 40
        common = math.lcm(*range(1, last + 1, 2))
        assert harmonic._HEAD_LCM == common
        assert harmonic._HEAD_FROM_1 == sum(common // d for d in range(1, last + 1, 2))

    def test_head_pair_from_2_is_derived(self):
        # The literal S(2, 40) is `_hi_lo` of N_2 = N_1 - L/1, bit for bit.
        pair = oracle._hi_lo(harmonic._HEAD_FROM_1 - harmonic._HEAD_LCM, harmonic._HEAD_LCM)
        assert [x.hex() for x in harmonic._ODD_HEAD_FROM_2] == [x.hex() for x in pair]
        assert harmonic._odd_head(2) is harmonic._ODD_HEAD_FROM_2

    def test_head_pairs_round_the_exact_head(self):
        # From every a <= 40, hi is S(a, 40) correctly rounded and lo the
        # rest S(a, 40) - hi correctly rounded (float(Fraction) is).
        for a in range(1, harmonic._LOWEST_TAIL_START):
            head = exact_odd_head(a)
            hi, lo = harmonic._odd_head(a)
            assert (hi, lo) == (float(head), float(head - Fraction(hi))), a

    def test_head_pair_within_2_pow_minus_105(self):
        # Item 4 of the long-window proof: hi + lo is within 2**-105 of
        # S(a, 40), relative, from every a <= 40.
        for a in range(1, harmonic._LOWEST_TAIL_START):
            head = exact_odd_head(a)
            hi, lo = harmonic._odd_head(a)
            assert abs(Fraction(hi) + Fraction(lo) - head) < head / 2**105, a

    def test_tail_and_head_floats_within_0_055_u(self):
        # Items 1 to 3 of the long-window proof at their worst, d = 40 and
        # n = 41 terms, with item 4: the four tail floats and the two of the
        # head are off by under 0.0006 u S (item 5), so within 0.501 ulp.
        u, d, n = Fraction(harmonic._U), harmonic._LOWEST_TAIL_START - 1, 41
        b12 = Fraction(*oracle._BERNOULLI[6])
        assert d == 40
        truncation = abs(b12) / 6 * (Fraction(1, n * d**11) + Fraction(1, d**12))
        assert truncation < Fraction(1, 2**67)
        assert Fraction(1, 24) * (Fraction(1, n * d) + Fraction(1, d**2)) < Fraction(1, 10**4)
        rounding = Fraction(5, 12) * u * (Fraction(1, n * d) + Fraction(1, d**2))
        assert rounding < u / 1900
        log = Fraction(10001, 10**4) / 2**75
        head = u / 2**52  # 2**-105
        bound = truncation + log + u / 1900 + head
        assert bound < Fraction(6, 10**4) * u
        assert Fraction(1, 2) + Fraction(6, 10**4) * (1 + 2 * u) < Fraction(501, 1000)

    def test_psi_series_is_horner_on_the_rounded_bernoulli_quotients(self):
        # The literal coefficients of _psi_series are (1 - 2**(1-2k)) B_2k/(4k),
        # k = 5..1, each correctly rounded, and y = 1/(x*x) is rounded once.
        # Below x = 40 the later coefficients still weigh: x = 1 sums them.
        coefficients = [float(psi_coefficient(k)) for k in range(5, 0, -1)]
        for x in [1, 2, 3, 40, 41, 100, 10**6 + 1, 2**53 + 1, 2**63 - 1, 2**64 + 1]:
            y = float(Fraction(1, x * x))
            value = 0.0
            for coefficient in coefficients:
                value = value * y + coefficient
            assert harmonic._psi_series(x) == value * y, x

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

    def test_work_limit_at_construction(self):
        # Window [m+1, 4m] has 3 * 10**8 terms: it constructs, and its odd
        # sum takes O(1), but its correction sum would add every term.
        r = ScaledRational(p=4, q=1, m=10**8)
        bound = 1.01 / 24 * (1 / r.scaled_q**2 - 1 / r.scaled_p**2) + 1e-13
        assert abs(harmonic.ln_rational(r) - math.log(4)) <= bound
        start = time.perf_counter()
        with pytest.raises(OverflowLimitError, match="over the limit"):
            harmonic.ln_rational(r, LogVariant.FULL)
        assert time.perf_counter() - start < 1.0


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
