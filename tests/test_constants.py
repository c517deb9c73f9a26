import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from harmlog import constants as consts
from harmlog.errors import DomainError, OverflowLimitError
from harmlog.harmonic import correction_sum
from harmlog.oracle import _BERNOULLI, LN2, _ln_fraction, ln_value


class TestNrIntegral:
    def test_closed_form_value(self):
        assert consts.nr_integral() == pytest.approx(0.040074705601703, abs=1e-12)

    def test_arithmetic_consistency(self):
        assert 24.0 * LN2 == pytest.approx(16.63553233, abs=1e-8)

    def test_gamma_from_integral(self):
        v = consts.variant(consts.NrKind.INTEGRAL)
        assert consts.euler_gamma(v) == pytest.approx(0.5736309333, abs=1e-9)


class TestNrDirectSeries:
    def test_single_term(self):
        assert consts.nr_direct_series(1) == pytest.approx(1.0 / 36.0, rel=1e-15)

    def test_monotone_in_terms(self):
        assert consts.nr_direct_series(1000) < consts.nr_direct_series(10**6)

    def test_shares_engine_with_correction_sum(self):
        for terms in (1, 10, 500):
            assert consts.nr_direct_series(terms) == 2.0 * correction_sum(2, terms + 1)

    def test_converged_value_disagrees_with_integral(self):
        # The integral closed form overshoots its own series by ~0.008.
        converged = consts.nr_direct_series(consts.DIRECT_SERIES_CONVERGED_TERMS)
        assert converged == pytest.approx(0.0317305, abs=1e-6)
        assert abs(converged - consts.nr_integral()) > 5e-3

    def test_tail_bound_constant(self):
        n = consts.DIRECT_SERIES_CONVERGED_TERMS
        assert 1.0 / (8.0 * n**4) < 1e-12

    def test_rejects_bad_terms(self):
        with pytest.raises(DomainError):
            consts.nr_direct_series(0)


def two_q(n: int) -> Fraction:
    """2 Q(n) = sum_{k=1..8} (1 - 2**(1-2k)) B_2k / (2k n**2k), exactly."""
    return sum(
        (1 - Fraction(1, 2 ** (2 * k - 1))) * Fraction(b, d) / (2 * k * n ** (2 * k))
        for k, (b, d) in _BERNOULLI.items()
    )


class TestNrEmpiricalLimit:
    def test_two(self):
        assert consts.nr_empirical_limit(2) == pytest.approx(
            math.log(2.0) - 2.0 / 3.0, rel=1e-12
        )

    def test_limit_value(self):
        # The limit is 2 - 2 ln 2 - gamma, with O(1/n^2) convergence.
        expected = 2.0 - 2.0 * LN2 - 0.5772156649015329
        assert consts.nr_empirical_limit(10**6) == pytest.approx(expected, abs=1e-9)

    def test_convergence(self):
        assert abs(
            consts.nr_empirical_limit(10**6) - consts.nr_empirical_limit(10**5)
        ) < 1e-6

    @pytest.mark.parametrize("n", range(1, consts._NR_FROM_LIMIT))
    def test_up_to_40_the_exact_sum_and_the_integer_logarithm_rounded_once(self, n):
        p, q = _ln_fraction(n, 1)
        exact = Fraction(p, q) - 2 * sum(Fraction(1, 2 * k - 1) for k in range(2, n + 1))
        assert consts.nr_empirical_limit(n) == float(exact)

    @pytest.mark.parametrize("n", [41, 42, 50, 1234, 10**6, 2**40 + 1, 2**63 - 1])
    def test_from_41_the_limit_less_2q_rounded_once(self, n):
        fixed = consts._NR_LIMIT - math.floor(two_q(n) * 2**consts._NR_BITS)
        assert consts.nr_empirical_limit(n) == float(Fraction(fixed, 2**consts._NR_BITS))

    def test_two_q_coefficients_are_derived(self):
        # c_k / D = (1 - 2**(1-2k)) B_2k / (2k) for k = 1..8, from the
        # Bernoulli numbers of oracle._BERNOULLI, in Fraction.
        # D is their least common denominator.
        assert len(consts._TWO_Q_NUMERATORS) == len(_BERNOULLI) == 8
        wants = [(1 - Fraction(1, 2 ** (2 * k - 1))) * Fraction(*_BERNOULLI[k]) / (2 * k)
                 for k in _BERNOULLI]
        for k, c, want in zip(_BERNOULLI, consts._TWO_Q_NUMERATORS, wants):
            assert Fraction(c, consts._TWO_Q_DENOMINATOR) == want, k
        assert consts._TWO_Q_DENOMINATOR == math.lcm(*(want.denominator for want in wants))

    def test_two_q_is_the_exact_sum_floored_once(self):
        rng = random.Random("2 Q(n)")
        for n in [1, 2, 40, 41, 2**63 - 1] + [round(2 ** rng.uniform(0, 63)) for _ in range(200)]:
            assert consts._two_q_fixed(n) == math.floor(two_q(n) * 2**consts._NR_BITS), n

    def test_limit_literal_is_derived_at_1000_without_gamma(self):
        # N = ln A - 2 S(2, A) + 2 Q(A) + E(A), |E(A)| <= |B_18| / (18 A**18)
        # < 1e-54 at A = 1000, in 60-digit decimal.
        big_a = 1000
        rest = two_q(big_a) - 2 * sum(Fraction(1, 2 * k - 1) for k in range(2, big_a + 1))
        with localcontext() as ctx:
            ctx.prec = 60
            limit = Decimal(big_a).ln() + Decimal(rest.numerator) / rest.denominator
            scaled = limit * 2**consts._NR_BITS
            assert consts._NR_LIMIT == math.floor(scaled)
            # The floor is not decided by the last digits.
            assert Decimal("1e-15") < scaled - consts._NR_LIMIT < 1 - Decimal("1e-15")

    def test_limit_literal_is_two_minus_2_ln_2_minus_gamma(self):
        # A theorem, checked here against gamma correctly rounded to binary64.
        with localcontext() as ctx:
            ctx.prec = 60
            limit = Decimal(consts._NR_LIMIT) / 2**consts._NR_BITS
            from_gamma = 2 - 2 * Decimal(2).ln() - Decimal(consts.EULER_GAMMA_REFERENCE)
            assert abs(limit - from_gamma) <= Decimal(math.ulp(consts.EULER_GAMMA_REFERENCE)) / 2

    def test_remainder_from_41_under_2_pow_minus_90_of_the_value(self):
        # |E(n)| <= |B_18| / (18 n**18), B_18 = 43867/798; N(41) > 0.03646.
        n = consts._NR_FROM_LIMIT
        assert Fraction(43867, 798) / (18 * n**18) < Fraction(1, 2**90) * Fraction(3646, 10**5)
        assert consts.nr_empirical_limit(n) > 0.03646

    @pytest.mark.parametrize(
        "n, error, message",
        [
            (0, DomainError, "nr_empirical_limit requires n >= 1, got 0"),
            (0.5, DomainError, "nr_empirical_limit requires n >= 1, got 0.5"),
            (-math.inf, DomainError, "nr_empirical_limit requires n >= 1, got -inf"),
            (2**63, OverflowLimitError, f"window index {2**63} exceeds 63-bit cap"),
            (10**400, OverflowLimitError, "window index an int of 1329 bits exceeds 63-bit cap"),
            (math.inf, OverflowLimitError, "window index inf exceeds 63-bit cap"),
            (2.0, TypeError, "'float' object cannot be interpreted as an integer"),
            (math.nan, TypeError, "'float' object cannot be interpreted as an integer"),
        ],
    )
    def test_checks_in_order(self, n, error, message):
        # n < 1 first, then harmonic._window's checks of [2, n].
        with pytest.raises(error) as raised:
            consts.nr_empirical_limit(n)
        assert type(raised.value) is error and str(raised.value) == message

    def test_rejects_small(self):
        with pytest.raises(DomainError, match="^nr_empirical_limit requires n >= 1, got 0$"):
            consts.nr_empirical_limit(0)

    def test_n_one_is_exactly_zero(self):
        # ln 1 minus the empty sum S(2, 1), as ln_integer(1) is 0.
        value = consts.nr_empirical_limit(1)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestEulerGamma:
    def test_identity_two_ulp(self):
        variants = [
            consts.variant(consts.NrKind.INTEGRAL),
            consts.variant(consts.NrKind.DIRECT_SERIES, terms=1000),
            consts.variant(consts.NrKind.EMPIRICAL_LIMIT, n=1000),
        ]
        for v in variants:
            residual = consts.euler_gamma(v) + v.value + 2.0 * LN2 - 2.0
            assert abs(residual) <= 2 * math.ulp(2.0)

    def test_rejects_a_non_variant_by_type(self):
        with pytest.raises(TypeError, match="^euler_gamma requires an NrVariant, got int$"):
            consts.euler_gamma(0)

    def test_all_variants_in_band(self):
        values = [
            consts.nr_integral(),
            consts.nr_direct_series(consts.DIRECT_SERIES_CONVERGED_TERMS),
            consts.nr_empirical_limit(10**6),
        ]
        assert all(0.02 < v < 0.05 for v in values)

    @pytest.mark.parametrize("n", [200, 1000])
    def test_reference_is_gamma_correctly_rounded(self, n):
        # Euler-Maclaurin (DLMF 2.10.1 for f(x) = 1/x), at 60 digits:
        #     gamma = H_n - ln n - 1/(2n) + sum_{k=1..8} B_2k / (2k n**2k) + R,
        # |R| <= |B_18| / (18 n**18) < 1e-40 at n = 200.
        bernoulli = [
            Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
            Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
        ]
        with localcontext() as ctx:
            ctx.prec = 60
            big_n = Decimal(n)
            gamma = sum(Decimal(1) / Decimal(k) for k in range(1, n + 1))
            gamma -= big_n.ln() + 1 / (2 * big_n)
            for k, b in enumerate(bernoulli, start=1):
                gamma += Decimal(b.numerator) / (b.denominator * 2 * k * big_n ** (2 * k))
            ulp = Decimal(math.ulp(consts.EULER_GAMMA_REFERENCE))
            assert abs(Decimal(consts.EULER_GAMMA_REFERENCE) - gamma) < ulp / 2

    def test_empirical_gamma_approaches_truth(self):
        v = consts.variant(consts.NrKind.EMPIRICAL_LIMIT, n=10**6)
        assert consts.euler_gamma(v) == pytest.approx(0.5772156649, abs=1e-9)


class TestGammaDefinitionCheck:
    def test_p_one(self):
        assert consts.gamma_definition_check(1) == 1.0

    def test_converges_to_gamma(self):
        assert consts.gamma_definition_check(10**6) == pytest.approx(
            0.577215664901, abs=1e-6
        )

    @pytest.mark.parametrize("p", [1, 2, 10**5])
    def test_bit_identical_to_float_reciprocals(self, p):
        harmonic = math.fsum(1.0 / k for k in range(1, p + 1))
        assert consts.gamma_definition_check(p) == harmonic - ln_value(p)

    def test_monotone_decreasing(self):
        grid = [1, 2, 5, 10, 100, 1000, 10**4]
        values = [consts.gamma_definition_check(p) for p in grid]
        assert values == sorted(values, reverse=True)

    def test_past_the_work_limit(self):
        # H_p has no O(1) form here, so p terms would be summed one by one.
        with pytest.raises(OverflowLimitError, match="over the limit"):
            consts.gamma_definition_check(10**8 + 1)
