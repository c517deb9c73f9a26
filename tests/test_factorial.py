import math
import random

import pytest

from harmlog import factorial as fact
from harmlog.errors import DomainError, OverflowLimitError
from harmlog.factorial import FactorialMethod
from harmlog.oracle import factorial_exact_ln, ln_value, percent_error_from_ln


def brute_s_sum(n: int, scale: int = 10**30) -> float:
    """Independent fixed-point oracle at 30 digits."""
    return sum(scale // (x**3 * (2 * x - 1)) for x in range(2, n + 1)) / scale


class TestSSumExact:
    def test_single_term(self):
        assert fact.s_sum_exact(2) == pytest.approx(1.0 / 24.0, rel=1e-15)

    def test_two_terms(self):
        assert fact.s_sum_exact(3) == pytest.approx(1.0 / 24.0 + 1.0 / 135.0, rel=1e-15)

    def test_against_brute_force_oracle(self):
        assert fact.s_sum_exact(10**5) == pytest.approx(brute_s_sum(10**5), abs=1e-14)

    def test_strictly_increasing_and_bounded(self):
        bound = fact.s_sum_exact(10**6) + 1e-12
        previous = 0.0
        for n in [2, 3, 5, 10, 100, 1000, 10**4]:
            value = fact.s_sum_exact(n)
            assert value > previous
            assert value < bound
            previous = value

    def test_rejects_small(self):
        with pytest.raises(DomainError):
            fact.s_sum_exact(1)


class TestSSumClosed:
    def test_limit_constant(self):
        # 1/n terms and the log term vanish as n grows.
        assert fact.s_sum_closed(10**9) == pytest.approx(0.06739495647, abs=1e-8)

    def test_exact_at_two(self):
        # The integration constant was fixed at n = 2, so the gap there is
        # at rounding level and *grows* with n toward ~0.0141.
        assert abs(fact.s_sum_closed(2) - fact.s_sum_exact(2)) < 1e-11

    def test_gap_grows_to_integral_error(self):
        gap_2 = abs(fact.s_sum_closed(2) - fact.s_sum_exact(2))
        gap_100 = abs(fact.s_sum_closed(100) - fact.s_sum_exact(100))
        assert gap_100 > gap_2
        assert gap_100 == pytest.approx(0.01414, abs=2e-4)


class TestLnFactorialSeries:
    def test_one_is_zero(self):
        assert fact.ln_factorial_series(1) == 0.0

    def test_five_close_to_120(self):
        # Mid-derivation form: useful but drifts high by a couple percent.
        value = math.exp(fact.ln_factorial_series(5))
        assert value == pytest.approx(120.0, rel=2e-2)

    def test_160_in_log_space(self):
        ref = factorial_exact_ln(160)
        assert fact.ln_factorial_series(160) == pytest.approx(ref, rel=1e-3)

    def test_is_its_formula_on_the_memoised_log_bit_for_bit(self):
        rng = random.Random(2417)
        ns = list(range(2, 300)) + [round(10 ** rng.uniform(2.5, 18)) for _ in range(300)]
        for n in ns:
            expected = (n + 0.5) * ln_value(n) - (n - 1) - fact.s_sum_exact(n)
            assert fact.ln_factorial_series(n).hex() == expected.hex(), n

    def test_leaves_the_ln_value_memo_alone(self):
        ln_value(2.0)
        before = ln_value.cache_info()
        for n in (2, 45, 10**4, 123_457, 10**18):
            fact.ln_factorial_series(n)
        assert ln_value.cache_info() == before


class TestFactorialRaw:
    def test_five_within_one_percent(self):
        assert fact.factorial_raw(5).value == pytest.approx(120.0, rel=1e-2)

    def test_identity_with_closed_tail(self):
        # Raw form == series form with the closed tail substituted.
        for n in (2, 5, 50):
            substituted = (
                (n + 0.5) * math.log(n) - (n - 1) - fact.s_sum_closed(n)
            )
            assert abs(fact.factorial_raw(n).ln_value - substituted) < 1e-12

    def test_large_n_overflows_value_not_ln(self):
        est = fact.factorial_raw(10**4)
        assert est.value == math.inf
        assert math.isfinite(est.ln_value)
        assert est.ln_value == pytest.approx(factorial_exact_ln(10**4), rel=1e-5)

    def test_rejects_small(self):
        with pytest.raises(DomainError):
            fact.factorial_raw(1)


class TestFactorialCorrected:
    @pytest.mark.parametrize(
        "n,expected,rel",
        [(2, 2.00584, 1e-5), (5, 119.46289, 1e-7), (60, 8.32098711e81, 1e-4)],
    )
    def test_table_values(self, n, expected, rel):
        # n = 60: the printed calculated/actual cells are swapped in the
        # source; 8.3186e81 is the formula's value, 8.32099e81 is 60!.
        est = fact.factorial_corrected(n)
        if n == 60:
            assert est.value == pytest.approx(8.31860099e81, rel=rel)
        else:
            assert est.value == pytest.approx(expected, rel=rel)

    def test_error_bounds(self):
        grid = [2, 3, 4, 5, 10, 15, 25, 35, 45, 60, 75, 95, 110, 125, 140, 160]
        errors = {
            n: percent_error_from_ln(
                fact.factorial_corrected(n).ln_value, factorial_exact_ln(n)
            )
            for n in grid
        }
        assert all(abs(e) <= 0.55 for e in errors.values())
        assert abs(errors[160]) <= 0.011
        magnitudes = [abs(errors[n]) for n in grid if n >= 3]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_log_space_matches_product_space(self):
        for n in range(2, 171):
            est = fact.factorial_corrected(n)
            direct = math.sqrt(math.exp(1.83788) * n) * (n / math.e) ** n
            direct *= math.exp(-2.0 * (1.0 / n + 10.0 / (33.0 * n * n)))
            direct *= (1.0 - 200.0 / (387.0 * n)) ** -4
            assert est.value == pytest.approx(direct, rel=1e-10)


def _seeded_ns() -> list[int]:
    rng = random.Random(2024)
    return list(range(2, 5000)) + [round(10 ** rng.uniform(0.4, 300)) for _ in range(2000)]


class TestClosedForms:
    """Both closed forms, through one helper, round as their written-out formulas."""

    def test_raw_is_its_formula_bit_for_bit(self):
        for n in _seeded_ns():
            expected = (
                fact.RAW_CONST
                + 0.5 * math.log(n)
                + n * (math.log(n) - 1.0)
                - 2.0 * (1.0 / n + 1.0 / (4.0 * n * n))
                - 4.0 * math.log1p(-1.0 / (2.0 * n))
            )
            assert fact.factorial_raw(n).ln_value.hex() == expected.hex(), n

    def test_corrected_is_its_formula_bit_for_bit(self):
        for n in _seeded_ns():
            expected = (
                0.5 * (1.83788 + math.log(n))
                + n * (math.log(n) - 1.0)
                - 2.0 * (1.0 / n + 10.0 / (33.0 * n * n))
                - 4.0 * math.log1p(-200.0 / (387.0 * n))
            )
            assert fact.factorial_corrected(n).ln_value.hex() == expected.hex(), n


class TestEstimateDispatch:
    def test_methods(self):
        assert fact.estimate(5, FactorialMethod.RAW).method is FactorialMethod.RAW
        assert (
            fact.estimate(5, FactorialMethod.CORRECTED).method
            is FactorialMethod.CORRECTED
        )
        assert (
            fact.estimate(5, FactorialMethod.SERIES_EXACT).method
            is FactorialMethod.SERIES_EXACT
        )

    @pytest.mark.parametrize("method", list(FactorialMethod))
    def test_a_method_value_is_its_member_bit_for_bit(self, method):
        for n in (2, 5, 60, 10**5):
            by_value, by_member = fact.estimate(n, method.value), fact.estimate(n, method)
            assert by_value.method is method
            assert by_value.ln_value.hex() == by_member.ln_value.hex()
            assert by_value.value.hex() == by_member.value.hex()

    @pytest.mark.parametrize("method", ["bogus", None, 3, "RAW"])
    def test_an_unknown_method_is_a_domain_error(self, method):
        message = f"unknown factorial method {method!r}; use one of series, raw, corrected"
        with pytest.raises(DomainError) as excinfo:
            fact.estimate(10, method)
        assert str(excinfo.value) == message

    def test_value_is_exp_of_ln_value(self):
        est = fact.estimate(40, FactorialMethod.CORRECTED)
        assert est.value == pytest.approx(math.exp(est.ln_value), rel=1e-15)


class TestNonFiniteAndHugeFloatN:
    """Typed errors, not nan, inf or an AttributeError from the message."""

    @pytest.mark.parametrize("estimate", [fact.factorial_raw, fact.factorial_corrected])
    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_closed_forms_reject_a_non_finite_n(self, estimate, n):
        with pytest.raises(DomainError, match="requires a finite n"):
            estimate(n)

    @pytest.mark.parametrize("estimate", [fact.factorial_raw, fact.factorial_corrected])
    def test_closed_forms_overflow_at_1e308(self, estimate):
        with pytest.raises(OverflowLimitError, match=r"overflows binary64 at n = 1e\+308"):
            estimate(1e308)

    def test_s_sum_closed_rejects_nan(self):
        with pytest.raises(DomainError, match="requires a finite n"):
            fact.s_sum_closed(math.nan)

    @pytest.mark.parametrize(
        "caller, name",
        [
            (fact.s_sum_closed, "s_sum_closed"),
            (fact.ln_factorial_series, "ln_factorial_series"),
            (fact.factorial_raw, "factorial_raw"),
            (fact.factorial_corrected, "factorial_corrected"),
        ],
    )
    def test_an_int_past_binary64_names_its_caller(self, caller, name):
        with pytest.raises(OverflowLimitError) as raised:
            caller(10**400)
        assert str(raised.value) == f"{name}: n = an int of 1329 bits is past binary64"
