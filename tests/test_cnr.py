import math
from fractions import Fraction

import pytest

from harmlog import cnr
from harmlog.errors import DomainError, OverflowLimitError


class TestLemma11:
    def test_exact_at_two(self):
        assert cnr.approx_lemma11(2.0) == 2.0

    def test_three(self):
        # (3-1) * 2**(1/2)
        assert cnr.approx_lemma11(3.0) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)

    def test_rejects_one(self):
        with pytest.raises(DomainError):
            cnr.approx_lemma11(1.0)


class TestPow2:
    def test_exact_at_two(self):
        assert cnr.approx_cnr_pow2(2.0) == 2.0

    def test_limit_is_one(self):
        assert cnr.approx_cnr_pow2(1e12) == pytest.approx(1.0, abs=1e-11)

    def test_six(self):
        assert cnr.approx_cnr_pow2(6.0) == pytest.approx(2.0 ** (3.0 / 11.0), rel=1e-15)

    def test_rejects_half(self):
        with pytest.raises(DomainError):
            cnr.approx_cnr_pow2(0.5)


class TestExpFull:
    def test_table_row_3_5(self):
        assert cnr.approx_number_exp(3.5) == pytest.approx(3.493572593, abs=1e-9)

    def test_table_row_negative(self):
        assert cnr.approx_number_exp(-15.9) == pytest.approx(-15.9002932, abs=1e-7)

    def test_table_row_1500(self):
        assert cnr.approx_number_exp(1500.0) == pytest.approx(1500.0, abs=1e-4)

    def test_rejects_one_and_zero(self):
        with pytest.raises(DomainError):
            cnr.approx_number_exp(1.0)
        with pytest.raises(DomainError):
            cnr.approx_number_exp(0.0)

    def test_error_decreases_with_magnitude(self):
        grid = [3.5, 5.8, -15.9, -50.1, -100.1, -125.0, -175.0, 750.0, 1500.0, 2500.0]
        rel_errors = [
            abs(cnr.approx_number_exp(x) - x) / abs(x) for x in grid
        ]
        assert rel_errors == sorted(rel_errors, reverse=True)
        for x, err in zip(grid, rel_errors):
            if abs(x) >= 750:
                assert err < 1e-7


class TestExpScaled:
    @pytest.mark.parametrize(
        "x,expected",
        [(2.0, 1.999999979), (0.3, 0.2999990268), (1.0, 0.9999999154)],
    )
    def test_table_rows(self, x, expected):
        assert cnr.approx_number_scaled(x, 100) == pytest.approx(expected, abs=1e-7)

    @pytest.mark.parametrize("x", [-1.5, 0.3, 0.7, 1.2, 2.0, 3.5, -7.25])
    def test_m_one_reduces_to_full(self, x):
        assert cnr.approx_number_scaled(x, 1) == cnr.approx_number_exp(x)

    @pytest.mark.parametrize("x", [-1.5, 0.3, 0.7, 1.2, 2.0])
    def test_error_shrinks_with_m(self, x):
        err_100 = abs(cnr.approx_number_scaled(x, 100) - x)
        err_1000 = abs(cnr.approx_number_scaled(x, 1000) - x)
        assert err_1000 <= err_100

    def test_rejects_bad_m(self):
        with pytest.raises(DomainError):
            cnr.approx_number_scaled(2.0, 0)


class TestExpLarge:
    def test_two(self):
        assert cnr.approx_number_large(2.0) == pytest.approx(
            math.exp(2.0 / 3.0), rel=1e-15
        )

    def test_large_x(self):
        assert cnr.approx_number_large(2500.0) == pytest.approx(2500.0, rel=1e-9)

    def test_cnr_power_tends_to_e(self):
        x = 1e6
        ratio_estimate = math.exp(2.0 / (2.0 * x - 1.0))
        assert ratio_estimate**x == pytest.approx(math.e, rel=1e-5)

    def test_rejects_half(self):
        with pytest.raises(DomainError):
            cnr.approx_number_large(0.5)


class TestNbbDecompose:
    def test_single_block(self):
        assert cnr.nbb_decompose(2) == [Fraction(2, 1)]

    def test_five(self):
        blocks = cnr.nbb_decompose(5)
        assert blocks == [Fraction(2, 1), Fraction(3, 2), Fraction(4, 3), Fraction(5, 4)]
        assert math.prod(blocks) == 5

    def test_exact_product_up_to_500(self):
        for n in range(2, 501):
            blocks = cnr.nbb_decompose(n)
            assert len(blocks) == n - 1
            assert math.prod(blocks) == Fraction(n, 1)

    def test_rejects_small(self):
        with pytest.raises(DomainError):
            cnr.nbb_decompose(1)


class TestEvaluate:
    def test_percent_error_sign_convention(self):
        result = cnr.evaluate(3.5, cnr.CnrMethod(cnr.CnrTag.EXP_FULL))
        assert result.percent_error == pytest.approx(
            (3.493572593 - 3.5) / 3.5 * 100.0, abs=1e-7
        )

    def test_scaled_method_requires_m(self):
        with pytest.raises(DomainError):
            cnr.CnrMethod(cnr.CnrTag.EXP_SCALED)
        with pytest.raises(DomainError):
            cnr.CnrMethod(cnr.CnrTag.EXP_FULL, m=5)

    def test_pow2_reference_is_the_ratio(self):
        result = cnr.evaluate(6.0, cnr.CnrMethod(cnr.CnrTag.POW2))
        assert result.reference == pytest.approx(1.2, rel=1e-15)


class TestTypedErrors:
    """Every form returns a finite float or raises a typed error."""

    @pytest.mark.parametrize(
        "form, x, error, message",
        [
            (cnr.approx_cnr_exp, 1.0, DomainError, "cnr_exp divides by zero at x = 1.0"),
            (cnr.approx_cnr_exp, 0.0, DomainError, "cnr_exp divides by zero at x = 0.0"),
            (cnr.approx_cnr_exp, 1.0001, OverflowLimitError, "cnr_exp overflows"),
            (cnr.approx_lemma11, 1.0000001, OverflowLimitError, "lemma11 overflows"),
            (cnr.approx_cnr_pow2, 0.50000000001, OverflowLimitError, "pow2 overflows"),
            (cnr.approx_number_scaled, math.nan, DomainError, "x must be finite, got nan"),
            (cnr.approx_number_exp, math.inf, DomainError, "x must be finite, got inf"),
            (cnr.approx_number_exp, 1e-200, DomainError, "exp_full divides by zero"),
            (cnr.approx_number_exp, 1e200, OverflowLimitError, "exp_full overflows"),
            (cnr.approx_number_large, 0.5 + 2**-40, OverflowLimitError, "exp_large overflows"),
            (cnr.approx_lemma11, -math.inf, DomainError, "x must be finite, got -inf"),
            (cnr.approx_cnr_pow2, math.nan, DomainError, "x must be finite, got nan"),
            (cnr.approx_number_large, math.inf, DomainError, "x must be finite, got inf"),
            (cnr.approx_cnr_exp, math.nan, DomainError, "x must be finite, got nan"),
        ],
    )
    def test_rejections(self, form, x, error, message):
        with pytest.raises(error) as raised:
            form(x)
        assert type(raised.value) is error
        assert str(raised.value).startswith(message)

    @pytest.mark.parametrize(
        "form, label",
        [
            (cnr.approx_lemma11, "lemma11"),
            (cnr.approx_cnr_pow2, "pow2"),
            (cnr.approx_number_scaled, "exp_scaled"),
            (cnr.approx_number_exp, "exp_full"),
            (cnr.approx_cnr_exp, "cnr_exp"),
            (cnr.approx_number_large, "exp_large"),
        ],
    )
    def test_an_int_past_binary64_is_typed(self, form, label):
        with pytest.raises(OverflowLimitError, match=f"^{label}: x = an int of 1329 bits is past binary64$"):
            form(10**400)

    def test_evaluate_names_the_method(self):
        # The cnr command's messages are unchanged: they name the CnrTag.
        with pytest.raises(OverflowLimitError, match="^lemma11 overflows binary64 at x = "):
            cnr.evaluate(1.0000001, cnr.CnrMethod(cnr.CnrTag.LEMMA11))
        with pytest.raises(DomainError, match="^pow2 divides by zero at x = 1.0$"):
            cnr.evaluate(1.0, cnr.CnrMethod(cnr.CnrTag.POW2))
        with pytest.raises(DomainError, match="^exp_scaled divides by zero at x = 1e-200$"):
            cnr.evaluate(1e-200, cnr.CnrMethod(cnr.CnrTag.EXP_SCALED, m=1))
