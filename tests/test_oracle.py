import math
import random
from decimal import Decimal, localcontext

import pytest
from hypothesis import given, settings, strategies as st

from harmlog import cli, cnr, oracle
from harmlog.errors import DomainError, HarmlogError, OracleIntegrityError, OverflowLimitError


def test_ln_ref_trivial():
    assert oracle.ln_ref(1.0).value == 0.0


def test_ln_ref_two():
    ref = oracle.ln_ref(2.0)
    assert ref.value == pytest.approx(0.6931471806, abs=1e-10)
    assert ref.guaranteed_abs_error <= 1e-13


def test_ln_ref_thirty_exposes_table_typo():
    # The printed "actual" 3.49119 for x = 30 is a typo; the series agrees
    # with the platform log on 3.4012.
    assert oracle.ln_ref(30.0).value == pytest.approx(3.4012, abs=5e-5)


def test_ln_ref_rejects_nonpositive():
    for x in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            oracle.ln_ref(x)


def test_ln_value_takes_the_exact_ratio_of_x_over_d():
    assert oracle.ln_value(3, 4) == oracle.ln_value(0.75) == oracle.ln_value(1.5, 2)
    assert oracle.ln_value(-3, -4) == oracle.ln_value(3, 4)
    assert oracle.ln_value(10**400, 10**399) == oracle.ln_value(10.0)
    assert oracle.ln_value(10**400) == -oracle.ln_value(1, 10**400)
    for x, d in ((-3, 4), (3, -4), (0, 3), (1, 0), (0, 0), (2.0, 0)):
        with pytest.raises(DomainError):
            oracle.ln_value(x, d)


# Positive ratios whose float quotient x/d underflows, overflows or is a
# subnormal that has lost most of its bits.
RATIOS_PAST_BINARY64 = {
    "3/2**1100": (3, 2**1100),
    "1/2**1081": (1, 2**1081),
    "-1/-2**1081": (-1, -(2**1081)),
    "5e-324/3": (5e-324, 3),
    "2**1100/3": (2**1100, 3),
    "10**400": (10**400, 1),
    "1/10**320": (1, 10**320),
    "1e-300/10**20": (1e-300, 10**20),
}


@pytest.mark.parametrize("x, d", RATIOS_PAST_BINARY64.values(), ids=RATIOS_PAST_BINARY64)
def test_a_positive_ratio_past_binary64_is_its_logarithm(x, d):
    # The kernel's P/Q rounded once: within half an ulp plus 2**-82.3 |ln|
    # of a 50-digit ln n - ln m; the check passes it without a float x/d.
    n, m = x.as_integer_ratio()
    n, m = abs(n), abs(m * d)
    value = oracle.ln_value(x, d)
    with localcontext() as ctx:
        ctx.prec = 50
        exact = Decimal(n).ln() - Decimal(m).ln()
        bound = Decimal(math.ulp(value)) / 2 + abs(exact) * Decimal(2) ** Decimal("-82.3")
        assert abs(Decimal(value) - exact) <= bound


@pytest.mark.parametrize(
    "x, d, where",
    [
        (2.0, 1, "x=2.0, d=1"),
        (3, 2**1100, "x=3, d=an int of 1101 bits"),
        (10**400, 1, "x=an int of 1329 bits, d=1"),
        (1, 10**320, "x=1, d=an int of 1064 bits"),
    ],
    ids=["2.0", "3/2**1100", "10**400", "1/10**320"],
)
def test_a_skewed_kernel_fails_the_check_at_any_size(monkeypatch, request, x, d, where):
    # A kernel 1e-12 off, relative, is caught past binary64 as within it.
    true_ln_fraction = oracle._ln_fraction
    oracle.ln_value.cache_clear()
    request.addfinalizer(oracle.ln_value.cache_clear)

    def skewed(n, d):
        p, q = true_ln_fraction(n, d)
        return p + p // 10**12, q

    monkeypatch.setattr(oracle, "_ln_fraction", skewed)
    with pytest.raises(OracleIntegrityError, match=f"^log paths disagree at {where}: platform="):
        oracle.ln_value(x, d)


@pytest.mark.parametrize(
    "x, d",
    [(-(2**1100), 3), (2**1100, -3), (-3, 2**1100), (0, 2**1100), (10**5000, 0)],
    # 10**5000 has more digits than str() of an int may print
    ids=["-2**1100/3", "2**1100/-3", "-3/2**1100", "0/2**1100", "10**5000/0"],
)
def test_a_ratio_out_of_the_domain_stays_a_domain_error_at_any_size(x, d):
    with pytest.raises(DomainError, match="^ln_ref requires a finite x/d > 0, got x"):
        oracle.ln_value(x, d)


def test_a_float_over_an_int_past_binary64_is_its_exact_ratio():
    # 1e308 / 2**1100 is a normal float, though 2**1100 has none.
    assert oracle.ln_value(1e308, 2**1100) == pytest.approx(
        math.log(1e308) - 1100 * math.log(2), rel=1e-15
    )


def test_ln_ratio_of_a_multiple_is_the_ratio_in_lowest_terms_bit_for_bit():
    # Every step of the kernel depends only on n/d, so the caller may reduce
    # the ratio by its gcd and share one memo entry among its multiples.
    rng = random.Random(17)
    kernel = oracle._ln_ratio.__wrapped__
    for _ in range(300):
        n, d = (rng.randint(1, 2 ** rng.randint(1, 62)) for _ in range(2))
        g = rng.randint(2, 2 ** rng.randint(1, 64))
        got, reduced = kernel(g * n, g * d), kernel(n, d)
        assert [x.hex() for x in got] == [x.hex() for x in reduced], (g, n, d)
        assert oracle._ln_ratio(g * n, g * d) == got


def test_disagreeing_kernel_is_an_integrity_error(monkeypatch, capsys, request):
    true_ln_fraction = oracle._ln_fraction
    # The estimate takes its logarithm from the skewed kernel too, through
    # the memoised _ln_ratio: drop what it kept.
    request.addfinalizer(oracle._ln_ratio.cache_clear)
    # ln_value(2.0) is memoised at import, as LN2: drop it so the check runs.
    oracle.ln_value.cache_clear()
    request.addfinalizer(oracle.ln_value.cache_clear)

    def skewed(n, d):
        p, q = true_ln_fraction(n, d)
        return p + p // 10**12, q

    monkeypatch.setattr(oracle, "_ln_fraction", skewed)
    for check in (oracle.ln_ref, oracle.ln_value):
        with pytest.raises(OracleIntegrityError, match="log paths disagree at x=2.0"):
            check(2.0)
    assert cli.main(["ln", "1", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: log paths disagree")
    assert captured.err.count("\n") == 1


def test_ln_value_memo_returns_the_checked_float():
    first = oracle.ln_value(7, 3)
    assert oracle.ln_value(7, 3) is first
    assert oracle.ln_value(2) == oracle.ln_value(2.0) == oracle.ln_value(4, 2) == oracle.LN2


def test_ln_value_memo_is_typed():
    # A float d is outside the contract and fails; a memoised int twin must
    # not answer for it.
    oracle.ln_value(1, 2)
    with pytest.raises(TypeError):
        oracle.ln_value(1, 2.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, 0, 0.0])
def test_ln_value_memo_keeps_no_error(x):
    # An error is not memoised: every repeat checks and raises again.
    for _ in range(3):
        with pytest.raises(DomainError):
            oracle.ln_value(x)


def test_ln_ref_additivity_grid():
    xs = [0.037 * k + 0.11 for k in range(10)]
    ys = [1.9 * k + 0.7 for k in range(10)]
    for x in xs:
        for y in ys:
            lhs = oracle.ln_value(x * y)
            rhs = oracle.ln_value(x) + oracle.ln_value(y)
            assert abs(lhs - rhs) < 1e-12


def test_factorial_exact_ln_small():
    assert oracle.factorial_exact_ln(0) == 0.0
    assert oracle.factorial_exact_ln(1) == 0.0
    assert oracle.factorial_exact_ln(5) == pytest.approx(math.log(120), rel=1e-15)


def test_factorial_exact_ln_45():
    assert oracle.factorial_exact_ln(45) == pytest.approx(
        math.log(1.19622221e56), rel=1e-9
    )


def test_factorial_recurrence():
    for n in range(1, 1001):
        delta = oracle.factorial_exact_ln(n) - oracle.factorial_exact_ln(n - 1)
        assert delta == pytest.approx(oracle.ln_value(n), abs=1e-11 * max(1.0, delta))


@pytest.mark.parametrize("n", [math.nan, math.inf])
def test_factorial_exact_ln_rejects_a_non_finite_n(n):
    with pytest.raises(DomainError, match="requires a finite n"):
        oracle.factorial_exact_ln(n)


def test_factorial_exact_ln_overflow_of_a_float_n_is_typed():
    with pytest.raises(OverflowLimitError, match=r"at n = 1e\+308"):
        oracle.factorial_exact_ln(1e308)


def test_factorial_exact_ln_rejects_a_non_integral_n_at_every_size():
    for n in (2.5, 31.5, 32.5, 30000.5, 1e15 + 0.5, 5e-324):
        with pytest.raises(TypeError, match="requires an integral n"):
            oracle.factorial_exact_ln(n)
    for n in (5, 31, 32, 30000, 10**15):
        assert oracle.factorial_exact_ln(float(n)) == oracle.factorial_exact_ln(n)


# ints, floats with nan, +-inf and subnormals, and the edges of the contract.
_FACTORIAL_INPUTS = st.one_of(
    st.integers(),
    st.integers(min_value=2**1000, max_value=2**1030),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([1e308, 2.5e305, 2.6e305, 2.5, 30000.5, 5e-324, -0.0, 31.0, 32.0]),
)


@settings(max_examples=300, deadline=None)
@given(n=_FACTORIAL_INPUTS)
def test_factorial_exact_ln_is_finite_or_a_typed_error(n):
    # A finite float, a HarmlogError, or TypeError for a non-integral n >= 0.
    try:
        value = oracle.factorial_exact_ln(n)
    except HarmlogError:
        return
    except TypeError:
        assert isinstance(n, float) and 0 < n < math.inf and not n.is_integer(), n
        return
    assert isinstance(value, float) and math.isfinite(value), n


def test_factorial_exact_ln_memo_is_bounded():
    assert oracle.factorial_exact_ln.cache_info().maxsize == 128


def test_disagreeing_factorial_kernel_is_an_integrity_error(monkeypatch, request):
    true_ln_fraction = oracle._ln_fraction
    oracle.factorial_exact_ln.cache_clear()
    request.addfinalizer(oracle.factorial_exact_ln.cache_clear)

    def skewed(n, d):
        p, q = true_ln_fraction(n, d)
        return p + p // 10**12, q

    monkeypatch.setattr(oracle, "_ln_fraction", skewed)
    with pytest.raises(OracleIntegrityError, match="ln n! paths disagree at n=40"):
        oracle.factorial_exact_ln(40)


def test_factorial_paths_agree():
    # The lgamma check and the Stirling kernel agree well inside the check's
    # tolerance, from the switch at n = 32 up.
    for n in (32, 50, 500, 5000, 10_000, 20_000, 10**6, 10**12):
        exact = oracle.factorial_exact_ln(n)
        assert math.lgamma(n + 1) == pytest.approx(exact, rel=1e-11)


def test_percent_error_convention():
    assert oracle.percent_error(3.493572593, 3.5) == pytest.approx(
        -0.1836402, abs=1e-7
    )
    assert oracle.percent_error(2.00584, 2.0) == pytest.approx(0.292, abs=1e-3)
    assert oracle.percent_error(7.0, 7.0) == 0.0


def test_percent_error_rejects_zero_reference():
    with pytest.raises(DomainError):
        oracle.percent_error(1.0, 0.0)


def test_percent_error_exact_zero_is_zero():
    assert oracle.percent_error(0.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        oracle.percent_error(-1e-300, 0.0)


def test_percent_error_rejects_a_non_finite_input():
    with pytest.raises(DomainError, match="requires finite values"):
        oracle.percent_error(math.nan, 1.0)


def test_percent_error_from_ln_rejects_a_non_finite_logarithm():
    with pytest.raises(DomainError, match="requires finite logarithms"):
        oracle.percent_error_from_ln(math.nan, 0.0)


@pytest.mark.parametrize(
    "function, message",
    [
        (oracle.percent_error, "percent_error requires finite values"),
        (oracle.percent_error_from_ln, "percent_error_from_ln requires finite logarithms"),
    ],
)
@pytest.mark.parametrize("first", [math.nan, math.inf])
def test_a_non_finite_first_argument_names_a_huge_second_one(function, message, first):
    # The non-finite first argument fails the check before the second is
    # looked at, so the message names an int past str()'s digit limit.
    with pytest.raises(DomainError) as raised:
        function(first, -(10**5000))
    assert type(raised.value) is DomainError
    assert str(raised.value) == f"{message}, got {first!r} and a negative int of 16610 bits"


def test_percent_error_from_ln_overflow_is_typed():
    with pytest.raises(OverflowLimitError, match="overflows binary64"):
        oracle.percent_error_from_ln(1000.0, 0.0)


def test_percent_error_overflow_is_typed_and_cnr_keeps_its_message():
    with pytest.raises(OverflowLimitError, match="overflows binary64"):
        oracle.percent_error(-0.5, 5e-324)
    with pytest.raises(OverflowLimitError, match="^exp_large overflows binary64 at x = 5e-324$"):
        cnr.evaluate(5e-324, cnr.CnrMethod(cnr.CnrTag.EXP_LARGE))


@pytest.mark.parametrize("args, name", [((10**400, 1.0), "approx"), ((1.0, 10**400), "reference")])
def test_percent_error_of_an_int_past_binary64_is_typed(args, name):
    with pytest.raises(OverflowLimitError, match=f"^{name} = an int of 1329 bits is past binary64$"):
        oracle.percent_error(*args)


def test_percent_error_from_ln_of_an_int_past_binary64_is_typed():
    with pytest.raises(OverflowLimitError, match="^ln_approx = an int of 1329 bits is past binary64$"):
        oracle.percent_error_from_ln(10**400, 1.0)


def test_ln_value_rejects_a_float_d_by_name():
    with pytest.raises(TypeError, match="^ln_value: d must be an int, got float$"):
        oracle.ln_value(1, 2.0)


def test_percent_error_from_ln_matches_linear():
    a, r = 119.46289, 120.0
    assert oracle.percent_error_from_ln(math.log(a), math.log(r)) == pytest.approx(
        oracle.percent_error(a, r), rel=1e-12
    )


class TestReferenceValue:
    """ReferenceValue keeps the behaviour of the frozen dataclass it was."""

    def test_repr(self):
        assert repr(oracle.ln_ref(2.0)) == (
            "ReferenceValue(value=0.6931471805599453, guaranteed_abs_error=1e-13)"
        )

    def test_equality_and_hash(self):
        a = oracle.ReferenceValue(1.5, 0.25)
        b = oracle.ReferenceValue(value=1.5, guaranteed_abs_error=0.25)
        assert a == b and hash(a) == hash(b)
        assert a != oracle.ReferenceValue(1.5, 0.5)
        assert a != (1.5, 0.25)

    def test_immutable(self):
        ref = oracle.ln_ref(2.0)
        with pytest.raises(AttributeError):
            ref.value = 0.0
        assert ref.value == oracle.ln_value(2.0)

    def test_negative_error_bound_rejected(self):
        with pytest.raises(DomainError, match=r"^guaranteed_abs_error must be >= 0$"):
            oracle.ReferenceValue(1.0, -1e-3)
