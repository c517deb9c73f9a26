"""Acceptance suite: one test per release criterion.

Each test prints a single CRITERION line so a `pytest -s` run doubles as a
sign-off report.  Tolerances are fixed here, not tuned; cells where the
source tables are provably self-inconsistent are asserted to be flagged in
the errata manifest instead (see the repo notes for the analysis).
"""

import math
import time

import pytest

from harmlog import constants as consts
from harmlog import tables
from harmlog.cnr import approx_cnr_exp, approx_number_exp, approx_number_scaled
from harmlog.errors import DomainError
from harmlog.factorial import factorial_corrected
from harmlog.harmonic import LogVariant, ScaledRational, ln_auto, ln_integer, ln_rational
from harmlog.oracle import factorial_exact_ln, ln_value, percent_error, percent_error_from_ln
from harmlog.tables import TableId


def sig_tol(value: float, digits: int) -> float:
    """One unit in the `digits`-th significant digit."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - digits + 1)


class _Budget:
    def __init__(self, criterion: str, seconds: float):
        self.criterion = criterion
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"CRITERION {self.criterion}: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"criterion {self.criterion} over budget"
        return False


def test_criterion_1_table_2_1():
    with _Budget("1 (Table 2.1, 9 significant digits)", 1.0):
        for x, printed in [
            (3.5, 3.493572593), (5.8, 5.797266055), (-15.9, -15.9002932),
            (-50.1, -50.1000321), (-100.1, -100.100008), (-125.0, -125.0000053),
            (-175.0, -175.0000027), (750.0, 749.9999999), (1500.0, 1500.0),
            (2500.0, 2500.0),
        ]:
            assert abs(approx_number_exp(x) - printed) <= sig_tol(printed, 9)


def test_criterion_2_table_2_2():
    with _Budget("2 (Table 2.2, m=100, 8 significant digits)", 1.0):
        for x, printed in [
            (2.0, 1.999999979), (1.8, 1.799999974), (1.6, 1.599999967),
            (1.4, 1.399999957), (1.2, 1.199999941), (1.0, 0.9999999154),
            (0.7, 0.6999998263), (0.3, 0.2999990268),
        ]:
            assert abs(approx_number_scaled(x, 100) - printed) <= sig_tol(printed, 8)


def test_criterion_3_table_2_3():
    with _Budget("3 (Table 2.3, 5 decimals + singularity)", 1.0):
        for x, cnr_printed, ln_printed in [
            (2, 2.00501, 0.69565), (6, 1.19949, 0.18189),
            (20, 1.05262, 0.05128), (100, 1.0101009, 0.01005025),
        ]:
            assert abs(approx_cnr_exp(x) - cnr_printed) <= 1e-5
            assert abs(2.0 / (2 * x - 1 - 1.0 / x**3) - ln_printed) <= 1e-5
        with pytest.raises(DomainError):
            approx_number_exp(1.0)
        report = tables.build(TableId.T2_3)
        singular = [r for r in report.rows if r.inputs["x"] == 1]
        assert len(singular) == 2 and all(r.match for r in singular)


def test_criterion_4_table_2_4():
    with _Budget("4 (Table 2.4, 5 decimals; x=30 typo flagged)", 1.0):
        for x, printed in [
            (2, 0.69444), (3, 1.09740), (5, 1.60618), (7, 1.94195), (9, 2.19296),
            (10, 2.29823), (11, 2.39347), (13, 2.56043), (15, 2.70347),
        ]:
            assert abs(ln_integer(x, LogVariant.FULL) - printed) <= 1e-5
        # x = 30: both printed cells are corrupted in the source; the table
        # report must flag them while the oracle pins the true values.
        assert ln_value(30) == pytest.approx(3.4012, abs=5e-5)
        (row,) = (r for r in tables.build(TableId.T2_4).rows if r.inputs["x"] == 30)
        assert "3.49119" in row.erratum and not row.match
        assert ln_integer(30, LogVariant.FULL) == pytest.approx(3.39648, abs=1e-5)


def test_criterion_5_worked_example_and_table_2_5():
    with _Budget("5 (worked example + Table 2.5, 8 significant digits)", 1.0):
        estimate = ln_rational(ScaledRational(p=1, q=2, m=25), LogVariant.TRUNCATED)
        assert abs(estimate - (-0.693097198)) <= 5e-9
        # The source prints the percent error unsigned; the signed metric
        # gives the same magnitude with a minus sign.
        pct = percent_error(estimate, ln_value(0.5))
        assert abs(abs(pct) - 0.0072109447) <= 1e-8
        clean = [
            (25, 1, 4, -1.38623188), (25, 1, 2, -0.693097198),
            (40, 3, 4, -0.2876808066), (15, 9, 10, -0.1053600813),
            (30, 5, 4, 0.2231425097), (50, 3, 2, 0.4054627934),
            (22, 7, 4, 0.5596121685),
        ]
        for m, p, q, printed in clean:
            value = ln_rational(ScaledRational(p=p, q=q, m=m), LogVariant.TRUNCATED)
            assert abs(value - printed) <= sig_tol(printed, 8)
        # Row (10)19/(10)10: the printed 0.6418508407 is not the value of
        # its own finite sum (exact rational check gives 0.6418508738);
        # flagged via errata, and still within 1e-7 of the print.
        (row,) = (
            r for r in tables.build(TableId.T2_5).rows if r.inputs == {"m": 10, "p": 19, "q": 10}
        )
        assert row.erratum and not row.match
        assert abs(row.calculated - 0.6418508407) < 1e-7


def test_criterion_6_auto_algorithm():
    with _Budget("6 (auto-m log, percent error < 1e-3)", 1.0):
        for p, q in [(1, 2), (3, 4), (9, 10), (5, 4), (19, 10)]:
            _, value = ln_auto(p, q, threshold=150)
            assert abs(percent_error(value, ln_value(p / q))) < 1e-3


def test_criterion_7_table_2_6():
    with _Budget("7 (Table 2.6 + error bounds)", 1.0):
        report = tables.build(TableId.T2_6)
        for row in report.rows:
            n = row.inputs["n"]
            if ("2.6", f"n={n} calculated") in tables.ERRATA:
                # n = 25 and n = 60: calculated/actual cells are swapped in
                # the source; the formula's value matches the *actual* cell.
                assert not row.match and "swapped" in row.erratum
            else:
                assert row.match
        errors = {
            row.inputs["n"]: abs(row.percent_error) for row in report.rows
        }
        assert max(errors.values()) <= 0.55
        assert errors[160] <= 0.011


def test_criterion_8_constants():
    with _Budget("8 (Number Constant + gamma, integral form)", 1.0):
        assert abs(consts.nr_integral() - 0.040074705601703) <= 1e-12
        v = consts.variant(consts.NrKind.INTEGRAL)
        gamma = consts.euler_gamma(v)
        assert abs(gamma - 0.5736309333) <= 1e-9
        pct = percent_error(gamma, 0.577215664901)
        assert -0.64 <= pct <= -0.60


def test_criterion_9_variant_adjudication():
    with _Budget("9 (three Number Constant variants)", 30.0):
        series = consts.variant(consts.NrKind.DIRECT_SERIES)
        assert 1.0 / (8.0 * series.terms**4) < 1e-12  # tail bound
        limit = consts.variant(consts.NrKind.EMPIRICAL_LIMIT, n=10**7)
        integral = consts.variant(consts.NrKind.INTEGRAL)
        for v in (series, limit, integral):
            residual = consts.euler_gamma(v) - (2.0 - 2.0 * consts.LN2 - v.value)
            assert abs(residual) <= 2 * math.ulp(1.0)
        definition = consts.gamma_definition_check(10**7)
        assert abs(consts.euler_gamma(limit) - definition) <= 5e-7


def test_criterion_10_property_suites():
    import random

    from harmlog.harmonic import ln_quotient, odd_harmonic_sum

    with _Budget("10 (property suites)", 30.0):
        rng = random.Random(20260826)
        for _ in range(100):
            a = rng.randint(2, 2000)
            b = a + rng.randint(0, 2000)
            c = b + rng.randint(0, 2000)
            whole = odd_harmonic_sum(a, c)
            split = odd_harmonic_sum(a, b) + odd_harmonic_sum(b + 1, c)
            assert abs(whole - split) <= 4 * math.ulp(max(abs(whole), 1.0))
        for x, y in [(k + 2, 3 * k + 7) for k in range(20)]:
            for variant in (LogVariant.FULL, LogVariant.TRUNCATED):
                assert ln_quotient(x, y, variant) == -ln_quotient(y, x, variant)
        for p, q in [(1, 2), (3, 4), (5, 4), (19, 10)]:
            ref = ln_value(p / q)
            errs = [
                abs(ln_rational(ScaledRational(p=p, q=q, m=m)) - ref)
                for m in (50, 100, 200, 400)
            ]
            assert errs == sorted(errs, reverse=True)
        for n in range(2, 171):
            est = factorial_corrected(n)
            direct = math.sqrt(math.exp(1.83788) * n) * (n / math.e) ** n
            direct *= math.exp(-2.0 * (1.0 / n + 10.0 / (33.0 * n * n)))
            direct *= (1.0 - 200.0 / (387.0 * n)) ** -4
            assert abs(est.value - direct) <= 1e-10 * direct
        for k in range(100):
            x, y = 0.11 + 0.37 * k, 1.3 + 2.1 * k
            assert abs(ln_value(x * y) - ln_value(x) - ln_value(y)) <= 1e-12
        for n in range(1, 1001):
            delta = factorial_exact_ln(n) - factorial_exact_ln(n - 1)
            assert abs(delta - ln_value(n)) <= 1e-11 * max(1.0, abs(delta))
