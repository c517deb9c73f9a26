import argparse
import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from harmlog import cli, cnr
from harmlog.constants import NrKind
from harmlog.errors import DomainError
from harmlog.factorial import FactorialMethod
from harmlog.harmonic import LogVariant, ScaledRational, ln_rational
from harmlog.tables import TableId, generate


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLnCommand:
    def test_worked_example(self, capsys):
        code, out, _ = run(capsys, "ln", "1", "2", "--m", "25", "--variant", "truncated")
        assert code == 0
        assert "-0.693097198" in out

    def test_equal_ratio(self, capsys):
        code, out, _ = run(capsys, "ln", "5", "5")
        assert code == 0
        assert "estimate: 0" in out

    def test_negative_rejected(self, capsys):
        code, _, err = run(capsys, "ln", "-3", "2")
        assert code == 2
        assert "no logarithm in real quantities" in err

    def test_zero_rejected(self, capsys):
        code, _, err = run(capsys, "ln", "0", "2")
        assert code == 2
        assert "no logarithm in real quantities" in err

    def test_json_matches_library_bit_for_bit(self, capsys):
        code, out, _ = run(capsys, "ln", "3", "4", "--m", "40", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["estimate"] == ln_rational(ScaledRational(p=3, q=4, m=40))

    def test_json_round_trips(self, capsys):
        _, out, _ = run(capsys, "ln", "1", "2", "--format", "json")
        record = json.loads(out)
        assert json.loads(json.dumps(record)) == record

    def test_auto_threshold(self, capsys):
        code, out, _ = run(capsys, "ln", "1", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["m"] == 151

    def test_env_threshold(self, capsys, monkeypatch):
        monkeypatch.setenv("HARMLOG_THRESHOLD", "100")
        code, out, _ = run(capsys, "ln", "1", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["m"] == 101

    def test_non_integer_multiplier_rejected(self, capsys):
        assert_one_line_error(run(capsys, "ln", "1", "2", "--m", "abc"), "--m")

    def test_non_integer_env_threshold_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("HARMLOG_THRESHOLD", "abc")
        assert_one_line_error(run(capsys, "ln", "1", "2"), "HARMLOG_THRESHOLD")

    def test_fixed_multiplier_validates_like_auto(self, capsys):
        code, _, err = run(capsys, "ln", "3", "-2", "--m", "25")
        assert code == 2
        assert "no logarithm in real quantities" in err

    @pytest.mark.parametrize("p, q, sign", [(10**17 + 1, 10**17, 1), (10**17, 10**17 + 1, -1)])
    def test_close_large_pair_has_a_correctly_rounded_oracle(self, capsys, p, q, sign):
        # p / q rounds to 1.0, so an oracle of the float quotient reads 0.
        code, out, err = run(capsys, "ln", str(p), str(q), "--format", "json")
        assert (code, err) == (0, "")
        with localcontext() as ctx:
            ctx.prec = 50
            exact = (1 + Decimal(10) ** -17).ln()
        assert json.loads(out)["oracle"] == sign * float(exact)


def assert_one_line_error(result, needle, exit_code=2):
    code, out, err = result
    assert code == exit_code
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert needle in err


class TestFactorialCommand:
    def test_corrected_five(self, capsys):
        code, out, _ = run(capsys, "factorial", "5", "--method", "corrected")
        assert code == 0
        assert "119.4628861" in out
        assert "-0.4475949" in out

    def test_large_n_reports_ln_only(self, capsys):
        code, out, _ = run(capsys, "factorial", "160", "--format", "json")
        assert code == 0
        record = json.loads(record_line(out))
        assert record["estimate"] == pytest.approx(4.71424166e284, rel=1e-8)

    def test_series_one(self, capsys):
        code, out, _ = run(capsys, "factorial", "1", "--method", "series", "--format", "json")
        assert code == 0
        assert json.loads(out)["estimate"] == 1.0

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "factorial", "1", "--method", "corrected")
        assert code == 2
        assert "error" in err


def record_line(out: str) -> str:
    return out.strip().splitlines()[-1]


class TestGammaCommand:
    def test_integral(self, capsys):
        code, out, _ = run(capsys, "gamma", "--nr", "integral", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["gamma"] == pytest.approx(0.5736309333, abs=1e-9)
        assert record["percent_error"] == pytest.approx(-0.62, abs=0.02)

    def test_limit(self, capsys):
        code, out, _ = run(capsys, "gamma", "--nr", "limit", "--n", "1000000", "--format", "json")
        assert code == 0
        assert json.loads(out)["gamma"] == pytest.approx(0.5772156649, abs=1e-6)

    def test_limit_at_n_one_is_its_formula(self, capsys):
        # ln 1 minus the empty sum: N = 0, so gamma's estimate is 2 - 2 ln 2.
        code, out, _ = run(capsys, "gamma", "--nr", "limit", "--n", "1", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["number_constant"] == 0.0
        assert record["gamma"] == 2.0 - 2.0 * math.log(2)

    def test_series(self, capsys):
        code, out, _ = run(capsys, "gamma", "--nr", "series", "--n", "1000", "--format", "json")
        assert code == 0
        assert json.loads(out)["number_constant"] == pytest.approx(0.0317305, abs=1e-5)


class TestCnrAndNbb:
    def test_cnr_exp(self, capsys):
        code, out, _ = run(capsys, "cnr", "3.5", "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(3.493572593, abs=1e-9)

    def test_cnr_singularity(self, capsys):
        code, _, err = run(capsys, "cnr", "1")
        assert code == 2
        assert "error" in err

    def test_nbb(self, capsys):
        code, out, _ = run(capsys, "nbb", "5", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["exact_product"] == "5"
        assert record["count"] == 4


class TestRecordFormats:
    @pytest.mark.parametrize(
        "argv",
        [
            ["ln", "3", "7"],
            ["factorial", "60", "--method", "raw"],
            ["cnr", "1.5", "--method", "scaled", "--m", "50"],
            ["nbb", "6"],
        ],
    )
    def test_csv_is_the_json_keys_over_the_plain_cells(self, capsys, argv):
        outputs = {}
        for fmt in ("json", "plain", "csv"):
            code, outputs[fmt], _ = run(capsys, *argv, "--format", fmt)
            assert code == 0
        keys = list(json.loads(outputs["json"]))
        plain = [line.split(": ", 1) for line in outputs["plain"].splitlines()]
        assert [key for key, _ in plain] == keys
        assert outputs["csv"] == ",".join(keys) + "\n" + ",".join(c for _, c in plain) + "\n"


class TestTableCommand:
    def test_stdout_equals_library(self, capsys):
        code, out, _ = run(capsys, "table", "2.4", "--format", "csv")
        assert code == 0
        assert out == generate(TableId.T2_4, "csv")

    def test_markdown(self, capsys):
        code, out, _ = run(capsys, "table", "2.6", "--format", "markdown")
        assert code == 0
        assert "swapped" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t25.csv"
        code, _, _ = run(capsys, "table", "2.5", "--out", str(target))
        assert code == 0
        assert target.read_text() == generate(TableId.T2_5, "csv")

    def test_unwritable_out_exits_4(self, capsys, tmp_path):
        target = tmp_path / "missing" / "t.csv"
        code, out, err = run(capsys, "table", "2.1", "--out", str(target))
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not target.parent.exists()

    def test_unknown_table(self, capsys):
        code, _, err = run(capsys, "table", "9.9")
        assert code == 2
        assert "unknown table" in err

    def test_sweep_is_not_a_table(self, capsys):
        code, _, err = run(capsys, "table", "sweep")
        assert code == 2
        assert "unknown table" in err


class TestSweepCommand:
    def test_ln_sweep_doubling_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "ln", "--p", "1", "--q", "2", "--m", "25:400:double")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6  # header + m in {25,50,100,200,400}
        header = lines[0].split(",")
        pct_col = header.index("percent_error")
        errors = [abs(float(line.split(",")[pct_col])) for line in lines[1:]]
        assert errors == sorted(errors, reverse=True)

    def test_factorial_sweep(self, capsys):
        code, out, _ = run(capsys, "sweep", "factorial", "--n", "2,5,45")
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_bad_grid(self, capsys):
        code, _, err = run(capsys, "sweep", "ln", "--m", "whoops")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("spec", ["0:10:double", "-4:10:double", "0:10:2"])
    def test_range_must_start_positive(self, spec):
        # A doubling range from 0 or below would never pass its stop.
        with pytest.raises(DomainError):
            cli._parse_grid(spec)

    def test_doubling_from_zero_exits_2(self, capsys):
        assert_one_line_error(run(capsys, "sweep", "ln", "--m", "0:10:double"), "grid start")

    def test_empty_range_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "nr", "--n", "10:5:1")
        assert code == 2
        assert "empty" in err

    def test_equal_ratio_is_a_zero_error(self, capsys):
        # ln(3/3) is exactly 0 on both sides, which is a 0 % error.
        code, out, _ = run(capsys, "sweep", "ln", "--p", "3", "--q", "3", "--m", "5")
        assert code == 0
        assert out.splitlines()[1] == "3,3,5,0,0,0,,,"

    def test_equal_ratio_prints_no_negative_zero(self, capsys):
        # The sign of a row is applied once per sweep; p = q must stay +0.
        argv = ["sweep", "ln", "--p", "3", "--q", "3", "--m", "1,2", "--format", "csv"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[1:] == ["3,3,1,0,0,0,,,", "3,3,2,0,0,0,,,"]
        assert "-0" not in out


# 50-digit closed forms, for answers to windows of 10**9 terms and more.
with localcontext() as _ctx:
    _ctx.prec = 50
    _LN2 = Decimal(2).ln()
    _PI = Decimal("3.14159265358979323846264338327950288419716939937510")
    _ZETA3 = Decimal("1.20205690315959428539973816151144999076498629234049")
    _GAMMA = Decimal("0.57721566490153286060651209008240243104215933593992")
    # Twice the correction series sum_{k>=2} 1/(k**3 (2k-1)**2), by partial
    # fractions; the empirical limit ln n - 2 S(2, n) -> 2 - 2 ln 2 - gamma;
    # the factorial's tail sum_{x>=2} 1/(x**3 (2x-1)).
    NR_SERIES = 2 * (-1 - 24 * _LN2 + 5 * _PI**2 / 3 + _ZETA3)
    NR_LIMIT = 2 - 2 * _LN2 - _GAMMA
    S_TAIL = 8 * _LN2 - 1 - _ZETA3 - _PI**2 / 3
    NR_INTEGRAL = -24 * _LN2 + Decimal("16.67560703904")
_U = 2.0**-53
_BIG = 10**12


def within(value: float, exact: Decimal, bound: float) -> bool:
    return abs(Decimal(value) - exact) <= Decimal(bound)


def truncated_ln_ok(record: dict) -> bool:
    # The paper's truncation bound for ln(mp/mq) from the window between them.
    m, p, q = int(record["m"]), int(record["p"]), int(record["q"])
    lo, hi = m * min(p, q), m * max(p, q)
    bound = 1.01 / 24 * (1 / lo**2 - 1 / hi**2) + 1e-13
    return abs(record["estimate"] - math.log(p / q)) <= bound


def series_ok(value: float) -> bool:
    # Each float term is within 2u of its term and fsum rounds once; the
    # terms past 10**12 add under 10**-48.
    return within(value, NR_SERIES, 4 * _U * value)


# ln n and 2 S(2, n) are each within an ulp of ~27.6, the differences round
# twice more, and the empirical limit is off its limit by O(1/n**2).
_LIMIT_BOUND = 4 * math.ulp(math.log(_BIG))


def nr_sweep_ok(records: list) -> bool:
    values = {r["variant"]: float(r["calculated"]) for r in records}
    # -24 ln 2 and 16.67560703904 each round at the scale of 16.
    return (
        within(values["integral"], NR_INTEGRAL, 4 * math.ulp(16.0))
        and series_ok(values["series"])
        and within(values["limit"], NR_LIMIT, _LIMIT_BOUND)
    )


def factorial_ok(record: dict) -> bool:
    # (n + 1/2) ln n - (n - 1) - s_sum_exact(n): an ulp of ln n times n is
    # an ulp of the result, and three operations round half an ulp each.
    n, value = record["n"], record["ln_estimate"]
    with localcontext() as ctx:
        ctx.prec = 50
        exact = (n + Decimal("0.5")) * Decimal(n).ln() - (n - 1) - S_TAIL
    return within(value, exact, 4 * math.ulp(value))


class TestWorkLimit:
    @pytest.mark.parametrize(
        "argv, answer_ok",
        [
            (["ln", "1", "2", "--m", "1000000000"], truncated_ln_ok),
            (["ln", "1000000000", "1"], truncated_ln_ok),
            (
                ["gamma", "--nr", "series", "--n", str(_BIG)],
                lambda record: series_ok(record["number_constant"]),
            ),
            (
                ["gamma", "--nr", "limit", "--n", str(_BIG)],
                lambda record: within(record["gamma"], _GAMMA, _LIMIT_BOUND),
            ),
            (["factorial", str(_BIG), "--method", "series"], factorial_ok),
            (["sweep", "nr", "--n", str(_BIG)], nr_sweep_ok),
        ],
        ids=[f"argv{i}" for i in range(6)],
    )
    def test_long_window_exits_3_before_summing(self, capsys, argv, answer_ok):
        # Windows of 10**9 terms and more do not exit 3: none of them sums
        # more than a few hundred terms one by one, so each is answered.
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert answer_ok(json.loads(out))

    def test_a_full_estimate_of_10_9_terms_takes_o1(self, capsys):
        # The window [10**9 + 1, 2 * 10**9]: its correction sum is two tails,
        # not 10**9 terms, and the full estimate is within the truncation bound.
        start = time.perf_counter()
        code, out, err = run(capsys, "ln", "1", "2", "--m", "1000000000", "--variant", "full",
                             "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        assert truncated_ln_ok(json.loads(out))

    def test_nbb_exits_3_before_building(self, capsys):
        start = time.perf_counter()
        result = run(capsys, "nbb", "100000000")
        assert time.perf_counter() - start < 1.0
        assert_one_line_error(result, "over the limit", exit_code=3)

    def test_stepped_grid_exits_3_before_expanding(self, capsys):
        argv = ["sweep", "ln", "--m", f"1:{10**21}:1"]
        assert_one_line_error(run(capsys, *argv), "over the limit", exit_code=3)

    @pytest.mark.parametrize(
        "argv, rows",
        [
            (["sweep", "ln", "--p", "2", "--q", "1", "--m", "990001:1000000:1"], 10**4),
            (["sweep", "nr", "--n", "990001:1000000:1"], 3 * 10**4),
        ],
    )
    def test_sweep_of_million_term_windows_runs(self, capsys, argv, rows):
        # 10**4 windows of up to 10**6 terms each, ~10**10 terms in all: each
        # odd window with more than 48 terms from k = 41 on is summed in
        # O(1), plus its terms below k = 41 one by one.
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--format", "json")
        assert time.perf_counter() - start < 10.0
        assert (code, err) == (0, "")
        records = json.loads(out)
        assert len(records) == rows
        if argv[1] == "ln":
            for record in records:
                # The paper's truncation bound for ln(mp/mq) from mq+1..mp.
                mp, mq = 2 * int(record["m"]), int(record["m"])
                bound = 1.01 / 24 * (1 / mq**2 - 1 / mp**2) + 1e-13
                assert abs(float(record["calculated"]) - math.log(2)) <= bound

    def test_sweep_of_long_windows_runs(self, capsys):
        # 10**4 windows of ~10**8 terms each, every one in O(1) from k = 41 on.
        argv = ["sweep", "ln", "--p", "2", "--q", "1", "--m", "99990001:100000000:1"]
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        assert len(json.loads(out)) == 10**4

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["factorial", str(10**400), "--method", "raw"], "past binary64"),
            (["factorial", str(10**400), "--method", "corrected"], "past binary64"),
            (["factorial", str(10**400), "--method", "series"], "past binary64"),
            (["factorial", str(10**306), "--method", "raw"], "overflows binary64"),
            (["sweep", "factorial", "--n", str(10**400)], "past binary64"),
            (["sweep", "factorial", "--n", str(10**306)], "overflows binary64"),
            (["gamma", "--nr", "limit", "--n", str(10**400)], "63-bit cap"),
            (["sweep", "ln", "--p", str(10**400), "--m", "1"], "63-bit cap"),
        ],
    )
    def test_huge_n_exits_3(self, capsys, argv, needle):
        assert_one_line_error(run(capsys, *argv), needle, exit_code=3)

    def test_index_cap_exits_3(self, capsys):
        # One term, but k**3 (2k-1)**2 of a 70-digit k does not fit a float.
        p = 10**69 + 1
        argv = ["ln", str(p), str(p - 1), "--m", "1", "--variant", "full"]
        assert_one_line_error(run(capsys, *argv), "63-bit cap", exit_code=3)


class TestCnrContract:
    @settings(max_examples=300, deadline=None)
    @given(
        x=st.floats(),
        method=st.sampled_from(["lemma11", "pow2", "exp", "scaled", "large"]),
        m=st.integers(min_value=-5, max_value=10**6),
    )
    def test_finite_answer_or_one_error_line(self, x, method, m):
        argv = ["cnr", "--method", method, "--m", str(m), "--format", "json", "--", repr(x)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 2, 3)
        if code:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            record = json.loads(out.getvalue())
            assert all(math.isfinite(v) for v in record.values() if isinstance(v, float))

    @pytest.mark.parametrize(
        "argv, code, needle",
        [
            (["cnr", "nan"], 2, "finite"),
            (["cnr", "inf", "--method", "scaled"], 2, "finite"),
            (["cnr", "1e-200"], 2, "divides by zero"),
            (["cnr", "1", "--method", "pow2"], 2, "divides by zero"),
            (["cnr", "1.0000001", "--method", "lemma11"], 3, "overflows"),
            (["cnr", "1.7976931348623157e308"], 3, "overflows"),
            (["cnr", "--method", "pow2", "--", "2.2250738585072014e-308"], 3, "overflows"),
        ],
    )
    def test_known_inputs(self, capsys, argv, code, needle):
        assert_one_line_error(run(capsys, *argv), needle, exit_code=code)


def _finite_floats(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(map(_finite_floats, value.values()))
    if isinstance(value, list):
        return all(map(_finite_floats, value))
    return True


# Small integers, plus huge ones that must hit an exit-3 limit at once.
_INTS = st.one_of(
    st.integers(min_value=-3, max_value=60),
    st.sampled_from([10**9, 10**30, 10**306, 10**400, -(10**400)]),
)
_INT_ARG = _INTS.map(str)
_GRID = st.one_of(
    st.lists(_INTS, min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs))),
    st.builds(
        "{}:{}:{}".format,
        st.integers(-2, 40),
        st.integers(-2, 120),
        st.one_of(st.integers(-1, 20), st.just("double")),
    ),
    st.builds("{}:{}:{}".format, st.integers(-2, 40), st.just(10**30), st.integers(-1, 20)),
    st.sampled_from(["abc", "1:2", "", "3,x"]),
)
_ARGV = st.one_of(
    st.builds(
        lambda p, q, m, variant, threshold: ["ln", p, q, "--variant", variant] + m + threshold,
        _INT_ARG,
        _INT_ARG,
        st.one_of(st.just([]), _INT_ARG.map(lambda m: ["--m", m])),
        st.sampled_from(["truncated", "full"]),
        st.one_of(st.just([]), _INT_ARG.map(lambda t: ["--threshold", t])),
    ),
    st.builds(
        lambda n, method: ["factorial", n, "--method", method],
        _INT_ARG,
        st.sampled_from(["series", "raw", "corrected"]),
    ),
    st.builds(
        lambda nr, n: ["gamma", "--nr", nr, "--n", n],
        st.sampled_from(["integral", "series", "limit"]),
        _INT_ARG,
    ),
    st.builds(lambda n: ["nbb", n], _INT_ARG),
    st.builds(
        lambda p, q, grid: ["sweep", "ln", "--p", p, "--q", q, "--m", grid],
        _INT_ARG,
        _INT_ARG,
        _GRID,
    ),
    st.builds(
        lambda op, grid, method: ["sweep", op, "--n", grid, "--method", method],
        st.sampled_from(["factorial", "nr"]),
        _GRID,
        st.sampled_from(["series", "raw", "corrected"]),
    ),
)


class TestCliContract:
    @settings(max_examples=250, deadline=None)
    @given(argv=_ARGV)
    def test_exit_code_and_finite_json(self, argv):
        # Every argv ends in a documented exit code with no traceback, and
        # every float of a successful JSON answer is finite.
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv + ["--format", "json"])
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        assert code in (0, 2, 3, 4)
        if code:
            assert out.getvalue() == ""
            assert "Traceback" not in err.getvalue()
        else:
            assert _finite_floats(json.loads(out.getvalue()))


class TestUnknownFlags:
    def test_unknown_flag_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["ln", "1", "2", "--bogus"])
        assert excinfo.value.code == 2


def _subparser(command: str) -> argparse.ArgumentParser:
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return commands.choices[command]


class TestParserChoices:
    """The parser spells out the choices of enums it does not import."""

    @pytest.mark.parametrize(
        "command,dest,enum",
        [
            ("factorial", "method", FactorialMethod),
            ("sweep", "method", FactorialMethod),
            ("gamma", "nr", NrKind),
            ("ln", "variant", LogVariant),
        ],
    )
    def test_choices_are_the_enum_values_in_order(self, command, dest, enum):
        action = next(a for a in _subparser(command)._actions if a.dest == dest)
        assert list(action.choices) == [member.value for member in enum]

    def test_cnr_scaled_default_multiplier(self, capsys):
        default = run(capsys, "cnr", "3.5", "--method", "scaled", "--format", "json")
        explicit = run(
            capsys, "cnr", "3.5", "--method", "scaled", "--m", str(cnr.DEFAULT_SCALE),
            "--format", "json",
        )
        assert default == explicit
        assert default[0] == 0

    def test_invalid_choice_text(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["factorial", "5", "--method", "bogus"])
        assert excinfo.value.code == 2
        usage, error = capsys.readouterr().err.rsplit("harmlog factorial: error: ", 1)
        assert usage == (
            "usage: harmlog factorial [-h] [--method {series,raw,corrected}]\n"
            "                         [--format {plain,json,csv}]\n"
            "                         n\n"
        )
        # argparse's own wording for a choice list of the enum values
        reference = argparse.ArgumentParser(prog="harmlog factorial")
        reference.add_argument("--method", choices=[m.value for m in FactorialMethod])
        with pytest.raises(SystemExit):
            reference.parse_args(["--method", "bogus"])
        assert error == capsys.readouterr().err.rsplit("harmlog factorial: error: ", 1)[1]


GOLDEN = Path(__file__).parent / "golden"
_SRC = str(Path(__file__).parents[1] / "src")
PAPER_TABLES = ("2.1", "2.2", "2.3", "2.4", "2.5", "2.6", "nr-gamma")

# The console-script checks of .github/workflows/tests.yml, run in process:
# (argv, exit code, the step's `timeout` in seconds or None, golden stdout
# file or None).  A nonzero exit prints one error line and nothing else.
_WORKFLOW = [
    (["table", "2.1", "--format", "markdown"], 0, None, "table_2.1.md"),
    (["gamma", "--nr", "integral"], 0, None, None),
    (["gamma", "--nr", "limit", "--n", str(10**18), "--format", "json"], 0, 10, None),
    (["factorial", str(10**12), "--method", "series"], 0, 10, None),
    (["factorial", "60", "--method", "series"], 0, 10, None),
    (["gamma", "--nr", "series", "--n", "100"], 0, 10, None),
    (
        ["sweep", "ln", "--p", "2", "--q", "1", "--m", "990001:1000000:1", "--format", "csv"],
        0,
        20,
        None,
    ),
    (["ln", "1001", "1000", "--m", "49", "--format", "json"], 0, 10, None),
    (["ln", "2", "3", "--m", "1000000", "--format", "json"], 0, 10, None),
    (["cnr", "1.5", "--method", "scaled", "--m", "50", "--format", "csv"], 0, 10, None),
    (["nbb", "6", "--format", "json"], 0, 10, None),
    (["factorial", "60", "--method", "raw", "--format", "csv"], 0, 10, None),
    (["sweep", "nr", "--n", "10,100", "--format", "json"], 0, 10, None),
    (["ln", "33", "32", "--m", "1000", "--format", "json"], 0, 10, None),
    (["ln", "4", "3", "--m", "1000", "--variant", "full", "--format", "json"], 0, 10, None),
    (["ln", str(10**17 + 1), str(10**17), "--format", "json"], 0, 10, None),
    (["sweep", "ln", "--p", "3", "--q", "1", "--m", "20:60:1", "--format", "csv"], 0, 10, None),
    (["gamma", "--nr", "limit", "--n", "1000000", "--format", "json"], 0, 10, None),
    (["factorial", "20000", "--format", "json"], 0, 10, None),
    (["factorial", str(10**12), "--method", "raw", "--format", "json"], 0, 10, None),
    # ln n! switches from the exact n! to Stirling's series at n = 32.
    (
        ["sweep", "factorial", "--n", "31,32,33", "--method", "series", "--format", "csv"],
        0,
        10,
        None,
    ),
    # A sweep's grid is validated once, before any row: a window past the
    # 63-bit index cap exits 3 and a non-positive p exits 2.
    (["sweep", "ln", "--p", "2", "--q", "1", "--m", str(2**62)], 3, None, None),
    (["sweep", "ln", "--p", "0", "--q", "1", "--m", "5"], 2, None, None),
] + [
    # The JSON of every table, whose strings go through the C encoder, is
    # its golden file byte for byte.
    (["table", table, "--format", "json"], 0, None, f"table_{table}.json")
    for table in PAPER_TABLES
]


class TestWorkflowCommands:
    @pytest.mark.parametrize(
        "argv, code, seconds, golden", _WORKFLOW, ids=[" ".join(case[0]) for case in _WORKFLOW]
    )
    def test_command(self, capsys, argv, code, seconds, golden):
        start = time.perf_counter()
        result = run(capsys, *argv)
        if seconds is not None:
            assert time.perf_counter() - start < seconds
        if code:
            assert_one_line_error(result, "", exit_code=code)
            return
        assert result[0] == 0 and result[1] and result[2] == ""
        if golden:
            assert result[1] == (GOLDEN / golden).read_text(encoding="utf-8")

    def test_unreduced_ratio_sweep_matches_its_reduced_twin(self, capsys):
        # The memoised logarithm of a scaled p/q must never confuse keys:
        # from the fourth column on, a sweep of 4/2 is the sweep of 2/1
        # over twice the multipliers.
        def columns_from_the_fourth(*argv):
            code, out, err = run(capsys, "sweep", "ln", *argv, "--format", "csv")
            assert (code, err) == (0, "")
            return [line.split(",", 3)[3] for line in out.splitlines()]

        unreduced = columns_from_the_fourth("--p", "4", "--q", "2", "--m", "1000:100000:1000")
        reduced = columns_from_the_fourth("--p", "2", "--q", "1", "--m", "2000:200000:2000")
        assert len(unreduced) == 101 and unreduced == reduced

    def test_unknown_table_prints_exactly_one_error_line(self, capsys):
        code, out, err = run(capsys, "table", "2.9")
        assert (code, out) == (2, "")
        assert err == (
            "error: unknown table '2.9'; use one of 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, nr-gamma\n"
        )


def _subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, env.get("PYTHONPATH")]))
    env.pop("HARMLOG_THRESHOLD", None)
    return env


def test_module_entry_point_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "harmlog.cli", "ln", "1", "2", "--format", "json"],
        env=_subprocess_env(), capture_output=True, text=True, timeout=60,
    )
    golden = json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))
    expected = next(case["stdout"] for case in golden if case["argv"] == ["ln", "1", "2"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


def _replay(interpreter: str, script: str, args: list[str], stdin: str = ""):
    """Run script under interpreter with -W error; skip where no such interpreter runs.

    The script prints a marker line first, so an interpreter that never runs
    it is told apart from a mismatch.  A pyenv shim on PATH answers "command
    not found" for a version that is installed but not selected, and names
    the versions that have the command: the script runs again with
    PYENV_VERSION set to the first of them.
    """
    executable = shutil.which(interpreter)
    if executable is None:
        pytest.skip(f"{interpreter} is not on PATH")
    env = _subprocess_env()
    for _ in range(2):
        proc = subprocess.run(
            [executable, "-W", "error", "-c", script, *args], input=stdin, env=env,
            capture_output=True, text=True, timeout=120,
        )
        if proc.stdout.startswith("replaying"):
            return proc
        listed = proc.stderr.partition("exists in these Python versions:")[2]
        versions = re.findall(r"^[ \t]+(\S+)$", listed, re.MULTILINE)
        if not versions:
            break
        env["PYENV_VERSION"] = versions[0]
    # A launcher on PATH with no interpreter installed behind it.
    pytest.skip(f"{interpreter} does not run: {proc.stderr.partition(chr(10))[0]}")


# The sweep goldens of tests/test_golden.py, as `harmlog sweep` arguments.
_SWEEP_ARGVS = {
    "sweep_ln_1_2": ["ln", "--p", "1", "--q", "2", "--m", "25,50,100,200,400"],
    "sweep_ln_7_4": ["ln", "--p", "7", "--q", "4", "--m", "1,3,22"],
    "sweep_factorial_corrected": ["factorial", "--n", "2,5,45,160,300"],
    "sweep_factorial_raw": ["factorial", "--n", "2,5,45,160,300", "--method", "raw"],
    "sweep_factorial_series": ["factorial", "--n", "1,2,45", "--method", "series"],
    "sweep_nr": ["nr", "--n", "1,10,100"],
}

# Replays every table and sweep golden file (the sweeps' arguments on stdin)
# and every record of cli.json through cli.main, and prints the name of each
# that differs.
_REPLAY = """
import contextlib, io, json, sys
from pathlib import Path
print("replaying", flush=True)
from harmlog import cli
golden, tables = Path(sys.argv[1]), sys.argv[2:]
def printed(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()
reports = [(f"table_{table}", ["table", table]) for table in tables]
reports += [(name, ["sweep", *argv]) for name, argv in json.loads(sys.stdin.read()).items()]
for stem, argv in reports:
    for fmt, ext in (("csv", "csv"), ("markdown", "md"), ("json", "json")):
        expected = (golden / f"{stem}.{ext}").read_text(encoding="utf-8")
        if printed(argv + ["--format", fmt]) != (0, expected):
            print("mismatch", f"{stem}.{ext}")
for case in json.loads((golden / "cli.json").read_text(encoding="utf-8")):
    if printed(case["argv"] + ["--format", "json"]) != (0, case["stdout"]):
        print("mismatch", " ".join(case["argv"]))
"""


@pytest.mark.parametrize("interpreter", ["python3.10", "python3.12", "python3.13"])
def test_table_goldens_under_each_interpreter(interpreter):
    # The table and sweep goldens and the cli.json records, with every
    # warning an error.
    argv = [str(GOLDEN), *PAPER_TABLES]
    proc = _replay(interpreter, _REPLAY, argv, json.dumps(_SWEEP_ARGVS))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "replaying\n", "")


# -- the fast parser against argparse --------------------------------------
#
# cli.main parses argv with cli._fast_parse and leaves to argparse only what
# it declines (returns None for).  So for every argv the fast parser must
# decline or return exactly argparse's attributes, and it must decline every
# argv that argparse rejects.

# argv the fast parser must take: each command, the cli-cold benchmark's shapes
# and tokens that int() and float() accept but that look odd.
_PLAIN_ARGVS = [
    ["ln", "3", "7"],
    ["ln", "3", "7", "--format", "json"],
    ["ln", "11", "2", "--m", "40", "--variant", "full", "--format", "csv"],
    ["ln", "1", "2", "--threshold", "100"],
    ["ln", "0", "3"],
    ["ln", "--m", "40", "1", "2"],
    ["ln", "1", "--variant", "full", "2"],
    ["ln", "1", "2", "--format", "json", "--format", "csv"],
    *(["factorial", "1200", "--method", m] for m in cli._FACTORIAL_METHODS),
    ["factorial", "1"],
    *(["gamma", "--nr", kind, "--format", "csv"] for kind in ("integral", "series", "limit")),
    ["gamma", "--nr", "limit", "--n", "1000"],
    *(["cnr", "7.25", "--method", m] for m in cli._CNR_METHODS),
    ["cnr", "12.5", "--method", "scaled", "--m", "150", "--format", "json"],
    ["cnr", "nan"],
    ["cnr", "inf"],
    ["nbb", "17", "--format", "csv"],
    *(["table", t, "--format", f] for t in PAPER_TABLES for f in ("csv", "markdown", "json")),
    ["table", "2.1", "--out", "table.csv"],
    ["table", "2.9"],
    ["table", ""],
    ["sweep", "ln", "--p", "3", "--q", "4", "--m", "25:400:double"],
    ["sweep", "factorial", "--n", "10,100", "--method", "raw", "--format", "markdown"],
    ["sweep", "nr", "--n", "1:10:1", "--format", "json", "--out", "nr.json"],
    ["ln", " 3", "7"],
    ["ln", "٣", "7"],
    ["factorial", "+5"],
    ["factorial", "1_000"],
    ["ln", "1", "2", "--m", ""],
    ["ln", "1", "2", "--m", "abc"],
]
# argv the fast parser must leave to argparse: help, abbreviations,
# --opt=value, negative numbers, --, missing or extra tokens, bad types and
# bad choices.
_HOSTILE_ARGVS = [
    [],
    ["-h"],
    ["--help"],
    ["ln", "-h"],
    ["ln", "1", "2", "--help"],
    ["ln", "1", "2", "--form", "json"],
    ["ln", "1", "2", "--format=json"],
    ["ln", "1", "2", "--m=40"],
    ["ln", "-3", "2"],
    ["ln", "1", "2", "--m", "-5"],
    ["ln", "1", "2", "--"],
    ["ln", "--", "1", "2"],
    ["ln", "1", "2", "-"],
    ["ln", "1", "2", "--m"],
    ["ln", "1", "2", "--m", "--variant", "full"],
    ["ln", "1", "2", "3"],
    ["ln", "1"],
    ["ln"],
    ["ln", "", "2"],
    ["ln", "1.5", "2"],
    ["ln", "1", "2", "--bogus"],
    ["ln", "1", "2", "--bogus", "x"],
    ["ln", "1", "2", "--variant", "Full"],
    ["ln", "1", "2", "--threshold", "abc"],
    ["ln", "1", "2", "--format", "markdown"],
    ["ln", "1", "2", "--method", "raw"],
    ["LN", "1", "2"],
    ["l", "1", "2"],
    ["bogus"],
    ["--format", "json", "ln", "1", "2"],
    ["factorial", "5", "--method", "bogus"],
    ["factorial", "5", "--method", "raw", "--method", "bogus"],
    ["factorial", "5", "--meth", "raw"],
    ["factorial", "nan"],
    ["factorial", "5.0"],
    ["gamma", "--n", "1e3"],
    ["gamma", "--nr", "limit", "--n", "-5"],
    ["gamma", "5"],
    ["cnr", "-1.5"],
    ["cnr", "x"],
    ["cnr", "1.5", "--method", "scaled", "--m", "1.5"],
    ["cnr", "1.5", "--method", "SCALED"],
    ["nbb", "6", "--format", "markdown"],
    ["table"],
    ["table", "2.1", "--out"],
    ["table", "2.1", "--format", "plain"],
    ["sweep"],
    ["sweep", "bogus"],
    ["sweep", "ln", "--p", "x"],
    ["sweep", "ln", "--n"],
    ["sweep", "factorial", "--method", "exp"],
]


def _comparable(args) -> dict | None:
    # nan != nan, and 1 == 1.0 == True: compare each value's type and repr.
    if args is None:
        return None
    return {key: (type(value).__name__, repr(value)) for key, value in vars(args).items()}


def _both_parses(argv: list[str]) -> tuple[dict | None, dict | None]:
    """The fast parse and argparse's parse of argv, None where either gives none."""
    fast = cli._fast_parse(list(argv))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            full = cli.build_parser().parse_args(list(argv))
        except SystemExit:
            full = None
    return _comparable(fast), _comparable(full)


def assert_parses_agree(argv: list[str]) -> None:
    fast, full = _both_parses(argv)
    if fast is not None:
        assert fast == full, argv


_TOKENS = st.one_of(
    st.sampled_from(
        sorted({arg[0] for _, _, args in cli._COMMANDS.values() for arg in args})
        + list(cli._COMMANDS)
        + ["-h", "--help", "--", "-", "--form", "--me", "--format=json", "--m=3", "--bogus"]
    ),
    st.sampled_from(
        list(cli._FACTORIAL_METHODS) + list(cli._CNR_METHODS)
        + ["plain", "json", "csv", "markdown", "full", "truncated", "integral", "limit", "nr"]
        + ["2.1", "nr-gamma", "3", "-5", "0", " 3", "٣", "", "nan", "1.5", "1e3", "1_0"]
        + ["25:400:double", "10,100", "-0.5", "+7"]
    ),
    st.text(max_size=4),
)
_ANY_ARGV = st.builds(
    lambda head, rest: head + rest,
    st.one_of(st.just([]), st.sampled_from(list(cli._COMMANDS)).map(lambda c: [c])),
    st.lists(_TOKENS, max_size=8),
)


class TestFastParse:
    @pytest.mark.parametrize("argv", _PLAIN_ARGVS, ids=" ".join)
    def test_plain_argv_is_argparse_s_namespace(self, argv):
        fast, full = _both_parses(argv)
        assert fast is not None and fast == full

    @pytest.mark.parametrize("argv", _HOSTILE_ARGVS, ids=repr)
    def test_any_other_argv_is_left_to_argparse(self, argv):
        assert cli._fast_parse(list(argv)) is None

    @settings(max_examples=250, deadline=None)
    @given(argv=_ARGV)
    def test_contract_argv_agrees(self, argv):
        assert_parses_agree(argv + ["--format", "json"])

    @settings(max_examples=400, deadline=None)
    @given(argv=_ANY_ARGV)
    def test_any_argv_agrees(self, argv):
        assert_parses_agree(argv)

    def test_every_option_of_every_command_is_parsed(self):
        # One argv per command that sets every option to a value other than
        # its default; the fast parser must take it.
        for command, (_, handler, arguments) in cli._COMMANDS.items():
            argv = [command]
            for name, kind, default, choices, _ in arguments:
                value = choices[-1] if choices else {int: "7", float: "2.5", str: "5"}[kind]
                argv += [name, value] if name.startswith("-") else [value]
            fast, full = _both_parses(argv)
            assert fast is not None and fast == full, argv
            assert cli._fast_parse(argv).func is handler

    def test_an_abbreviation_runs_through_argparse(self, capsys):
        assert cli._fast_parse(["ln", "1", "2", "--form", "json"]) is None
        assert run(capsys, "ln", "1", "2", "--form", "json") == run(
            capsys, "ln", "1", "2", "--format", "json"
        )


# Replays the fixed corpus: prints, for each argv, the fast and the argparse
# parse in comparable form, after a marker line as in _REPLAY.
_PARSE_REPLAY = """
import contextlib, io, json, sys
print("replaying", flush=True)
from harmlog import cli
def comparable(args):
    if args is None:
        return None
    return {k: [type(v).__name__, repr(v)] for k, v in vars(args).items()}
pairs = []
for argv in json.loads(sys.stdin.read()):
    fast = cli._fast_parse(argv)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            full = cli.build_parser().parse_args(argv)
        except SystemExit:
            full = None
    pairs.append([comparable(fast), comparable(full)])
print(json.dumps(pairs))
"""


@pytest.mark.parametrize("interpreter", ["python3.10", "python3.12", "python3.13"])
def test_fast_parse_corpus_under_each_interpreter(interpreter):
    # argparse's handling of "-" tokens differs between CPython versions.
    corpus = _PLAIN_ARGVS + _HOSTILE_ARGVS
    proc = _replay(interpreter, _PARSE_REPLAY, [], json.dumps(corpus))
    assert (proc.returncode, proc.stderr) == (0, "")
    pairs = json.loads(proc.stdout.splitlines()[1])
    for argv, (fast, full) in zip(corpus, pairs):
        if argv in _HOSTILE_ARGVS:
            assert fast is None, argv
        else:
            assert fast is not None and fast == full, argv
