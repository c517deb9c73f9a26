import json

import pytest

from harmlog import cli
from harmlog.errors import DomainError
from harmlog.harmonic import ScaledRational, ln_rational
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


def assert_one_line_error(result, needle):
    code, out, err = result
    assert code == 2
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


class TestUnknownFlags:
    def test_unknown_flag_errors(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["ln", "1", "2", "--bogus"])
        assert excinfo.value.code == 2
