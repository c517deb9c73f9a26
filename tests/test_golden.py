"""Byte-for-byte regression against stored outputs.

The files under tests/golden/ hold the text that every table, a few small
sweeps and a fixed list of CLI invocations produced before the table
builders were rewritten around a single row constructor, and the help page
of `harmlog` and of each subcommand at 80 columns before the parser was
derived from one table of the subcommands.  They are a fixed reference: a
difference here is a change in output, so fix the code, not the files.
"""

import functools
import json
from pathlib import Path

import pytest

from harmlog import cli, tables
from harmlog.factorial import FactorialMethod
from harmlog.tables import TableId

GOLDEN = Path(__file__).parent / "golden"

FORMATS = {"csv": "csv", "markdown": "md", "json": "json"}

PAPER_TABLES = ("2.1", "2.2", "2.3", "2.4", "2.5", "2.6", "nr-gamma")

SWEEPS = {
    "sweep_ln_1_2": lambda: tables.sweep_ln_rational(1, 2, [25, 50, 100, 200, 400]),
    "sweep_ln_7_4": lambda: tables.sweep_ln_rational(7, 4, [1, 3, 22]),
    "sweep_factorial_corrected": lambda: tables.sweep_factorial([2, 5, 45, 160, 300]),
    "sweep_factorial_raw": lambda: tables.sweep_factorial(
        [2, 5, 45, 160, 300], FactorialMethod.RAW
    ),
    "sweep_factorial_series": lambda: tables.sweep_factorial(
        [1, 2, 45], FactorialMethod.SERIES_EXACT
    ),
    "sweep_nr": lambda: tables.sweep_nr([1, 10, 100]),
}

# Each runs with --format json appended and HARMLOG_THRESHOLD unset.
CLI_ARGVS = [
    ["ln", "1", "2"],
    ["ln", "3", "4", "--threshold", "100"],
    ["ln", "-3", "-4"],
    ["ln", "-3", "-4", "--m", "40"],
    ["ln", "-1", "-2", "--m", "25", "--variant", "full"],
    ["ln", "19", "10", "--m", "10"],
    ["ln", "7", "4", "--variant", "full"],
    ["ln", "5", "5"],
    ["factorial", "5", "--method", "raw"],
    ["factorial", "5", "--method", "corrected"],
    ["factorial", "5", "--method", "series"],
    ["factorial", "1", "--method", "series"],
    ["factorial", "160"],
    ["factorial", "400", "--method", "raw"],
    ["gamma"],
    ["gamma", "--nr", "series"],
    ["gamma", "--nr", "series", "--n", "1000"],
    ["gamma", "--nr", "limit", "--n", "10000"],
    ["cnr", "3.5"],
    ["cnr", "1.5", "--method", "scaled", "--m", "50"],
    ["cnr", "6", "--method", "pow2"],
    ["nbb", "6"],
]


@functools.cache
def _table(value: str) -> tables.TableReport:
    # Built once and serialized three ways: nr-gamma sums 10**6 terms.
    return tables.build(TableId(value))


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("value", PAPER_TABLES)
def test_table_matches_golden(value, fmt):
    expected = (GOLDEN / f"table_{value}.{FORMATS[fmt]}").read_text(encoding="utf-8")
    assert _table(value).serialize(fmt) == expected


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_matches_golden(name, fmt):
    expected = (GOLDEN / f"{name}.{FORMATS[fmt]}").read_text(encoding="utf-8")
    assert SWEEPS[name]().serialize(fmt) == expected


@functools.cache
def _cli_golden() -> dict[str, str]:
    cases = json.loads((GOLDEN / "cli.json").read_text(encoding="utf-8"))
    return {" ".join(case["argv"]): case["stdout"] for case in cases}


@pytest.mark.parametrize("argv", CLI_ARGVS, ids=" ".join)
def test_cli_json_matches_golden(argv, capsys, monkeypatch):
    monkeypatch.delenv("HARMLOG_THRESHOLD", raising=False)
    code = cli.main(argv + ["--format", "json"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, _cli_golden()[" ".join(argv)], "")


HELP_PAGES = {
    "help.txt": [],
    **{
        f"help_{command}.txt": [command]
        for command in ("ln", "factorial", "gamma", "cnr", "nbb", "table", "sweep")
    },
}


@pytest.mark.parametrize("name", HELP_PAGES)
def test_help_matches_golden(name, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as excinfo:
        cli.main(HELP_PAGES[name] + ["--help"])
    captured = capsys.readouterr()
    assert (excinfo.value.code, captured.err) == (0, "")
    assert captured.out == (GOLDEN / name).read_text(encoding="utf-8")
