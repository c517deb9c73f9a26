"""The package's public names, its value classes, and the modules each entry point imports."""

import copy
import importlib
import inspect
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
import typing
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import harmlog
from harmlog._frozen import Frozen
from harmlog.cnr import ApproxValue, CnrMethod, CnrTag
from harmlog.constants import NrKind, NrVariant
from harmlog.errors import DomainError, HarmlogError, OracleIntegrityError, shown
from harmlog.factorial import FactorialEstimate, FactorialMethod
from harmlog.harmonic import ScaledRational
from harmlog.oracle import ReferenceValue
from harmlog.tables import Row, TableReport

SRC = Path(harmlog.__file__).resolve().parent.parent
# Modules a run of `ln` does not need; each costs milliseconds to import.
NOT_FOR_LN = (
    "harmlog.tables",
    "harmlog.cnr",
    "harmlog.factorial",
    "harmlog.constants",
    "dataclasses",
    "fractions",
)
# One run of each subcommand, with each choice that picks a different module
# or value class.
EVERY_SUBCOMMAND = (
    ["ln", "3", "7", "--format", "json"],
    *(["factorial", "60", "--method", method] for method in ("series", "raw", "corrected")),
    *(["gamma", "--nr", kind] for kind in ("integral", "series", "limit")),
    ["cnr", "1.5", "--method", "scaled", "--m", "50"],
    ["nbb", "6"],
    ["table", "2.6"],
    ["sweep", "ln"],
    ["sweep", "factorial", "--n", "10,100"],
    ["sweep", "nr", "--n", "10,100"],
)


def checkout_env() -> dict[str, str]:
    """The environment with this checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def fresh(code: str) -> object:
    """Run code in a new interpreter on this checkout; return the JSON it prints last."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=checkout_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def imported_by(statements: str) -> set[str]:
    """Modules first imported by statements, over what start-up already loaded.

    json is imported only after the snapshot, to print it, so the set
    includes json when the statements load it.
    """
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in statements.splitlines())
        + "new = sorted(set(sys.modules) - before)\n"
        "import json\n"
        "print(json.dumps(new))\n"
    )
    return set(fresh(code))


def cli_imports(*argv: str) -> set[str]:
    """Modules first imported by `harmlog` argv in a fresh interpreter."""
    return imported_by(f"from harmlog import cli\ncli.main({list(argv)!r})\n")


# Modules `table 2.5 --format markdown` does not need.
NOT_FOR_MARKDOWN_T2_5 = ("json", "csv", "harmlog.factorial", "harmlog.constants")


# The public contract: harmlog.__all__, name for name and in this order.
PUBLIC_NAMES = [
    "ApproxValue",
    "CnrMethod",
    "CnrTag",
    "DomainError",
    "FactorialEstimate",
    "FactorialMethod",
    "HarmlogError",
    "LogVariant",
    "NegativeInputError",
    "NrKind",
    "NrVariant",
    "OracleIntegrityError",
    "OverflowLimitError",
    "ReferenceValue",
    "ScaledRational",
    "TableId",
    "TableReport",
    "ZeroOrInfiniteError",
    "approx_cnr_pow2",
    "approx_lemma11",
    "approx_number_exp",
    "approx_number_large",
    "approx_number_scaled",
    "correction_sum",
    "euler_gamma",
    "exp_form",
    "factorial_corrected",
    "factorial_exact_ln",
    "factorial_raw",
    "gamma_definition_check",
    "generate",
    "ln_auto",
    "ln_factorial_series",
    "ln_integer",
    "ln_product",
    "ln_quotient",
    "ln_rational",
    "ln_ref",
    "ln_value",
    "nbb_decompose",
    "nr_direct_series",
    "nr_empirical_limit",
    "nr_integral",
    "odd_harmonic_sum",
    "percent_error",
    "s_sum_closed",
    "s_sum_exact",
]


class TestPublicNames:
    def test_all_is_the_public_contract(self):
        assert harmlog.__all__ == PUBLIC_NAMES

    @pytest.mark.parametrize("name", harmlog.__all__)
    def test_name_is_its_home_module_object(self, name):
        obj = getattr(harmlog, name)
        home = obj.__module__
        assert home.startswith("harmlog.")
        assert getattr(importlib.import_module(home), name) is obj

    def test_dir_lists_every_public_name(self):
        assert set(harmlog.__all__) <= set(dir(harmlog))

    def test_star_import_in_a_fresh_interpreter(self):
        missing = fresh(
            "import json\n"
            "from harmlog import *\n"
            "import harmlog\n"
            "print(json.dumps([n for n in harmlog.__all__ if n not in globals()]))\n"
        )
        assert missing == []

    @pytest.mark.parametrize("name", harmlog.__all__)
    def test_type_hints_resolve(self, name):
        typing.get_type_hints(getattr(harmlog, name))

    def test_nbb_return_hint_is_a_list_of_fractions(self):
        from fractions import Fraction

        assert typing.get_type_hints(harmlog.nbb_decompose)["return"] == list[Fraction]

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="module 'harmlog' has no attribute 'bogus'"):
            harmlog.bogus  # noqa: B018

    def test_submodules(self):
        from harmlog import tables

        assert tables is sys.modules["harmlog.tables"]
        assert harmlog.tables.ln_integer is harmlog.harmonic.ln_integer
        loaded = fresh(
            "import json, harmlog\n"
            "ok = harmlog.tables.ln_integer is harmlog.harmonic.ln_integer\n"
            "print(json.dumps(ok))\n"
        )
        assert loaded is True


# Runs the calls of `body` in a fresh interpreter under a profiler, and
# prints the (caller, callee) pairs of harmlog's functions and the n of
# every `harmonic._two_s_fixed` call.
_PROFILED = (
    "import json, os, sys\n"
    "from harmlog import constants, factorial, harmonic\n"
    "calls, kernel = set(), []\n"
    "def name(code):\n"
    "    return os.path.basename(code.co_filename)[:-3] + '.' + code.co_name\n"
    "def profile(frame, event, arg):\n"
    "    code = frame.f_code\n"
    "    if event == 'call' and os.sep + 'harmlog' + os.sep in code.co_filename:\n"
    "        calls.add((name(frame.f_back.f_code), name(code)))\n"
    "        if code.co_name == '_two_s_fixed':\n"
    "            kernel.append(frame.f_locals['n'])\n"
    "sys.setprofile(profile)\n"
    "{body}"
    "sys.setprofile(None)\n"
    "print(json.dumps([sorted(calls), kernel]))\n"
)


class TestFirstCalls:
    def test_the_paper_s_first_sums_derive_no_constant(self):
        # The tails T(2), their coefficients, the limit N and the 2Q
        # coefficients are literals: a fresh interpreter's first C(2, 10**6),
        # s(2, 10**5), N(10**6) and S(2, 10**6) reach the functions that hold
        # them and call none that sums a head term or builds a coefficient.
        calls, kernel = fresh(_PROFILED.format(body=(
            "harmonic.correction_sum(2, 10**6)\n"
            "factorial.s_sum_exact(10**5)\n"
            "constants.nr_empirical_limit(10**6)\n"
            "harmonic.odd_harmonic_sum(2, 10**6)\n"
        )))
        called = {callee for _, callee in calls}
        assert {"harmonic._fixed_tail", "harmonic._two_s_fixed", "harmonic._two_q_fixed"} <= called
        # A tail from 2 < m < 64 would sum the terms below m in a generator.
        assert {callee for caller, callee in calls if caller == "harmonic._fixed_tail"} == set()
        # S(2, 10**6) is 2 S(1, 10**6) less the head table's 2 S(1, 1) = 2:
        # no head term is summed.
        assert kernel == [10**6]
        assert {name for name in called if name.startswith("constants.")} == {
            "constants.nr_empirical_limit"
        }

    def test_ln_n_and_ln_n_factorial_take_no_float_logarithm_and_no_head(self):
        # ln n, ln n! and the odd sum from k = 2 are fixed-point integers on
        # ln n = P/Q of oracle._ln_fraction: a fresh interpreter's first
        # ln_integer(10**6), ln_factorial_series(10**5) and S(2, 10**6) call
        # neither the float pair of oracle._ln_ratio nor the checked
        # oracle.ln_value, and sum no head term.
        calls, kernel = fresh(_PROFILED.format(body=(
            "harmonic.ln_integer(10**6)\n"
            "factorial.ln_factorial_series(10**5)\n"
            "harmonic.odd_harmonic_sum(2, 10**6)\n"
        )))
        called = {callee for _, callee in calls}
        assert not called & {"oracle._ln_ratio", "oracle.ln_value"}
        assert {"oracle._ln_fraction", "harmonic._two_s_fixed", "harmonic._fixed_tail"} <= called
        assert kernel == [10**6, 10**6]

    def test_a_first_long_correction_window_takes_under_100_us(self):
        # C(10**6 + 1, 2 * 10**6) is two Horner tails in a fresh process,
        # where summing it term by term took ~0.4 s; least of three processes.
        times = [
            fresh(
                "import json, time\n"
                "from harmlog import harmonic\n"
                "start = time.perf_counter()\n"
                "harmonic.correction_sum(10**6 + 1, 2 * 10**6)\n"
                "print(json.dumps(time.perf_counter() - start))\n"
            )
            for _ in range(3)
        ]
        assert min(times) < 100e-6


class TestImportFootprint:
    def test_bare_package_imports_no_submodule(self):
        new = imported_by("import harmlog")
        assert not {m for m in new if m.startswith("harmlog.")}

    def test_ln_imports_only_what_it_uses(self):
        new = imported_by(
            "from harmlog import cli\n"
            'cli.main(["ln", "3", "7", "--format", "json"])\n'
            'cli.main(["ln", "0", "3"])\n'
        )
        assert "harmlog.harmonic" in new and "harmlog.oracle" in new
        assert not new & set(NOT_FOR_LN)

    def test_series_kernels_import_neither_fractions_nor_decimal(self):
        new = imported_by(
            "from harmlog import cli\n"
            'cli.main(["factorial", "500", "--method", "series"])\n'
            'cli.main(["gamma", "--nr", "series"])\n'
        )
        assert "harmlog.factorial" in new and "harmlog.constants" in new
        assert not new & {"fractions", "decimal"}

    def test_cnr_imports_neither_fractions_nor_decimal(self):
        new = imported_by("import harmlog.cnr")
        assert "harmlog.cnr" in new
        assert not new & {"fractions", "decimal"}

    def test_table_imports_tables(self):
        new = imported_by('from harmlog import cli\ncli.main(["table", "2.1"])\n')
        assert "harmlog.tables" in new

    def test_no_table_imports_decimal(self):
        # Table 2.6 is checked against printed digits, read off the string.
        new = imported_by(
            "from harmlog import cli, tables\n"
            "for table_id in tables.TableId:\n"
            '    assert cli.main(["table", table_id.value]) == 0, table_id\n'
        )
        assert "harmlog.tables" in new
        assert "decimal" not in new

    @pytest.mark.parametrize("argv", [["cnr", "1.5"], ["nbb", "6"]])
    def test_cnr_and_nbb_load_neither_harmonic_nor_json(self, argv):
        new = cli_imports(*argv)
        assert "harmlog.cnr" in new
        assert not new & {"harmlog.harmonic", "json"}

    @pytest.mark.parametrize("fmt", ["plain", "csv"])
    @pytest.mark.parametrize(
        "argv", [["ln", "3", "7"], ["factorial", "5"], ["gamma", "--nr", "series"]]
    )
    def test_plain_and_csv_records_load_no_json(self, argv, fmt):
        assert "json" not in cli_imports(*argv, "--format", fmt)

    def test_a_json_record_loads_json(self):
        assert "json" in cli_imports("ln", "3", "7", "--format", "json")

    @pytest.mark.parametrize("argv", [["table", "2.5"], ["sweep", "ln", "--p", "1", "--q", "2"]])
    def test_a_csv_table_or_sweep_loads_no_csv_module(self, argv):
        assert "csv" not in cli_imports(*argv, "--format", "csv")

    def test_markdown_table_loads_only_what_it_uses(self):
        new = cli_imports("table", "2.5", "--format", "markdown")
        assert "harmlog.tables" in new
        assert not new & set(NOT_FOR_MARKDOWN_T2_5)

    @pytest.mark.parametrize(
        "table, module", [("nr-gamma", "harmlog.factorial"), ("2.6", "harmlog.constants")]
    )
    def test_each_table_loads_only_its_own_layers(self, table, module):
        new = cli_imports("table", table)
        assert "harmlog.tables" in new
        assert module not in new

    def test_module_entry_point_import_profile(self):
        # The benchmark's entry point, profiled as a user runs it.
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "harmlog.cli", "table", "2.5",
             "--format", "markdown"],
            env=checkout_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("| m | p | q |")
        imported = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }
        # -X importtime lists no module that `from . import name` loads (the
        # submodule is imported from Python, not C), so harmlog.tables is not
        # listed, but the harmlog.harmonic it imports is.  Table 2.5 builds
        # no cnr form.
        assert "harmlog.harmonic" in imported
        assert "harmlog.cnr" not in imported
        assert not imported & set(NOT_FOR_MARKDOWN_T2_5)

    def test_no_parsed_subcommand_loads_argparse(self):
        # argparse, and the gettext and locale it loads, only for help and
        # usage errors.
        new = imported_by(
            "from harmlog import cli\n"
            + "".join(f"assert cli.main({argv!r}) == 0\n" for argv in EVERY_SUBCOMMAND)
        )
        assert "harmlog.cli" in new
        assert not new & {"argparse", "gettext", "locale"}

    @pytest.mark.parametrize("argv, code", [(["ln", "1", "2", "--bogus"], 2), (["ln", "--help"], 0)])
    def test_help_and_usage_errors_load_argparse(self, argv, code):
        new = imported_by(
            "from harmlog import cli\n"
            "try:\n"
            f"    cli.main({argv!r})\n"
            "except SystemExit as exc:\n"
            f"    assert exc.code == {code}, exc.code\n"
            "else:\n"
            "    raise AssertionError('no SystemExit')\n"
        )
        assert "argparse" in new

    def test_no_subcommand_imports_dataclasses_or_inspect(self):
        # One process runs them all and names the first command to load each.
        loaded = fresh(
            "import contextlib, io, json, sys\n"
            "from harmlog import cli\n"
            "first = {}\n"
            f"for argv in {list(EVERY_SUBCOMMAND)!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    for name in ('dataclasses', 'inspect'):\n"
            "        if name in sys.modules:\n"
            "            first.setdefault(name, ' '.join(argv))\n"
            "print(json.dumps(first))\n"
        )
        assert loaded == {}


_ROW = Row({"x": 2.0}, 2.00502, 2.0, 0.251, "2.00591", False, "note")
_ROW_REPR = (
    "Row(inputs={'x': 2.0}, calculated=2.00502, reference=2.0, percent_error=0.251, "
    "printed='2.00591', match=False, erratum='note')"
)
# Each value class: one instance built positionally, the same by keyword,
# its repr, and whether it hashes (Row holds a dict, a report its rows).
VALUE_CASES = {
    "Row": (
        _ROW,
        dict(
            inputs={"x": 2.0},
            calculated=2.00502,
            reference=2.0,
            percent_error=0.251,
            printed="2.00591",
            match=False,
            erratum="note",
        ),
        _ROW_REPR,
        False,
    ),
    "TableReport": (
        TableReport("2.2", ("x",), "%.10g", (_ROW,)),
        dict(table_id="2.2", input_columns=("x",), calculated_format="%.10g", rows=(_ROW,)),
        f"TableReport(table_id='2.2', input_columns=('x',), calculated_format='%.10g', "
        f"rows=({_ROW_REPR},))",
        False,
    ),
    "NrVariant": (
        NrVariant(NrKind.DIRECT_SERIES, 0.0317, 595, None),
        dict(kind=NrKind.DIRECT_SERIES, value=0.0317, terms=595, n=None),
        "NrVariant(kind=<NrKind.DIRECT_SERIES: 'series'>, value=0.0317, terms=595, n=None)",
        True,
    ),
    "FactorialEstimate": (
        FactorialEstimate(5, 4.78, 119.46, FactorialMethod.CORRECTED),
        dict(n=5, ln_value=4.78, value=119.46, method=FactorialMethod.CORRECTED),
        "FactorialEstimate(n=5, ln_value=4.78, value=119.46, "
        "method=<FactorialMethod.CORRECTED: 'corrected'>)",
        True,
    ),
    "CnrMethod": (
        CnrMethod(CnrTag.EXP_SCALED, 50),
        dict(tag=CnrTag.EXP_SCALED, m=50),
        "CnrMethod(tag=<CnrTag.EXP_SCALED: 'exp_scaled'>, m=50)",
        True,
    ),
    "ApproxValue": (
        ApproxValue(1.5, CnrMethod(CnrTag.EXP_FULL), 1.49, 1.5, -0.5),
        dict(
            input=1.5,
            method=CnrMethod(CnrTag.EXP_FULL),
            value=1.49,
            reference=1.5,
            percent_error=-0.5,
        ),
        "ApproxValue(input=1.5, method=CnrMethod(tag=<CnrTag.EXP_FULL: 'exp_full'>, m=None), "
        "value=1.49, reference=1.5, percent_error=-0.5)",
        True,
    ),
    "ScaledRational": (
        ScaledRational(3, 4, 40),
        dict(p=3, q=4, m=40),
        "ScaledRational(p=3, q=4, m=40)",
        True,
    ),
    "ReferenceValue": (
        ReferenceValue(0.693, 1e-13),
        dict(value=0.693, guaranteed_abs_error=1e-13),
        "ReferenceValue(value=0.693, guaranteed_abs_error=1e-13)",
        True,
    ),
}


class TestValueClasses:
    """The record classes keep the behaviour of the frozen dataclasses they were."""

    @pytest.mark.parametrize("name", VALUE_CASES)
    def test_value_semantics(self, name):
        value, fields, text, hashable = VALUE_CASES[name]
        cls = type(value)
        assert value == cls(**fields) and not value != cls(**fields)
        assert [getattr(value, field) for field in fields] == list(fields.values())
        assert repr(value) == text
        as_tuple = tuple(fields.values())
        assert value != as_tuple and not value == as_tuple
        if hashable:
            assert hash(value) == hash(cls(**fields))
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)
        first = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(value, first, None)
        with pytest.raises(AttributeError):
            delattr(value, first)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, first) == fields[first]
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is cls and twin == value and repr(twin) == text

    def test_every_record_class_is_covered(self):
        # Every record class of the package is one of the cases above.
        assert {cls.__name__ for cls in Frozen.__subclasses__()} == set(VALUE_CASES)

    @pytest.mark.parametrize("name", VALUE_CASES)
    def test_one_store_per_record(self, name):
        value, fields, _, _ = VALUE_CASES[name]
        cls = type(value)
        assert not hasattr(value, "__dict__")
        assert cls._fields == tuple(inspect.signature(cls).parameters) == tuple(fields)
        assert value._values == tuple(fields.values())

    @pytest.mark.parametrize("name", VALUE_CASES)
    def test_a_record_is_not_a_sequence(self, name):
        value = VALUE_CASES[name][0]
        with pytest.raises(TypeError):
            iter(value)
        with pytest.raises(TypeError):
            value[0]
        with pytest.raises(TypeError):
            len(value)

    def test_defaults(self):
        row = Row({}, None, None, None, None, None)
        assert row.erratum == ""
        assert TableReport("sweep", ("n",), "%g").rows == ()
        assert NrVariant(NrKind.INTEGRAL, 0.04) == NrVariant(NrKind.INTEGRAL, 0.04, None, None)
        assert CnrMethod(CnrTag.POW2).m is None

    @pytest.mark.parametrize(
        "args,message",
        [
            ((CnrTag.EXP_SCALED,), "EXP_SCALED requires an integer m >= 1"),
            ((CnrTag.EXP_SCALED, 0), "EXP_SCALED requires an integer m >= 1"),
            ((CnrTag.LEMMA11, 5), "lemma11 does not take a multiplier"),
        ],
    )
    def test_cnr_method_messages(self, args, message):
        with pytest.raises(DomainError) as excinfo:
            CnrMethod(*args)
        assert str(excinfo.value) == message

    def test_unpickling_cnr_method_validates_it(self):
        method = CnrMethod(CnrTag.EXP_SCALED, 50)
        object.__setattr__(method, "_values", (CnrTag.EXP_SCALED, 0))
        data = pickle.dumps(method)
        with pytest.raises(DomainError, match="EXP_SCALED requires an integer m >= 1"):
            pickle.loads(data)


# Every public callable that takes numbers, with the fewest and the most
# numbers it takes.  gamma_definition_check and nbb_decompose are O(n), so
# the ints below stay at or under 10**4 or past their work limits.
NUMERIC_CALLABLES = {
    "approx_cnr_pow2": (1, 1), "approx_lemma11": (1, 1), "approx_number_exp": (1, 1),
    "approx_number_large": (1, 1), "approx_number_scaled": (1, 2), "correction_sum": (2, 2),
    "exp_form": (1, 1), "factorial_corrected": (1, 1), "factorial_exact_ln": (1, 1),
    "factorial_raw": (1, 1), "gamma_definition_check": (1, 1), "ln_auto": (2, 3),
    "ln_factorial_series": (1, 1), "ln_integer": (1, 1), "ln_product": (2, 2),
    "ln_quotient": (2, 2), "ln_ref": (1, 1), "ln_value": (1, 2), "nbb_decompose": (1, 1),
    "nr_direct_series": (1, 1), "nr_empirical_limit": (1, 1), "odd_harmonic_sum": (2, 2),
    "percent_error": (2, 2), "s_sum_closed": (1, 1), "s_sum_exact": (1, 1),
    "ScaledRational": (3, 3),
}
# The public functions that take no number: an enum, a record or a table id.
NON_NUMERIC_FUNCTIONS = {"euler_gamma", "generate", "ln_rational", "nr_integral"}
# 10**320 is past binary64, and 1/10**320 a subnormal quotient; str() of
# +-10**5000 raises ValueError, so a message must not print its digits.
CONTRACT_VALUES = [
    0, 1, -1, 2, 41, 2**63, 10**320, 10**400, -(10**400), 10**5000, -(10**5000),
    math.nan, math.inf, -math.inf, 5e-324, 0.5, 1.0, 1e308,
]


def numbers_in(result):
    """Every int and float in a result, through tuples, lists and records."""
    if isinstance(result, (int, float)):
        yield result
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from numbers_in(item)
    elif isinstance(result, Frozen):
        yield from numbers_in(result._values)


class TestTypedErrors:
    """Every public callable answers in finite numbers or raises HarmlogError.

    OracleIntegrityError reports a broken oracle, never a bad input, so it
    fails the contract.
    """

    def test_every_numeric_callable_is_covered(self):
        functions = {
            name for name in harmlog.__all__
            if callable(getattr(harmlog, name)) and not inspect.isclass(getattr(harmlog, name))
        }
        assert functions - set(NUMERIC_CALLABLES) == NON_NUMERIC_FUNCTIONS
        assert set(NUMERIC_CALLABLES) - functions == {"ScaledRational"}

    @settings(max_examples=400, deadline=None)
    @given(
        name=st.sampled_from(sorted(NUMERIC_CALLABLES)),
        args=st.lists(st.sampled_from(CONTRACT_VALUES), min_size=3, max_size=3),
        count=st.integers(min_value=1, max_value=3),
    )
    # A nan first argument skips the check of the second, whose message must
    # still name an int past str()'s digit limit: tried on every run, not by
    # chance.  (percent_error_from_ln is not public; tests/test_oracle.py
    # checks it.)
    @example(name="percent_error", args=[math.nan, 10**5000, 2], count=2)
    # A nan threshold, or a float q, is not an int: it must raise before the
    # multiplier's arithmetic with an int past binary64.
    @example(name="ln_auto", args=[10**400, 10**400, math.nan], count=3)
    @example(name="ln_auto", args=[2, 1.0, 10**320], count=3)
    def test_finite_numbers_or_a_typed_error(self, name, args, count):
        fewest, most = NUMERIC_CALLABLES[name]
        answers_or_raises_typed(name, args[: min(max(count, fewest), most)])

    @pytest.mark.parametrize("name", sorted(NUMERIC_CALLABLES))
    def test_every_argument_list_of_contract_values(self, name):
        # Every list the fuzzer above can draw for this callable, so a gap
        # fails on every run, not by chance (~25,000 calls in all, 0.05 s).
        fewest, most = NUMERIC_CALLABLES[name]
        for count in range(fewest, most + 1):
            for args in itertools.product(CONTRACT_VALUES, repeat=count):
                answers_or_raises_typed(name, list(args))

    @pytest.mark.parametrize("name", sorted(NUMERIC_CALLABLES))
    def test_each_argument_past_binary64_and_the_digit_limit(self, name):
        # Each argument in turn, with 2 for the others.
        most = NUMERIC_CALLABLES[name][1]
        for i in range(most):
            for big in (10**320, 10**5000, -(10**5000)):
                answers_or_raises_typed(name, [big if j == i else 2 for j in range(most)])


def answers_or_raises_typed(name, args):
    """The contract for one call: finite numbers, a HarmlogError other than
    OracleIntegrityError, or a TypeError for a float where an int must go."""
    try:
        result = getattr(harmlog, name)(*args)
    except OracleIntegrityError:
        raise
    except HarmlogError:
        return
    except TypeError:
        # Only where an index, a count or a multiplier must be an int.
        assert any(isinstance(x, float) for x in args), (name, list(map(shown, args)))
        return
    if isinstance(result, FactorialEstimate):
        result = (result.n, result.ln_value)  # value may overflow to inf
    for x in numbers_in(result):
        assert math.isfinite(x), (name, list(map(shown, args)), result)
