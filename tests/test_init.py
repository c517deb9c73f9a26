"""The package's public names, and the modules each entry point imports."""

import importlib
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import harmlog

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


def fresh(code: str) -> object:
    """Run code in a new interpreter on this checkout; return the JSON it prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def imported_by(statements: str) -> set[str]:
    """Modules first imported by statements, over what start-up already loaded."""
    code = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in statements.splitlines())
        + "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    return set(fresh(code))


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
        assert harmlog.tables.approx_cnr_exp is harmlog.cnr.approx_cnr_exp
        loaded = fresh(
            "import json, harmlog\n"
            "ok = harmlog.tables.approx_cnr_exp is harmlog.cnr.approx_cnr_exp\n"
            "print(json.dumps(ok))\n"
        )
        assert loaded is True


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
