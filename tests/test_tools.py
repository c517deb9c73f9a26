"""Smoke tests of the measuring tools under tools/."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_kinds_sums_each_kind_of_two_trees():
    # Two trees (here both this checkout), one tiny pass each.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_kinds.py"), "--seed", "7", "--passes", "1",
         "--tiny", "--tree", f"base={ROOT}", "--tree", f"change={ROOT}"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, columns, *rows, total, rate, ratio = proc.stdout.splitlines()
    assert header == "series-long, seed 7: least of 1 passes per tree, µs per pass"
    assert columns.split() == ["kind", "ops", "base", "change"]
    kinds = {row.split()[0]: row.split()[1:] for row in rows}
    assert set(kinds) == {"ln_factorial_series", "ln_integer_full", "nr_direct_series",
                          "nr_empirical_limit", "nr_gamma_table", "sweep_ln_rational"}
    assert sum(int(ops) for ops, _, _ in kinds.values()) == int(total.split()[1]) == 100
    for i in (1, 2):
        summed = sum(float(cells[i]) for cells in kinds.values())
        assert abs(summed - float(total.split()[i + 1])) < 0.1 * len(kinds)
        assert float(rate.split()[i]) > 0
    assert ratio.startswith("change against base: ")


def test_code_lines_counts_no_blank_comment_or_docstring_line(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        '"""A module docstring\n\nover three lines."""\n'
        "\n"
        "# A comment.\n"
        "import math  # a trailing comment\n"
        "\n"
        "class A:\n"
        '    """A class docstring."""\n'
        "\n"
        "    def f(self):\n"
        "        '''A function docstring.'''\n"
        "        return (1,\n"
        "                2)\n"
        "\n"
        'TEXT = """not a docstring"""\n'
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # import, class, def, the two lines of the return, TEXT.
    assert proc.stdout.splitlines() == [f"     6 {module}", "     6 total"]


def test_code_lines_counts_the_package_by_default():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "code_lines.py")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    *modules, total = proc.stdout.splitlines()
    assert {Path(line.split()[1]).name for line in modules} >= {"__init__.py", "harmonic.py"}
    assert sum(int(line.split()[0]) for line in modules) == int(total.split()[0])
    assert total.split()[1] == "total"
