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
