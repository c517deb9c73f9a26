"""Self-check of the benchmark itself, at tiny sizes; run it by hand:

    python3 perfbench/selfcheck.py

For each workload run.py offers (short-queries too, which BENCHMARK.json
leaves out) it makes one untraced run and two traced runs with the same
seed, and asserts that:
  - the last line of the output has exactly the keys correct, attempted,
    failed and metrics, and no op failed;
  - every metric of BENCHMARK.json is printed by name with its unit;
  - the result file records the run's metadata;
  - every count metric repeats exactly across the two traced runs.
It also asserts that every op kind of every workload has a correctness
check, and that the check rejects a wrong output (a None result for an
in-process op, an empty exit-0 output for a CLI op), so a passing run means
every op passed a check that can fail.
It also asserts that run.py exits non-zero without printing a result when
the harmlog sources are missing.  It is kept out of the test suite because
it runs the benchmark (about a minute).
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402  (imports harmlog from ROOT/src)

EXACT_UNITS = ("count", "B")
SEED = 7


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess, section: list[dict], label: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, (label, set(result))
    assert result["correct"] and result["failed"] == 0, (label, proc.stdout[-2000:])
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in section}
    assert printed == wanted, (label, set(printed) ^ set(wanted))
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (label, name)
    return result


def has_metadata(workload: str, trace: int) -> None:
    saved = json.loads((HERE / "out" / f"result-{workload}-seed{SEED}-trace{trace}.json").read_text())
    for key in ("commit", "python", "host", "nproc", "seed", "samples"):
        assert key in saved["meta"], (workload, key)


def checks_reject_wrong_output(workload: str) -> None:
    cycle = next(workloads.STREAMS[workload](random.Random(SEED), True, None))
    for kind, _, args in cycle:
        wrong = (0, "", "") if kind.startswith("cli_") else None
        try:
            reason = workloads.check(kind, args, wrong, None)
        except Exception as exc:  # the worker counts this as a failed op
            reason = repr(exc)
        assert reason is not None, f"{workload}: check of {kind} accepts {wrong!r}"


def refuses_without_sources() -> None:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for source in HERE.glob("*.py"):
        shutil.copy(source, bare / "perfbench")
    proc = bench("--workload", "series-long", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
    for workload in WORKLOADS:
        common = ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--tiny"]
        checks_reject_wrong_output(workload)
        result = result_of(bench(*common, "--trace", "0"), spec["end_to_end"], workload)
        has_metadata(workload, 0)
        traced = []
        for _ in range(2):
            traced.append(result_of(bench(*common, "--trace", "1"), spec["per_layer"], workload))
            has_metadata(workload, 1)
        for name in exact:
            first, second = (t["metrics"][name]["value"] for t in traced)
            assert first == second, f"{workload}: count {name} is {first} then {second}"
        print(f"{workload}: ok ({result['attempted']} ops untraced, "
              f"{traced[0]['attempted']} ops traced, {len(exact)} counts repeat exactly)")
    refuses_without_sources()
    print("run.py refuses to run without the harmlog sources: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
