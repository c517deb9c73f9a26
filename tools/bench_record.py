"""Record the benchmark of one or two checkouts as BENCH_<label>.json files.

    python3 tools/bench_record.py --workload series-long --seed 7101 \\
        --seconds 60 --runs 10 --tree base=../base-checkout --tree change=.

Each --tree is LABEL=DIR, a checkout that holds perfbench/run.py, src/ and
BENCHMARK.json.  Every run is `python3 perfbench/run.py --workload W --seed S
--seconds T --trace 0` from the tree's root, with this process's environment.
With two trees the runs alternate, and so does the tree that goes first in a
round, so that a slow phase of a shared host falls on both alike.

For each tree, BENCH_<label>-<workload>.json (in --out-dir, the repository
root by default) holds the median, quartiles and interquartile range of
every end-to-end metric of BENCHMARK.json, each run's value, the ops attempted
and failed, and what the runs depended on: the commit, whether src/ differs
from it and a hash of src/, the Python version, the host, the seed, the run
length and the PYTHONDONTWRITEBYTECODE setting.  For cli-cold, whose ops
are each a fresh CLI process, it also records the interpreter's floor next
to the metrics: after each run, the median wall time of FLOOR_SPAWNS runs
of `python3 -c pass` (this interpreter, from the tree's root), in ms.  With
two trees it also prints, per metric, the runs of the second tree that beat
their pair of the first.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Processes of `python3 -c pass` timed after each cli-cold run.
FLOOR_SPAWNS = 20


def _git(tree: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_sha256(tree: Path) -> str:
    """One hash over the path and bytes of every .py file under src/."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def _run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result line of one run.py run, as a dict."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(argv)} in {tree} exited {done.returncode}:\n"
                         f"{done.stderr.strip()}")
    return json.loads(lines[-1])


def _interpreter_floor_ms(tree: Path) -> float:
    """Median wall time, in ms, of FLOOR_SPAWNS fresh `python3 -c pass` processes."""
    times = []
    for _ in range(FLOOR_SPAWNS):
        began = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=tree, check=True)
        times.append((time.perf_counter() - began) * 1e3)
    return statistics.median(times)


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--runs", type=int, default=5, help="runs per tree, at least 5")
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=DIR",
                        help="a checkout to run; give one or two")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")
    if len(args.tree) > 2 or any("=" not in tree for tree in args.tree):
        parser.error("give one or two --tree LABEL=DIR")
    trees = [(label, Path(path).resolve()) for label, path in
             (tree.split("=", 1) for tree in args.tree)]

    spec = json.loads((trees[0][1] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {label: [] for label, _ in trees}
    for i in range(args.runs):
        for label, tree in trees if i % 2 == 0 else trees[::-1]:
            result = _run(tree, args.workload, args.seed, args.seconds)
            if args.workload == "cli-cold":
                result["interpreter_floor_ms"] = _interpreter_floor_ms(tree)
            results[label].append(result)
            shown = {name: round(result["metrics"][name]["value"], 6) for name in metrics}
            if "interpreter_floor_ms" in result:
                shown["python3 -c pass ms"] = round(result["interpreter_floor_ms"], 3)
            print(f"run {i + 1}/{args.runs} {label}: {json.dumps(shown)}", flush=True)

    for label, tree in trees:
        runs = results[label]
        commit = _git(tree, "rev-parse", "HEAD")
        record = {
            "label": label,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "runs": len(runs),
            "commit": commit,
            "src_differs_from_commit": None if commit is None else
                bool(_git(tree, "status", "--porcelain", "--", "src")),
            "src_sha256": _src_sha256(tree),
            "python": platform.python_version(),
            "host": platform.node(),
            "nproc": os.cpu_count(),
            "pythondontwritebytecode": os.environ.get("PYTHONDONTWRITEBYTECODE"),
            "order": "alternating, with the first tree alternating too" if len(trees) == 2
                     else "one tree",
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "correct": all(r["correct"] for r in runs),
            "metrics": {
                name: {"unit": m["unit"], "better": m["better"],
                       **_summary([r["metrics"][name]["value"] for r in runs])}
                for name, m in metrics.items()
            },
        }
        if args.workload == "cli-cold":
            record["interpreter_floor_ms"] = {
                "command": "python3 -c pass", "spawns_per_run": FLOOR_SPAWNS,
                **_summary([r["interpreter_floor_ms"] for r in runs]),
            }
        out = args.out_dir / f"BENCH_{label}-{args.workload}.json"
        out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"wrote {out}")

    if len(trees) == 2:
        (first, _), (second, _) = trees
        for name, m in metrics.items():
            a = [r["metrics"][name]["value"] for r in results[first]]
            b = [r["metrics"][name]["value"] for r in results[second]]
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
            print(f"{name}: {first} median {statistics.median(a):.6g}, {second} median "
                  f"{statistics.median(b):.6g}; {second} better in {wins} of {len(a)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
