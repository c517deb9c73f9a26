"""Per-kind op times of series-long on one or two checkouts, from fresh-process passes.

    python3 tools/bench_kinds.py --seed 7101 --passes 40 \\
        --tree base=../base-checkout --tree change=.

Each --tree is LABEL=DIR, a checkout that holds perfbench/ and src/.  A
pass is `python3 perfbench/worker.py root=DIR workload=series-long seed=S
cycles=1` run from the tree's root with its src/ on PYTHONPATH, as
perfbench/run.py runs a timed pass of series-long; with two trees the
passes alternate, and so does the tree that goes first in a round.  Each
op's time is the least of its times over a tree's passes, as in run.py.
The ops are mapped to their kinds by rebuilding the same seeded stream from
the first tree's perfbench/workloads.py, so both trees must run the same op
list.  It prints, per kind and tree, the op count and the sum of the ops'
least times in µs, then each tree's total per pass and its ops/s (ops over
that total).  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

WORKLOAD = "series-long"


def _pass(tree: Path, seed: int, tiny: bool) -> list[float]:
    """The op times, in seconds, of one worker pass of tree."""
    env = dict(os.environ)
    env.pop("HARMLOG_THRESHOLD", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(tree / "src"), env.get("PYTHONPATH")) if p)
    argv = [sys.executable, str(tree / "perfbench" / "worker.py"), f"root={tree}",
            f"workload={WORKLOAD}", f"seed={seed}", "cycles=1", f"tiny={int(tiny)}"]
    done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"error: worker pass in {tree} exited {done.returncode}:\n"
                         f"{done.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if result["failed"]:
        raise SystemExit(f"error: {result['failed']} ops failed in {tree}: {result['failures']}")
    return result["times"]


def op_kinds(tree: Path, seed: int, tiny: bool) -> list[str]:
    """The kinds of the ops of one pass, from tree's seeded stream, in pass order."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads

    return [kind for kind, _, _ in next(workloads.STREAMS[WORKLOAD](random.Random(seed), tiny))]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--passes", type=int, default=40, help="passes per tree")
    parser.add_argument("--tiny", action="store_true", help="the stream's tiny sizes")
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=DIR",
                        help="a checkout to run; give one or two")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    if len(args.tree) > 2 or any("=" not in tree for tree in args.tree):
        parser.error("give one or two --tree LABEL=DIR")
    trees = [(label, Path(path).resolve()) for label, path in
             (tree.split("=", 1) for tree in args.tree)]
    if len({label for label, _ in trees}) != len(trees):
        parser.error("give the two trees different labels")

    least: dict[str, list[float]] = {}
    for i in range(args.passes):
        for label, tree in trees if i % 2 == 0 else trees[::-1]:
            times = _pass(tree, args.seed, args.tiny)
            least[label] = list(map(min, least.get(label, times), times))

    kinds = op_kinds(trees[0][1], args.seed, args.tiny)
    for label, times in least.items():
        if len(times) != len(kinds):
            raise SystemExit(f"error: {label} ran {len(times)} ops, the stream has {len(kinds)}")
    labels = [label for label, _ in trees]
    print(f"{WORKLOAD}, seed {args.seed}: least of {args.passes} passes per tree, µs per pass")
    print(f"{'kind':<24}{'ops':>5}" + "".join(f"{label:>14}" for label in labels))
    for kind in sorted(set(kinds)):
        sums = [sum(t for k, t in zip(kinds, least[label]) if k == kind) for label in labels]
        print(f"{kind:<24}{kinds.count(kind):>5}" + "".join(f"{s * 1e6:>14.1f}" for s in sums))
    totals = [sum(least[label]) for label in labels]
    print(f"{'total':<24}{len(kinds):>5}" + "".join(f"{t * 1e6:>14.1f}" for t in totals))
    print(f"{'ops/s':<29}" + "".join(f"{len(kinds) / t:>14.0f}" for t in totals))
    if len(trees) == 2:
        print(f"{labels[1]} against {labels[0]}: {totals[0] / totals[1] - 1:+.1%} ops/s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
