"""harmlog benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the repository root; it benchmarks the harmlog sources under
./src.  The workloads (see BENCHMARK.json for why each was chosen):

  series-long    long odd-harmonic windows summed in-process
                 (nr_empirical_limit, ln_integer FULL, ln_factorial_series,
                 nr_direct_series, sweep_ln_rational, the nr-gamma table);
  short-queries  short public calls in-process, dominated by the oracle's
                 exact factorial; every second factorial op repeats an n
                 already used in the pass, so lru_cache hits are part of it;
  cli-cold       one `python -m harmlog.cli ...` process per op.

BENCHMARK.json lists series-long and cli-cold.  short-queries runs the same
way and is self-checked, but is left out: its latencies of a few
microseconds are the most sensitive to the shared host's slow phases
(latency_p50_ms varied by 0.18 of its median, IQR over five seeds, on a
2-vCPU machine), and a third workload at 60 s per run would not fit the
time the whole benchmark may take.

Every workload is a closed loop with one client.  A timed run (--trace 0)
builds one list of at least 100 seeded ops and runs it in passes, each in a
fresh process, so imports and the oracle's unbounded lru_cache start cold in
every pass and every pass sees the same ops in the same order.  Passes are
repeated until T seconds are used (at least MIN_PASSES of them), and pass k
is pinned to the k-th of up to PIN_CPUS CPUs the benchmark may use, in turn.
An op's latency is the least of its times over the passes.  The reason: on
a shared host each CPU has phases, from seconds to minutes long, in which
pure-Python code runs up to ~1.6x slower, and the phases of the two CPUs
differ; the least over passes some seconds apart and on both CPUs leaves
them out, where a mean or a single pass would not.  From these latencies
come ops_per_s (ops over the sum of their latencies), latency_p50_ms and
latency_p90_ms.  setup_s, the time to import harmlog and build the seeded
inputs in a fresh interpreter, is taken the same way: a round times one
interpreter on each CPU and keeps the least, and setup_s is the median over
SETUP_ROUNDS rounds, spread between the passes.  peak_rss_mb is the largest
ru_maxrss of a pass process (for cli-cold, of a CLI child).  With --trace 1
it prints the per-layer metrics of a traced pass over a fixed number of
ops, so every count repeats exactly for a seed.

Every op is checked against references that do not come from harmlog's
oracle; `attempted` and `failed` in the result line count the ops of all
passes, so failed/attempted is the run's error rate.  The known defects
(inputs that should be rejected with a typed error but are not) are probed
after each pass and printed on the line before the result; they do not
count as failed ops.  A result file with the same content plus the run's
metadata is written to perfbench/out/.  A claim of a gain should also hold
on a seed that was not used while the change was written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("series-long", "short-queries", "cli-cold")
# Cycles of the seeded stream in one timed pass.  Cycles hold 100, 640 and 19
# ops, so a pass has at least 100 ops and p90 has 10 or more beyond it.
PASS_CYCLES = {"series-long": 1, "short-queries": 20, "cli-cold": 6}
MIN_PASSES = 2
# Passes and setup rounds rotate over at most this many of the CPUs the
# benchmark may use, so a run's length does not grow with the machine.
PIN_CPUS = 2
# Rounds of fresh interpreters timed for setup_s, one per CPU in a round,
# after one interpreter that compiles bytecode.
SETUP_ROUNDS = 12
# Cycles of the traced passes; in-process replays of cli-cold are cheap, so
# they replay more argv than the subprocess pass runs.
TRACE_CYCLES = {"series-long": 1, "short-queries": 38, "cli-cold": 2}
REPLAY_CYCLES = 10
STARTUP_SAMPLES = 5
IMPORT_MODULES = ("harmlog", "harmlog.errors", "harmlog.harmonic", "harmlog.oracle",
                  "harmlog.factorial", "harmlog.constants", "harmlog.cnr",
                  "harmlog.tables", "harmlog.cli")
# The whole run must end within this many seconds.
BUDGET_S = 170.0


class BenchError(Exception):
    pass


class Session:
    def __init__(self, root: Path, workload: str, seed: int, tiny: bool):
        self.root, self.workload, self.seed, self.tiny = root, workload, seed, tiny
        self.deadline = time.monotonic() + BUDGET_S
        env = dict(os.environ)
        env.pop("HARMLOG_THRESHOLD", None)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        self.env = env
        self.cpus = sorted(os.sched_getaffinity(0))[:PIN_CPUS]
        (HERE / "out").mkdir(exist_ok=True)

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 1.0:
            raise BenchError("time budget exhausted")
        return left

    def run(self, argv, cpu=None) -> subprocess.CompletedProcess:
        """Run argv to completion, pinned to cpu if given; on timeout kill
        its whole process group."""
        timeout = self._remaining()
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        proc = subprocess.Popen(
            argv, cwd=self.root, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True, preexec_fn=pin,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{argv[1:3]} did not finish within the time budget") from None
        return subprocess.CompletedProcess(argv, proc.returncode, out, err)

    def worker(self, cpu=None, **opts) -> dict:
        opts = {"root": self.root, "workload": self.workload, "seed": self.seed,
                "tiny": int(self.tiny), **opts}
        argv = [sys.executable, str(HERE / "worker.py")] + [f"{k}={v}" for k, v in opts.items()]
        proc = self.run(argv, cpu)
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def wall(self, argv) -> float:
        began = time.perf_counter()
        proc = self.run(argv)
        elapsed = time.perf_counter() - began
        if proc.returncode != 0:
            raise BenchError(f"{argv} failed: {proc.stderr.strip()[-2000:]}")
        return elapsed

    def startup_metrics(self) -> dict:
        """Interpreter floor and the CLI's import profile (-X importtime)."""
        interpreter = [self.wall([sys.executable, "-c", "pass"]) for _ in range(STARTUP_SAMPLES)]
        profiles = []
        for _ in range(STARTUP_SAMPLES):
            proc = self.run([sys.executable, "-X", "importtime", "-c", "import harmlog.cli"])
            if proc.returncode != 0:
                raise BenchError(f"import of harmlog.cli failed: {proc.stderr.strip()[-2000:]}")
            profiles.append(_import_profile(proc.stderr))

        def median_us(module, column):
            return statistics.median(p.get(module, (0, 0))[column] for p in profiles) / 1e6

        metrics = {
            "cli.interpreter_s": statistics.median(interpreter),
            "cli.import_s": median_us("harmlog.cli", 1),
        }
        for module in IMPORT_MODULES:
            short = "harmlog" if module == "harmlog" else module.rpartition(".")[2]
            metrics[f"cli.import_self_s.{short}"] = median_us(module, 0)
        return metrics


def _import_profile(stderr: str) -> dict:
    """module -> (self us, cumulative us) from -X importtime output."""
    profile = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, cumulative, module = line[len("import time:"):].split("|")
        profile[module.strip()] = (int(own), int(cumulative))
    return profile


def _commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _latencies(passes: list[dict]) -> list[float]:
    """Each op's least time over the passes (all passes run the same ops)."""
    return [min(op) for op in zip(*(p["times"] for p in passes))]


def _p90(times: list[float]) -> float:
    return sorted(times)[math.ceil(0.9 * len(times)) - 1]


def _rate(times: list[float]) -> float:
    return len(times) / sum(times)


def timed_run(session: Session, seconds: int) -> tuple[dict, list[dict]]:
    cycles = 1 if session.tiny else PASS_CYCLES[session.workload]
    cpus = session.cpus
    session.worker(setup_only=1)  # compiles bytecode; not a sample

    def setup_round():
        return min(session.worker(cpu, setup_only=1)["setup_s"] for cpu in cpus)

    setup, passes = [], []
    began = time.monotonic()
    pass_s = 0.0
    while True:
        # setup rounds are spread over the run like the passes
        elapsed = time.monotonic() - began
        while len(setup) < SETUP_ROUNDS * min(1.0, elapsed / seconds):
            setup.append(setup_round())
        elapsed = time.monotonic() - began
        if len(passes) >= MIN_PASSES and elapsed + pass_s > seconds:
            break
        passes.append(session.worker(cpus[len(passes) % len(cpus)], cycles=cycles))
        pass_s = time.monotonic() - began - elapsed
    while len(setup) < SETUP_ROUNDS:
        setup.append(setup_round())
    times = _latencies(passes)
    metrics = {
        "ops_per_s": _rate(times),
        "latency_p50_ms": statistics.median(times) * 1e3,
        "latency_p90_ms": _p90(times) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    return metrics, passes


def traced_run(session: Session) -> tuple[dict, list[dict]]:
    cycles = 1 if session.tiny else TRACE_CYCLES[session.workload]
    untraced = session.worker(cycles=cycles)
    passes = [untraced]
    spans = HERE / "out" / f"spans-{session.workload}-seed{session.seed}.jsonl"
    if session.workload == "cli-cold":
        # The traced pass replays the argv through cli.main in-process, so
        # its overhead is measured against an untraced in-process replay.
        replays = 2 if session.tiny else REPLAY_CYCLES
        base = session.worker(cycles=replays, inprocess=1)
        traced = session.worker(cycles=replays, inprocess=1, trace=1, spans=spans)
        passes += [base, traced]
    else:
        base = untraced
        traced = session.worker(cycles=cycles, trace=1, spans=spans)
        passes.append(traced)
    metrics = dict(traced["layers"])
    startup = session.startup_metrics()
    metrics.update(startup)
    # Interpreter floor plus import over the median CLI op; the three are
    # timed in separate processes, so on a noisy machine it can exceed 1.
    metrics["cli.startup_share"] = (
        (startup["cli.interpreter_s"] + startup["cli.import_s"])
        / statistics.median(untraced["times"])
        if session.workload == "cli-cold" else 0.0
    )
    metrics["trace.overhead_ratio"] = _rate(traced["times"]) / _rate(base["times"])
    attempted = sum(len(p["times"]) for p in passes)
    metrics["check.error_rate"] = sum(p["failed"] for p in passes) / attempted
    metrics["check.known_defect_failures"] = sum(not p["ok"] for p in traced["probes"])
    return metrics, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="shrink input sizes (self-check only; not a benchmark)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    spec_file = root / "BENCHMARK.json"
    if not (root / "src" / "harmlog" / "__init__.py").is_file() or not spec_file.is_file():
        print("error: run from the repository root; src/harmlog and BENCHMARK.json "
              "are needed", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    session = Session(root, args.workload, args.seed, args.tiny)
    try:
        metrics, passes = traced_run(session) if args.trace else timed_run(session, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(wanted):
        print(f"error: metrics {sorted(set(metrics) ^ set(wanted))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    attempted = sum(len(p["times"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    probes = passes[-1]["probes"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "samples": [len(p["times"]) for p in passes],
        "commit": _commit(root),
        "python": platform.python_version(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
    }
    print("meta " + json.dumps(meta))
    for p in passes:
        for failure in p["failures"]:
            print("failed op " + json.dumps(failure))
    known = [p for p in probes if not p["ok"]]
    print(f"known defects still failing: {len(known)} of {len(probes)} "
          + json.dumps([p["input"] for p in known]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": wanted[name]} for name in wanted},
    }
    out_file = HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"meta": meta, "known_defects": probes, "result": result,
                                    "failures": [f for p in passes for f in p["failures"]]},
                                   indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
