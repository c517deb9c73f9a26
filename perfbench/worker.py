"""One pass over a workload's seeded ops in a fresh interpreter; run.py starts it.

    python perfbench/worker.py root=DIR workload=NAME seed=N cycles=K
        [trace=0|1] [inprocess=0|1] [tiny=0|1] [setup_only=0|1] [spans=FILE]

Runs the first K cycles of the seeded stream once, times each op, checks
every output right after its timer stops, probes the known defects after the
timed region, and prints one JSON line.  The same seed gives the same ops in
the same order, so run.py can time one op list over several passes.  Options
are key=value words rather than argparse, and only sys and time are loaded
before harmlog, so setup_s sees harmlog's whole import graph and nothing of
the benchmark's.
"""

import sys
import time

# An in-process op slower than this counts as failed (it cannot be cut off).
OP_TIMEOUT_S = 60.0
CLI_TIMEOUT_S = 60.0
MAX_FAILURES_SHOWN = 10


def subprocess_runner(root):
    import os
    import subprocess

    env = dict(os.environ)

    def run(argv, extra_env=None):
        proc = subprocess.run(
            [sys.executable, "-m", "harmlog.cli", *argv],
            cwd=root,
            env={**env, **(extra_env or {})},
            capture_output=True,
            timeout=CLI_TIMEOUT_S,
        )
        return (
            proc.returncode,
            proc.stdout.decode("utf-8", "replace"),
            proc.stderr.decode("utf-8", "replace"),
        )

    return run


def replay_runner():
    """Same (code, stdout, stderr) as a CLI process, from cli.main in-process."""
    import contextlib
    import io
    import os
    import traceback

    import harmlog.cli as cli

    def run(argv, extra_env=None):
        extra_env = extra_env or {}
        saved = {key: os.environ.get(key) for key in extra_env}
        os.environ.update(extra_env)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # the interpreter would print it and exit 1
                    traceback.print_exc()
                    code = 1
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        return code, out.getvalue(), err.getvalue()

    return run


def main(argv):
    opts = dict(arg.split("=", 1) for arg in argv)
    start = time.perf_counter()
    import harmlog

    import_s = time.perf_counter() - start

    import json
    import os
    import random
    import resource
    from pathlib import Path

    import tracing
    import workloads

    root = Path(opts["root"]).resolve()
    if Path(harmlog.__file__).resolve().parent != root / "src" / "harmlog":
        raise SystemExit(f"harmlog imported from {harmlog.__file__}, not from {root / 'src'}")
    workload = opts["workload"]
    tiny = opts.get("tiny") == "1"
    inprocess = opts.get("inprocess") == "1"
    os.environ.pop("HARMLOG_THRESHOLD", None)
    runner = None
    if workload == "cli-cold":
        runner = replay_runner() if inprocess else subprocess_runner(root)
    factorial_cache = harmlog.oracle.factorial_exact_ln
    tracer = None
    if opts.get("trace") == "1":
        tracer = tracing.Tracer()
        tracer.install()

    build_start = time.perf_counter()
    cycles = workloads.STREAMS[workload](random.Random(int(opts["seed"])), tiny, runner)
    ops = next(cycles)
    setup_s = import_s + time.perf_counter() - build_start
    if opts.get("setup_only") == "1":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    for _ in range(int(opts["cycles"]) - 1):
        ops += next(cycles)

    clock = time.perf_counter
    times, failures = [], []
    failed = 0
    for index, (kind, fn, args) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        result = error = None
        began = clock()
        try:
            result = fn(*args)
        except Exception as exc:  # judged by the check: some ops must raise
            error = exc
        elapsed = clock() - began
        times.append(elapsed)
        if tracer is not None:
            tracer.paused = True
        try:
            reason = workloads.check(kind, args, result, error)
        except Exception as exc:  # output the check cannot even read
            reason = f"unreadable output: {exc!r}"
        if tracer is not None:
            tracer.paused = False
        if reason is None and elapsed > OP_TIMEOUT_S:
            reason = f"took {elapsed:.1f} s"
        if reason is not None:
            failed += 1
            if len(failures) < MAX_FAILURES_SHOWN:
                failures.append({"kind": kind, "args": repr(args)[:200], "reason": reason})

    who = resource.RUSAGE_CHILDREN if workload == "cli-cold" and not inprocess else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.paused = True
    probes = workloads.probe_known_defects(runner)

    out = {
        "setup_s": setup_s,
        "times": times,
        "peak_rss_mb": peak_rss_mb,
        "failed": failed,
        "failures": failures,
        "probes": probes,
    }
    if tracer is not None:
        bigint_max = getattr(harmlog.oracle, "_BIGINT_FACTORIAL_MAX", 20_000)
        out["layers"] = tracer.layer_metrics(
            sum(times), factorial_cache.cache_info(), bigint_max, workloads.table_cells
        )
        if "spans" in opts:
            tracer.write(opts["spans"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
