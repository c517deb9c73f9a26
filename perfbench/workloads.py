"""Seeded inputs, per-op correctness checks and known-defect probes.

Each workload is an endless stream of ops ``(kind, fn, args)`` drawn from a
``random.Random`` seeded by the benchmark's ``--seed``; harmlog only ever
sees the generated arguments.  Streams are built in cycles of fixed
composition, so the mix of op kinds (and with it the latency percentiles)
does not drift between seeds, and sizes are drawn by jittered
stratification, so the total work of a pass barely depends on the seed.

Checks compare against references that do not come from harmlog's oracle:
``math.log``, ``math.lgamma``, exact integer or ``Fraction`` arithmetic, and
closed forms derived here from gamma, pi, zeta(3) and ln 2.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

from harmlog import cnr, constants, errors, factorial, harmonic, oracle, tables
from harmlog.tables import TableId

# Captured before any tracing wrapper is installed, so that checks do not
# show up as spans.
_reference_table = tables.generate

GAMMA = 0.5772156649015329
ZETA3 = 1.2020569031595942
LN2 = math.log(2.0)
# lim ln n - 2 S(2, n), with S(a, b) = sum 1/(2k-1); the finite-n value is
# NR_LIMIT - 1/(24 n^2) + O(n^-4) (digamma asymptotics).
NR_LIMIT = 2.0 - 2.0 * LN2 - GAMMA
# 2 C(2, inf), C(a, b) = sum 1/(k^3 (2k-1)^2), summed by partial fractions.
NR_SERIES = 2.0 * (-1.0 - 24.0 * LN2 + 5.0 * math.pi**2 / 3.0 + ZETA3)
# The paper's closed form of the integral variant.
NR_INTEGRAL = -24.0 * LN2 + 16.67560703904
# lim ln_factorial_series(n) - ln n!  (Stirling plus the partial-fraction sum
# of 1/(x^3 (2x-1))); the finite-n gap is this minus 1/(12 n) + O(n^-3).
LNFACT_OFFSET = 2.0 - 0.5 * math.log(2.0 * math.pi) - 8.0 * LN2 + math.pi**2 / 3.0 + ZETA3
# The raw factorial's log error grows monotonically towards this limit.
RAW_LIMIT = 0.93260504353 - 0.5 * math.log(2.0 * math.pi)
# Accuracy the acceptance suite asserts: ln_auto under 1e-3 %, the
# corrected factorial within 0.55 %.
LN_AUTO_REL = 1e-5
CORRECTED_REL = 0.0055

TABLE_FORMATS = ("csv", "markdown", "json")
PAPER_TABLES = tuple(t for t in TableId if t.value.startswith("2."))
RECORD_FORMATS = ("plain", "json", "csv")

# -- streams ---------------------------------------------------------------
# A stream yields cycles (lists of ops); a pass runs whole cycles, so every
# pass draws its sizes from whole stratified sets.

# series-long: n log-uniform over each kind's range.  A kind with k ops per
# cycle draws each of k strata exactly once per cycle.  nr_empirical_limit
# (up to 10**7 terms) and the nr-gamma table (10**6 terms) are few, so that a
# cycle of 100 ops takes ~7 s and a timed run holds several passes.  n sits
# near the middle of its stratum (jitter of +-SERIES_JITTER/2 of a stratum):
# ops here span two decades of cost, so wider jitter would move the latency
# percentiles between seeds.
SERIES_KINDS = {  # kind: (lo, hi, ops per cycle)
    "nr_empirical_limit": (10**5, 10**7, 5),
    "ln_integer_full": (10**4, 10**6, 20),
    "ln_factorial_series": (10**4, 10**6, 20),
    "nr_direct_series": (10**4, 10**6, 20),
    "sweep_ln_rational": (10**3, 10**5, 30),  # largest multiplier of the grid
}
NR_GAMMA_TABLES = 5
SERIES_JITTER = 0.2
SWEEP_PAIRS = ((1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3))
TINY_SCALE = 100

# short-queries: blocks of 40 ops of fixed composition; a cycle is 16 blocks,
# whose 64 fresh factorial n cover the 64 log-uniform strata once.
FACTORIAL_N_MAX = 10**5
FACTORIAL_STRATA = 64


def _log_uniform(lo: float, hi: float, u: float) -> int:
    return round(lo * (hi / lo) ** u)


def _series_op(kind: str, n: int, rng):
    if kind == "nr_empirical_limit":
        return (kind, constants.nr_empirical_limit, (n,))
    if kind == "ln_integer_full":
        return (kind, harmonic.ln_integer, (n, harmonic.LogVariant.FULL))
    if kind == "ln_factorial_series":
        return (kind, factorial.ln_factorial_series, (n,))
    if kind == "nr_direct_series":
        return (kind, constants.nr_direct_series, (n,))
    p, q = rng.choice(SWEEP_PAIRS)
    grid = sorted({n >> j for j in range(6)} - {0})
    return (kind, tables.sweep_ln_rational, (p, q, grid))


def series_long(rng, tiny: bool, runner=None):
    scale = TINY_SCALE if tiny else 1
    while True:
        cycle = []
        for kind, (lo, hi, k) in SERIES_KINDS.items():
            for stratum in range(k):
                u = (stratum + 0.5 + SERIES_JITTER * (rng.random() - 0.5)) / k
                cycle.append(_series_op(kind, max(2, _log_uniform(lo / scale, hi / scale, u)), rng))
        for i in range(NR_GAMMA_TABLES):
            fmt = TABLE_FORMATS[i % len(TABLE_FORMATS)]
            cycle.append(("nr_gamma_table", tables.generate, (TableId.NR_GAMMA, fmt)))
        rng.shuffle(cycle)
        yield cycle


def _factorial_pair(estimate, exact_ln, n):
    return estimate(n), exact_ln(n)


def short_queries(rng, tiny: bool, runner=None):
    n_max = FACTORIAL_N_MAX // TINY_SCALE if tiny else FACTORIAL_N_MAX
    # Every second factorial op repeats an n already used in this run, so at
    # least half of the oracle's factorial lookups are lru_cache hits.
    seen: list[int] = []
    invalid = 0
    while True:
        fresh = iter(rng.sample(range(FACTORIAL_STRATA), FACTORIAL_STRATA))
        cycle = []
        for _ in range(FACTORIAL_STRATA // 4):
            ops = []
            for _ in range(8):
                ops.append(("ln_auto", harmonic.ln_auto, (rng.randint(1, 12), rng.randint(1, 12))))
            for _ in range(8):
                ops.append(("ln_ref", oracle.ln_ref, (10.0 ** rng.uniform(-6.0, 6.0),)))
            for tag in cnr.CnrTag:
                x = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(math.log10(1.5), 3.0)
                m = rng.randint(1, 200) if tag is cnr.CnrTag.EXP_SCALED else None
                ops.append(("cnr", cnr.evaluate, (x, cnr.CnrMethod(tag, m))))
            for k in range(8):
                if k % 2 == 0:
                    u = (next(fresh) + rng.random()) / FACTORIAL_STRATA
                    n = max(2, _log_uniform(2, n_max, u))
                    seen.append(n)
                else:
                    n = rng.choice(seen)
                kind, est = (
                    ("factorial_corrected", factorial.factorial_corrected)
                    if k < 4
                    else ("factorial_raw", factorial.factorial_raw)
                )
                ops.append((kind, _factorial_pair, (est, oracle.factorial_exact_ln, n)))
            for _ in range(4):
                n = rng.randint(1, 200)
                ops.append(("ln_factorial_series", factorial.ln_factorial_series, (n,)))
            for _ in range(3):
                ops.append(("nbb", cnr.nbb_decompose, (rng.randint(2, 60),)))
            for _ in range(2):
                table = (rng.choice(PAPER_TABLES), rng.choice(TABLE_FORMATS))
                ops.append(("table", tables.generate, table))
            for _ in range(2):
                ops.append(_invalid_op(invalid % 4, rng))
                invalid += 1
            rng.shuffle(ops)
            cycle += ops
        yield cycle


def _invalid_op(which: int, rng):
    """Inputs outside the domain; each must raise the named HarmlogError."""
    p, q = rng.randint(1, 12), rng.randint(1, 12)
    if which == 0:
        args = (0, q) if rng.random() < 0.5 else (p, 0)
        return ("invalid_zero", harmonic.ln_auto, args)
    if which == 1:
        args = (-p, q) if rng.random() < 0.5 else (p, -q)
        return ("invalid_negative", harmonic.ln_auto, args)
    if which == 2:
        est = rng.choice((factorial.factorial_corrected, factorial.factorial_raw))
        return ("invalid_small_n", est, (rng.choice((-3, 0, 1)),))
    tag = rng.choice((cnr.CnrTag.LEMMA11, cnr.CnrTag.POW2, cnr.CnrTag.EXP_FULL))
    return ("invalid_x1", cnr.evaluate, (1.0, cnr.CnrMethod(tag)))


def _record_format(rng) -> list[str]:
    fmt = rng.choice(RECORD_FORMATS)
    return [] if fmt == "plain" else ["--format", fmt]


def cli_cold(rng, tiny: bool, runner=None):
    """Cycles of 19 CLI invocations; `runner(argv)` returns (code, stdout, stderr)."""
    while True:
        argvs = []
        for fixed in (False, False, False, True, True, True):
            argv = ["ln", str(rng.randint(1, 12)), str(rng.randint(1, 12))]
            if fixed:
                argv += ["--m", str(rng.randint(1, 400))]
            if rng.random() < 0.5:
                argv += ["--variant", "full"]
            argvs.append(("cli_ln", argv + _record_format(rng)))
        for method in ("raw", "corrected", "series"):
            argv = ["factorial", str(rng.randint(2, 2000)), "--method", method]
            argvs.append(("cli_factorial", argv + _record_format(rng)))
        for nr in ("integral", "series"):
            argvs.append(("cli_gamma", ["gamma", "--nr", nr] + _record_format(rng)))
        for _ in range(2):
            method = rng.choice(("lemma11", "pow2", "exp", "scaled", "large"))
            argv = ["cnr", "%.4g" % rng.uniform(1.5, 30.0), "--method", method]
            if method == "scaled":
                argv += ["--m", str(rng.randint(1, 200))]
            argvs.append(("cli_cnr", argv + _record_format(rng)))
        argvs.append(("cli_nbb", ["nbb", str(rng.randint(2, 30))] + _record_format(rng)))
        for _ in range(3):
            table = rng.choice(PAPER_TABLES).value
            argvs.append(("cli_table", ["table", table, "--format", rng.choice(TABLE_FORMATS)]))
        argvs.append(("cli_invalid", ["ln", "0", "3"]))
        argvs.append(("cli_invalid", ["factorial", "1"]))
        rng.shuffle(argvs)
        yield [(kind, runner, (argv,)) for kind, argv in argvs]


STREAMS = {"series-long": series_long, "short-queries": short_queries, "cli-cold": cli_cold}

# -- checks ------------------------------------------------------------------


def _close(value, reference, tol) -> str | None:
    if not isinstance(value, float) or not math.isfinite(value):
        return f"non-finite or non-float output {value!r}"
    if abs(value - reference) > tol:
        return f"{value!r} differs from reference {reference!r} by more than {tol:.3g}"
    return None


def _truncation_bound(p: int, q: int, m: int) -> float:
    """|ln(p/q) - 2 S(mq+1, mp)| <= (1/24)|1/(m min)^2 - 1/(m max)^2| (+1 % slack)."""
    lo, hi = m * min(p, q), m * max(p, q)
    return 1.01 * (1.0 / 24.0) * (1.0 / lo**2 - 1.0 / hi**2) + 1e-13


def table_cells(text: str, fmt: str) -> tuple[int, int, int]:
    """(matched, erratum, unexpected) rows of a serialized table report."""
    counts = [0, 0, 0]
    for row in parse_table(text, fmt):
        if row["erratum"]:
            counts[1] += 1
        elif row["match"] == "true":
            counts[0] += 1
        elif row["match"] == "false":
            counts[2] += 1
    return tuple(counts)


def parse_table(text: str, fmt: str) -> list[dict]:
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()
    header = lines[0][2:-2].split(" | ")
    return [dict(zip(header, line[2:-2].split(" | "))) for line in lines[2:]]


def _check_table_text(text, fmt) -> str | None:
    if not isinstance(text, str) or not text:
        return f"empty table output {text!r}"
    if table_cells(text, fmt)[2]:
        return "table has cells that match neither the print nor an erratum"
    return None


def _check_nr_gamma(text, fmt) -> str | None:
    reason = _check_table_text(text, fmt)
    if reason:
        return reason
    expected = {
        "integral": 2.0 - 2.0 * LN2 - NR_INTEGRAL,
        "series": 2.0 - 2.0 * LN2 - NR_SERIES,
        "limit": GAMMA,
    }
    for row in parse_table(text, fmt):
        reason = _close(float(row["calculated"]), expected[row["variant"]], 1e-11)
        if reason:
            return f"{row['variant']}: {reason}"
    return None


def _check_sweep(args, report) -> str | None:
    p, q, grid = args
    if [row.inputs["m"] for row in report.rows] != grid:
        return "sweep rows do not follow the multiplier grid"
    exact = math.log(p / q)
    for row in report.rows:
        reason = _close(row.calculated, exact, _truncation_bound(p, q, row.inputs["m"]))
        if reason:
            return f"m={row.inputs['m']}: {reason}"
    return None


def _cnr_formula(x: float, method) -> tuple[float, float]:
    tag = method.tag
    if tag is cnr.CnrTag.LEMMA11:
        return (x - 1.0) * 2.0 ** (1.0 / (x - 1.0)), x
    if tag is cnr.CnrTag.POW2:
        return 2.0 ** (3.0 / (2.0 * x - 1.0)), x / (x - 1.0)
    if tag is cnr.CnrTag.EXP_FULL:
        return (x - 1.0) * math.exp(2.0 / (2.0 * x - 1.0 - 1.0 / x**3)), x
    if tag is cnr.CnrTag.EXP_SCALED:
        m = method.m
        mx = m * x
        return (x - 1.0 / m) * math.exp(2.0 / (2.0 * mx - 1.0 - 1.0 / mx**3)), x
    return (x - 1.0) * math.exp(2.0 / (2.0 * x - 1.0)), x


def _check_cnr_values(x, method, value, reference, pct) -> str | None:
    want, want_ref = _cnr_formula(x, method)
    reason = _close(value, want, 1e-9 * abs(want) + 1e-300)
    if reason:
        return f"{method.tag.value} value: {reason}"
    if reference != want_ref:
        return f"{method.tag.value} reference {reference!r} != {want_ref!r}"
    return _close(pct, (value - reference) / reference * 100.0, 1e-9 * max(1.0, abs(pct)))


def _check_factorial(kind, n, est_ln, exact_ln, slack=0.0) -> str | None:
    ref = math.lgamma(n + 1)
    if exact_ln is not None:
        reason = _close(exact_ln, ref, 1e-12 * max(1.0, ref) + slack)
        if reason:
            return f"exact ln {n}!: {reason}"
    if kind.endswith("corrected"):
        if not math.isfinite(est_ln) or abs(math.expm1(est_ln - ref)) > CORRECTED_REL:
            return f"corrected ln {n}! = {est_ln!r} is not within 0.55 % of {ref!r}"
        return None
    if kind.endswith("raw"):
        return _close(est_ln, ref, RAW_LIMIT + 1e-9 + slack)
    want = ref + LNFACT_OFFSET - 1.0 / (12 * n)
    return _close(est_ln, want, 0.2 / n**3 + 8.0 * math.ulp(ref) + slack)


def _expect_error(error, kind_of_error) -> str | None:
    if isinstance(error, kind_of_error):
        return None
    return f"expected {kind_of_error.__name__}, got {error!r}"


INVALID_ERRORS = {
    "invalid_zero": errors.ZeroOrInfiniteError,
    "invalid_negative": errors.NegativeInputError,
    "invalid_small_n": errors.DomainError,
    "invalid_x1": errors.DomainError,
}


def check(kind: str, args: tuple, result, error) -> str | None:
    """None if the op's output is right, else the reason it is wrong."""
    if kind in INVALID_ERRORS:
        return _expect_error(error, INVALID_ERRORS[kind])
    if kind.startswith("cli_"):
        return _check_cli(kind, args[0], result)
    if error is not None:
        return f"raised {error!r}"
    if kind == "nr_empirical_limit":
        (n,) = args
        return _close(result, NR_LIMIT - 1.0 / (24.0 * n * n), 1e-11 + 1.0 / n**4)
    if kind == "ln_integer_full":
        n = args[0]
        want = math.log(n) - NR_LIMIT + NR_SERIES + 1.0 / (24.0 * n * n)
        return _close(result, want, 1e-11 + 1.0 / n**4)
    if kind == "ln_factorial_series":
        (n,) = args
        if n == 1:
            return None if result == 0.0 else f"ln_factorial_series(1) = {result!r}"
        return _check_factorial(kind, n, result, None)
    if kind == "nr_direct_series":
        (terms,) = args
        return _close(result, NR_SERIES, 1e-12 + 1.0 / terms**4)
    if kind == "sweep_ln_rational":
        return _check_sweep(args, result)
    if kind == "nr_gamma_table":
        return _check_nr_gamma(result, args[1])
    if kind == "table":
        return _check_table_text(result, args[1])
    if kind == "ln_auto":
        p, q = args
        m, value = result
        if m < 1:
            return f"multiplier {m} < 1"
        if p == q:
            return None if value == 0.0 else f"ln_auto({p}, {q}) = {value!r}"
        exact = math.log(p / q)
        return _close(value, exact, LN_AUTO_REL * abs(exact))
    if kind == "ln_ref":
        (x,) = args
        exact = math.log(x)
        return _close(result.value, exact, 1e-13 * max(1.0, abs(exact)))
    if kind == "cnr":
        x, method = args
        return _check_cnr_values(x, method, result.value, result.reference, result.percent_error)
    if kind in ("factorial_corrected", "factorial_raw"):
        est, exact_ln = result
        return _check_factorial(kind, args[2], est.ln_value, exact_ln)
    if kind == "nbb":
        (n,) = args
        if result != [Fraction(k, k - 1) for k in range(2, n + 1)] or math.prod(result) != n:
            return f"nbb_decompose({n}) is not 2/1 ... {n}/{n - 1}"
        return None
    raise KeyError(f"no check for op kind {kind!r}")


# -- CLI output ------------------------------------------------------------


def _option(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def parse_record(text: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()
    if fmt == "csv":
        return dict(zip(lines[0].split(","), lines[1].split(",")))
    return dict(line.split(": ", 1) for line in lines)


def _one_line_error(code, out, err) -> str | None:
    if code != 2 or out or "Traceback" in err or len(err.splitlines()) != 1:
        return f"expected exit 2 with a one-line error, got exit {code}: {err.strip()[-200:]!r}"
    return None


def _check_cli(kind, argv, result) -> str | None:
    code, out, err = result
    if kind == "cli_invalid":
        return _one_line_error(code, out, err)
    if code != 0 or err:
        return f"exit {code}: {err.strip()[-200:]!r}"
    if kind == "cli_table":
        fmt = _option(argv, "--format", "csv")
        if out != _reference_table(TableId(argv[1]), fmt):
            return "CLI table differs from the in-process tables.generate"
        return _check_table_text(out, fmt)
    record = {k: str(v) for k, v in parse_record(out, _option(argv, "--format", "plain")).items()}
    # plain and csv print floats with 10 significant digits
    def near(key, want, tol):
        return _close(float(record[key]), want, tol + 1e-9 * abs(want))

    if kind == "cli_ln":
        p, q, m = int(argv[1]), int(argv[2]), int(record["m"])
        if p == q:
            return near("estimate", 0.0, 0.0)
        exact = math.log(p / q)
        tol = _truncation_bound(p, q, m)
        if "--m" not in argv:
            tol = min(tol, LN_AUTO_REL * abs(exact))
        return near("estimate", exact, tol)
    if kind == "cli_factorial":
        n = int(argv[1])
        est = float(record["ln_estimate"])
        return _check_factorial(argv[3], n, est, float(record["ln_oracle"]), 1e-9 * abs(est))
    if kind == "cli_gamma":
        want = NR_INTEGRAL if argv[2] == "integral" else NR_SERIES
        return near("number_constant", want, 1e-11) or near("gamma", 2.0 - 2.0 * LN2 - want, 1e-11)
    if kind == "cli_cnr":
        x = float(argv[1])
        tag = {
            "lemma11": cnr.CnrTag.LEMMA11,
            "pow2": cnr.CnrTag.POW2,
            "exp": cnr.CnrTag.EXP_FULL,
            "scaled": cnr.CnrTag.EXP_SCALED,
            "large": cnr.CnrTag.EXP_LARGE,
        }[argv[3]]
        method = cnr.CnrMethod(tag, int(_option(argv, "--m", 100)) if tag is cnr.CnrTag.EXP_SCALED else None)
        want, want_ref = _cnr_formula(x, method)
        return near("value", want, 0.0) or near("reference", want_ref, 0.0)
    if kind == "cli_nbb":
        n = int(argv[1])
        blocks = " ".join(str(Fraction(k, k - 1)) for k in range(2, n + 1))
        if record["blocks"] != blocks or int(record["count"]) != n - 1 or record["exact_product"] != str(n):
            return f"nbb {n}: wrong blocks, count or product"
        return None
    raise KeyError(f"no check for CLI op kind {kind!r}")


# -- known defects -----------------------------------------------------------
# Inputs that the contract says must be rejected with a typed error, and that
# the program does not reject yet.  They are probed after the timed region of
# every pass and reported; they are not part of the timed mix, whose ops must
# all succeed.  Every workload probes ln_ref(nan); cli-cold, whose runner
# starts CLI processes, also probes the three CLI defects.


def probe_known_defects(runner) -> list[dict]:
    try:
        value = oracle.ln_ref(math.nan)
        reason = f"expected a HarmlogError, got {value!r}"
    except errors.HarmlogError:
        reason = None
    results = [{"input": "ln_ref(nan)", "ok": reason is None, "observed": reason}]
    if runner is not None:
        for label, argv, env in (
            ("ln 1 2 --m abc", ["ln", "1", "2", "--m", "abc"], None),
            ("HARMLOG_THRESHOLD=abc ln 1 2", ["ln", "1", "2"], {"HARMLOG_THRESHOLD": "abc"}),
            ("cnr nan", ["cnr", "nan"], None),
        ):
            try:
                reason = _one_line_error(*runner(argv, env))
            except Exception as exc:  # a hang or crash of the probe is its result
                reason = repr(exc)
            results.append({"input": label, "ok": reason is None, "observed": reason})
    return results
