"""Command-line front end.

Subcommands: ln, factorial, gamma, cnr, nbb, table, sweep.
Exit codes: 0 success, 2 domain rejection, 3 overflow or work limit, 4 I/O error.
HARMLOG_THRESHOLD overrides the default auto-scaling threshold of 150.

Each handler imports the modules only it uses, and `json` is imported
only for `--format json`: `cnr` and `nbb` load no `harmonic`, `ln` loads
no tables, factorial, constants or cnr, and a plain or CSV record loads
no `json`.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import DomainError, HarmlogError, OverflowLimitError

_EXIT_DOMAIN = 2
_EXIT_OVERFLOW = 3
_EXIT_IO = 4

# Most points a stepped grid spec may expand to.  Each point is at least one
# series sum and one printed row; without a limit, '1:10**9:1' builds a list
# of 10**9 ints (tens of GB) before any sum runs.  Doubling grids stay far
# below it.
_MAX_GRID_POINTS = 10**4

# Choices of the enums of modules the parser does not import, in member
# order (tests/test_cli.py checks them against the enums).
_LOG_VARIANTS = ("full", "truncated")  # harmonic.LogVariant
_FACTORIAL_METHODS = ("series", "raw", "corrected")  # factorial.FactorialMethod
_NR_KINDS = ("integral", "series", "limit")  # constants.NrKind
# --method of cnr -> name of its cnr.CnrTag member.
_CNR_METHODS = {
    "lemma11": "LEMMA11",
    "pow2": "POW2",
    "exp": "EXP_FULL",
    "scaled": "EXP_SCALED",
    "large": "EXP_LARGE",
}


def _emit(record: dict, fmt: str) -> None:
    """Print one result record; plain mirrors display precision, json is exact."""
    if fmt == "json":
        import json

        print(json.dumps(record))
    elif fmt == "csv":
        keys = list(record)
        print(",".join(keys))
        print(",".join(_plain_cell(record[k]) for k in keys))
    else:
        for key, value in record.items():
            print(f"{key}: {_plain_cell(value)}")


def _plain_cell(value) -> str:
    if isinstance(value, float):
        return "%.10g" % value
    return str(value)


def _integer(raw: str, name: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise DomainError(f"{name} must be an integer, got {raw!r}") from None


def _cmd_ln(args) -> None:
    from .harmonic import (
        DEFAULT_THRESHOLD,
        LogVariant,
        ScaledRational,
        ln_auto,
        ln_rational,
        positive_ratio,
    )
    from .oracle import ln_value, percent_error

    variant = LogVariant(args.variant)
    if args.m == "auto":
        threshold = args.threshold
        if threshold is None:
            raw = os.environ.get("HARMLOG_THRESHOLD", str(DEFAULT_THRESHOLD))
            threshold = _integer(raw, "HARMLOG_THRESHOLD")
        m, value = ln_auto(args.p, args.q, threshold, variant)
    else:
        m = _integer(args.m, "--m")
        p, q = positive_ratio(args.p, args.q)
        value = ln_rational(ScaledRational(p=p, q=q, m=m), variant)
    reference = ln_value(*positive_ratio(args.p, args.q))
    _emit(
        {
            "p": args.p,
            "q": args.q,
            "m": m,
            "variant": variant.value,
            "estimate": value,
            "oracle": reference,
            "percent_error": percent_error(value, reference),
        },
        args.format,
    )


def _cmd_factorial(args) -> None:
    from .factorial import estimate as factorial_estimate
    from .oracle import factorial_exact_ln, percent_error_from_ln

    est = factorial_estimate(args.n, args.method)
    ref_ln = factorial_exact_ln(args.n)
    record = {
        "n": args.n,
        "method": args.method,
        "ln_estimate": est.ln_value,
        "ln_oracle": ref_ln,
        "percent_error": percent_error_from_ln(est.ln_value, ref_ln),
    }
    if math.isfinite(est.value):
        record["estimate"] = est.value
    _emit(record, args.format)


def _cmd_gamma(args) -> None:
    from . import constants as consts
    from .oracle import percent_error

    v = consts.variant(consts.NrKind(args.nr), terms=args.n, n=args.n)
    gamma = consts.euler_gamma(v)
    _emit(
        {
            "variant": args.nr,
            "number_constant": v.value,
            "gamma": gamma,
            "percent_error": percent_error(gamma, consts.EULER_GAMMA_REFERENCE),
        },
        args.format,
    )


def _cmd_cnr(args) -> None:
    from .cnr import DEFAULT_SCALE, CnrMethod, CnrTag, evaluate

    tag = CnrTag[_CNR_METHODS[args.method]]
    m = DEFAULT_SCALE if args.m is None else args.m
    method = CnrMethod(tag, m if tag is CnrTag.EXP_SCALED else None)
    result = evaluate(args.x, method)
    _emit(
        {
            "x": result.input,
            "method": args.method,
            "value": result.value,
            "reference": result.reference,
            "percent_error": result.percent_error,
        },
        args.format,
    )


def _cmd_nbb(args) -> None:
    from .cnr import nbb_decompose

    blocks = nbb_decompose(args.n)
    product = math.prod(blocks)
    _emit(
        {
            "n": args.n,
            "blocks": " ".join(str(b) for b in blocks),
            "count": len(blocks),
            "exact_product": str(product),
        },
        args.format,
    )


def _write_out(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_table(args) -> None:
    from . import tables

    _write_out(tables.generate(args.table, args.format), args.out)


def _parse_grid(spec: str) -> list[int]:
    """Grid spec: comma list '25,50,100' or range 'start:stop:step|double'.

    A range starts at 1 or above, so a doubling range always ends.
    """
    try:
        if ":" not in spec:
            return [int(tok) for tok in spec.split(",")]
        first, last, step = spec.split(":")
        start, stop = int(first), int(last)
        increment = None if step == "double" else int(step)
    except ValueError:
        raise DomainError(f"bad grid spec {spec!r}") from None
    if start < 1:
        raise DomainError(f"grid start must be >= 1 in {spec!r}")
    if increment is not None:
        if increment < 1:
            raise DomainError(f"bad grid step in {spec!r}")
        points = max(0, (stop - start) // increment + 1)
        if points > _MAX_GRID_POINTS:
            raise OverflowLimitError(
                f"grid spec {spec!r} has {points} points, over the limit of {_MAX_GRID_POINTS}"
            )
        return list(range(start, stop + 1, increment))
    values = []
    while start <= stop:
        values.append(start)
        start *= 2
    return values


def _cmd_sweep(args) -> None:
    from . import tables

    if args.op == "ln":
        report = tables.sweep_ln_rational(args.p, args.q, _parse_grid(args.m))
    elif args.op == "factorial":
        report = tables.sweep_factorial(_parse_grid(args.n), args.method)
    else:
        report = tables.sweep_nr(_parse_grid(args.n))
    _write_out(report.serialize(args.format), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmlog",
        description="Odd-harmonic-series approximations of ln, factorial and gamma.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("plain", "json", "csv")):
        p.add_argument("--format", choices=choices, default=choices[0])

    p = sub.add_parser("ln", help="estimate ln(p/q)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--m", default="auto", help="multiplier, an integer or 'auto'")
    p.add_argument("--variant", choices=_LOG_VARIANTS, default="truncated")
    p.add_argument("--threshold", type=int, default=None)
    add_format(p)
    p.set_defaults(func=_cmd_ln)

    p = sub.add_parser("factorial", help="estimate n!")
    p.add_argument("n", type=int)
    p.add_argument("--method", choices=_FACTORIAL_METHODS, default="corrected")
    add_format(p)
    p.set_defaults(func=_cmd_factorial)

    p = sub.add_parser("gamma", help="Euler-Mascheroni estimates")
    p.add_argument("--nr", choices=_NR_KINDS, default="integral")
    p.add_argument("--n", type=int, default=None, help="terms (series) or n (limit)")
    add_format(p)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("cnr", help="exponential-form approximations of a number")
    p.add_argument("x", type=float)
    p.add_argument("--method", choices=list(_CNR_METHODS), default="exp")
    p.add_argument("--m", type=int, default=None, help="multiplier for --method scaled")
    add_format(p)
    p.set_defaults(func=_cmd_cnr)

    p = sub.add_parser("nbb", help="number building blocks of an integer")
    p.add_argument("n", type=int)
    add_format(p)
    p.set_defaults(func=_cmd_nbb)

    p = sub.add_parser("table", help="regenerate a reference table")
    p.add_argument("table", help="2.1 .. 2.6 or nr-gamma")
    p.add_argument("--format", choices=("csv", "markdown", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("sweep", help="convergence sweeps")
    p.add_argument("op", choices=("ln", "factorial", "nr"))
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--m", default="25:400:double", help="multiplier grid for op ln")
    p.add_argument("--n", default="10,100,1000", help="size grid for factorial/nr")
    p.add_argument("--method", choices=_FACTORIAL_METHODS, default="corrected")
    p.add_argument("--format", choices=("csv", "markdown", "json"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except OverflowLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_OVERFLOW
    except HarmlogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_IO
    return 0


if __name__ == "__main__":
    sys.exit(main())
