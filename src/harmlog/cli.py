"""Command-line front end.

Subcommands: ln, factorial, gamma, cnr, nbb, table, sweep.
Exit codes: 0 success, 2 domain rejection, 3 overflow or work limit, 4 I/O error.
HARMLOG_THRESHOLD overrides the default auto-scaling threshold of 150.

The subcommands and their arguments are written once, in `_COMMANDS`.
`main` parses argv with `_fast_parse`, which takes a subcommand, its
positionals and its options by their exact names, each value one token
that does not start with "-".  Any other argv, help and every usage error
included, goes to the argparse parser that `build_parser` builds from the
same table, so help, usage and error text are argparse's own.  An argv
that `_fast_parse` takes loads no `argparse`, nor the `gettext` and
`locale` that argparse loads.

Each handler imports the modules only it uses, and `json` is imported
only for `--format json`: `cnr` and `nbb` load no `harmonic`, `ln` loads
no tables, factorial, constants or cnr, and a plain or CSV record loads
no `json`.
"""

import math
import os
import sys
from types import SimpleNamespace

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


_RECORD_FORMATS = ("plain", "json", "csv")
_REPORT_FORMATS = ("csv", "markdown", "json")

# Each subcommand: its help, its handler and its arguments in the order
# argparse adds them.  An argument is (name, type, default, choices, help);
# a name that starts with "--" is an option whose dest is the rest of the
# name, any other a required positional, whose default is never used.
_COMMANDS = {
    "ln": (
        "estimate ln(p/q)",
        _cmd_ln,
        (
            ("p", int, None, None, None),
            ("q", int, None, None, None),
            ("--m", str, "auto", None, "multiplier, an integer or 'auto'"),
            ("--variant", str, "truncated", _LOG_VARIANTS, None),
            ("--threshold", int, None, None, None),
            ("--format", str, "plain", _RECORD_FORMATS, None),
        ),
    ),
    "factorial": (
        "estimate n!",
        _cmd_factorial,
        (
            ("n", int, None, None, None),
            ("--method", str, "corrected", _FACTORIAL_METHODS, None),
            ("--format", str, "plain", _RECORD_FORMATS, None),
        ),
    ),
    "gamma": (
        "Euler-Mascheroni estimates",
        _cmd_gamma,
        (
            ("--nr", str, "integral", _NR_KINDS, None),
            ("--n", int, None, None, "terms (series) or n (limit)"),
            ("--format", str, "plain", _RECORD_FORMATS, None),
        ),
    ),
    "cnr": (
        "exponential-form approximations of a number",
        _cmd_cnr,
        (
            ("x", float, None, None, None),
            ("--method", str, "exp", list(_CNR_METHODS), None),
            ("--m", int, None, None, "multiplier for --method scaled"),
            ("--format", str, "plain", _RECORD_FORMATS, None),
        ),
    ),
    "nbb": (
        "number building blocks of an integer",
        _cmd_nbb,
        (
            ("n", int, None, None, None),
            ("--format", str, "plain", _RECORD_FORMATS, None),
        ),
    ),
    "table": (
        "regenerate a reference table",
        _cmd_table,
        (
            ("table", str, None, None, "2.1 .. 2.6 or nr-gamma"),
            ("--format", str, "csv", _REPORT_FORMATS, None),
            ("--out", str, None, None, None),
        ),
    ),
    "sweep": (
        "convergence sweeps",
        _cmd_sweep,
        (
            ("op", str, None, ("ln", "factorial", "nr"), None),
            ("--p", int, 1, None, None),
            ("--q", int, 2, None, None),
            ("--m", str, "25:400:double", None, "multiplier grid for op ln"),
            ("--n", str, "10,100,1000", None, "size grid for factorial/nr"),
            ("--method", str, "corrected", _FACTORIAL_METHODS, None),
            ("--format", str, "csv", _REPORT_FORMATS, None),
            ("--out", str, None, None, None),
        ),
    ),
}


def _fast_parse(argv: list[str]) -> SimpleNamespace | None:
    """What `build_parser().parse_args(argv)` returns, or None to leave argv to it.

    It reads a subcommand, then its positionals in order and its options by
    their exact names, each followed by one value.  It returns None for a
    token that starts with "-" but is no option name (help, an
    abbreviation, --opt=value, a negative number, --), an option value
    that starts with "-", a missing or extra token, or a value that fails
    its type or choices.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, handler, arguments = _COMMANDS[argv[0]]
    values = {"command": argv[0], "func": handler}
    options, positionals = {}, []
    for argument in arguments:
        name, _, default, _, _ = argument
        if name.startswith("-"):
            options[name] = argument
            values[name.lstrip("-")] = default
        else:
            positionals.append(argument)
    positionals.reverse()
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            argument = options.get(token)
            token = next(tokens, "-")
            if argument is None or token.startswith("-"):
                return None
        elif positionals:
            argument = positionals.pop()
        else:
            return None
        name, kind, _, choices, _ = argument
        try:
            value = kind(token)
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        values[name.lstrip("-")] = value
    return None if positionals else SimpleNamespace(**values)


def build_parser() -> "argparse.ArgumentParser":
    """The argparse parser of `_COMMANDS`, for help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="harmlog",
        description="Odd-harmonic-series approximations of ln, factorial and gamma.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, handler, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for name, kind, default, choices, help_text in arguments:
            p.add_argument(name, type=kind, default=default, choices=choices, help=help_text)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv)
    if args is None:
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
