"""Regeneration of the source material's numeric tables as reports.

Every table is recomputed from the library and compared cell-by-cell
against an embedded fixture of the printed values.  Cells where the
recomputation provably disagrees with the print (arithmetic slips, swapped
columns, dropped digits in the source) are listed in the ERRATA manifest:
their mismatch stays visible in the report, but consumers can distinguish
"library is wrong" from "print is wrong".

Reports serialize deterministically to CSV, GitHub markdown, or JSON (an
array with one object per row, keys matching the CSV header).

The modules only some tables, sweeps or formats use are imported where
they are used: `json.encoder` for JSON, `cnr` for Tables 2.1-2.3,
`factorial` for Table 2.6 and the factorial sweep, `constants` for
nr-gamma and the nr sweep.  So `table 2.5 --format markdown` loads none of
them.  CSV is written here, with the csv module's minimal quoting.  Every
report, and the rows of sweeps, nr-gamma and `_row`, hold values already
checked, so `_frozen._record` makes them without a call of ``__init__``.
"""

import math
from enum import Enum

from ._frozen import Frozen, _record
from .errors import DomainError
from .harmonic import (
    LogVariant,
    ScaledRational,
    _check_scaled,
    _odd_sums,
    ln_integer,
    ln_rational,
)
from .oracle import factorial_exact_ln, ln_value, percent_error, percent_error_from_ln


class TableId(Enum):
    T2_1 = "2.1"
    T2_2 = "2.2"
    T2_3 = "2.3"
    T2_4 = "2.4"
    T2_5 = "2.5"
    T2_6 = "2.6"
    NR_GAMMA = "nr-gamma"


class Row(Frozen):
    __slots__ = ()
    _fields = ("inputs", "calculated", "reference", "percent_error", "printed", "match", "erratum")

    def __init__(
        self, inputs: dict, calculated: float | None, reference: float | None,
        percent_error: float | None, printed: str | None, match: bool | None, erratum: str = ""
    ) -> None:
        object.__setattr__(
            self, "_values",
            (inputs, calculated, reference, percent_error, printed, match, erratum),
        )


class TableReport(Frozen):
    __slots__ = ()
    _fields = ("table_id", "input_columns", "calculated_format", "rows")

    def __init__(
        self, table_id: str, input_columns: tuple[str, ...], calculated_format: str,
        rows: tuple[Row, ...] = ()
    ) -> None:
        object.__setattr__(self, "_values", (table_id, input_columns, calculated_format, rows))

    # -- serialization ----------------------------------------------------

    @property
    def columns(self) -> list[str]:
        return [*self.input_columns, *_RESULT_COLUMNS]

    def _cells(self) -> list[list[str]]:
        """Each row's cells, as strings in column order."""
        _, input_columns, calculated_format, rows = self._values
        cells = []
        for row in rows:
            # one read of the row's values, not a property call per field
            inputs, calculated, reference, percent, printed, match, erratum = row._values
            # A number cell is empty for None and "inf" for either infinity.
            cells.append([
                *[str(inputs[k]) for k in input_columns],
                "" if calculated is None else "inf" if calculated in _INFINITIES
                else calculated_format % calculated,
                "" if reference is None else "inf" if reference in _INFINITIES
                else "%.12g" % reference,
                "" if percent is None else "inf" if percent in _INFINITIES else "%.12g" % percent,
                printed or "",
                "" if match is None else str(match).lower(),
                erratum,
            ])
        return cells

    def serialize(self, fmt: str) -> str:
        if fmt not in ("csv", "markdown", "json"):
            raise DomainError(f"unknown format {fmt!r}")
        columns = self.columns
        cells = self._cells()
        if fmt == "csv":
            # csv.writer(buf, lineterminator="\n")'s minimal quoting: a cell
            # that holds a comma, a quote or a line break is quoted, with its
            # quotes doubled.  No cell needs it when the joined text has no
            # quote or \r and only the sum(len(row) - 1) commas and len(rows)
            # line feeds of the joins; neither count can be lower, so their sum tells.
            rows = [columns, *cells]
            text = "".join([",".join(row) + "\n" for row in rows])
            if '"' not in text and "\r" not in text and (
                text.count(",") + text.count("\n") == sum(map(len, rows))
            ):
                return text
            return "".join([
                ",".join([
                    cell if _CSV_QUOTED.isdisjoint(cell) else '"' + cell.replace('"', '""') + '"'
                    for cell in row
                ]) + "\n"
                for row in rows
            ])
        if fmt == "markdown":
            lines = [
                "| " + " | ".join(columns) + " |",
                "| " + " | ".join("---" for _ in columns) + " |",
            ]
            lines.extend("| " + " | ".join(row) + " |" for row in cells)
            return "\n".join(lines) + "\n"
        return _json(columns, cells)


_RESULT_COLUMNS = ("calculated", "reference", "percent_error", "printed", "match", "erratum")
_INFINITIES = (math.inf, -math.inf)
# The characters that make a CSV cell quoted.
_CSV_QUOTED = frozenset(',"\n\r')


def _json(columns: list[str], cells: list[list[str]]) -> str:
    """json.dumps([dict(zip(columns, row)) for row in cells], indent=2) + "\n".

    Every key and cell is a str, so the layout is written here and only the
    strings go through the C encoder: with indent set, json.dumps takes its
    pure-Python encoder for the whole array.
    """
    # Not `from json.encoder import ...`: on a module with no __path__ that
    # form costs ~0.4 µs more per call (CPython 3.11).
    import json.encoder

    _quote = json.encoder.encode_basestring_ascii
    if not cells:
        return "[]\n"
    # As in dict(zip(...)), a column named twice keeps its first place and
    # its last cell.  One template of the quoted keys serves every row; a
    # quoted key holds no line feed, so the joins can split on it.
    last = {column: i for i, column in enumerate(columns)}
    template = "  {\n    " + "\n".join(map(_quote, last)).replace("%", "%%").replace(
        "\n", ": %s,\n    "
    ) + ": %s\n  }"
    indices = list(last.values())
    objects = [template % tuple([_quote(row[i]) for i in indices]) for row in cells]
    return "[\n" + ",\n".join(objects) + "\n]\n"


# -- errata manifest ------------------------------------------------------
# Cells where the printed value is provably not what the source's own
# formula yields, and the singular cells, which have no finite value.  The
# one source of every note a report shows; keyed by (table id, row/cell key).

ERRATA: dict[tuple[str, str], str] = {
    ("2.2", "x=2 exp_full"): (
        "source prints 2.00591; the full exponential form evaluates to 2.00502"
    ),
    ("2.2", "x=1 exp_full"): (
        "formula degenerates at x = 1 (0 times e**inf); source prints 0.00000"
    ),
    ("2.3", "x=1"): "CNR x/(x-1) is singular at x = 1",
    ("2.4", "x=30 calculated"): (
        "source prints 3.40119 (which is just ln 30); the series evaluates to 3.39648"
    ),
    ("2.4", "x=30 actual"): (
        "source prints actual ln(30) as 3.49119; the oracle gives 3.40120"
    ),
    ("2.5", "(10)19/(10)10"): (
        "source prints 0.6418508407; exact rational evaluation of the same "
        "finite sum gives 0.6418508738"
    ),
    ("2.6", "n=10 actual"): (
        "source prints actual 10! as 362880 (dropped digit); 10! = 3628800"
    ),
    ("2.6", "n=25 calculated"): (
        "calculated and actual cells are swapped in the source; the formula "
        "gives 1.54996e25, matching the printed 'actual' cell"
    ),
    ("2.6", "n=60 calculated"): (
        "calculated and actual cells are swapped in the source; the formula "
        "gives 8.31860e81, matching the printed 'actual' cell"
    ),
}


def _sig_tolerance(printed: str, digits: int) -> float:
    """One unit in the `digits`-th significant digit of the printed value."""
    return 10.0 ** (math.floor(math.log10(abs(float(printed)))) - digits + 1)


def _printed_tolerance(printed: str) -> float:
    """One unit in the last printed significant digit."""
    mantissa, _, exponent = printed.lower().partition("e")
    digits_after_point = mantissa.partition(".")[2]
    return float(10 ** (int(exponent or 0) - len(digits_after_point)))


def _erratum(table: str, *keys: str) -> str:
    """The errata notes of one or more cells of a row, joined by '; '."""
    return "; ".join(ERRATA[(table, key)] for key in keys if (table, key) in ERRATA)


def _row(
    inputs: dict,
    calculated: float,
    reference: float,
    printed: str | None = None,
    tol: float | None = None,
    erratum: str = "",
) -> Row:
    """A computed row: its percent error against reference, and, when there
    is a print, match = |calculated - printed| <= tol; otherwise no match."""
    match = None if printed is None else abs(calculated - float(printed)) <= tol
    percent = percent_error(calculated, reference)
    return _record(Row, (inputs, calculated, reference, percent, printed, match, erratum))


# -- fixtures: the printed tables ------------------------------------------

# Table 2.1: x, printed calculated, printed percent error (sign convention
# in the source divides by |x|).
_T2_1 = [
    (3.5, "3.493572593", "-.1836402026"),
    (5.8, "5.797266055", "-.0471369806"),
    (-15.9, "-15.9002932", "-.001844063542"),
    (-50.1, "-50.1000321", "-6.41716299e-5"),
    (-100.1, "-100.100008", "-8.18031141e-6"),
    (-125.0, "-125.0000053", "-4.21428842e-6"),
    (-175.0, "-175.0000027", "-1.54136032e-6"),
    (750.0, "749.9999999", "-1.97924237e-8"),
    (1500.0, "1500", "0"),
    (2500.0, "2500", "0"),
]

# Table 2.2: x, printed full-form value, printed scaled (m = 100) value.
_T2_2 = [
    (2.0, "2.00591", "1.999999979"),
    (1.8, "1.82285", "1.799999974"),
    (1.6, "1.66819", "1.599999967"),
    (1.4, "1.61105", "1.399999957"),
    (1.2, "2.28356", "1.199999941"),
    (1.0, "0.00000", "0.9999999154"),
    (0.7, "-.13546", "0.6999998263"),
    (0.3, "-.66358", "0.2999990268"),
]

# Table 2.3: x, printed calculated CNR, printed calculated ln(CNR).
_T2_3 = [
    (1, "∞", "∞"),
    (2, "2.00501", "0.69565"),
    (6, "1.19949", "0.18189"),
    (20, "1.05262", "0.05128"),
    (100, "1.0101009", ".01005025"),
]

# Table 2.4: x, printed calculated ln, printed actual ln.
_T2_4 = [
    (2, "0.69444", ".69315"),
    (3, "1.09740", "1.09861"),
    (5, "1.60618", "1.60944"),
    (7, "1.94195", "1.94591"),
    (9, "2.19296", "2.19722"),
    (10, "2.29823", "2.30258"),
    (11, "2.39347", "2.39789"),
    (13, "2.56043", "2.56495"),
    (15, "2.70347", "2.70805"),
    (30, "3.40119", "3.49119"),
]

# Table 2.5: (m, p, q), printed calculated ln(p/q) (truncated variant).
_T2_5 = [
    (25, 1, 4, "-1.38623188"),
    (25, 1, 2, "-0.693097198"),
    (40, 3, 4, "-0.2876808066"),
    (15, 9, 10, "-0.1053600813"),
    (30, 5, 4, "0.2231425097"),
    (50, 3, 2, "0.4054627934"),
    (22, 7, 4, "0.5596121685"),
    (10, 19, 10, "0.6418508407"),
]

# Table 2.6: n, printed calculated n!, printed actual n!.
_T2_6 = [
    (2, "2.00584", "2"),
    (3, "5.96749", "6"),
    (4, "23.87311", "24"),
    (5, "119.46289", "120"),
    (10, "3621048", "362880"),
    (15, "1.305926e12", "1.30767e12"),
    (25, "1.55112e25", "1.54996e25"),
    (35, "1.03278e40", "1.03331e40"),
    (45, "1.19575474e56", "1.19622221e56"),
    (60, "8.32098711e81", "8.31860099e81"),
    (75, "2.48035295e109", "2.48091408e109"),
    (95, "1.03281577e148", "1.03299785e148"),
    (110, "1.58800549e178", "1.58824554e178"),
    (125, "1.88242823e209", "1.88267718e209"),
    (140, "1.34604309e241", "1.34620125e241"),
    (160, "4.71424166e284", "4.71472364e284"),
]


# -- table builders --------------------------------------------------------


def _t2_1():
    from .cnr import approx_number_exp

    for x, printed, _ in _T2_1:
        yield _row({"x": x}, approx_number_exp(x), x, printed, _sig_tolerance(printed, 9))


def _t2_2():
    from .cnr import approx_number_exp, approx_number_scaled

    for x, printed_full, printed_scaled in _T2_2:
        inputs = {"x": x, "formula": "exp_full"}
        note = _erratum("2.2", f"x={x:g} exp_full")
        try:
            full = approx_number_exp(x)
        except DomainError:
            yield Row(inputs, None, x, None, printed_full, False, note)
        else:
            yield _row(inputs, full, x, printed_full, 1e-5, note)
        scaled = approx_number_scaled(x, 100)
        tol = _sig_tolerance(printed_scaled, 8)
        yield _row({"x": x, "formula": "exp_scaled_m100"}, scaled, x, printed_scaled, tol)


def _t2_3():
    from .cnr import _cnr_exponent, approx_cnr_exp

    for x, printed_cnr, printed_ln in _T2_3:
        if x == 1:
            note = _erratum("2.3", "x=1")
            for quantity, printed in (("cnr", printed_cnr), ("ln_cnr", printed_ln)):
                inputs = {"x": x, "quantity": quantity}
                yield Row(inputs, math.inf, math.inf, None, printed, printed == "∞", note)
            continue
        cnr_ref = x / (x - 1)
        ln_cnr = _cnr_exponent(x)
        yield _row({"x": x, "quantity": "cnr"}, approx_cnr_exp(x), cnr_ref, printed_cnr, 1e-5)
        yield _row({"x": x, "quantity": "ln_cnr"}, ln_cnr, ln_value(x, x - 1), printed_ln, 1e-5)


def _t2_4():
    for x, printed, _ in _T2_4:
        note = _erratum("2.4", f"x={x} calculated", f"x={x} actual")
        yield _row({"x": x}, ln_integer(x, LogVariant.FULL), ln_value(x), printed, 1e-5, note)


def _t2_5():
    for m, p, q, printed in _T2_5:
        value = ln_rational(ScaledRational(p=p, q=q, m=m), LogVariant.TRUNCATED)
        tol = _sig_tolerance(printed, 8)
        note = _erratum("2.5", f"({m}){p}/({m}){q}")
        yield _row({"m": m, "p": p, "q": q}, value, ln_value(p, q), printed, tol, note)


def _t2_6():
    from .factorial import factorial_corrected

    for n, printed, _ in _T2_6:
        est = factorial_corrected(n)
        ref_ln = factorial_exact_ln(n)
        # Judged in log space, so that 160! overflows neither the match nor
        # the percent error.
        yield Row(
            {"n": n},
            est.value,
            math.exp(ref_ln) if ref_ln < 700 else math.inf,
            percent_error_from_ln(est.ln_value, ref_ln),
            printed,
            _log_match(est.ln_value, printed),
            _erratum("2.6", f"n={n} calculated", f"n={n} actual"),
        )


def _log_match(ln_value: float, printed: str) -> bool:
    # Compare in log space so 160! does not overflow the comparison.
    tol = _printed_tolerance(printed)
    target = float(printed)
    return abs(math.exp(ln_value - math.log(target)) - 1.0) <= tol / target


def _nr_gamma():
    from . import constants as consts

    kinds, reference = consts.NrKind, consts.EULER_GAMMA_REFERENCE
    terms, n = consts.DIRECT_SERIES_CONVERGED_TERMS, consts.EMPIRICAL_LIMIT_N
    # NrKind's members in order, each with the value and parameter that
    # consts.variant(kind) gives it, and its print.  The reference is finite
    # and not 0, so the percent error is percent_error's own quotient.
    for kind, parameter, value, printed in (
        (kinds.INTEGRAL, "", consts.nr_integral(), "0.5736309333"),
        (kinds.DIRECT_SERIES, terms, consts.nr_direct_series(terms), None),
        (kinds.EMPIRICAL_LIMIT, n, consts.nr_empirical_limit(n), None),
    ):
        inputs = {
            "variant": kind._value_, "parameter": parameter, "number_constant": "%.12g" % value
        }
        gamma = consts.GAMMA_OFFSET - value
        match = None if printed is None else abs(gamma - float(printed)) <= 1e-9
        percent = (gamma - reference) / reference * 100.0
        yield _record(Row, (inputs, gamma, reference, percent, printed, match, ""))


# Each table's row builder, input columns and printf spec for the
# calculated column (mirroring the source's printed digits), keyed by the
# id's value: a str key hashes in C, where a TableId calls Enum.__hash__.
_TABLES = {
    TableId.T2_1.value: (_t2_1, ("x",), "%.10g"),
    TableId.T2_2.value: (_t2_2, ("x", "formula"), "%.10g"),
    TableId.T2_3.value: (_t2_3, ("x", "quantity"), "%.7g"),
    TableId.T2_4.value: (_t2_4, ("x",), "%.5f"),
    TableId.T2_5.value: (_t2_5, ("m", "p", "q"), "%.10g"),
    TableId.T2_6.value: (_t2_6, ("n",), "%.9g"),
    TableId.NR_GAMMA.value: (_nr_gamma, ("variant", "parameter", "number_constant"), "%.12g"),
}


def build(table_id: TableId | str) -> TableReport:
    """Report for one table, named by its TableId or the id's value ("2.1", "nr-gamma")."""
    if table_id.__class__ is not TableId:  # a member is its own TableId(...)
        try:
            table_id = TableId(table_id)
        except ValueError:
            names = ", ".join(table.value for table in TableId)
            raise DomainError(f"unknown table {table_id!r}; use one of {names}") from None
    builder, input_columns, calculated_format = _TABLES[table_id._value_]
    rows = tuple(builder())
    return _record(TableReport, (table_id._value_, input_columns, calculated_format, rows))


def generate(table_id: TableId | str, fmt: str = "csv") -> str:
    """Serialized report for one table (see build); fmt is csv, markdown or json."""
    return build(table_id).serialize(fmt)


# -- sweeps ----------------------------------------------------------------
# Sweeps have no print to match.  Their grids are non-empty lists of
# positive integers; a value outside a formula's domain raises DomainError.


def _check_grid(grid: list[int]) -> None:
    if not grid:
        raise DomainError("empty sweep grid")


def sweep_ln_rational(p: int, q: int, multipliers: list[int]) -> TableReport:
    """Error of the truncated rational log across a multiplier grid."""
    _check_grid(multipliers)
    # The whole grid is checked, in grid order and as ScaledRational checks
    # it, before the oracle takes the logarithm of p/q.  Each row is then
    # ln_rational(ScaledRational(p, q, m)), without the object: 2 S(m lo + 1,
    # m hi), negated when p < q (negation is exact; p = q gives +0.0), and
    # every row's window comes from one `_odd_sums` call, so the rows share
    # one logarithm of hi/lo.  The reference is ln_value(hi, lo), negated
    # when p < q, which is ln_value(p, q) bit for bit (the kernel negates
    # exactly), so p/q and q/p share one memo entry.  A row has no print to
    # match, so it is built straight from its value, without _row.
    _check_scaled(p, q, multipliers)
    lo, hi = (p, q) if p < q else (q, p)
    reference = -ln_value(hi, lo) if p < q else ln_value(hi, lo)
    # The one reference is finite, and 0 only for p == q, where every row is
    # 0.0 and its percent error 0 %; so each row's percent error is
    # percent_error's own quotient, without its checks.
    rows = []
    for m, s in zip(multipliers, _odd_sums(lo, hi, multipliers)):
        value = -s if p < q else s
        percent = (value - reference) / reference * 100.0 if reference else 0.0
        inputs = {"p": p, "q": q, "m": m}
        rows.append(_record(Row, (inputs, value, reference, percent, None, None, "")))
    return _record(TableReport, ("sweep", ("p", "q", "m"), "%.17g", tuple(rows)))


def sweep_factorial(grid: list[int], method="corrected") -> TableReport:
    """Factorial percent error (log-space) across an n grid.

    method is a factorial.FactorialMethod or its value, as factorial.estimate
    takes it; any other raises DomainError.
    """
    from .factorial import estimate as factorial_estimate

    _check_grid(grid)
    rows = []
    for n in grid:
        est = factorial_estimate(n, method)
        ref_ln = factorial_exact_ln(n)
        percent = percent_error_from_ln(est.ln_value, ref_ln)
        inputs = {"n": n, "method": est.method.value}
        rows.append(_record(Row, (inputs, est.ln_value, ref_ln, percent, None, None, "")))
    return _record(TableReport, ("sweep", ("n", "method"), "%.17g", tuple(rows)))


def sweep_nr(grid: list[int]) -> TableReport:
    """All three Number Constant variants across a size grid."""
    from . import constants as consts

    _check_grid(grid)
    rows = [
        _record(Row, ({"n": n, "variant": v.kind.value}, v.value, None, None, None, None, ""))
        for n in grid
        for v in (
            consts.variant(consts.NrKind.INTEGRAL),
            consts.variant(consts.NrKind.DIRECT_SERIES, terms=n),
            consts.variant(consts.NrKind.EMPIRICAL_LIMIT, n=n),
        )
    ]
    return _record(TableReport, ("sweep", ("n", "variant"), "%.17g", tuple(rows)))
