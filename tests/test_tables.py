import copy
import csv
import io
import json
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from harmlog import oracle, tables
from harmlog.errors import DomainError, OverflowLimitError
from harmlog.factorial import FactorialMethod
from harmlog.harmonic import LogVariant, ScaledRational, ln_rational
from harmlog.oracle import ln_value
from harmlog.tables import ERRATA, TableId


def rows_by_inputs(report, **inputs):
    matches = [r for r in report.rows if all(r.inputs.get(k) == v for k, v in inputs.items())]
    assert matches, f"no row with inputs {inputs}"
    return matches


class TestTable21:
    def test_all_rows_match(self):
        report = tables.build(TableId.T2_1)
        assert len(report.rows) == 10
        assert all(r.match for r in report.rows)


class TestTable22:
    def test_scaled_rows_match(self):
        report = tables.build(TableId.T2_2)
        scaled = [r for r in report.rows if r.inputs["formula"] == "exp_scaled_m100"]
        assert len(scaled) == 8
        assert all(r.match for r in scaled)

    def test_singular_cell_and_erratum(self):
        report = tables.build(TableId.T2_2)
        (row,) = rows_by_inputs(report, x=1.0, formula="exp_full")
        assert row.calculated is None
        assert "degenerates" in row.erratum
        (slip,) = rows_by_inputs(report, x=2.0, formula="exp_full")
        assert not slip.match
        assert slip.erratum  # printed 2.00591 is an arithmetic slip


class TestTable23:
    def test_finite_rows_match(self):
        report = tables.build(TableId.T2_3)
        finite = [r for r in report.rows if r.inputs["x"] != 1]
        assert len(finite) == 8
        assert all(r.match for r in finite)

    def test_singular_rows(self):
        report = tables.build(TableId.T2_3)
        for row in rows_by_inputs(report, x=1):
            assert math.isinf(row.calculated)
            assert row.printed == "∞"
            assert row.match


class TestTable24:
    def test_nine_rows_match(self):
        report = tables.build(TableId.T2_4)
        clean = [r for r in report.rows if r.inputs["x"] != 30]
        assert len(clean) == 9
        assert all(r.match for r in clean)

    def test_row_30_flagged(self):
        report = tables.build(TableId.T2_4)
        (row,) = rows_by_inputs(report, x=30)
        assert not row.match
        assert "3.49119" in row.erratum and "3.40120" in row.erratum


class TestTable25:
    def test_seven_rows_match(self):
        report = tables.build(TableId.T2_5)
        clean = [r for r in report.rows if not r.erratum]
        assert len(clean) == 7
        assert all(r.match for r in clean)

    def test_19_over_10_row_flagged(self):
        report = tables.build(TableId.T2_5)
        (row,) = rows_by_inputs(report, m=10, p=19, q=10)
        assert not row.match
        assert "exact rational" in row.erratum
        # Even the slipped print is within 1e-7 relative of the true sum.
        assert abs(row.calculated - float(row.printed)) < 1e-7


class TestTable26:
    def test_clean_rows_match(self):
        report = tables.build(TableId.T2_6)
        assert len(report.rows) == 16
        for row in report.rows:
            if ("2.6", f"n={row.inputs['n']} calculated") in ERRATA:
                assert not row.match
                assert "swapped" in row.erratum
            else:
                assert row.match

    def test_n10_actual_cell_is_the_corrupted_one(self):
        (row,) = rows_by_inputs(tables.build(TableId.T2_6), n=10)
        assert row.match  # calculated 3621048 agrees with the formula
        assert "dropped digit" in row.erratum


class TestNrGammaTable:
    def test_three_variants_side_by_side(self):
        report = tables.build(TableId.NR_GAMMA)
        assert [r.inputs["variant"] for r in report.rows] == [
            "integral",
            "series",
            "limit",
        ]
        assert all(r.calculated is not None for r in report.rows)

    def test_integral_row_matches_print(self):
        report = tables.build(TableId.NR_GAMMA)
        (row,) = rows_by_inputs(report, variant="integral")
        assert row.match


class TestErrata:
    def test_every_key_is_looked_up_and_every_note_shown(self, monkeypatch):
        # A mistyped key would silently drop its note from every report.
        looked_up = set()

        class Recording(dict):
            def __getitem__(self, key):
                looked_up.add(key)
                return super().__getitem__(key)

        monkeypatch.setattr(tables, "ERRATA", Recording(ERRATA))
        notes = [row.erratum for table_id in TableId for row in tables.build(table_id).rows]
        assert looked_up == set(ERRATA)
        for note in ERRATA.values():
            assert any(note in erratum for erratum in notes), note


# Every table and every kind of sweep, as functions that build the report.
EVERY_REPORT = [
    *(pytest.param(lambda table_id=table_id: tables.build(table_id), id=table_id.value)
      for table_id in TableId),
    pytest.param(lambda: tables.sweep_ln_rational(3, 7, [1, 5, 40, 1000]), id="ln-p<q"),
    pytest.param(lambda: tables.sweep_ln_rational(7, 3, [1, 5, 40, 1000]), id="ln-p>q"),
    pytest.param(lambda: tables.sweep_ln_rational(3, 3, [1, 2, 1000]), id="ln-p=q"),
    *(pytest.param(lambda method=method: tables.sweep_factorial([2, 5, 45, 160], method),
                   id=f"factorial-{method.value}") for method in FactorialMethod),
    pytest.param(lambda: tables.sweep_nr([1, 10, 100]), id="nr"),
]


def hash_or_error(record) -> object:
    """hash(record), or the message of the TypeError it raises (a row's inputs
    are a dict)."""
    try:
        return hash(record)
    except TypeError as error:
        return str(error)


class TestRecordsWithoutInit:
    """tables makes its rows and reports with `_frozen._record`, not their __init__."""

    @pytest.mark.parametrize("report", EVERY_REPORT)
    def test_the_records_of_the_public_constructors(self, report):
        report = report()
        rows = tuple(tables.Row(*row._values) for row in report.rows)
        public = tables.TableReport(report.table_id, report.input_columns,
                                    report.calculated_format, rows)
        for made, built in [(report, public), *zip(report.rows, public.rows)]:
            assert made.__class__ is built.__class__
            assert made == built and repr(made) == repr(built)
            assert hash_or_error(made) == hash_or_error(built)
            for again in (pickle.loads(pickle.dumps(made)), copy.copy(made)):
                assert again.__class__ is made.__class__
                assert again == made and repr(again) == repr(made)

    def test_pickle_rebuilds_through_init(self, monkeypatch):
        row = tables.sweep_nr([10]).rows[0]
        data = pickle.dumps(row)
        calls = []
        init = tables.Row.__init__

        def counting(self, *args):
            calls.append(args)
            init(self, *args)

        monkeypatch.setattr(tables.Row, "__init__", counting)
        assert pickle.loads(data) == row
        assert calls == [row._values]

    def test_nr_gamma_rows_are_those_of_row(self):
        # Label, parameter, match and a percent error bit-equal to
        # percent_error, as _row builds them.
        from harmlog import constants

        for row, kind in zip(tables.build(TableId.NR_GAMMA).rows, constants.NrKind):
            assert row.inputs["variant"] == kind.value
            printed = row.printed
            built = tables._row(row.inputs, row.calculated, row.reference, printed, 1e-9)
            assert repr(row) == repr(built)
            assert row.percent_error.hex() == built.percent_error.hex()
            assert (printed is None) == (kind is not constants.NrKind.INTEGRAL)


def csv_module_text(report: tables.TableReport) -> str:
    """The report's columns and cells through csv.writer, the CSV writer's reference."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(report.columns)
    writer.writerows(report._cells())
    return buf.getvalue()


class TestSerialization:
    def test_csv_shape(self):
        text = tables.generate(TableId.T2_4, "csv")
        reader = list(csv.reader(io.StringIO(text)))
        assert reader[0] == [
            "x",
            "calculated",
            "reference",
            "percent_error",
            "printed",
            "match",
            "erratum",
        ]
        assert len(reader) == 11

    def test_byte_stable(self):
        for fmt in ("csv", "markdown", "json"):
            assert tables.generate(TableId.T2_5, fmt) == tables.generate(
                TableId.T2_5, fmt
            )

    def test_json_round_trips(self):
        text = tables.generate(TableId.T2_6, "json")
        parsed = json.loads(text)
        assert json.dumps(parsed, indent=2) + "\n" == text
        assert len(parsed) == 16

    def test_markdown_pipe_table(self):
        text = tables.generate(TableId.T2_1, "markdown")
        lines = text.splitlines()
        assert lines[0].startswith("| x |")
        assert set(lines[1].replace(" ", "").strip("|")) <= {"-", "|"}

    def test_unknown_format_rejected(self):
        with pytest.raises(DomainError):
            tables.generate(TableId.T2_1, "xml")

    @pytest.mark.parametrize(
        "report",
        [
            *(lambda table_id=table_id: tables.build(table_id) for table_id in TableId),
            lambda: tables.sweep_ln_rational(3, 7, [1, 5, 40, 1000]),
            lambda: tables.sweep_ln_rational(3, 3, [1, 2, 1000]),
            lambda: tables.sweep_factorial([2, 5, 45, 160]),
            lambda: tables.sweep_nr([1, 10]),
            lambda: tables.TableReport("sweep", ("n",), "%.17g"),
            # a column named twice is one key of each object, as in a dict
            lambda: tables.TableReport(
                "sweep", ("match", "n"), "%g",
                (tables.Row({"match": "x", "n": 1}, 1.0, None, None, None, True),),
            ),
        ],
        ids=[*(t.value for t in TableId), "ln-p<q", "ln-p=q", "factorial", "nr", "empty", "dup"],
    )
    def test_json_writer_is_json_dumps(self, report):
        # Table 2.3's "∞" (escaped as \u221e) and the quoted errata notes
        # are among the cells.
        report = report()
        columns, *rows = csv.reader(io.StringIO(report.serialize("csv")))
        objs = [dict(zip(columns, cells)) for cells in rows]
        assert report.serialize("json") == json.dumps(objs, indent=2) + "\n"

    @pytest.mark.parametrize(
        "report",
        [
            *(lambda table_id=table_id: tables.build(table_id) for table_id in TableId),
            lambda: tables.sweep_ln_rational(3, 7, [1, 5, 40, 1000]),
            lambda: tables.sweep_ln_rational(7, 3, [1, 5, 40, 1000]),
            lambda: tables.sweep_ln_rational(3, 3, [1, 2, 1000]),
            *(lambda method=method: tables.sweep_factorial([2, 5, 45, 160, 300], method)
              for method in FactorialMethod),
            lambda: tables.sweep_nr([1, 10, 100]),
            lambda: tables.TableReport("sweep", ("n",), "%.17g"),
            # Several rows, of which exactly one cell needs quoting: the one
            # scan of the joined text must send the whole report to quoting.
            *(lambda note=note: tables.TableReport("sweep", ("n", "note"), "%g", tuple(
                tables.Row({"n": n, "note": note if n == 2 else "plain"}, 1.0, 2.0, 3.0, None, None)
                for n in (1, 2, 3)
            )) for note in ("a,b", 'say "x"', "two\nlines")),
        ],
        ids=[*(t.value for t in TableId), "ln-p<q", "ln-p>q", "ln-p=q",
             *(f"factorial-{m.value}" for m in FactorialMethod), "nr", "empty",
             "one-comma", "one-quote", "one-line-feed"],
    )
    def test_csv_writer_is_the_csv_module(self, report):
        # Table 2.3's "∞" and the errata notes with commas are among the cells.
        report = report()
        assert report.serialize("csv") == csv_module_text(report)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            # Without "\r": the csv module quotes it only from Python 3.13 on.
            st.text(st.characters(exclude_characters="\r"), max_size=8)
            | st.sampled_from(["", ",", '"', '""', "\n", 'a,"b"', " x ", "inf"]),
            min_size=4, max_size=4,
        )
    )
    def test_csv_cells_are_quoted_as_the_csv_module_quotes_them(self, texts):
        column, printed, erratum, inputs = texts
        report = tables.TableReport(
            "sweep", (column, "n"), "%.17g",
            (tables.Row({column: inputs, "n": 1}, 1.5, None, -math.inf, printed, None, erratum),),
        )
        assert report.serialize("csv") == csv_module_text(report)

    @pytest.mark.parametrize(
        "calculated, reference, percent, cells",
        [
            (None, None, None, ["", "", ""]),
            (math.inf, -math.inf, math.inf, ["inf", "inf", "inf"]),
            (math.nan, -0.0, 1e-300, ["nan", "-0", "1e-300"]),
            (2.0 / 3.0, 1234567.0, -12, ["0.66667", "1234567", "-12"]),
        ],
    )
    def test_number_cells(self, calculated, reference, percent, cells):
        # Empty for None and "inf" for either infinity; the calculated cell
        # takes the report's format, the others %.12g.
        row = tables.Row({"x": 1}, calculated, reference, percent, None, None)
        report = tables.TableReport("sweep", ("x",), "%.5g", (row,))
        assert report._cells()[0][1:4] == cells

    @pytest.mark.parametrize("table_id", [TableId.T2_4, "2.4"])
    def test_generate_takes_an_id_or_its_value(self, table_id):
        assert tables.generate(table_id) == tables.generate(TableId.T2_4)

    @pytest.mark.parametrize("table_id", ["2.9", 0, "sweep", None, [], "NR_GAMMA"])
    def test_generate_rejects_anything_else(self, table_id):
        message = (
            f"unknown table {table_id!r}; use one of 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, nr-gamma"
        )
        with pytest.raises(DomainError) as excinfo:
            tables.generate(table_id)
        assert str(excinfo.value) == message


class TestSweeps:
    def test_ln_rational_error_shrinks(self):
        report = tables.sweep_ln_rational(1, 2, [25, 50, 100, 200, 400])
        errors = [abs(r.percent_error) for r in report.rows]
        assert errors == sorted(errors, reverse=True)

    def test_ln_rational_sweep_takes_one_logarithm(self, request):
        # Past mq = 40, every row's O(1) window takes ln(mp/mq) = ln(p/q): a
        # k-row sweep of coprime p/q calls the memoised _ln_ratio once, and
        # a second sweep once more.
        self._assert_logarithms(request, 7, 5, list(range(1000, 21000, 1000)), 1)

    @pytest.mark.parametrize(
        "p, q, grid, logs",
        [
            # p/q not in lowest terms, and a direct row between O(1) ones
            (14, 10, [10**6, 9, 2**58], 1),
            # Head windows (m q < 40, m p > 88) are fixed-point integers that
            # take no _ln_ratio: only the one ln(100) of every row from k = 41
            # on is taken.
            (100, 1, [50, 3, 39, 7000, 1], 1),
        ],
    )
    def test_ln_rational_sweep_shares_its_logarithm_whatever_the_grid(
        self, request, p, q, grid, logs
    ):
        self._assert_logarithms(request, p, q, grid, logs)

    @staticmethod
    def _assert_logarithms(request, p, q, grid, logs):
        request.addfinalizer(oracle._ln_ratio.cache_clear)
        oracle._ln_ratio.cache_clear()
        for sweeps in (1, 2):
            tables.sweep_ln_rational(p, q, grid)
            info = oracle._ln_ratio.cache_info()
            assert (info.misses, info.hits) == (logs, (sweeps - 1) * logs)

    @pytest.mark.parametrize("relation", ["p<q", "p>q", "p=q"])
    def test_ln_rational_rows_are_the_scaled_rational_estimates_on_seeded_grids(self, relation):
        # Every kind of window in a shuffled grid: head windows (m min < 40),
        # windows at and just past the crossover, both from k = 41 on and
        # from a head (1/88 and 1/89 with m = 1, 6/7 with m = 48 and 49),
        # and m next to the 2**63 cap.
        rng = random.Random(f"sweep {relation}")
        pairs = [(1, 88), (1, 89), (6, 7)] + [rng.sample(range(1, 61), 2) for _ in range(40)]
        for p, q in pairs:
            if relation == "p=q":
                q = p
            elif (p < q) != (relation == "p<q"):
                p, q = q, p
            lo, hi = min(p, q), max(p, q)
            cap = (2**63 - 1) // hi
            crossover = [48 // (hi - lo) if hi > lo else 1, 88 // hi]
            grid = [rng.randint(1, 40 // lo + 1), cap, cap - rng.randint(1, 1000)]
            grid += [m + step for m in crossover for step in (0, 1) if m + step >= 1]
            grid += [round(2 ** rng.uniform(0, 62)) % cap + 1 for _ in range(4)]
            rng.shuffle(grid)
            report = tables.sweep_ln_rational(p, q, grid)
            reference = ln_value(p, q)
            for row, m in zip(report.rows, grid, strict=True):
                value = ln_rational(ScaledRational(p, q, m), LogVariant.TRUNCATED)
                assert row.calculated.hex() == value.hex(), (p, q, m)
                # The row's percent error is percent_error's, bit for bit.
                percent = oracle.percent_error(value, reference)
                assert row.percent_error.hex() == percent.hex(), (p, q, m)

    def test_factorial_sweep_matches_table(self):
        grid = [2, 5, 45, 160]
        report = tables.sweep_factorial(grid)
        by_n = {r.inputs["n"]: r.percent_error for r in report.rows}
        assert by_n[5] == pytest.approx(-0.44759, abs=1e-4)
        assert by_n[160] == pytest.approx(-0.01022, abs=1e-4)

    def test_factorial_sweep_takes_a_method_value(self):
        grid = [2, 10, 160, 300]
        by_value = tables.sweep_factorial(grid, "raw")
        assert by_value == tables.sweep_factorial(grid, FactorialMethod.RAW)
        assert {r.inputs["method"] for r in by_value.rows} == {"raw"}

    @pytest.mark.parametrize("method", ["bogus", None, 3])
    def test_factorial_sweep_rejects_an_unknown_method(self, method):
        with pytest.raises(DomainError, match="^unknown factorial method"):
            tables.sweep_factorial([10], method)

    def test_nr_sweep_has_three_sequences(self):
        report = tables.sweep_nr([10, 100, 1000])
        variants = {r.inputs["variant"] for r in report.rows}
        assert variants == {"integral", "series", "limit"}
        assert len(report.rows) == 9

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            tables.sweep_ln_rational(1, 2, [])

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.integers(1, 60),
        q=st.integers(1, 60),
        grid=st.lists(st.integers(1, 10**5), min_size=1, max_size=6),
    )
    def test_ln_rational_rows_are_the_scaled_rational_estimates(self, p, q, grid):
        report = tables.sweep_ln_rational(p, q, grid)
        reference = ln_value(p, q)
        assert [r.inputs for r in report.rows] == [{"p": p, "q": q, "m": m} for m in grid]
        for row, m in zip(report.rows, grid):
            value = ln_rational(ScaledRational(p, q, m), LogVariant.TRUNCATED)
            assert row.calculated.hex() == value.hex(), m
            assert row.reference == reference

    @pytest.mark.parametrize(
        "p, q, grid, error, message",
        [
            (1, 2, [], DomainError, "empty sweep grid"),
            (1, 2, [0], DomainError, "multiplier m must be >= 1, got 0"),
            (1, 2, [5, -3], DomainError, "multiplier m must be >= 1, got -3"),
            (0, 2, [1], DomainError, "p and q must be positive, got 0/2"),
            (3, -1, [4], DomainError, "p and q must be positive, got 3/-1"),
            (2, 1, [2**62], OverflowLimitError, f"window index {2**63} exceeds 63-bit cap"),
            (2, 1, [1, 10, 2**62], OverflowLimitError, f"window index {2**63} exceeds 63-bit cap"),
            # Grid order: the first invalid multiplier is the one reported.
            (2, 1, [2**62, 0], OverflowLimitError, f"window index {2**63} exceeds 63-bit cap"),
            (2, 1, [3, 0, 2**62], DomainError, "multiplier m must be >= 1, got 0"),
            # Every window is checked before the oracle's logarithm of p/q.
            (10**400, 1, [1], OverflowLimitError, "window index an int of 1329 bits exceeds 63-bit cap"),
        ],
    )
    def test_ln_rational_rejections(self, p, q, grid, error, message):
        with pytest.raises(error) as raised:
            tables.sweep_ln_rational(p, q, grid)
        assert type(raised.value) is error
        assert str(raised.value) == message

    def test_ln_rational_equal_ratio_rows_are_positive_zero(self):
        report = tables.sweep_ln_rational(3, 3, [1, 2, 7, 40, 1000, 10**5])
        for row in report.rows:
            assert math.copysign(1.0, row.calculated) == 1.0, row.inputs
            assert math.copysign(1.0, row.percent_error) == 1.0, row.inputs

    @pytest.mark.parametrize(
        "p, q, grid", [(2.0, 1, [3]), (2, 1.0, [3]), (2, 1, [3.0]), (2, 1, [5, 3.0])]
    )
    def test_ln_rational_rejects_a_non_int_at_validation(self, monkeypatch, p, q, grid):
        # The reference is taken after the whole grid is validated and before
        # any row, so a TypeError from a row's window comes too late.
        def past_validation(*args):
            raise AssertionError("the grid passed validation")

        monkeypatch.setattr(tables, "ln_value", past_validation)
        with pytest.raises(TypeError):
            tables.sweep_ln_rational(p, q, grid)
