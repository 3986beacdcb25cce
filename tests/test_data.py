"""Panel construction, CSV ingestion, and stacking order."""

import numpy as np
import pytest
from hypothesis import example, given

from panelspec import (
    ColumnSchema,
    PanelDataset,
    load_long_csv,
    to_stacked,
)
from panelspec.exceptions import (
    DuplicateCellError,
    InterceptColumnError,
    MissingCellError,
    NonNumericValueError,
    SchemaError,
    TooFewUnitsOrPeriodsError,
)

from helpers import PANEL_SHAPES, PROPERTY_SETTINGS, make_panel

SCHEMA = ColumnSchema(unit_col="unit", time_col="time", y_col="y",
                      x_cols=("x1",))


def _write(path, rows, header="unit,time,y,x1"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_load_small_file(tmp_path):
    rows = [
        "A,1,1.0,0.5", "A,2,2.0,1.5",
        "B,1,3.0,2.5", "B,2,4.0,3.5",
        "C,1,5.0,4.5", "C,2,6.0,5.5",
    ]
    ds = load_long_csv(_write(tmp_path / "p.csv", rows), SCHEMA)
    assert (ds.n_units, ds.n_periods, ds.n_regressors) == (3, 2, 1)
    assert ds.unit_ids == ("A", "B", "C")
    assert ds.time_ids == ("1", "2")
    assert np.array_equal(ds.y, [[1, 2], [3, 4], [5, 6]])
    assert np.array_equal(ds.x[:, :, 0], [[0.5, 1.5], [2.5, 3.5], [4.5, 5.5]])


def test_missing_cell_named(tmp_path):
    rows = [
        "A,1,1.0,0.5", "A,2,2.0,1.5",
        "B,1,3.0,2.5",
        "C,1,5.0,4.5", "C,2,6.0,5.5",
    ]
    with pytest.raises(MissingCellError) as err:
        load_long_csv(_write(tmp_path / "p.csv", rows), SCHEMA)
    assert "'B'" in str(err.value) and "'2'" in str(err.value)


def test_duplicate_cell_rejected(tmp_path):
    rows = ["A,1,1.0,0.5", "A,1,9.0,0.5", "A,2,2.0,1.5",
            "B,1,3.0,2.5", "B,2,4.0,3.5"]
    with pytest.raises(DuplicateCellError):
        load_long_csv(_write(tmp_path / "p.csv", rows), SCHEMA)


def test_non_numeric_value_names_column(tmp_path):
    rows = ["A,1,1.0,0.5", "A,2,oops,1.5",
            "B,1,3.0,2.5", "B,2,4.0,3.5"]
    with pytest.raises(NonNumericValueError) as err:
        load_long_csv(_write(tmp_path / "p.csv", rows), SCHEMA)
    assert "'y'" in str(err.value)


def test_schema_errors(tmp_path):
    with pytest.raises(SchemaError):
        ColumnSchema(unit_col="u", time_col="u", y_col="y", x_cols=("x",))
    with pytest.raises(SchemaError):
        ColumnSchema(unit_col="u", time_col="t", y_col="y", x_cols=())
    p = _write(tmp_path / "p.csv", ["A,1,1.0,0.5"], header="unit,time,y,z")
    with pytest.raises(SchemaError):
        load_long_csv(p, SCHEMA)
    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"unit,time,y,x1\nA,1,1.0,0.5\n\xff,2,2.0,1.5\n")
    with pytest.raises(SchemaError, match="not UTF-8"):
        load_long_csv(latin, SCHEMA)
    short = _write(tmp_path / "short.csv", ["A,1,1.0,0.5", "A,2,2.0"])
    with pytest.raises(SchemaError, match="short.csv:3: row has 3 fields, "
                                          "header has 4"):
        load_long_csv(short, SCHEMA)
    long = _write(tmp_path / "long.csv", ["A,1,1.0,0.5", "A,2,2.0,1.5,99"])
    with pytest.raises(SchemaError, match="long.csv:3: row has 5 fields, "
                                         "header has 4"):
        load_long_csv(long, SCHEMA)
    dup = _write(tmp_path / "dup.csv", ["A,1,1.0,0.5,0.7"],
                 header="unit,time,y,x1,x1")
    with pytest.raises(SchemaError, match=r"'x1' repeats in header at "
                                          r"fields \[4, 5\]"):
        load_long_csv(dup, SCHEMA)


def _past_first_block(bad_row, at):
    """1500 units over 3 periods, row ``at`` (0-based) replaced."""
    rows = [f"u{i},{t},{i}.{t},{t}.{i}" for i in range(1500) for t in (1, 2, 3)]
    rows[at] = bad_row
    return rows


# The first bad record in file order wins; within one record the field
# count is checked first, then the (unit, time) pair, then the value
# columns in schema order. Line numbers count every record after the
# header, skipped blank ones too.
@pytest.mark.parametrize("rows, error, message", [
    (["A,1,1,1", "A,1,2,2", "A,2,nan,1"], DuplicateCellError,
     ":3: duplicate cell for unit 'A', time '1'"),
    (["A,1,1,1", "A,2,inf,2", "A,1,2,2"], NonNumericValueError,
     ":3: column 'y' value 'inf' is not finite"),
    (["A,1,oops,1", "A,2,1"], NonNumericValueError,
     ":2: column 'y' value 'oops' is not numeric"),
    (["A,1,1,1", "", "  ,  ,,", "A,2,x,1"], NonNumericValueError,
     ":5: column 'y' value 'x' is not numeric"),
    (["A,1,1,1", "A,1,oops,1"], DuplicateCellError,
     ":3: duplicate cell for unit 'A', time '1'"),
    (["A,1,1,1", "A,2,1, 2e999 "], NonNumericValueError,
     ":3: column 'x1' value '2e999' is not finite"),
    (_past_first_block("u1400,1,1.0,-", 4200), NonNumericValueError,
     ":4202: column 'x1' value '-' is not numeric"),
    (_past_first_block(" u0 , 3 ,1.0,2.0", 4400), DuplicateCellError,
     ":4402: duplicate cell for unit 'u0', time '3'"),
    (_past_first_block("u1,1,1.0", 4096), SchemaError,
     ":4098: row has 3 fields, header has 4"),
    (["A,1,1,1", *[" , "] * 8191, "A,2,x,1"], NonNumericValueError,
     ":8194: column 'y' value 'x' is not numeric"),
], ids=["duplicate", "infinite", "value-before-width", "blank-records-count",
        "duplicate-before-value", "overflow", "value-past-first-block",
        "duplicate-across-blocks", "width-past-first-block",
        "after-a-blank-block"])
def test_first_bad_record_error_is_pinned(tmp_path, rows, error, message):
    path = _write(tmp_path / "p.csv", rows)
    with pytest.raises(error) as err:
        load_long_csv(path, SCHEMA)
    assert str(err.value) == f"{path}{message}"


def _noted_past_first_block():
    """``_past_first_block`` with a note column: row 1500's note spans
    three lines, and row 4200, bad in x1, has a two-line note."""
    rows = [row + ",n" for row in _past_first_block("u1400,1,1.0,-", 4200)]
    rows[1500] = rows[1500][:-1] + '"a\nb\nc"'
    rows[4200] = rows[4200][:-1] + '"d\ne"'
    return rows


# A quoted field may span lines; the message names the physical line on
# which the bad record starts.
@pytest.mark.parametrize("rows, message", [
    (['A,1,1,1,"two\nlines"', "A,2,oops,1,x"],
     ":4: column 'y' value 'oops' is not numeric"),
    (['A,1,1,1,"two\nlines"', "A,2,oops,1,x", 'A,3,1,1,"\r\nthree\rlines"'],
     ":4: column 'y' value 'oops' is not numeric"),
    (_noted_past_first_block(), ":4204: column 'x1' value '-' is not numeric"),
], ids=["first-block", "cr-and-crlf", "later-block"])
def test_bad_record_line_counts_lines_not_records(tmp_path, rows, message):
    path = _write(tmp_path / "p.csv", rows, header="unit,time,y,x1,note")
    with pytest.raises(NonNumericValueError) as err:
        load_long_csv(path, SCHEMA)
    assert str(err.value) == f"{path}{message}"


def _with_bytes(rows, at, record):
    """``rows`` encoded as UTF-8, with row ``at`` replaced by ``record``."""
    rows = [row.encode() for row in rows]
    rows[at] = record
    return rows


# A byte that is not UTF-8 makes its record bad like any other fault,
# checked first within the record, so an earlier bad record still wins.
@pytest.mark.parametrize("records, error, message", [
    ([b"A,1,oops,1", b"A,2,1,1", b"\xff,3,1,1"], NonNumericValueError,
     ":2: column 'y' value 'oops' is not numeric"),
    ([b"A,1,1,1", b"A,1,2\xff,1"], SchemaError, ":3: not UTF-8 text"),
    (_with_bytes(_past_first_block("u1400,1,1.0,-", 4200), 4300,
                 b"u9,1,\xe9,1"), NonNumericValueError,
     ":4202: column 'x1' value '-' is not numeric"),
    (_with_bytes(_past_first_block("u1400,2,x,1", 4201), 4200,
                 b"u1400,1,1.0,\xff\xfe"), SchemaError,
     ":4202: not UTF-8 text"),
], ids=["value-before-byte", "byte-before-duplicate", "value-past-first-block",
        "byte-past-first-block"])
def test_first_bad_record_may_be_bytes_not_utf8(tmp_path, records, error,
                                                message):
    path = tmp_path / "p.csv"
    path.write_bytes(b"\n".join([b"unit,time,y,x1", *records]) + b"\n")
    with pytest.raises(error) as err:
        load_long_csv(path, SCHEMA)
    assert str(err.value) == f"{path}{message}"


def test_header_not_utf8_is_a_schema_error(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(b"unit,time,y,x\xb9\nA,1,1.0,0.5\n")
    with pytest.raises(SchemaError, match=r"p.csv:1: header is not UTF-8"):
        load_long_csv(path, SCHEMA)


@PROPERTY_SETTINGS
@given(**PANEL_SHAPES)
@example(n=1100, t=4, k=2, seed=3)
def test_csv_round_trip_is_exact(tmp_path_factory, n, t, k, seed):
    ds = make_panel(n, t, k, seed=seed)
    rng = np.random.default_rng(seed)

    def pad(field):
        # str.strip() takes "\x1f", which float() alone would refuse.
        lead = rng.choice([" ", "\t", "\x1f"], rng.integers(3)).tolist()
        return "".join(lead + [field] + [" "] * rng.integers(3))

    header = ["unit", "time", "y"] + [f"x{j + 1}" for j in range(k)]
    records = [
        ",".join(pad(f) for f in [ds.unit_ids[i], str(ds.time_ids[s]),
                                  *map(repr, [ds.y[i, s].item(),
                                             *ds.x[i, s].tolist()])])
        for i in range(n) for s in range(t)
    ]
    order = rng.permutation(n * t)
    records = [records[r] for r in order]
    for _ in range(rng.integers(5)):
        blank = " " * rng.integers(3) + "," * rng.integers(k + 5)
        records.insert(rng.integers(len(records) + 1), blank)
    bom = "\ufeff" if rng.random() < 0.5 else ""
    path = tmp_path_factory.mktemp("csv") / "p.csv"
    path.write_text(bom + ",".join(map(pad, header)) + "\n"
                    + "\n".join(records) + "\n", encoding="utf-8")
    got = load_long_csv(path, ColumnSchema("unit", "time", "y", header[3:]))
    first = list(dict.fromkeys(int(r) // t for r in order))
    assert got.unit_ids == tuple(ds.unit_ids[i] for i in first)
    assert got.time_ids == tuple(str(s) for s in ds.time_ids)
    assert np.array_equal(got.y, ds.y[first])
    assert np.array_equal(got.x, ds.x[first])
    assert got.x.flags.c_contiguous and got.y.flags.c_contiguous


def test_too_small_panels(tmp_path):
    rows = ["A,1,1.0,0.5", "A,2,2.0,1.5"]
    with pytest.raises(TooFewUnitsOrPeriodsError):
        load_long_csv(_write(tmp_path / "p.csv", rows), SCHEMA)
    with pytest.raises(TooFewUnitsOrPeriodsError):
        # N(T-1) = 2 does not exceed K = 2.
        PanelDataset(("A", "B"), (1, 2),
                     np.arange(4.0).reshape(2, 2),
                     np.arange(8.0).reshape(2, 2, 2))


def test_contamination_study_shape(tmp_path):
    rng = np.random.default_rng(7)
    rows = []
    for i in range(100):
        for t in range(1, 4):
            y, x1, x2 = (float(v) for v in rng.normal(size=3))
            rows.append(f"i{i},{t},{y!r},{x1!r},{x2!r}")
    schema = ColumnSchema(unit_col="unit", time_col="time", y_col="y",
                          x_cols=("x1", "x2"))
    ds = load_long_csv(
        _write(tmp_path / "p.csv", rows, header="unit,time,y,x1,x2"), schema
    )
    assert (ds.n_units, ds.n_periods, ds.n_regressors) == (100, 3, 2)


def test_row_order_invariance(tmp_path):
    rows = [
        "A,1,1.0,0.5", "A,2,2.0,1.5",
        "B,1,3.0,2.5", "B,2,4.0,3.5",
        "C,1,5.0,4.5", "C,2,6.0,5.5",
    ]
    ds1 = load_long_csv(_write(tmp_path / "a.csv", rows), SCHEMA)
    shuffled = [rows[i] for i in (4, 1, 5, 0, 3, 2)]
    ds2 = load_long_csv(_write(tmp_path / "b.csv", shuffled), SCHEMA)
    # Unit order follows first appearance, so it differs; cell content
    # per (unit, time) must not.
    lookup = {u: i for i, u in enumerate(ds2.unit_ids)}
    perm = [lookup[u] for u in ds1.unit_ids]
    assert ds1.time_ids == ds2.time_ids
    assert np.array_equal(ds1.y, ds2.y[perm])
    assert np.array_equal(ds1.x, ds2.x[perm])


def test_natural_time_order(tmp_path):
    rows = [
        "A,10,1.0,0.5", "A,2,2.0,1.5", "A,1,0.0,0.1",
        "B,10,3.0,2.5", "B,2,4.0,3.5", "B,1,0.5,0.2",
    ]
    ds = load_long_csv(_write(tmp_path / "p.csv", rows), SCHEMA)
    assert ds.time_ids == ("1", "2", "10")


@pytest.mark.parametrize("labels, expected", [
    (("10", "a", "9"), ("10", "9", "a")),
    # "nan" parses to a float but is no finite number.
    (("nan", "10", "3", "1", "2"), ("1", "10", "2", "3", "nan")),
], ids=["mixed", "nan"])
def test_time_order_lexicographic_unless_all_finite_numbers(
    tmp_path, labels, expected
):
    rows = [f"{unit},{time},{i}.0,{i}.5"
            for unit in "AB" for i, time in enumerate(labels)]
    ds = load_long_csv(_write(tmp_path / "p.csv", rows), SCHEMA)
    assert ds.time_ids == expected


def test_intercept_column_rejected():
    ds = make_panel(4, 3, 2, seed=0)
    x = np.array(ds.x)
    x[:, :, 1] = 1.0
    with pytest.raises(InterceptColumnError):
        PanelDataset(ds.unit_ids, ds.time_ids, ds.y, x)


def test_non_finite_rejected():
    ds = make_panel(4, 3, 1, seed=1)
    y = np.array(ds.y)
    y[2, 1] = np.nan
    with pytest.raises(NonNumericValueError):
        PanelDataset(ds.unit_ids, ds.time_ids, y, ds.x)


def test_arrays_read_only():
    ds = make_panel(3, 3, 1, seed=2)
    with pytest.raises(ValueError):
        ds.y[0, 0] = 99.0
    with pytest.raises(ValueError):
        ds.x[0, 0, 0] = 99.0


def test_stacking_order_and_round_trip():
    ds = PanelDataset(
        ("A", "B"), (1, 2),
        np.array([[1.0, 2.0], [3.0, 4.0]]),
        np.array([[[0.1], [0.2]], [[0.3], [0.4]]]),
    )
    y, x = to_stacked(ds)
    assert np.array_equal(y, [1.0, 2.0, 3.0, 4.0])
    assert x.shape == (4, 1)
    # Row i*T + t carries unit i at period t.
    assert np.array_equal(x[:, 0], [0.1, 0.2, 0.3, 0.4])
    # The stacked arrays are views: reshaping them back gives the panel.
    assert np.shares_memory(y, ds.y) and np.shares_memory(x, ds.x)
    assert np.array_equal(y.reshape(2, 2), ds.y)
    assert np.array_equal(x.reshape(2, 2, 1), ds.x)
