import csv
import io
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pocause import (
    ConfigError,
    DataError,
    MissingValueError,
    SchemaError,
    DataTable,
    TableSchema,
    Variable,
    indicator_below,
    lexicographic_default,
    load_table,
    save_table,
    schema_from_dict,
)
from pocause.dataset import _SAVE_CHUNK_ROWS, _csv_cells, _load_csv, _load_numeric, _write_csv


def test_outcome_columns_follow_declared_position(write_csv):
    schema = schema_from_dict(
        {
            "variables": [
                {"name": "g_final", "role": {"outcome": 0}},
                {"name": "g_mid", "role": {"outcome": 1}},
                {"name": "x", "role": "treatment"},
            ]
        }
    )
    path = write_csv("g_mid;g_final;x\n5;7;1\n2;3;0\n")
    table = load_table(path, schema)
    assert table.schema.outcome_names == ("g_final", "g_mid")
    np.testing.assert_array_equal(table.outcomes(), [[7.0, 5.0], [3.0, 2.0]])


def test_extra_file_columns_are_ignored(scalar_schema, write_csv):
    path = write_csv("y;x;c;junk\n1;0;0;zzz\n2;1;1;zzz\n")
    table = load_table(path, scalar_schema)
    assert table.n_rows == 2
    assert "junk" not in table.columns


def test_missing_schema_column_is_a_schema_error(scalar_schema, write_csv):
    path = write_csv("y;x\n1;0\n")
    with pytest.raises(SchemaError, match="c"):
        load_table(path, scalar_schema)


def test_blank_cell_reports_file_line_and_column(scalar_schema, write_csv):
    path = write_csv("y;x;c\n1;0;0\n2;;1\n")
    with pytest.raises(MissingValueError) as excinfo:
        load_table(path, scalar_schema)
    message = str(excinfo.value)
    assert "line 3" in message
    assert "x" in message


def test_non_numeric_cell_in_numeric_column(scalar_schema, write_csv):
    path = write_csv("y;x;c\n1;0;0\nbanana;1;1\n")
    with pytest.raises(DataError, match="line 3"):
        load_table(path, scalar_schema)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_cell_reports_file_line_and_column(scalar_schema, write_csv, cell):
    path = write_csv(f"y;x;c\n1;0;0\n2;1;1\n3;0;{cell}\n")
    with pytest.raises(DataError) as excinfo:
        load_table(path, scalar_schema)
    message = str(excinfo.value)
    assert "line 4" in message
    assert "'c'" in message
    assert repr(cell) in message


def test_headerless_file_is_rejected(scalar_schema, write_csv):
    path = write_csv("1;0;0\n2;1;1\n")
    with pytest.raises(SchemaError):
        load_table(path, scalar_schema)


def test_categorical_levels_sorted_and_one_based(write_csv):
    schema = schema_from_dict(
        {
            "variables": [
                {"name": "y", "role": {"outcome": 0}},
                {"name": "x", "role": "treatment"},
                {"name": "job", "role": "covariate", "kind": "categorical"},
            ]
        }
    )
    path = write_csv("y;x;job\n1;0;teacher\n2;1;at_home\n3;0;teacher\n4;1;health\n")
    table = load_table(path, schema)
    assert table.levels["job"] == ("at_home", "health", "teacher")
    np.testing.assert_array_equal(table.columns["job"], [3.0, 1.0, 3.0, 2.0])


def test_save_load_round_trip(small_table, tmp_path):
    out = tmp_path / "echo.csv"
    save_table(small_table, out)
    again = load_table(out, small_table.schema)
    for name in small_table.columns:
        np.testing.assert_array_equal(again.columns[name], small_table.columns[name])


def test_round_trip_preserves_awkward_floats(scalar_schema, write_csv, tmp_path):
    path = write_csv("y;x;c\n0.1;0.30000000000000004;1e-17\n")
    table = load_table(path, scalar_schema)
    out = tmp_path / "echo.csv"
    save_table(table, out)
    again = load_table(out, scalar_schema)
    assert again.columns["x"][0] == table.columns["x"][0]
    assert again.columns["c"][0] == 1e-17


def test_take_keeps_schema_and_levels(write_csv):
    schema = schema_from_dict(
        {
            "variables": [
                {"name": "y", "role": {"outcome": 0}},
                {"name": "x", "role": "treatment"},
                {"name": "sex", "role": "covariate", "kind": "categorical"},
            ]
        }
    )
    path = write_csv("y;x;sex\n1;0;F\n2;1;M\n3;0;F\n")
    table = load_table(path, schema)
    sub = table.take(np.array([2, 0]))
    assert sub.n_rows == 2
    assert sub.levels["sex"] == table.levels["sex"]
    np.testing.assert_array_equal(sub.columns["y"], [3.0, 1.0])


def _three_rows() -> DataTable:
    schema = TableSchema((Variable("y", "outcome", position=0), Variable("x", "treatment")))
    return DataTable(schema, {"y": np.array([1.0, 2.0, 3.0]), "x": np.array([0.0, 1.0, 0.0])})


@pytest.mark.parametrize(
    "indices, first_bad",
    [
        ([True, False, True], "True at position 0"),  # a mask, not row numbers
        (np.array([0.0, 2.0]), "0.0 at position 0"),  # floats are not truncated
        ([1.5, 0], "1.5 at position 0"),
        ([0, 2, -1], "-1 at position 2"),  # negative indices do not wrap around
        ([1, 3, 7], "3 at position 1"),
        (np.array([0, 2**63], dtype=np.uint64), "9223372036854775808 at position 1"),
        (["0"], "'0' at position 0"),
    ],
)
def test_take_rejects_what_is_not_a_row_index(indices, first_bad):
    with pytest.raises(ConfigError, match=re.escape(f"row index {first_bad}")):
        _three_rows().take(indices)


def test_take_of_a_take_checks_against_its_own_rows():
    """Row 2 of the table is not a row of a two-row resample of it."""
    resample = _three_rows().take([2, 0])
    with pytest.raises(ConfigError, match=re.escape("row index 2 at position 0")):
        resample.take([2])
    np.testing.assert_array_equal(resample.take([1, 1, 0]).columns["y"], [1.0, 1.0, 3.0])


@pytest.mark.parametrize("indices", [0, [[0, 1]]])
def test_take_needs_a_flat_index_array(indices):
    with pytest.raises(ConfigError, match="1-d"):
        _three_rows().take(indices)


@pytest.mark.parametrize("indices", [[], np.array([], dtype=np.int32), np.array([], dtype=float)])
def test_take_of_nothing_is_an_empty_table(indices):
    empty = _three_rows().take(indices)
    assert empty.n_rows == 0
    assert empty.columns["y"].shape == (0,)


def test_binarize_outcome_strict_and_weak(small_table):
    strict, weak = indicator_below(small_table.outcomes(), (3.0,), lexicographic_default(1))
    # Outcomes cycle 1,2,3,4: below 3 strictly in half the rows, weakly 3/4.
    assert strict.mean() == 0.5
    assert weak.mean() == 0.75
    assert np.all(weak >= strict)


def test_duplicate_outcome_positions_rejected():
    with pytest.raises(SchemaError):
        TableSchema(
            (
                Variable("a", "outcome", position=0),
                Variable("b", "outcome", position=0),
                Variable("x", "treatment"),
            )
        )


@pytest.mark.parametrize("position", [1.7, 1.0, True, "x"])
def test_outcome_position_must_be_an_integer(position):
    """A position that is not an integer is an error, not a truncation."""
    with pytest.raises(SchemaError, match="outcome position of 'b' must be an integer"):
        schema_from_dict({"variables": [
            {"name": "a", "role": {"outcome": 0}},
            {"name": "b", "role": {"outcome": position}},
            {"name": "x", "role": "treatment"},
        ]})


def test_numeric_files_take_the_fast_path(small_table, tmp_path):
    """The C reader answers a plain numeric file by itself; if it never did,
    the equivalence property below would hold trivially."""
    path = tmp_path / "echo.csv"
    save_table(small_table, path)
    wanted = {v.name: v for v in small_table.schema.variables}
    columns = _load_numeric(path, wanted, ";")
    assert columns is not None
    for name, col in small_table.columns.items():
        assert columns[name].tobytes() == col.tobytes()
        assert columns[name].flags.c_contiguous


def _outcome(read, path, schema, delimiter):
    """What a reader gives: its columns as bytes and its levels, or the
    class and message of what it raised."""
    try:
        table = read(path, schema, delimiter)
    except Exception as exc:  # the csv reader's errors are the reference too
        return type(exc), str(exc)
    columns = {name: (col.dtype.str, col.tobytes()) for name, col in table.columns.items()}
    return columns, table.levels, table.source


_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-0", "+.5", "5.", "1E5", "1e-320", "0.30000000000000004"]),
)
_ODD_CELLS = st.sampled_from([
    "", "NA", "?", " ", "\t", "nan", "-nan", "inf", "-Infinity", "1e400", "-1e400",
    '"1"', '"2.5"', '"', "1_0", "\u0661", "\uff11\uff12", "\u0661.\u0662", "0x10", "1d5",
    "1 2", "abc", "\ufeff1", "1\x00",
])
_PADDING = st.sampled_from(
    [""] * 8 + [" ", "  ", "\t", " \t", "\x0c", "\xa0", "\u2003", "\x85", "\x1c"]
)
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _padded(draw, core):
    return draw(_PADDING) + draw(core) + draw(_PADDING)


@st.composite
def _delimited_files(draw):
    """(bytes, schema, delimiter): numeric rows with padded cells, then up
    to two faults (an odd cell, a blank or whitespace-only line, a short or
    long row, a trailing delimiter), mixed line ends, and at times a BOM or
    a byte that is not UTF-8."""
    delimiter = draw(st.sampled_from([";"] * 4 + [",", "\t", " ", ".", "-", "e", "\n", "\r"]))
    width = draw(st.integers(1, 4))
    header = [f"v{j}" for j in range(width)]
    kept = [name for name in header if draw(st.booleans())] or header[:1]
    variables = [Variable(kept[0], "outcome", position=0)]
    variables += [Variable(name, "covariate") for name in kept[1:]]
    if draw(st.booleans()):
        variables.append(Variable("ghost", "ignored"))
    schema = TableSchema(tuple(variables))

    rows = [
        [draw(_padded(_NUMBERS)) for _ in range(width)] for _ in range(draw(st.integers(0, 6)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["cell", "cell", "blank", "spaces", "short", "long", "trail"]))
        at = draw(st.integers(0, len(rows)))
        row = rows[min(at, len(rows) - 1)] if rows else []
        if fault == "cell" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_padded(_ODD_CELLS))
        elif fault == "blank":
            rows.insert(at, [])
        elif fault == "spaces":
            rows.insert(at, [draw(st.sampled_from([" ", "\t", "  \t", "\x0c"]))])
        elif fault == "short" and row:
            row.pop()
        elif fault in ("long", "trail"):
            row.append("" if fault == "trail" else draw(_padded(_NUMBERS)))
    lines = [delimiter.join(header)] + [delimiter.join(row) for row in rows]
    ends = [draw(_LINE_ENDS) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.integers(0, 9)) == 0:
        text = "\ufeff" + text
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data, schema, delimiter


# A cell longer than the csv reader's field limit (131,072 characters): the
# C reader alone would parse this one.
_LONG_CELL = "0." + "0" * 140_000 + "1"


@settings(max_examples=400, deadline=None)
@given(case=_delimited_files())
@example(case=(
    f"v0\n{_LONG_CELL}\n".encode("utf-8"),
    TableSchema((Variable("v0", "outcome", position=0),)),
    ";",
))
def test_load_table_equals_the_csv_reader(case, tmp_path_factory):
    """Whatever path load_table takes, it gives the csv reader's columns,
    bit for bit, or the csv reader's exception and message."""
    data, schema, delimiter = case
    path = tmp_path_factory.mktemp("equiv") / "data.csv"
    path.write_bytes(data)
    assert _outcome(load_table, path, schema, delimiter) == _outcome(
        _load_csv, path, schema, delimiter
    )


@pytest.mark.parametrize(
    "kind, cell",
    [("numeric", _LONG_CELL), ("categorical", "a" * 140_000)],
    ids=["numeric", "categorical"],
)
def test_a_cell_past_the_csv_field_limit_is_a_data_error(kind, cell, write_csv):
    """Both readers name the file and line of a cell the csv reader cannot
    hold; neither lets the csv module's own error escape."""
    path = write_csv(f"y;x\n1;0\n{cell};1\n2;0\n")
    schema = TableSchema((Variable("y", "outcome", kind, position=0), Variable("x", "treatment")))
    for read in (load_table, _load_csv):
        with pytest.raises(DataError) as info:
            read(path, schema, ";")
        assert str(info.value) == f"{path}: line 3: field larger than field limit (131072)"


@pytest.mark.parametrize(
    "delimiter, what",
    [("\n", "a line break"), ("\r", "a line break"), ('"', "the quote character")],
    ids=["lf", "cr", "quote"],
)
def test_delimiters_that_break_the_round_trip_are_rejected_before_any_file_opens(
    delimiter, what, small_table, tmp_path
):
    """save_table under a line break or the quote character as delimiter
    would write a file that load_table cannot read back, or reads back
    wrong; both refuse it before opening a file."""
    message = f"^delimiter must not be {what}, got {re.escape(repr(delimiter))}$"
    path = tmp_path / "saved.csv"
    with pytest.raises(ConfigError, match=message):
        save_table(small_table, path, delimiter)
    assert not path.exists()
    for read in (load_table, _load_csv):
        with pytest.raises(ConfigError, match=message):
            read(path, small_table.schema, delimiter)


_CELLS = st.text(alphabet='ab;,.\t" \r\n', max_size=4)


@settings(max_examples=200, deadline=None)
@given(
    width=st.integers(1, 3),
    cells=st.lists(_CELLS, max_size=30),
    delimiter=st.sampled_from([";", ",", "\t", ".", " ", '"', "a"]),
    chunk=st.integers(1, 4),
)
def test_csv_writer_matches_the_csv_module(width, cells, delimiter, chunk, tmp_path_factory):
    """_write_csv over _csv_cells writes csv.writer's bytes, for any cell
    text, lone empty cells included, in chunks of any size."""
    rows = [cells[i:i + width] for i in range(0, len(cells) - width + 1, width)]
    header, body = (rows[0], rows[1:]) if rows else ([""] * width, [])
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, delimiter=delimiter)
    writer.writerow(header)
    writer.writerows(body)
    chunks = [
        [_csv_cells(list(col), delimiter) for col in zip(*body[s:s + chunk])]
        for s in range(0, len(body), chunk)
    ]
    path = tmp_path_factory.mktemp("writer") / "cells.csv"
    _write_csv(path, _csv_cells(header, delimiter), chunks, delimiter)
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


def _row_writer_bytes(table, delimiter) -> bytes:
    """save_table's output written one row at a time, cell by cell."""
    names = [v.name for v in table.schema.variables if v.name in table.columns]
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, delimiter=delimiter)
    writer.writerow(names)
    for i in range(table.n_rows):
        writer.writerow([
            table.levels[name][int(table.columns[name][i]) - 1]
            if name in table.levels
            else repr(float(table.columns[name][i]))
            for name in names
        ])
    return buf.getvalue().encode("utf-8")


def test_a_table_without_columns_saves_one_empty_header_row(tmp_path):
    table = DataTable(schema=TableSchema((Variable("z", "ignored"),)), columns={})
    path = tmp_path / "empty.csv"
    save_table(table, path)
    assert path.read_bytes() == _row_writer_bytes(table, ";") == b"\r\n"


_EDGE_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1e16, 1e-7,
])
_FLOATS = st.one_of(_EDGE_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
_LEVELS = st.text(alphabet='ab;,.\t" \u00e9\n\r', min_size=1, max_size=5).filter(
    lambda s: s.strip() == s and s not in ("NA", "?")
)


def _table(y, x, grades=None) -> DataTable:
    """A table of y and x, with a categorical column between them unless
    grades is None, so that loading it can take the C reader."""
    variables = [Variable("y", "outcome", position=0), Variable("x", "treatment")]
    columns = {"y": np.array(y), "x": np.array(x)}
    levels = {}
    if grades is not None:
        variables.insert(1, Variable("grade", "covariate", kind="categorical"))
        levels["grade"] = tuple(sorted(set(grades)))
        columns["grade"] = np.array([levels["grade"].index(g) + 1 for g in grades], dtype=float)
    return DataTable(schema=TableSchema(tuple(variables)), columns=columns, levels=levels)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(st.tuples(_FLOATS, _FLOATS, _LEVELS), min_size=1, max_size=12),
    delimiter=st.sampled_from([";", ",", "\t", "."]),
    categorical=st.booleans(),
)
def test_save_then_load_is_bit_identical(rows, delimiter, categorical, tmp_path_factory):
    y, x, grades = zip(*rows)
    table = _table(y, x, grades if categorical else None)
    path = tmp_path_factory.mktemp("round") / "data.csv"
    save_table(table, path, delimiter)
    assert path.read_bytes() == _row_writer_bytes(table, delimiter)
    again = load_table(path, table.schema, delimiter)
    assert again.levels == table.levels
    for name, col in table.columns.items():
        assert again.columns[name].tobytes() == col.tobytes()


def test_save_matches_the_row_writer_across_chunks(tmp_path):
    """Rows on both sides of each chunk boundary are written as one row
    writer would write them."""
    n = 2 * _SAVE_CHUNK_ROWS + 3
    rng = np.random.default_rng(5)
    grades = [("a;b", 'q"', "z")[k] for k in rng.integers(0, 3, n)]
    table = _table(rng.standard_normal(n), rng.integers(0, 2, n).astype(float), grades)
    path = tmp_path / "data.csv"
    save_table(table, path)
    assert path.read_bytes() == _row_writer_bytes(table, ";")


def _readers(table, path) -> list:
    """What every reader of a table sees, as comparable values."""
    save_table(table, path)
    return [
        table.n_rows,
        list(table.columns),
        len(table.columns),
        [(name, col.dtype.str, col.shape, col.tobytes()) for name, col in table.columns.items()],
        *[(m.shape, m.tobytes()) for m in (table.outcomes(), table.treatments(), table.covariates())],
        path.read_bytes(),
    ]


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(_FLOATS, _FLOATS, _LEVELS), min_size=1, max_size=8),
    categorical=st.booleans(),
    data=st.data(),
)
def test_a_resample_reads_as_an_eager_gather(rows, categorical, data, tmp_path_factory):
    """Whatever reads it first, a table made by take(), or by a take of a
    take, gives every reader what the eagerly gathered columns give."""
    y, x, grades = zip(*rows)
    table = _table(y, x, grades if categorical else None)
    n = table.n_rows
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=int)
    inner = np.array(data.draw(st.lists(st.integers(0, max(len(idx) - 1, 0)),
                                        max_size=2 * n if len(idx) else 0)), dtype=int)
    work = tmp_path_factory.mktemp("gather")
    for rows_, make in ((idx, lambda: table.take(idx)),
                        (idx[inner], lambda: table.take(idx).take(inner))):
        eager = DataTable(table.schema, {k: v[rows_] for k, v in table.columns.items()},
                          levels=dict(table.levels))
        expected = _readers(eager, work / "eager.csv")
        first = data.draw(st.sampled_from(["save", "column", "matrix"]), label="first reader")
        resample = make()
        if first == "column":
            resample.columns[data.draw(st.sampled_from(list(table.columns)))]
        elif first == "matrix":
            resample.covariates()
        assert _readers(resample, work / "lazy.csv") == expected
