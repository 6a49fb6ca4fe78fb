import numpy as np
import pytest

from pocause import (
    DataError,
    MissingValueError,
    SchemaError,
    TableSchema,
    Variable,
    indicator_below,
    lexicographic_default,
    load_table,
    save_table,
    schema_from_dict,
)


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
