"""Case-study plumbing that runs without the real grade file.

The numeric targets themselves are only checked when a 649-row file is
present; see the acceptance suite. Here we exercise the query table, the
schema, and a full run on a small synthetic file with the same columns.
"""

from dataclasses import replace

import numpy as np
import pytest

from pocause import (
    ConfigError,
    EstimatorConfig,
    SchemaError,
    bootstrap,
    evaluate_query,
    format_student_report,
    load_student_table,
    reproduce_student,
    study_queries,
)

COLUMNS = "sex;studytime;failures;schoolsup;famsup;paid;goout;G1;G2;G3"


def _synthetic_rows(n=60, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        studytime = int(rng.integers(1, 5))
        paid = "yes" if rng.random() < 0.4 else "no"
        base = 3 + 2 * studytime + (2 if paid == "yes" else 0)
        g = np.clip(base + rng.integers(-5, 6, size=3), 0, 19)
        rows.append(
            f"{'F' if i % 2 else 'M'};{studytime};{int(rng.integers(0, 3))};"
            f"{'yes' if rng.random() < 0.2 else 'no'};"
            f"{'yes' if rng.random() < 0.6 else 'no'};{paid};"
            f"{int(rng.integers(1, 6))};{g[0]};{g[1]};{g[2]}"
        )
    # Guarantee every treatment arm used by the variants actually occurs.
    rows[0] = "F;2;0;no;yes;no;3;10;10;10"
    rows[1] = "M;4;0;no;no;yes;2;14;15;15"
    rows[2] = "F;1;1;no;yes;no;4;7;6;6"
    rows[3] = "M;2;0;no;yes;yes;3;11;10;12"
    return rows


@pytest.fixture
def grade_file(tmp_path):
    path = tmp_path / "grades.csv"
    path.write_text(COLUMNS + "\n" + "\n".join(_synthetic_rows()) + "\n",
                    encoding="utf-8")
    return path


def test_study_rows_per_variant():
    joint = study_queries("joint")
    assert [(s, e) for s, e, _ in joint] == [
        ("study1", "pns"),
        ("study1", "pn"),
        ("study1", "ps"),
        ("study2", "pns_evidence"),
        ("study3", "pns_multi"),
        ("study4", "pns_multi_evidence"),
    ]
    paid = study_queries("paid")
    assert [s for s, _, _ in paid] == ["study1"] * 3 + ["study2"]
    with pytest.raises(ConfigError):
        study_queries("weekend")


def test_grade_order_prefers_final_grade():
    _, _, query = study_queries("joint")[0]
    assert query.order.priority == (0, 1, 2)
    assert query.thresholds == ((6.0, 6.0, 6.0),)


def test_synthetic_file_loads_with_packaged_schema(grade_file):
    table = load_student_table(grade_file)
    assert table.n_rows == 60
    assert table.schema.outcome_names == ("G3", "G2", "G1")
    assert table.levels["paid"] == ("no", "yes")


def test_extra_real_world_columns_are_ignored(tmp_path):
    path = tmp_path / "wide.csv"
    header = "school;" + COLUMNS + ";absences"
    row = "GP;F;2;0;no;yes;no;3;10;10;10;4"
    path.write_text(header + "\n" + row + "\n", encoding="utf-8")
    table = load_student_table(path)
    assert table.n_rows == 1
    assert "school" not in table.columns


def test_full_run_on_synthetic_data(grade_file):
    report = reproduce_student(grade_file, n_boot=8, seed=1)
    assert report.dataset == "unknown-60"
    assert report.all_within_bands is None
    assert len(report.rows) == 6
    for row in report.rows:
        assert 0.0 <= row.value <= 1.0
        assert row.within_band is None
        assert row.interval is not None

    text = format_student_report(report)
    assert "study1" in text
    assert "unknown-60" in text


@pytest.mark.parametrize("variant", ["joint", "studytime", "paid"])
def test_every_replicate_conditions_on_the_first_row(variant, grade_file):
    """The studies reference row 0's covariates; each interval is the one
    the same query gets with row 0's values written out, bootstrapped on
    its own."""
    from dataclasses import replace

    table = load_student_table(grade_file)
    c = tuple(float(v) for v in table.covariates()[0])
    config = EstimatorConfig(method="logistic")
    report = reproduce_student(grade_file, variant, n_boot=12, seed=4, config=config)
    queries = study_queries(variant)
    assert len(report.rows) == len(queries)
    for row, (_, _, query) in zip(report.rows, queries):
        explicit = replace(query, covariates=c)
        assert row.value == evaluate_query(table, explicit, config).value
        assert row.interval == bootstrap(
            table, lambda t: evaluate_query(t, explicit, config).value, n_boot=12, seed=4
        )


def test_649_row_file_gets_a_verdict_per_banded_row(tmp_path):
    """On a file the size of the Portuguese course file, the joint variant
    is gated: every banded row gets a verdict and the report ends with the
    overall one."""
    path = tmp_path / "grades649.csv"
    path.write_text(COLUMNS + "\n" + "\n".join(_synthetic_rows(649)) + "\n", encoding="utf-8")
    report = reproduce_student(path, n_boot=0)
    assert report.dataset == "portuguese-649"
    verdicts = [row.within_band for row in report.rows]
    assert all(isinstance(v, bool) for v in verdicts)
    # Synthetic grades miss the published targets except study2's bound.
    assert verdicts == [False, False, False, True, False, False]
    assert report.all_within_bands is False
    assert format_student_report(report).endswith("\nsome studies off target")


def test_report_notes_failed_replicates(grade_file):
    report = reproduce_student(grade_file, n_boot=4, seed=2)
    first = report.rows[0]
    failing = replace(first, interval=replace(first.interval, n_failures=3))
    lines = format_student_report(replace(report, rows=(failing, *report.rows[1:]))).splitlines()
    assert [line.count("replicates failed") for line in lines[1:7]] == [1, 0, 0, 0, 0, 0]
    assert lines[1].endswith("]  (3 replicates failed)")
    assert "replicates failed" not in format_student_report(report)


def test_point_only_run_skips_bootstrap(grade_file):
    report = reproduce_student(grade_file, n_boot=0, seed=1)
    assert all(row.interval is None for row in report.rows)


def test_missing_file_is_a_schema_error():
    with pytest.raises(SchemaError):
        reproduce_student("/does/not/exist.csv")


def test_report_round_trips_to_json(grade_file):
    import json

    report = reproduce_student(grade_file, n_boot=4, seed=2)
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["variant"] == "joint"
    assert len(payload["rows"]) == 6
