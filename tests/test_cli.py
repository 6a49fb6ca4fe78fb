import json
from pathlib import Path

import jsonschema
import pytest

from pocause.cli import main

SMALL_CSV = "\n".join(
    ["y;x;c"]
    + [f"{y};{x};{c}" for x in (0, 1) for c in (0, 1) for y in (1, 2, 3, 4)]
) + "\n"

SCHEMA = {
    "variables": [
        {"name": "y", "role": {"outcome": 0}},
        {"name": "x", "role": "treatment"},
        {"name": "c", "role": "covariate"},
    ]
}

QUERY = {"kind": "pns", "threshold": [3.0], "x0": [0.0], "x1": [1.0], "c": [0.0]}

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "data.csv").write_text(SMALL_CSV, encoding="utf-8")
    (tmp_path / "schema.json").write_text(json.dumps(SCHEMA), encoding="utf-8")
    (tmp_path / "query.json").write_text(json.dumps(QUERY), encoding="utf-8")
    return tmp_path


def _estimate_args(workdir, *extra):
    return [
        "estimate",
        "--data", str(workdir / "data.csv"),
        "--schema", str(workdir / "schema.json"),
        "--query", str(workdir / "query.json"),
        "--estimator", "empirical",
        *extra,
    ]


def test_estimate_emits_schema_valid_report(workdir, capsys):
    code = main(_estimate_args(workdir, "--bootstrap", "25", "--seed", "3"))
    assert code == 0
    report = json.loads(capsys.readouterr().out)

    from importlib import resources

    contract = json.loads(
        resources.files("pocause").joinpath("assets/report_schema.json").read_text()
    )
    jsonschema.validate(report, contract)
    assert report["estimate"]["value"] == 0.0
    assert report["bootstrap"]["n_boot"] == 25


def test_estimate_without_bootstrap_has_null_slot(workdir, capsys):
    code = main(_estimate_args(workdir))
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bootstrap"] is None


def test_out_file_matches_stdout_shape(workdir, capsys):
    out = workdir / "report.json"
    code = main(_estimate_args(workdir, "--seed", "2", "--out", str(out)))
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["seed"] == 2


def test_env_seed_is_honored(workdir, capsys, monkeypatch):
    monkeypatch.setenv("POC_SEED", "77")
    code = main(_estimate_args(workdir))
    assert code == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 77


def test_flag_seed_beats_env_seed(workdir, capsys, monkeypatch):
    monkeypatch.setenv("POC_SEED", "77")
    code = main(_estimate_args(workdir, "--seed", "5"))
    assert code == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5


def test_unknown_query_kind_is_a_config_error(workdir, capsys):
    (workdir / "query.json").write_text(
        json.dumps({**QUERY, "kind": "banana"}), encoding="utf-8"
    )
    code = main(_estimate_args(workdir))
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"


def test_missing_cell_is_a_data_error(workdir, capsys):
    (workdir / "data.csv").write_text("y;x;c\n1;0;0\n;1;0\n", encoding="utf-8")
    code = main(_estimate_args(workdir))
    assert code == 3
    err = json.loads(capsys.readouterr().err)
    assert "line 3" in err["error"]["message"]


def test_off_support_query_is_an_identification_error(workdir, capsys):
    (workdir / "query.json").write_text(
        json.dumps({**QUERY, "x1": [42.0]}), encoding="utf-8"
    )
    code = main(_estimate_args(workdir))
    assert code == 4


def test_bootstrap_binds_the_covariate_row_before_resampling(workdir, capsys):
    """A {"row": k} query bootstraps as the same query with row k's values
    written out: every replicate conditions on that unit, not on whichever
    unit the resample puts at row k."""
    # Treatment lifts the outcome by 2 when c = 0 and does nothing when c = 1.
    rows = [f"{y + 2 * x * (1 - c)};{x};{c}" for c in (0, 1) for x in (0, 1) for y in (1, 2, 3, 4)]
    (workdir / "data.csv").write_text("y;x;c\n" + "\n".join(rows) + "\n", encoding="utf-8")
    reports = []
    for c in ({"row": 0}, [0.0]):
        (workdir / "query.json").write_text(json.dumps({**QUERY, "c": c}), encoding="utf-8")
        assert main(_estimate_args(workdir, "--bootstrap", "40", "--seed", "3")) == 0
        reports.append(json.loads(capsys.readouterr().out))
    by_row, explicit = reports
    assert by_row["query"]["c"] == {"row": 0}
    assert by_row["estimate"] == explicit["estimate"]
    assert by_row["bootstrap"] == explicit["bootstrap"]


@pytest.mark.parametrize(
    "query, message",
    [
        pytest.param(
            {"threshold": [0.0]}, "rows have 2 components, threshold has 1", id="threshold-length",
        ),
        pytest.param(
            {"order": {"kind": "lexicographic", "priority": [0, 1], "directions": ["desc", "asc"]}},
            "unknown order fields: ['directions']", id="order-field",
        ),
        pytest.param(
            {"order": {"kind": "lexicographic", "priority": [1.9, 0.2]}},
            "each priority entry must be an integer, got 1.9", id="priority-float",
        ),
        pytest.param(
            {"order": {"kind": "lexicographic", "priority": ["a", 0]}},
            "each priority entry must be an integer, got 'a'", id="priority-string",
        ),
        pytest.param(
            {"c": {"row": 2.7}}, "covariate row must be an integer, got 2.7", id="row-float",
        ),
        pytest.param(
            {"c": {"row": True}}, "covariate row must be an integer, got True", id="row-bool",
        ),
        pytest.param(
            {"c": {"row": "x"}}, "covariate row must be an integer, got 'x'", id="row-string",
        ),
    ],
)
def test_bad_query_for_a_two_outcome_table_is_a_config_error(query, message, tmp_path, capsys):
    csv, schema = tmp_path / "sim.csv", tmp_path / "sim.schema.json"
    assert main([
        "simulate", "--spec", "lexi2", "--n", "200", "--seed", "6",
        "--out", str(csv), "--schema-out", str(schema),
    ]) == 0
    capsys.readouterr()
    path = tmp_path / "query.json"
    base = {"kind": "pns", "threshold": [0.0, 0.0], "x0": [0.0], "x1": [1.0], "c": [0.0]}
    path.write_text(json.dumps({**base, **query}), encoding="utf-8")
    code = main(["estimate", "--data", str(csv), "--schema", str(schema), "--query", str(path)])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert err["error"]["message"] == message


def test_negative_seed_is_rejected(workdir, capsys):
    code = main(_estimate_args(workdir, "--seed", "-1"))
    assert code == 2


@pytest.mark.parametrize(
    "extra, message",
    [
        pytest.param(["--bootstrap", "-5"], "bootstrap replicate count must be >= 0, got -5",
                     id="negative-bootstrap"),
        pytest.param(["--threads", "0"], "need at least one thread, got 0", id="no-threads"),
        pytest.param(["--bootstrap", "3", "--threads", "-2"], "need at least one thread, got -2",
                     id="negative-threads"),
        pytest.param(["--alpha", "7"], "alpha must be in (0, 1), got 7.0", id="alpha-above"),
        pytest.param(["--alpha", "0"], "alpha must be in (0, 1), got 0.0", id="alpha-zero"),
    ],
)
def test_bad_interval_arguments_are_config_errors(extra, message, workdir, capsys):
    """Interval arguments are checked whether or not a replicate runs."""
    assert main(_estimate_args(workdir, *extra)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"]["type"] == "ConfigError"
    assert err["error"]["message"] == message


def test_reproduce_student_rejects_a_negative_bootstrap(tmp_path, capsys):
    from test_student import COLUMNS, _synthetic_rows

    path = tmp_path / "grades.csv"
    path.write_text(COLUMNS + "\n" + "\n".join(_synthetic_rows()) + "\n", encoding="utf-8")
    assert main(["reproduce-student", "--data", str(path), "--bootstrap", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["message"] == (
        "bootstrap replicate count must be >= 0, got -1"
    )


@pytest.mark.parametrize("threads", ["1", "2"])
def test_reproduce_student_report_matches_its_golden(threads, tmp_path, capsys):
    """reproduce-student on a 649-row synthetic file, 20 replicates and
    seed 5, writes the report recorded in tests/golden at any thread count."""
    from test_student import COLUMNS, _synthetic_rows

    path = tmp_path / "grades.csv"
    path.write_text(COLUMNS + "\n" + "\n".join(_synthetic_rows(649)) + "\n", encoding="utf-8")
    out = tmp_path / "report.json"
    assert main([
        "reproduce-student", "--data", str(path), "--bootstrap", "20", "--seed", "5",
        "--threads", threads, "--out", str(out),
    ]) == 0
    assert out.read_bytes() == (GOLDEN / "student_joint_649_seed5.json").read_bytes()


def test_simulate_estimate_round_trip(tmp_path, capsys):
    csv = tmp_path / "sim.csv"
    schema = tmp_path / "sim.schema.json"
    code = main([
        "simulate", "--spec", "additive_scalar", "--n", "4000",
        "--seed", "6", "--out", str(csv), "--schema-out", str(schema),
    ])
    assert code == 0
    capsys.readouterr()

    query = tmp_path / "query.json"
    query.write_text(
        json.dumps({"kind": "pns", "threshold": [0.8], "x0": [0.0], "x1": [1.5]}),
        encoding="utf-8",
    )
    code = main([
        "estimate", "--data", str(csv), "--schema", str(schema),
        "--query", str(query), "--estimator", "empirical",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    # Coarse truth check; the acceptance suite pins this down tightly.
    assert 0.4 < report["estimate"]["value"] < 0.7


def test_trajectories_writes_the_curve_file(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    code = main([
        "trajectories", "--spec", "nonmono", "--n-u", "5", "--grid", "4",
        "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    lines = out.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].split(";")[0] == "u_index"
    assert len(lines) == 1 + 5 * 4
    assert summary["crossing_count"] > 0


def test_validate_small_run_passes(tmp_path, capsys):
    out = tmp_path / "validation.json"
    code = main([
        "validate", "--spec", "additive_scalar", "--n", "6000",
        "--n-mc", "20000", "--grid", "8", "--n-u", "8",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["all_pass"] is True
    assert any(row["name"] == "pns_vs_oracle" for row in report["checks"])


def _golden_report(spec: str) -> bytes:
    return (GOLDEN / f"validate_{spec}_seed301.json").read_bytes()


@pytest.mark.parametrize("spec", ["additive_scalar", "lexi2", "nonmono"])
def test_validate_report_matches_its_golden(spec, tmp_path, capsys):
    """poc validate at the CLI defaults and seed 301 writes, byte for byte,
    the report recorded in tests/golden."""
    out = tmp_path / "validation.json"
    assert main(["validate", "--spec", spec, "--seed", "301", "--out", str(out)]) == 0
    assert out.read_bytes() == _golden_report(spec)


def test_validate_tabular_at_cli_defaults_passes_the_evidence_check(tmp_path, capsys):
    """The tabular model's evidence check, with its 200-replicate interval."""
    out = tmp_path / "validation.json"
    assert main(["validate", "--spec", "tabular", "--seed", "301", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["all_pass"] is True
    (evidence,) = [row for row in report["checks"] if row["name"] == "evidence_atoms"]
    assert evidence["status"] == "pass"
    assert out.read_bytes() == _golden_report("tabular")


@pytest.mark.parametrize("n_mc", ["0", "-3"])
def test_validate_rejects_a_nonpositive_oracle_size(n_mc, capsys):
    code = main([
        "validate", "--spec", "additive_scalar", "--n", "2000",
        "--n-mc", n_mc, "--grid", "4", "--n-u", "4", "--seed", "3",
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"


@pytest.mark.parametrize("command", ["trajectories", "validate"])
def test_negative_grid_is_a_config_error(command, tmp_path, capsys):
    args = [command, "--spec", "additive_scalar", "--grid", "-1", "--n-u", "4", "--seed", "3"]
    if command == "trajectories":
        args += ["--out", str(tmp_path / "curves.csv")]
    else:
        args += ["--n", "2000", "--n-mc", "2000"]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"


def test_tabular_trajectories_ignore_the_grid_size(tmp_path, capsys):
    out = tmp_path / "curves.csv"
    code = main([
        "trajectories", "--spec", "tabular", "--grid", "-1", "--n-u", "4",
        "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["grid"] == 2


@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_multi_character_delimiter_is_a_config_error(command, workdir, capsys):
    sim = workdir / "sim.csv"
    if command == "simulate":
        args = ["simulate", "--spec", "additive_scalar", "--n", "10", "--out", str(sim)]
    else:
        args = _estimate_args(workdir)
    assert main([*args, "--delimiter", ";;"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert not sim.exists()


def test_missing_data_file_is_a_config_error(workdir, capsys):
    code = main([
        "estimate", "--data", str(workdir / "absent.csv"),
        "--schema", str(workdir / "schema.json"),
        "--query", str(workdir / "query.json"),
    ])
    assert code in (2, 3)


@pytest.mark.parametrize(
    "section, value",
    [
        pytest.param("coupling", "additive", id="coupling-string"),
        pytest.param("coupling", [], id="coupling-empty-list"),
        pytest.param("covariates", 5, id="covariates-number"),
    ],
)
def test_non_object_section_is_a_config_error(section, value, tmp_path, capsys):
    from pocause import packaged_spec_path

    obj = json.loads(open(packaged_spec_path("lexi2"), encoding="utf-8").read())
    obj[section] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj), encoding="utf-8")
    code = main([
        "simulate", "--spec", str(spec), "--n", "10", "--out", str(tmp_path / "sim.csv"),
    ])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ConfigError"
    assert err["error"]["message"] == f"model spec needs a {section!r} object"


def test_lexi2_trajectory_export_is_pinned(tmp_path, capsys):
    """The 200-point, 100-curve lexi2 export: its curve file and crossing
    count are fixed by the seed."""
    import hashlib

    out = tmp_path / "curves.csv"
    code = main([
        "trajectories", "--spec", "lexi2", "--grid", "200", "--n-u", "100",
        "--seed", "7", "--out", str(out),
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["crossing_count"] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "723661dd6fb4337d94f545bb361d069e6068361ee0cf3a491cfd3b79ac150f01"
    )
