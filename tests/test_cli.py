import csv
import io
import json
import math
from pathlib import Path

import jsonschema
import pytest

from pocause import cdf, export_trajectories, load_scm, packaged_query_path, packaged_spec_path
from pocause.cli import build_parser, main
from pocause.scm import _trajectory_grid

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


def test_a_cell_past_the_csv_field_limit_is_a_data_error(workdir, capsys):
    (workdir / "data.csv").write_text("y;x;c\n1;0;0\n" + "1" * 140_000 + ";1;0\n", encoding="utf-8")
    assert main(_estimate_args(workdir)) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "DataError"
    assert "line 3: field larger than field limit" in err["error"]["message"]


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



def test_a_many_block_logistic_estimate_does_not_depend_on_threads(tmp_path, capsys, monkeypatch):
    """With 256-row IRLS blocks a 3,000-row table fits in 12 blocks; its
    bootstrapped logistic report is byte-identical at 1 and 4 threads."""
    monkeypatch.setattr(cdf, "_BLOCK_ROWS", 256)
    csv, schema = tmp_path / "sim.csv", tmp_path / "sim.schema.json"
    assert main(["simulate", "--spec", "additive_scalar", "--n", "3000", "--seed", "6",
                 "--out", str(csv), "--schema-out", str(schema)]) == 0
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"kind": "pns", "threshold": [0.8], "x0": [0.0], "x1": [1.5]}),
                     encoding="utf-8")
    reports = []
    for threads in (1, 4):
        out = tmp_path / f"report_{threads}.json"
        assert main(["estimate", "--data", str(csv), "--schema", str(schema), "--query", str(query),
                     "--estimator", "logistic", "--bootstrap", "40", "--seed", "2",
                     "--threads", str(threads), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]

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


@pytest.mark.parametrize(
    "delimiter, what",
    [("\n", "a line break"), ("\r", "a line break"), ('"', "the quote character")],
    ids=["lf", "cr", "quote"],
)
@pytest.mark.parametrize("command", ["simulate", "estimate"])
def test_a_delimiter_no_reader_can_split_is_a_config_error(command, delimiter, what, workdir,
                                                           capsys):
    """A line break or the quote character as delimiter would write a table
    that no reader splits back into its rows and cells; it is refused before
    any file is written."""
    sim = workdir / "sim.csv"
    if command == "simulate":
        args = ["simulate", "--spec", "additive_scalar", "--n", "10", "--out", str(sim)]
    else:
        args = _estimate_args(workdir)
    assert main([*args, "--delimiter", delimiter]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {
        "type": "ConfigError",
        "message": f"delimiter must not be {what}, got {delimiter!r}",
    }
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


@pytest.mark.parametrize("spec", ["additive_scalar", "lexi2", "nonmono", "tabular"])
def test_trajectory_file_matches_a_csv_writer_reference(spec, tmp_path, capsys):
    """The curve file holds the bytes csv.writer writes for the same
    curves, one row per curve and grid point."""
    out = tmp_path / "curves.csv"
    assert main([
        "trajectories", "--spec", spec, "--grid", "6", "--n-u", "5",
        "--seed", "4", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    model = load_scm(packaged_spec_path(spec))
    traj = export_trajectories(model, _trajectory_grid(model, 6), n_u=5, seed=4)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, delimiter=";")
    writer.writerow(
        ["u_index"]
        + [f"x{j + 1}" for j in range(traj.x_grid.shape[1])]
        + [f"y{j + 1}" for j in range(traj.outcomes.shape[2])]
    )
    for i, curve in enumerate(traj.outcomes):
        for x, y in zip(traj.x_grid.tolist(), curve.tolist()):
            writer.writerow([i, *x, *y])
    assert out.read_bytes() == buf.getvalue().encode("utf-8")


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


_QUERY_SPECS = {"additive": "additive_scalar", "lexi2": "lexi2", "tabular": "tabular"}
_BUNDLED_QUERIES = (
    "additive_chain2", "additive_chain3", "additive_evidence", "additive_pns",
    "lexi2_marginal", "lexi2_pns", "tabular_evidence",
)


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """A 3,000-row seed-3 table and its schema for each model the bundled
    queries are written against."""
    import contextlib
    import io

    root = tmp_path_factory.mktemp("simulated")
    paths = {}
    for spec in _QUERY_SPECS.values():
        csv, schema = root / f"{spec}.csv", root / f"{spec}.schema.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([
                "simulate", "--spec", spec, "--n", "3000", "--seed", "3",
                "--out", str(csv), "--schema-out", str(schema),
            ]) == 0
        paths[spec] = (csv, schema)
    return paths


@pytest.mark.parametrize("estimator", ["logistic", "empirical"])
@pytest.mark.parametrize("name", _BUNDLED_QUERIES)
def test_estimate_report_matches_its_golden(name, estimator, simulated, capsys):
    """poc estimate on every bundled query, with a 20-replicate interval on
    two threads, prints the report recorded in tests/golden, and that
    report satisfies the published report schema."""
    from importlib import resources

    from pocause import packaged_query_path

    csv, schema = simulated[_QUERY_SPECS[name.split("_")[0]]]
    code = main([
        "estimate", "--data", str(csv), "--schema", str(schema),
        "--query", str(packaged_query_path(name)), "--estimator", estimator,
        "--bootstrap", "20", "--seed", "7", "--threads", "2",
    ])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    golden = GOLDEN / f"estimate_{name}_{estimator}.json"
    assert captured.out.encode("utf-8") == golden.read_bytes()
    contract = json.loads(
        resources.files("pocause").joinpath("assets/report_schema.json").read_text()
    )
    jsonschema.validate(json.loads(captured.out), contract)


def _config_error_message(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["exit_code"] == 2
    return err["error"]["message"]


@pytest.mark.parametrize("flag, what", [("--query", "query file"), ("--schema", "schema file")])
def test_unreadable_and_malformed_inputs_name_the_file(flag, what, workdir, capsys):
    bad = workdir / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    absent = workdir / "absent.json"
    args = _estimate_args(workdir)
    i = args.index(flag) + 1

    args[i] = str(absent)
    assert main(args) == 2
    assert _config_error_message(capsys) == (
        f"cannot read {what} {absent}: [Errno 2] No such file or directory: '{absent}'"
    )
    args[i] = str(bad)
    assert main(args) == 2
    assert _config_error_message(capsys) == (
        f"{what} {bad} is not valid JSON: Expecting value: line 1 column 1 (char 0)"
    )
    bad.write_bytes(b"\xff\xfe" + json.dumps(QUERY).encode("utf-8"))
    assert main(args) == 2
    assert _config_error_message(capsys) == (
        f"{what} {bad} is not UTF-8 text (byte 0xff: invalid start byte)"
    )


def test_data_file_that_is_not_utf8_is_a_data_error(workdir, capsys):
    data = workdir / "data.csv"
    data.write_bytes(SMALL_CSV.encode("utf-8").replace(b"\n1;0;0\n", b"\n1;0;\xff\n", 1))
    assert main(_estimate_args(workdir)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": {
            "type": "DataError",
            "message": f"{data}: not UTF-8 text (byte 0xff: invalid start byte)",
        },
        "exit_code": 3,
    }


def test_unreadable_and_malformed_model_specs_name_the_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    out = str(tmp_path / "sim.csv")

    assert main(["simulate", "--spec", str(tmp_path), "--n", "10", "--out", out]) == 2
    assert _config_error_message(capsys) == (
        f"cannot read model spec {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'"
    )
    assert main(["simulate", "--spec", str(bad), "--n", "10", "--out", out]) == 2
    assert _config_error_message(capsys) == (
        f"model spec {bad} is not valid JSON: Expecting value: line 1 column 1 (char 0)"
    )


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        pytest.param(
            "mean", "treat_coef", [[1.0], [2.0, 3.0]],
            "treat_coef must be numbers in a rectangular array, got [[1.0], [2.0, 3.0]]",
            id="ragged-treat-coef",
        ),
        pytest.param(
            "noise", "sd", "x", "sd must be numbers in a rectangular array, got 'x'",
            id="string-sd",
        ),
        pytest.param(
            "mean", "intercept", ["1e0", "0"],
            "intercept must be numbers in a rectangular array, got ['1e0', '0']",
            id="numeric-string-intercept",
        ),
    ],
)
def test_malformed_spec_numbers_are_config_errors(section, key, value, message, tmp_path, capsys):
    from pocause import packaged_spec_path

    obj = json.loads(open(packaged_spec_path("lexi2"), encoding="utf-8").read())
    obj[section][key] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj), encoding="utf-8")
    code = main([
        "simulate", "--spec", str(spec), "--n", "10", "--out", str(tmp_path / "sim.csv"),
    ])
    assert code == 2
    assert _config_error_message(capsys) == message


def test_string_threshold_is_a_config_error(simulated, tmp_path, capsys):
    """A JSON string where a number list belongs is rejected, not read as
    a list of its characters."""
    csv, schema = simulated["lexi2"]
    query = tmp_path / "query.json"
    query.write_text(json.dumps(
        {"kind": "pns", "threshold": "12", "x0": [0.0], "x1": [1.0], "c": [1.0]}
    ), encoding="utf-8")
    assert main(["estimate", "--data", str(csv), "--schema", str(schema),
                 "--query", str(query)]) == 2
    assert _config_error_message(capsys) == "threshold must be a list of numbers, got '12'"


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        pytest.param("policy", "support", [[1.0], [3.0]],
                     "policy support value [3.0] is not a declared level", id="policy-support"),
        pytest.param("covariates", "support", [[0.0], [2.0]],
                     "covariate support value [2.0] is not a declared level",
                     id="covariate-support"),
        pytest.param("mean", "c_levels", [[0.0], [math.inf]],
                     "c_levels contains non-finite entries", id="infinite-c-level"),
        pytest.param("mean", "c_levels", [[math.nan], [math.nan]],
                     "c_levels contains non-finite entries", id="nan-c-levels"),
    ],
)
def test_a_tabular_spec_that_contradicts_itself_is_a_config_error(
    section, key, value, message, tmp_path, capsys
):
    """A support row the tabular mechanism does not declare, or a
    non-finite covariate level, is a fault of the spec: exit 2 at load,
    not a missing-support exit 4 once simulation asks for the row."""
    obj = json.loads(packaged_spec_path("tabular").read_text(encoding="utf-8"))
    obj[section][key] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj), encoding="utf-8")
    code = main([
        "simulate", "--spec", str(spec), "--n", "10", "--out", str(tmp_path / "sim.csv"),
    ])
    assert code == 2
    assert _config_error_message(capsys) == message


_NO_TREATMENT = "a model needs at least one treatment column"


@pytest.mark.parametrize(
    "base, edits, message",
    [
        pytest.param("additive_scalar",
                     {"mean": {"treat_coef": [[]]}, "policy": {"support": [[]], "logits": [0.0]}},
                     _NO_TREATMENT, id="linear-without-treatment"),
        pytest.param("tabular",
                     {"mean": {"x_levels": [[]], "cuts": [[[0.5, 0.8], [0.6, 0.9]]]},
                      "policy": {"support": [[]], "logits": [0.0], "covariate_logits": [[0.5]]}},
                     _NO_TREATMENT, id="tabular-without-treatment"),
        pytest.param("additive_scalar", {"policy": {"support": [[], []], "logits": [0.0, 0.0]}},
                     "policy support contains duplicate rows", id="repeated-empty-support"),
        pytest.param("tabular",
                     {"mean": {"c_levels": [[], []]}, "covariates": None,
                      "policy": {"covariate_logits": None}},
                     "c_levels contains duplicate rows", id="repeated-empty-c-level"),
        pytest.param("additive_scalar", {"covariates": {"support": [[]], "probs": [1.0]}},
                     None, id="one-empty-covariate-profile"),
    ],
)
def test_rows_with_no_columns_group_like_any_other_rows(base, edits, message, tmp_path, capsys):
    """An empty row is one row: listed twice it is a duplicate, listed once
    it is the one covariate profile of a model without covariates. A
    model with no treatment column is a fault of the spec."""
    obj = json.loads(packaged_spec_path(base).read_text(encoding="utf-8"))
    for section, patch in edits.items():
        obj[section] = patch if patch is None or obj[section] is None else {**obj[section], **patch}
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj), encoding="utf-8")
    code = main([
        "simulate", "--spec", str(spec), "--n", "10", "--out", str(tmp_path / "sim.csv"),
    ])
    if message is not None:
        assert code == 2
        assert _config_error_message(capsys) == message
    else:
        assert code == 0
        assert json.loads(capsys.readouterr().out)["columns"] == ["y1", "x1"]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag, what", [("--atom-tol", "atom_tol"), ("--ridge", "ridge")])
def test_a_non_finite_estimator_tolerance_is_a_config_error(flag, what, value, simulated, capsys):
    """A NaN --atom-tol would count every atom as none and answer 0 with
    exit 0; a non-finite --ridge would fail later, naming the CDF values."""
    csv, schema = simulated["tabular"]
    code = main([
        "estimate", "--data", str(csv), "--schema", str(schema),
        "--query", str(packaged_query_path("tabular_evidence")), "--estimator", "empirical",
        flag, value,
    ])
    assert code == 2
    assert _config_error_message(capsys) == f"{what} must be finite and >= 0, got {value}"


def test_the_atom_tol_default_is_the_library_default():
    from pocause.estimands import DEFAULT_ATOM_TOL

    args = build_parser().parse_args(["estimate", "--data", "d", "--schema", "s", "--query", "q"])
    assert args.atom_tol == DEFAULT_ATOM_TOL


_HUGE = 10**400  # a JSON integer past the float range


@pytest.mark.parametrize(
    "base, section, patch, message",
    [
        pytest.param("nonmono", "coupling", {"flip_at": _HUGE},
                     f"flip_at must be a number, got {_HUGE!r}", id="flip-at"),
        pytest.param("additive_scalar", "mean", {"treat_coef": [[_HUGE]]},
                     f"treat_coef must be numbers in a rectangular array, got {[[_HUGE]]!r}",
                     id="treat-coef"),
        pytest.param("lexi2", "order", {"kind": "scalar_score", "weights": [1.0, _HUGE]},
                     f"weights must be a list of numbers, got {(1.0, _HUGE)!r}",
                     id="score-weights"),
    ],
)
def test_a_spec_integer_past_the_float_range_is_a_config_error(
    base, section, patch, message, tmp_path, capsys
):
    """float() of such an integer raises OverflowError; it is a spec
    value that is not a number, named by its field, not a crash."""
    obj = json.loads(packaged_spec_path(base).read_text(encoding="utf-8"))
    obj[section] = {**obj[section], **patch} if section != "order" else patch
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(obj), encoding="utf-8")
    code = main([
        "simulate", "--spec", str(spec), "--n", "10", "--out", str(tmp_path / "sim.csv"),
    ])
    assert code == 2
    assert _config_error_message(capsys) == message


def test_a_query_integer_past_the_float_range_is_a_config_error(workdir, capsys):
    (workdir / "query.json").write_text(json.dumps({**QUERY, "threshold": [_HUGE]}),
                                        encoding="utf-8")
    assert main(_estimate_args(workdir)) == 2
    assert _config_error_message(capsys) == (
        f"threshold must be a list of numbers, got {[_HUGE]!r}"
    )
