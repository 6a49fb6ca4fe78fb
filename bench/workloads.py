"""The four benchmark workloads: their commands, inputs and output checks.

A workload is a list of operations. An operation is one `poc` command line
plus the checks on what it printed or wrote; it fails when the command
exits nonzero or any check fails. `plan()` writes a workload's inputs from
the seed and returns its operations as plain data, so the parent process
can hand them to a fresh child. `check()` runs in the child, after timing.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from inputs import write_grade_file, write_profile_inputs

WORKLOADS = {
    "validate-tabular": "poc validate on the tabular model at CLI defaults; its 200-replicate "
    "empirical bootstrap (take plus EmpiricalCdf rebuild per replicate) dominates",
    "diagnostics": "validate on additive_scalar, lexi2 and nonmono plus a 200x100 lexi2 "
    "trajectory export: oracles, probes and crossing counts, no bootstrap",
    "student-logistic": "reproduce-student on a synthetic 649-row grade file, B=300, one "
    "thread: thousands of small IRLS fits where per-call overhead dominates",
    "roundtrip-profiles": "simulate+save 200k rows, logistic marginal_pns over ~20k covariate "
    "profiles, then a 2-thread bootstrap: CSV I/O, large-n fits, the thread pool",
}

# Sizes per workload; "tiny" is for the benchmark's own smoke test.
SIZES = {
    "full": {
        "validate": [],  # CLI defaults: n=100k, n_mc=200k, grid 50, 20 curves
        "traj": ["--grid", "200", "--n-u", "100"],
        "student_boot": 300,
        "rows": 200_000,
        "profiles": 20_000,
        "est_boot": 20,
    },
    "tiny": {
        "validate": ["--n", "50000", "--n-mc", "50000", "--grid", "10", "--n-u", "5"],
        "traj": ["--grid", "20", "--n-u", "10"],
        "student_boot": 10,
        "rows": 5_000,
        "profiles": 500,
        "est_boot": 4,
    },
}

ORACLE_TOL = 0.02  # the CLI's own oracle tolerance
ORACLE_DRAWS = 200_000

# Functions each workload must call at least once in a traced run; zero
# calls means a public function moved or was renamed and the per-layer
# numbers would silently read 0.
EXPECTED_CALLS = {
    "validate-tabular": (
        "cli.main.validate", "scm.simulate", "scm.oracle_joint", "scm.oracle_evidence",
        "scm.check_monotonicity", "scm.monotonicity_probe", "scm.export_trajectories",
        "estimands.evaluate_query", "cdf.EmpiricalCdf.init", "cdf.EmpiricalCdf.rho_pair",
        "ordering.indicator_below", "bootstrap.bootstrap", "bootstrap.replicate",
        "dataset.DataTable.take",
    ),
    "diagnostics": (
        "cli.main.validate", "cli.main.trajectories", "scm.simulate", "scm.oracle_joint",
        "scm.oracle_evidence", "scm.check_monotonicity", "scm.monotonicity_probe",
        "scm.export_trajectories", "estimands.evaluate_query", "cdf.EmpiricalCdf.init",
        "cdf.EmpiricalCdf.rho_pair", "ordering.indicator_below", "ordering.compare",
    ),
    "student-logistic": (
        "cli.main.reproduce-student", "student.reproduce_student", "dataset.load_table",
        "estimands.evaluate_query", "cdf.LogisticCdf.rho_pair", "cdf.fit_logistic",
        "ordering.indicator_below", "bootstrap.bootstrap", "bootstrap.replicate",
        "dataset.DataTable.take",
    ),
    "roundtrip-profiles": (
        "cli.main.simulate", "cli.main.estimate", "scm.simulate", "dataset.save_table",
        "dataset.load_table", "estimands.evaluate_query", "estimands.marginal_pns",
        "cdf.LogisticCdf.rho_pair", "cdf.fit_logistic", "bootstrap.bootstrap",
        "bootstrap.replicate", "dataset.DataTable.take",
    ),
}

# The split between layers each workload was chosen for, as (claim, test on
# the traced metrics). The traced run reports whether each holds; it is not a
# correctness check, since moving work between layers is what later changes do.
PREDICTIONS = {
    "validate-tabular": (
        "bootstrap.replicate.busy_s is most of wall_s",
        lambda m: m["bootstrap.replicate.busy_s"] > 0.5 * m["trace.wall_s"],
    ),
    "diagnostics": (
        "bootstrap.replicate.calls is 0",
        lambda m: m["bootstrap.replicate.calls"] == 0,
    ),
    "student-logistic": (
        "cdf.fit_logistic.distinct_ratio is below 1 (the same models are refitted)",
        lambda m: m["cdf.fit_logistic.distinct_ratio"] < 1,
    ),
}


def _op(metric: str, argv: list, check: dict, out: str | None = None) -> dict:
    return {"metric": metric, "argv": [str(a) for a in argv], "check": check, "out": out}


def plan(name: str, work: Path, seed: int, size: str = "full") -> list[dict]:
    """Write the workload's inputs into work/ and return its operations.

    Paths in the operations are relative to work/, which is the child's
    working directory, so reports name the same paths on every run.
    """
    z = SIZES[size]
    s = str(seed)
    if name == "validate-tabular":
        return [
            _op("validate_s", ["validate", "--spec", "tabular", *z["validate"], "--seed", s,
                               "--out", "validate.json"], {"kind": "validate"}, "validate.json")
        ]
    if name == "diagnostics":
        ops = [
            _op("validate_s", ["validate", "--spec", spec, *z["validate"], "--seed", s,
                               "--out", f"validate_{spec}.json"],
                {"kind": "validate"}, f"validate_{spec}.json")
            for spec in ("additive_scalar", "lexi2", "nonmono")
        ]
        ops.append(_op("trajectories_s", ["trajectories", "--spec", "lexi2", *z["traj"],
                                          "--seed", s, "--out", "trajectories.csv"],
                       {"kind": "trajectories"}, "trajectories.csv"))
        return ops
    if name == "student-logistic":
        write_grade_file(work / "grades.csv", seed)
        b = z["student_boot"]
        return [
            _op("reproduce_student_s",
                ["reproduce-student", "--data", "grades.csv", "--variant", "joint",
                 "--estimator", "logistic", "--bootstrap", b, "--threads", 1, "--seed", s,
                 "--out", "student.json"],
                {"kind": "student", "n_boot": b}, "student.json")
        ]
    if name == "roundtrip-profiles":
        facts = write_profile_inputs(work, seed, z["profiles"])
        b = z["est_boot"]
        common = ["--data", "data.csv", "--schema", "schema.json", "--estimator", "logistic",
                  "--seed", s]
        return [
            _op("simulate_s", ["simulate", "--spec", "spec.json", "--n", z["rows"], "--seed", s,
                               "--out", "data.csv", "--schema-out", "schema.json"],
                {"kind": "simulate", "n": z["rows"]}, "data.csv"),
            _op("estimate_s", ["estimate", *common, "--query", "marginal.json",
                               "--out", "marginal_report.json"],
                {"kind": "estimate", "n_boot": 0}, "marginal_report.json"),
            _op("estimate_boot_s", ["estimate", *common, "--query", "pns.json", "--bootstrap", b,
                                    "--threads", 2, "--out", "pns_report.json"],
                {"kind": "estimate", "n_boot": b, "oracle": {"spec": "spec.json", "c": facts["c"],
                                                           "seed": seed}},
                "pns_report.json"),
        ]
    raise KeyError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")


def _prob(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0


def _interval_errors(block: dict | None, n_boot: int, where: str) -> list[str]:
    if block is None:
        return [f"{where}: no bootstrap block"]
    errors = []
    if block.get("n_boot") != n_boot:
        errors.append(f"{where}: n_boot {block.get('n_boot')} != {n_boot}")
    if not block["ci_lower"] <= block["ci_upper"]:
        errors.append(f"{where}: ci_lower {block['ci_lower']} > ci_upper {block['ci_upper']}")
    return errors


def check(op: dict, rc: int, stdout: str) -> list[str]:
    """Problems with one operation's outputs; empty when it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    kind = op["check"]["kind"]
    want = op["check"]
    if kind == "validate":
        report = json.loads(Path(op["out"]).read_text(encoding="utf-8"))
        bad = [c["name"] for c in report["checks"] if c["status"] == "fail"]
        return [] if report["all_pass"] is True else [f"validate failed checks {bad}"]
    if kind == "trajectories":
        count = json.loads(stdout)["crossing_count"]
        return [] if count == 0 else [f"{count} trajectory crossings on a monotone model"]
    if kind == "student":
        report = json.loads(Path(op["out"]).read_text(encoding="utf-8"))
        errors = []
        for row in report["rows"]:
            where = f"{row['study']}/{row['estimand']}"
            if not _prob(row["value"]):
                errors.append(f"{where}: value {row['value']} not a probability")
            errors += _interval_errors(row["interval"], want["n_boot"], where)
        return errors
    if kind == "simulate":
        n = json.loads(stdout)["n"]
        return [] if n == want["n"] else [f"simulated {n} rows, asked for {want['n']}"]
    if kind == "estimate":
        report = json.loads(Path(op["out"]).read_text(encoding="utf-8"))
        value = report["estimate"]["value"]
        errors = [] if _prob(value) else [f"estimate {value} not a probability"]
        if want["n_boot"]:
            errors += _interval_errors(report["bootstrap"], want["n_boot"], "estimate")
        if "oracle" in want:
            target = oracle_pns(report["query"], **want["oracle"])
            if abs(value - target) > ORACLE_TOL:
                errors.append(f"pns {value:.4f} vs oracle {target:.4f}, tolerance {ORACLE_TOL}")
        return errors
    raise KeyError(f"unknown check {kind!r}")


def oracle_pns(query: dict, spec: str, c: list, seed: int) -> float:
    """Shared-latent oracle for a pns query, from the package's own SCM."""
    from pocause.scm import flip_event, load_scm, oracle_joint

    event = flip_event([query["threshold"]], [query["x0"], query["x1"]])
    return oracle_joint(load_scm(spec), event, tuple(c), ORACLE_DRAWS, seed).value
