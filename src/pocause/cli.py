"""The `poc` command line tool.

Five subcommands:

* estimate: answer a query JSON against a delimited data file.
* simulate: draw an observational table from a model spec.
* validate: simulate from a spec, re-estimate, and compare against the
  brute-force oracles; one pass/fail line per check.
* trajectories: export counterfactual outcome curves and their crossing
  count for a model spec.
* reproduce-student: rerun the grade-file studies with intervals.

Machine output is JSON on stdout (or --out); human progress lines go to
stderr. Reports never include timestamps or the thread count, so a given
seed produces byte-identical output no matter when or how parallel the
run was. Errors are a JSON object on stderr and a nonzero exit code:
2 bad configuration, 3 bad data, 4 estimand not identified or off the
data's support, 5 estimation failure, 1 anything unexpected.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .bundled import packaged_spec_path
from .dataset import _save_curves, load_schema, load_table, save_table
from .errors import (
    ConfigError,
    DataError,
    DegenerateError,
    NoSupportError,
    NotIdentifiedError,
    SchemaError,
    SeparationError,
    SingularError,
)
from .estimands import (
    DEFAULT_ATOM_TOL,
    EstimatorConfig,
    estimate_with_interval,
    load_query,
    query_as_dict,
)
from .scm import _trajectory_grid, export_trajectories, load_scm, simulate, validate_spec
from .student import VARIANTS, format_student_report, reproduce_student

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IDENTIFICATION = 4
EXIT_ESTIMATION = 5


def _emit(obj: dict, out_path) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_seed(value) -> int:
    if value is None:
        raw = os.environ.get("POC_SEED", "").strip()
        if not raw:
            return 0
        try:
            value = int(raw)
        except ValueError:
            raise ConfigError(f"POC_SEED must be an integer, got {raw!r}") from None
    seed = int(value)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _estimator_config(args) -> EstimatorConfig:
    return EstimatorConfig(
        method=args.estimator, ridge=args.ridge, atom_tol=args.atom_tol
    )


def _resolve_spec(raw: str):
    """Accept either a file path or the bare name of a bundled model."""
    if os.path.exists(raw):
        return load_scm(raw)
    if "/" not in raw and "\\" not in raw and not raw.endswith(".json"):
        return load_scm(packaged_spec_path(raw))
    raise ConfigError(f"cannot read model spec {raw}: no such file")


# ---------------------------------------------------------------------------
# Subcommand bodies.
# ---------------------------------------------------------------------------


def _cmd_estimate(args) -> int:
    seed = _resolve_seed(args.seed)
    schema = load_schema(args.schema)
    table = load_table(args.data, schema, delimiter=args.delimiter)
    query = load_query(args.query)
    config = _estimator_config(args)
    [(estimate, boot)] = estimate_with_interval(
        table, [query], config,
        n_boot=args.bootstrap, seed=seed, alpha=args.alpha, threads=args.threads,
    )
    _emit(
        {
            "command": "estimate",
            "query": query_as_dict(query),
            "estimator": asdict(config),
            "seed": seed,
            "estimate": estimate.as_dict(),
            "bootstrap": None if boot is None else boot.as_dict(),
        },
        args.out,
    )
    return EXIT_OK


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    spec = _resolve_spec(args.spec)
    table = simulate(spec, args.n, seed)
    save_table(table, args.out, delimiter=args.delimiter)
    summary = {
        "command": "simulate",
        "n": table.n_rows,
        "seed": seed,
        "columns": list(table.columns),
        "path": str(args.out),
    }
    if args.schema_out:
        with open(args.schema_out, "w", encoding="utf-8") as fh:
            json.dump(table.schema.as_dict(), fh, indent=2)
            fh.write("\n")
        summary["schema_path"] = str(args.schema_out)
    _emit(summary, None)
    return EXIT_OK


def _cmd_validate(args) -> int:
    seed = _resolve_seed(args.seed)
    spec = _resolve_spec(args.spec)
    config = _estimator_config(args)
    checks = validate_spec(
        spec, n=args.n, n_mc=args.n_mc, grid=args.grid, n_u=args.n_u, config=config, seed=seed
    )
    for ch in checks:
        sys.stderr.write(f"[{ch['status']}] {ch['name']}: {ch['detail']}\n")
    failed = [ch["name"] for ch in checks if ch["status"] == "fail"]
    _emit(
        {
            "command": "validate",
            "spec": str(args.spec),
            "n": args.n,
            "n_mc": args.n_mc,
            "seed": seed,
            "estimator": config.method,
            "checks": checks,
            "all_pass": not failed,
        },
        args.out,
    )
    return EXIT_OK if not failed else EXIT_UNEXPECTED


def _cmd_trajectories(args) -> int:
    seed = _resolve_seed(args.seed)
    spec = _resolve_spec(args.spec)
    traj = export_trajectories(spec, _trajectory_grid(spec, args.grid), n_u=args.n_u, seed=seed)
    _save_curves(args.out, traj.x_grid, traj.outcomes)
    _emit(
        {
            "command": "trajectories",
            "n_u": traj.outcomes.shape[0],
            "grid": traj.x_grid.shape[0],
            "crossing_count": traj.crossing_count,
            "seed": seed,
            "path": str(args.out),
        },
        None,
    )
    return EXIT_OK


def _cmd_reproduce_student(args) -> int:
    seed = _resolve_seed(args.seed)
    report = reproduce_student(
        args.data,
        variant=args.variant,
        n_boot=args.bootstrap,
        seed=seed,
        alpha=args.alpha,
        threads=args.threads,
        config=_estimator_config(args),
    )
    sys.stdout.write(format_student_report(report) + "\n")
    if args.out:
        _emit({"command": "reproduce-student", **report.as_dict()}, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument wiring.
# ---------------------------------------------------------------------------


def _add_estimator_args(sub, default_method: str) -> None:
    sub.add_argument(
        "--estimator", choices=("logistic", "empirical"), default=default_method,
        help=f"conditional CDF estimator (default {default_method})",
    )
    sub.add_argument("--ridge", type=float, default=0.0,
                     help="ridge penalty on logistic slopes (default 0)")
    sub.add_argument("--atom-tol", type=float, default=DEFAULT_ATOM_TOL,
                     help=f"mass below this counts as no atom (default {DEFAULT_ATOM_TOL:g})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poc",
        description="probabilities of causation for ordered outcomes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("estimate", help="answer a query against a data file")
    pe.add_argument("--data", required=True, help="delimited data file")
    pe.add_argument("--schema", required=True, help="table schema JSON")
    pe.add_argument("--query", required=True, help="query JSON")
    _add_estimator_args(pe, "logistic")
    pe.add_argument("--bootstrap", type=int, default=0, metavar="B",
                    help="bootstrap replicates for an interval (default 0, off)")
    pe.add_argument("--alpha", type=float, default=0.05,
                    help="interval miss probability (default 0.05)")
    pe.add_argument("--threads", type=int, default=1,
                    help="bootstrap worker threads; never changes the numbers")
    pe.add_argument("--seed", type=int, default=None,
                    help="base seed (default POC_SEED or 0)")
    pe.add_argument("--delimiter", default=";", help="field delimiter (default ';')")
    pe.add_argument("--out", default=None, help="write the report here instead of stdout")

    psim = sub.add_parser("simulate", help="draw a table from a model spec")
    psim.add_argument("--spec", required=True, help="model spec JSON, or the name of a bundled model")
    psim.add_argument("--n", type=int, required=True, help="rows to draw")
    psim.add_argument("--seed", type=int, default=None)
    psim.add_argument("--delimiter", default=";")
    psim.add_argument("--out", required=True, help="CSV destination")
    psim.add_argument(
        "--schema-out", default=None,
        help="also write the matching schema JSON here",
    )

    pv = sub.add_parser(
        "validate", help="estimate on simulated data and compare with oracles"
    )
    pv.add_argument("--spec", required=True, help="model spec JSON, or the name of a bundled model")
    pv.add_argument("--n", type=int, default=100_000, help="simulated rows")
    pv.add_argument("--n-mc", type=int, default=200_000, help="oracle draws")
    pv.add_argument("--grid", type=int, default=50, help="trajectory grid size")
    pv.add_argument("--n-u", type=int, default=20, help="trajectory latent draws")
    _add_estimator_args(pv, "empirical")
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--out", default=None)

    pt = sub.add_parser("trajectories", help="export counterfactual outcome curves")
    pt.add_argument("--spec", required=True, help="model spec JSON, or the name of a bundled model")
    pt.add_argument("--grid", type=int, default=50, help="treatment grid size")
    pt.add_argument("--n-u", type=int, default=20, help="latent draws to trace")
    pt.add_argument("--seed", type=int, default=None)
    pt.add_argument("--out", required=True, help="CSV destination")

    pr = sub.add_parser(
        "reproduce-student", help="rerun the grade-file studies with intervals"
    )
    pr.add_argument("--data", required=True, help="semicolon-delimited grade file")
    pr.add_argument("--variant", choices=VARIANTS, default="joint")
    _add_estimator_args(pr, "logistic")
    pr.add_argument("--bootstrap", type=int, default=1000, metavar="B")
    pr.add_argument("--alpha", type=float, default=0.05)
    pr.add_argument("--threads", type=int, default=1)
    pr.add_argument("--seed", type=int, default=None)
    pr.add_argument("--out", default=None, help="also write the report JSON here")

    return parser


_HANDLERS = {
    "estimate": _cmd_estimate,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
    "trajectories": _cmd_trajectories,
    "reproduce-student": _cmd_reproduce_student,
}


def _error_exit(exc: Exception, code: int) -> int:
    sys.stderr.write(
        json.dumps(
            {"error": {"type": type(exc).__name__, "message": str(exc)}, "exit_code": code}
        )
        + "\n"
    )
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, SchemaError) as exc:
        return _error_exit(exc, EXIT_CONFIG)
    except DataError as exc:
        return _error_exit(exc, EXIT_DATA)
    except (NotIdentifiedError, NoSupportError) as exc:
        return _error_exit(exc, EXIT_IDENTIFICATION)
    except (SeparationError, SingularError, DegenerateError) as exc:
        return _error_exit(exc, EXIT_ESTIMATION)
    except BrokenPipeError:
        return EXIT_UNEXPECTED
    except Exception as exc:  # noqa: BLE001
        return _error_exit(exc, EXIT_UNEXPECTED)


if __name__ == "__main__":
    sys.exit(main())
