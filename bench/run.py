"""pocause benchmark: run one workload through the `poc` CLI and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the repository root is this file's parent directory and
the package is imported from its src/. Workloads and their rationale are in
workloads.py and BENCHMARK.json.

--trace 0 measures untraced: it times set-up in several fresh child
processes, then runs the workload in fresh children, one after another,
until --seconds have passed (at least once), and reports medians.

--trace 1 runs the workload once untraced and once traced, checks that both
wrote byte-identical reports, and reports the per-layer numbers, the
per-command times of the untraced run and the tracing overhead.

Every operation's output is checked; the last stdout line is one JSON
object with keys correct, attempted, failed and metrics. A result file with
the raw numbers and the environment goes to .bench_out/ under the root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from tracer import LAYERS
from workloads import EXPECTED_CALLS, PREDICTIONS, WORKLOADS, plan

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0  # every child must finish before the run's time is up

COMMAND_METRICS = (
    "validate_s", "trajectories_s", "reproduce_student_s", "simulate_s", "estimate_s",
    "estimate_boot_s",
)
COMMANDS = ("estimate", "simulate", "validate", "trajectories", "reproduce-student")
SCM_FUNCTIONS = (
    "simulate", "oracle_joint", "oracle_evidence", "check_monotonicity",
    "monotonicity_probe", "export_trajectories",
)
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="pocause benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class Runner:
    """Spawns the child processes of one run, within its time limit."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.n = 0

    def spawn(self, plan_path: Path | None = None, spans: Path | None = None) -> dict:
        self.n += 1
        result = self.work / f"child{self.n}.json"
        log = self.work / f"child{self.n}.log"
        cmd = [sys.executable, str(BENCH / "child.py"), "--src", str(SRC),
               "--result", str(result)]
        if plan_path is not None:
            cmd += ["--plan", str(plan_path)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        with open(log, "wb") as fh:
            t0 = time.monotonic()
            proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, self.deadline - t0))
        if proc.returncode != 0 or not result.exists():
            tail = log.read_text(errors="replace").strip().splitlines()[-5:]
            raise RuntimeError(f"child exited {proc.returncode}: " + " | ".join(tail))
        return json.loads(result.read_text(encoding="utf-8"))


def command_seconds(child: dict) -> dict[str, float]:
    total = {}
    for op in child["ops"]:
        total[op["metric"]] = total.get(op["metric"], 0.0) + op["seconds"]
    return total


def op_failures(children) -> tuple[int, int, list[str]]:
    attempted, failed, notes = 0, 0, []
    for child in children:
        for op in child["ops"]:
            attempted += 1
            if op["errors"]:
                failed += 1
                notes.append(f"{op['metric']}: {'; '.join(map(str, op['errors']))}")
    return attempted, failed, notes


def layer_metrics(summary: dict, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced child's span summary."""
    fns, counters, distinct = summary["functions"], summary["counters"], summary["distinct"]
    m: dict[str, tuple[float, str]] = {}

    def f(name, key="calls"):
        return fns.get(name, {}).get(key, 0)

    def calls_busy(metric, name=None):
        name = name or metric
        m[f"{metric}.calls"] = (f(name), "count")
        m[f"{metric}.busy_s"] = (f(name, "busy_s"), "s")

    reps = summary["replicate_s"]
    p50, p95 = np.percentile(reps, [50, 95]) * 1000.0 if reps else (0.0, 0.0)
    calls_busy("bootstrap.replicate")
    m["bootstrap.replicate.p50_ms"] = (float(p50), "ms")
    m["bootstrap.replicate.p95_ms"] = (float(p95), "ms")
    m["bootstrap.replicate.failed"] = (counters.get("bootstrap.replicate.failed", 0), "count")
    thread_s = counters.get("bootstrap.bootstrap.thread_s", 0.0)
    m["bootstrap.parallel_efficiency"] = (
        f("bootstrap.replicate", "busy_s") / thread_s if thread_s else 0.0, "ratio")
    calls_busy("bootstrap.bootstrap")
    m["bootstrap.bootstrap.self_s"] = (f("bootstrap.bootstrap", "self_s"), "s")
    calls_busy("dataset.take", "dataset.DataTable.take")
    m["dataset.take.bytes"] = (counters.get("dataset.DataTable.take.bytes", 0), "bytes")
    calls_busy("dataset.load_table")
    calls_busy("dataset.save_table")
    calls_busy("cdf.EmpiricalCdf.init")
    calls_busy("cdf.EmpiricalCdf.rho_pair")
    calls_busy("cdf.LogisticCdf.rho_pair")
    calls_busy("cdf.fit_logistic")
    for name in ("cdf.EmpiricalCdf.init", "cdf.fit_logistic"):
        calls = f(name)
        m[f"{name}.distinct_ratio"] = (distinct.get(name, 0) / calls if calls else 0.0, "ratio")
    m["cdf.fit_logistic.iters"] = (counters.get("cdf.fit_logistic.iters", 0), "count")
    m["cdf.fit_logistic.nonconverged"] = (counters.get("cdf.fit_logistic.nonconverged", 0), "count")
    m["cdf.fit_logistic.failed"] = (counters.get("cdf.fit_logistic.failed", 0), "count")
    calls_busy("ordering.indicator_below")
    calls_busy("ordering.compare")
    m["estimands.evaluate_query.calls"] = (f("estimands.evaluate_query"), "count")
    m["estimands.evaluate_query.self_s"] = (f("estimands.evaluate_query", "self_s"), "s")
    calls_busy("estimands.marginal_pns")
    for name in SCM_FUNCTIONS:
        calls_busy(f"scm.{name}")
    calls_busy("student.reproduce_student")
    for cmd in COMMANDS:
        m[f"cli.main.{cmd}.self_s"] = (f(f"cli.main.{cmd}", "self_s"), "s")
    for layer in LAYERS:
        own = sum(v["self_s"] for k, v in fns.items() if k.startswith(layer + "."))
        m[f"layer.{layer}.self_share"] = (own / wall_s, "ratio")
    m["trace.spans"] = (summary["n_spans"], "count")
    return m


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    env = {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_name,
        "thread_variables": {v: os.environ.get(v, "unset") for v in THREAD_VARIABLES},
        "git_commit": "unavailable",
    }
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if proc.returncode == 0:
            env["git_commit"] = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted((SRC / "pocause").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    env["src_sha256"] = h.hexdigest()
    return env


def run(args) -> tuple[dict, dict]:
    """Run the workload; return the printed summary and the result file."""
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    (work / "run").mkdir(parents=True)
    ops = plan(args.workload, work / "run", args.seed, args.size)
    plan_path = work / "run" / "plan.json"
    plan_path.write_text(json.dumps(ops), encoding="utf-8")
    runner = Runner(work)
    record = {"workload": args.workload, "why": WORKLOADS[args.workload], "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "environment": environment()}
    notes: list[str] = []

    if args.trace == 0:
        setups = [runner.spawn()["setup_s"] for _ in range(SETUP_SAMPLES)]
        start = time.monotonic()
        children = []
        while not children or time.monotonic() - start < args.seconds:
            children.append(runner.spawn(plan_path))
        setups += [c["setup_s"] for c in children]
        metrics = {
            "wall_s": (statistics.median(c["wall_s"] for c in children), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(c["peak_rss_mb"] for c in children), "MiB"),
        }
        record["setup_samples_s"] = setups
    else:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-spans.npz"
        plain = runner.spawn(plan_path)
        traced = runner.spawn(plan_path, spans=spans_path)
        children = [plain, traced]
        summary = traced["trace"]
        metrics = layer_metrics(summary, traced["wall_s"])
        metrics["trace.wall_s"] = (traced["wall_s"], "s")
        metrics["trace.untraced_wall_s"] = (plain["wall_s"], "s")
        metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
        if [op["digest"] for op in plain["ops"]] != [op["digest"] for op in traced["ops"]]:
            notes.append("traced reports differ from untraced reports")
        if traced["unpatched"]:
            notes.append(f"tracer left originals bound at {traced['unpatched']}")
        for name in EXPECTED_CALLS[args.workload]:
            if summary["functions"].get(name, {}).get("calls", 0) == 0:
                notes.append(f"traced run recorded no calls to {name}")
        if args.workload in PREDICTIONS:
            claim, holds = PREDICTIONS[args.workload]
            values = {k: v for k, (v, _) in metrics.items()}
            record["prediction"] = {"claim": claim, "holds": bool(holds(values))}
        record["trace_summary"] = summary
        record["spans_file"] = str(spans_path.relative_to(ROOT))

    # Per-command times come from untraced children only.
    by_child = [command_seconds(c) for c in (children[:1] if args.trace else children)]
    per_command = {name: statistics.median(t[name] for t in by_child)
                   for name in COMMAND_METRICS if name in by_child[0]}
    attempted, failed, failures = op_failures(children)
    if args.trace:
        for name in COMMAND_METRICS:
            metrics[name] = (per_command.get(name, 0.0), "s")
        metrics["ops_attempted"] = (attempted, "count")
        metrics["ops_failed_share"] = (failed / attempted, "ratio")
    record.update(children=children, notes=notes + failures, per_command_s=per_command,
                  ops_attempted=attempted, ops_failed=failed)
    summary_line = {
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = summary_line
    return summary_line, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pocause" / "cli.py").is_file():
        sys.stderr.write(f"no pocause package under {SRC}; run from a full checkout\n")
        return 2
    summary, record = run(args)
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {WORKLOADS[args.workload]}")
    for name, m in summary["metrics"].items():
        print(f"  {name:42s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        for name, value in record["per_command_s"].items():
            print(f"  {name:42s} {value:.6g} s")
        print(f"  {'ops_attempted':42s} {record['ops_attempted']} count")
        print(f"  {'ops_failed_share':42s} {record['ops_failed'] / record['ops_attempted']:.6g} ratio")
    if "prediction" in record:
        pred = record["prediction"]
        print(f"  predicted: {pred['claim']}: {'holds' if pred['holds'] else 'DOES NOT HOLD'}")
    for note in record["notes"]:
        print(f"  FAILED: {note}")
    print(f"  result file {out_file.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
