"""One benchmark child process.

Measures its own set-up (process start until `pocause.cli` is imported),
then, given a plan, runs each operation's `poc` command in-process through
`pocause.cli.main`, optionally under the tracer, checks the outputs after
timing and writes everything to a JSON result file. Run by run.py, never
directly.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    p.add_argument("--src", required=True, help="directory holding the pocause package")
    p.add_argument("--result", required=True, help="where to write the result JSON")
    p.add_argument("--plan", default=None, help="operations JSON; omit to measure set-up only")
    p.add_argument("--spans", default=None, help="trace the run and save its spans here")
    return p.parse_args(argv)


def run_ops(ops, cli_main):
    """Run every operation, timing each; outputs are kept for the checks."""
    runs = []
    start = time.perf_counter()
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(op["argv"])
        runs.append({"rc": rc, "seconds": time.perf_counter() - t,
                     "stdout": out.getvalue(), "stderr": err.getvalue()})
    return runs, time.perf_counter() - start


def report_digest(op, run) -> str:
    """Hash of everything the command printed or wrote."""
    h = hashlib.sha256(run["stdout"].encode())
    if op["out"] and os.path.exists(op["out"]):
        h.update(Path(op["out"]).read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, args.src)
    import pocause.cli

    setup_s = time.monotonic() - args.t0
    src = Path(args.src).resolve()
    if src not in Path(pocause.__file__).resolve().parents:
        sys.stderr.write(f"pocause imported from {pocause.__file__}, not from {src}\n")
        return 2
    result = {"setup_s": setup_s}
    if args.plan is not None:
        from workloads import check

        ops = json.loads(Path(args.plan).read_text(encoding="utf-8"))
        os.chdir(Path(args.plan).parent)
        tracer = None
        if args.spans:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            result["unpatched"] = tracer.unpatched()
        runs, wall = run_ops(ops, pocause.cli.main)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["wall_s"] = wall
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.summary()
            spans = tracer.spans()
            import numpy as np

            np.savez(args.spans, names=np.array(tracer.names), **spans)
        for op, run in zip(ops, runs):
            try:
                run["errors"] = check(op, run["rc"], run["stdout"])
            except Exception as exc:  # noqa: BLE001 - a malformed report is a failed check
                run["errors"] = [f"check raised {type(exc).__name__}: {exc}"]
            if run["rc"] != 0:
                run["errors"] += run["stderr"].strip().splitlines()[-1:]
            run["digest"] = report_digest(op, run)
            run["metric"] = op["metric"]
            del run["stdout"], run["stderr"]
        result["ops"] = runs
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
