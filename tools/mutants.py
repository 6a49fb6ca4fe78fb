#!/usr/bin/env python3
"""Report which tests catch each listed source mutant.

    python tools/mutants.py            # every mutant in MUTANTS
    python tools/mutants.py NAME ...   # only these

A mutant is one exact text edit to one file. For each, the script copies
src/, tests/ and pyproject.toml to a temporary directory, applies the edit
there, and runs the mutant's test files with `pytest -x -q`. It first
checks that every chosen edit's old text occurs exactly once, and that the
unmutated copy passes the union of the test files. It prints one table row
per mutant: caught or not, the first failing test and the seconds taken.
The script is report-only: it changes nothing in the tree it runs from,
and its exit code says only whether it could run.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str   # must occur exactly once in path
    new: str
    reason: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "uniform-marginal-weights", "src/pocause/estimands.py",
        "counts / counts.sum() * np.maximum(gap, 0.0)",
        "np.maximum(gap, 0.0) / len(counts)",
        "marginal_pns weights every covariate profile equally, not by its frequency",
        ("tests/test_exact_answers.py",),
    ),
    Mutant(
        "no-treatment-column-check", "src/pocause/scm.py",
        '        if m.n_treatments == 0:\n'
        '            raise ConfigError("a model needs at least one treatment column")\n',
        "",
        "a model spec with no treatment column loads",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "c-levels-guard-restored", "src/pocause/scm.py",
        '        _check_distinct(cl, "c_levels")\n',
        '        if cl.shape[1]:\n            _check_distinct(cl, "c_levels")\n',
        "repeated empty c_levels rows load, and only the first cut table is read",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "catch-per-replicate", "src/pocause/estimands.py",
        "        for q in queries:\n"
        "            try:\n"
        "                if q.order not in estimators:\n"
        "                    estimators[q.order] = _build_estimator(t, q.order, config)\n"
        "                values.append(_answer(estimators[q.order], t, q, config).value)\n"
        "            except RECOVERABLE as exc:\n"
        "                values.append(exc)\n",
        "        try:\n"
        "            for q in queries:\n"
        "                if q.order not in estimators:\n"
        "                    estimators[q.order] = _build_estimator(t, q.order, config)\n"
        "                values.append(_answer(estimators[q.order], t, q, config).value)\n"
        "        except RECOVERABLE as exc:\n"
        "            values = [exc] * len(queries)\n",
        "one query's failed replicate fails every query of that replicate",
        ("tests/test_estimands.py",),
    ),
    Mutant(
        "estimator-config-unconverted", "src/pocause/estimands.py",
        "            try:\n"
        "                x = as_float(v)\n"
        "            except (TypeError, ValueError, OverflowError):\n"
        '                raise ConfigError(f"{name} must be a number, got {v!r}") from None\n',
        "            x = v\n",
        "EstimatorConfig keeps ridge and atom_tol as given, numbers or not",
        ("tests/test_estimands.py",),
    ),
    Mutant(
        "gather-weak-side", "src/pocause/estimands.py",
        "        strict, _ = estimator.rho_pair(",
        "        _, strict = estimator.rho_pair(",
        "chain steps read the weak CDF (at or below y), not the strict one",
        ("tests/test_exact_answers.py",),
    ),
    Mutant(
        "no-failed-replicates-note", "src/pocause/student.py",
        '                piece += f"  ({row.interval.n_failures} replicates failed)"\n',
        "                pass\n",
        "the student report stops saying how many replicates failed",
        ("tests/test_student.py",),
    ),
]


def _copy_tree(dest: Path) -> None:
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            dest.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def _check(mutant: Mutant) -> None:
    found = (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old)
    if found != 1:
        raise SystemExit(
            f"mutant {mutant.name}: its old text occurs {found} times in {mutant.path}, "
            "not exactly once"
        )


def _apply(tree: Path, mutant: Mutant) -> None:
    target = tree / mutant.path
    target.write_text(
        target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8"
    )


def _run(tree: Path, tests) -> tuple[bool, str, float]:
    """Whether pytest -x -q passes on tests in tree, the first failing
    test (or the exit code, when no test is named), and the seconds taken."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    first = failed.group(1) if failed else f"(pytest exit {proc.returncode})"
    return proc.returncode == 0, "" if proc.returncode == 0 else first, seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="report which tests catch each source mutant")
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - {m.name for m in MUTANTS})
    if unknown:
        raise SystemExit(f"unknown mutants: {unknown}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    for mutant in chosen:
        _check(mutant)

    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy_tree(base)
        tests = sorted({t for m in chosen for t in m.tests})
        passed, first, seconds = _run(base, tests)
        if not passed:
            raise SystemExit(f"the unmutated tree fails its tests ({first}); no mutant was run")
        print(f"unmutated: {len(tests)} test files pass in {seconds:.1f} s")
        print("| mutant | result | first failing test | s |")
        print("|---|---|---|---|")
        for mutant in chosen:
            tree = Path(tmp) / mutant.name
            _copy_tree(tree)
            _apply(tree, mutant)
            passed, first, seconds = _run(tree, mutant.tests)
            result = "not caught" if passed else "caught"
            print(f"| {mutant.name} | {result} | {first or '-'} | {seconds:.1f} |", flush=True)
            shutil.rmtree(tree)
    return 0


if __name__ == "__main__":
    sys.exit(main())
