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
A mutant argued equivalent stays listed, marked as such, so that a test
that starts to catch it shows.
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
    equivalent: bool = False  # argued to change no result; "not caught" is expected


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
        "            except (TypeError, ValueError):\n"
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
    Mutant(
        "empirical-strict-reads-weak", "src/pocause/cdf.py",
        "        return strict[codes] / sizes, weak[codes] / sizes\n",
        "        return weak[codes] / sizes, weak[codes] / sizes\n",
        "EmpiricalCdf answers its strict CDF (below y) with the weak one (at or below y)",
        ("tests/test_exact_answers.py",),
    ),
    # The sorted-ladder bucket search, scm._ladder_search.
    Mutant(
        "ladder-nan-shares-last-bucket", "src/pocause/scm.py",
        "    top = 16 * n_l + 2", "    top = 16 * n_l + 1",
        "NaN keys share the bucket of the last ladder value",
        ("tests/test_scm.py",),
    ),
    Mutant(
        "ladder-sides-swapped", "src/pocause/scm.py",
        '        reached = np.less_equal if side == "right" else np.less\n',
        '        reached = np.less if side == "right" else np.less_equal\n',
        "the left and right searches compare the next ladder value the other way",
        ("tests/test_scm.py",),
    ),
    Mutant(
        "ladder-pairs-not-searched", "src/pocause/scm.py",
        "        shared = count > 1\n", "        shared = count > 2\n",
        "a key in a bucket of exactly two ladder values is placed by one comparison",
        ("tests/test_scm.py",),
    ),
    Mutant(
        "ladder-inclusive-counts", "src/pocause/scm.py",
        "        before -= count\n", "",
        "a key's index counts the ladder values in its own bucket too",
        ("tests/test_scm.py",),
    ),
    Mutant(
        "ladder-no-lower-clip", "src/pocause/scm.py",
        "        np.fmax(b, 0.0, out=b)\n", "",
        "keys far below the ladder take negative buckets",
        ("tests/test_scm.py",),
    ),
    Mutant(
        "ladder-inf-sentinel", "src/pocause/scm.py",
        "np.append(ladder, np.nan)", "np.append(ladder, np.inf)",
        "the value past the ladder's end is +inf, which an inf key reaches",
        ("tests/test_scm.py",),
    ),
    Mutant(
        "ladder-key-bucket-rounded", "src/pocause/scm.py",
        "            b = buckets(v)\n", "            b = buckets(v + 0.5 / scale)\n",
        "a key whose bucket fraction is 0.5 or more lands one bucket up",
        ("tests/test_scm.py",),
    ),
    Mutant(
        "ladder-offset-half", "src/pocause/scm.py",
        "        b += 1.0\n", "        b += 0.5\n",
        "equivalent: the bucket map stays monotone and ladder and keys share it",
        ("tests/test_scm.py",),
        equivalent=True,
    ),
    Mutant(
        "ladder-buckets-at-every-size", "src/pocause/scm.py",
        "    if n_l >= 16:\n", "    if n_l:\n",
        "equivalent: the 16-value cut is for speed, and the bucket path is exact at any size",
        ("tests/test_scm.py",),
        equivalent=True,
    ),
    # The column-wise CSV writer and the array checks it came with.
    Mutant(
        "csv-lone-empty-unquoted", "src/pocause/dataset.py",
        "[[cell or '\"\"' for cell in columns[0]]]", "[list(columns[0])]",
        "a one-column row holding an empty cell is written as an empty line",
        ("tests/test_dataset.py",),
    ),
    Mutant(
        "csv-quotes-not-doubled", "src/pocause/dataset.py",
        "t.replace('\"', '\"\"')", "t",
        "a quote inside a quoted cell is written as it is",
        ("tests/test_dataset.py",),
    ),
    Mutant(
        "csv-cr-not-special", "src/pocause/dataset.py",
        "    special = (delimiter, '\"', \"\\r\", \"\\n\")\n",
        "    special = (delimiter, '\"', \"\\n\")\n",
        "a cell holding a carriage return is not quoted",
        ("tests/test_dataset.py",),
    ),
    Mutant(
        "csv-lf-line-ends", "src/pocause/dataset.py",
        'fh.write("\\r\\n".join(rows) + "\\r\\n")', 'fh.write("\\n".join(rows) + "\\n")',
        "rows end in \\n, not csv.writer's \\r\\n",
        ("tests/test_dataset.py",),
    ),
    Mutant(
        "csv-only-lf-delimiter-rejected", "src/pocause/dataset.py",
        '    if delimiter in "\\r\\n":\n', '    if delimiter == "\\n":\n',
        "a carriage-return delimiter is accepted",
        ("tests/test_dataset.py",),
    ),
    Mutant(
        "floats-object-arrays-not-scanned", "src/pocause/scm.py",
        '            arr.dtype.kind == "O" and any(', "            False and any(",
        "a spec array mixing None or a huge integer with a numeric string is read as numbers",
        ("tests/test_scm.py",),
    ),
    Mutant(
        "floats-text-accepted", "src/pocause/scm.py",
        '        if arr.dtype.kind in "US" or (', "        if (",
        "a spec array of numeric strings is read as numbers",
        ("tests/test_cli.py", "tests/test_scm.py"),
    ),
    Mutant(
        "floats-bytes-accepted", "src/pocause/scm.py",
        'arr.dtype.kind in "US"', 'arr.dtype.kind in "U"',
        "equivalent: JSON gives no bytes, so no spec array has the S dtype",
        ("tests/test_cli.py", "tests/test_scm.py"),
        equivalent=True,
    ),
    # The Monte Carlo oracles over blocks of latent draws.
    Mutant(
        "mc-tail-dropped", "src/pocause/scm.py",
        "        n -= size\n",
        "        n -= size\n        size -= size % _MC_BLOCK if size > _MC_BLOCK else 0\n",
        "the rows past the last whole block are never drawn",
        ("tests/test_scm.py",),
    ),
    Mutant(
        "mc-one-row-tail", "src/pocause/scm.py",
        "        size = n if n < 2 * _MC_BLOCK else _MC_BLOCK\n",
        "        size = min(n, _MC_BLOCK)\n",
        "every block but the last is full, so k * _MC_BLOCK + 1 draws end in a one-row block",
        ("tests/test_scm.py",),
    ),
    Mutant(
        "mc-n-used-last-block", "src/pocause/scm.py",
        "        counts[0] += U.shape[0]\n", "        counts[0] = U.shape[0]\n",
        "n_used, and every frequency's denominator, is the last block's row count",
        ("tests/test_scm.py",),
    ),
    Mutant(
        "mc-event-count-unsummed", "src/pocause/scm.py",
        "        counts[1] += np.count_nonzero(ok)\n", "        counts[1] = np.count_nonzero(ok)\n",
        "the event's hits are the last block's",
        ("tests/test_scm.py",),
    ),
    Mutant(
        "mc-clause-counts-unsummed", "src/pocause/scm.py",
        "            counts[i] += np.count_nonzero(hit)\n",
        "            counts[i] = np.count_nonzero(hit)\n",
        "each clause's hits are the last block's",
        ("tests/test_scm.py",),
    ),
    Mutant(
        "mc-rejection-se-over-n-mc", "src/pocause/scm.py",
        "np.sqrt(v * (1.0 - v) / n_used)", "np.sqrt(v * (1.0 - v) / n_mc)",
        "a rejection oracle's std_error divides by the draws made, not the draws kept",
        ("tests/test_scm.py",),
    ),
    Mutant(
        "mc-pair-count-one-side", "src/pocause/scm.py",
        "count(np.maximum(rank[key(xa)], rank[key(xb)]))", "count(rank[key(xa)])",
        "the draws below a threshold under both treatments are counted under xa alone",
        ("tests/test_scm.py",),
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
            if mutant.equivalent:
                result += " (equivalent)"
            print(f"| {mutant.name} | {result} | {first or '-'} | {seconds:.1f} |", flush=True)
            shutil.rmtree(tree)
    return 0


if __name__ == "__main__":
    sys.exit(main())
