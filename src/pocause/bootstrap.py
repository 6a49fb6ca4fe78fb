"""Row-resampling confidence intervals for any table-to-number pipeline.

Replicate b always draws its row indices from counter stream b of the base
seed, never from a shared sequential generator. That one choice buys a lot:
the interval is reproducible from the seed alone, independent of thread
count and completion order, and any single replicate can be re-run in
isolation when it misbehaves.

One run can answer several statistics: replicate b draws its rows once and
every statistic is computed on that one resampled table, so a run of k
queries costs one resample per replicate, not k.

Replicates that fail for recoverable statistical reasons (an estimand
undefined on the resample, an empty stratum, a fit that separates) are
counted and excluded rather than patched over, for each statistic on its
own; the count is part of the result because a high failure rate is itself
a finding about the data.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .dataset import DataTable
from .errors import (
    ConfigError,
    DegenerateError,
    NoSupportError,
    NotIdentifiedError,
    SeparationError,
    SingularError,
    as_index,
)

RECOVERABLE = (NotIdentifiedError, NoSupportError, SeparationError, SingularError)


def derived_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for stream `index` under `seed`.

    Streams are Philox counters keyed by seed XOR index, so any (seed,
    index) pair names the same infinite sequence on every machine and in
    every thread. Resampling schemes should draw replicate b from stream b.
    """
    s, i = int(seed), int(index)
    if s < 0 or i < 0:
        raise ConfigError(f"seed and stream index must be >= 0, got {seed} and {index}")
    return np.random.Generator(np.random.Philox(key=s ^ i))


@dataclass(frozen=True)
class BootstrapResult:
    point: float
    boot_mean: float
    boot_sd: float
    ci_lower: float
    ci_upper: float
    n_boot: int
    n_failures: int
    alpha: float

    def as_dict(self) -> dict:
        return asdict(self)


def interval_settings(n_boot, alpha, threads, min_boot: int = 1) -> tuple[int, float, int]:
    """n_boot, alpha and threads as an int, a float and an int, once each is
    known to be usable: at least min_boot replicates, alpha in (0, 1) and at
    least one thread."""
    n_boot = as_index(n_boot, "bootstrap replicate count")
    threads = as_index(threads, "thread count")
    alpha = float(alpha)
    if n_boot < min_boot:
        raise ConfigError(f"bootstrap replicate count must be >= {min_boot}, got {n_boot}")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if threads < 1:
        raise ConfigError(f"need at least one thread, got {threads}")
    return n_boot, alpha, threads


class _Results(tuple):
    """One BootstrapResult per pipeline value, in order."""

    @property
    def n_failures(self) -> int:
        """Failed (value, replicate) cells over all values."""
        return sum(result.n_failures for result in self)


def _summarize(point: float, values: list, n_boot: int, alpha: float) -> BootstrapResult:
    """The result for one value from its replicate outcomes, None where failed."""
    values = np.asarray([v for v in values if v is not None], dtype=float)
    if values.size == 0:
        raise DegenerateError(
            f"all {n_boot} bootstrap replicates failed; the estimate is too "
            "fragile under resampling to report an interval"
        )
    lo, hi = np.percentile(
        values, [100.0 * alpha / 2.0, 100.0 * (1.0 - alpha / 2.0)], method="linear"
    )
    return BootstrapResult(
        point=point,
        boot_mean=float(values.mean()),
        boot_sd=float(values.std(ddof=1)) if values.size > 1 else 0.0,
        ci_lower=float(lo),
        ci_upper=float(hi),
        n_boot=n_boot,
        n_failures=n_boot - values.size,
        alpha=alpha,
    )


def bootstrap(
    table: DataTable,
    pipeline,
    *,
    n_boot: int = 1000,
    seed: int = 0,
    alpha: float = 0.05,
    threads: int = 1,
) -> BootstrapResult | tuple[BootstrapResult, ...]:
    """Percentile interval for pipeline(table) under i.i.d. row resampling.

    pipeline maps a DataTable to a float and is rerun on each resampled
    table, so whatever it does internally (refitting models included) is
    inside the interval. A failure of the full-sample point estimate is not
    caught; if the pipeline cannot answer on the actual data there is
    nothing to wrap an interval around. DegenerateError means every single
    replicate failed.

    A pipeline may instead return a tuple or list of k values, each a float
    or, where that value could not be computed for a recoverable reason, the
    error itself; that counts as a failure of that value on that replicate
    only. The result is then a tuple of k BootstrapResults, each what the
    pipeline of that value alone would get, and its n_failures is their
    total. DegenerateError means some value failed on every replicate.
    """
    n_boot, alpha, threads = interval_settings(n_boot, alpha, threads)
    first = pipeline(table)
    several = isinstance(first, (tuple, list))
    points = list(first) if several else [first]
    for point in points:
        if isinstance(point, Exception):
            raise point
    points = [float(point) for point in points]
    n = table.n_rows
    if n == 0:
        raise DegenerateError("cannot resample an empty table")

    def replicate(b: int) -> list:
        idx = derived_rng(seed, b).integers(0, n, size=n)
        try:
            out = pipeline(table.take(idx))
        except RECOVERABLE:
            return [None] * len(points)
        return [
            None if isinstance(v, RECOVERABLE) else float(v)
            for v in (out if several else (out,))
        ]

    if threads == 1:
        outcomes = [replicate(b) for b in range(n_boot)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(replicate, range(n_boot)))

    results = _Results(
        _summarize(point, [row[j] for row in outcomes], n_boot, alpha)
        for j, point in enumerate(points)
    )
    return results if several else results[0]
