import sys
import threading
import time

import numpy as np
import pytest

from pocause import (
    ConfigError,
    DataTable,
    DegenerateError,
    EmpiricalCdf,
    EstimatorConfig,
    LogisticCdf,
    NoSupportError,
    PoCQuery,
    TableSchema,
    Variable,
    bootstrap,
    derived_rng,
    evaluate_query,
)


def _pns_pipeline(table):
    query = PoCQuery(kind="pns", thresholds=((3.0,),), treatments=((0.0,), (1.0,)),
                     covariates=(0.0,))
    return evaluate_query(table, query, EstimatorConfig(method="empirical")).value


def test_result_fields_are_coherent(small_table):
    result = bootstrap(small_table, _pns_pipeline, n_boot=60, seed=1)
    assert result.n_boot == 60
    assert result.n_failures >= 0
    assert result.ci_lower <= result.ci_upper
    assert result.boot_sd >= 0.0
    assert 0.0 <= result.point <= 1.0


def test_thread_count_does_not_change_numbers(small_table):
    serial = bootstrap(small_table, _pns_pipeline, n_boot=80, seed=9, threads=1)
    parallel = bootstrap(small_table, _pns_pipeline, n_boot=80, seed=9, threads=6)
    assert serial == parallel


def test_threads_racing_to_count_on_a_fresh_root_agree(small_table):
    """Replicates on more threads than cores, switching often, build the
    root's cell codes for six thresholds at once: every interval is the one
    one thread gets."""
    thresholds = [(y,) for y in (0.5, 1.0, 2.0, 2.5, 3.0, 4.0)]

    def run(threads):
        root = DataTable(small_table.schema, dict(small_table.columns))

        def pipeline(t):
            if t is root:  # leaves the root's cell codes to the replicates
                return [0.5] * len(thresholds)
            est = EmpiricalCdf(t)
            return [float(est.rho_pair(y, [(1.0, 0.0)])[1][0]) for y in thresholds]

        return bootstrap(root, pipeline, n_boot=80, seed=3, threads=threads)

    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run(8)
    finally:
        sys.setswitchinterval(before)
    assert tuple(parallel) == tuple(run(1))



def test_threads_racing_on_a_fresh_roots_logistic_cache_agree():
    """Logistic replicates on more threads than cores, switching often,
    build the root's feature matrix and five thresholds' indicators at
    once: every interval is the one one thread gets."""
    rng = np.random.default_rng(12)
    x = rng.integers(0, 3, 300).astype(float)
    c = rng.integers(0, 2, 300).astype(float)
    schema = TableSchema((Variable("y", "outcome", position=0), Variable("x", "treatment"),
                          Variable("c", "covariate")))
    columns = {"y": x + c + rng.normal(size=300), "x": x, "c": c}
    thresholds = [(y,) for y in (0.0, 0.5, 1.0, 2.0, 3.0)]

    def run(threads):
        root = DataTable(schema, dict(columns))

        def pipeline(t):
            if t is root:  # leaves the root's cache to the replicates
                return [0.5] * len(thresholds)
            est = LogisticCdf(t)
            return [float(est.rho_pair(y, [(1.0, 0.0)])[1][0]) for y in thresholds]

        return bootstrap(root, pipeline, n_boot=60, seed=3, threads=threads)

    before = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        parallel = run(8)
    finally:
        sys.setswitchinterval(before)
    assert tuple(parallel) == tuple(run(1))

def test_replicates_follow_pinned_streams(small_table):
    """Replicate b resamples with its own derived stream, so the whole run
    is reproducible from (seed, b) alone."""
    n = small_table.n_rows

    seen = []

    def spy(table):
        seen.append(table.columns["y"].copy())
        return 0.5

    bootstrap(small_table, spy, n_boot=3, seed=42)
    # seen[0] is the point estimate on the full table.
    for b in range(3):
        idx = derived_rng(42, b).integers(0, n, size=n)
        np.testing.assert_array_equal(seen[b + 1], small_table.columns["y"][idx])


def test_recoverable_failures_are_counted_not_fatal(small_table):
    calls = {"n": 0}

    def flaky(table):
        calls["n"] += 1
        if calls["n"] > 1 and calls["n"] % 2 == 0:
            raise NoSupportError("resample lost the stratum")
        return 0.25

    result = bootstrap(small_table, flaky, n_boot=10, seed=3)
    assert result.n_failures == 5
    assert result.n_boot == 10
    assert result.boot_mean == 0.25


def test_point_estimate_failure_propagates(small_table):
    def broken(table):
        raise NoSupportError("not even the full table works")

    with pytest.raises(NoSupportError):
        bootstrap(small_table, broken, n_boot=5, seed=0)


def test_all_replicates_failing_is_degenerate(small_table):
    calls = {"n": 0}

    def fail_after_point(table):
        calls["n"] += 1
        if calls["n"] > 1:
            raise NoSupportError("every resample breaks")
        return 0.5

    with pytest.raises(DegenerateError):
        bootstrap(small_table, fail_after_point, n_boot=4, seed=0)


def test_unexpected_errors_are_not_swallowed(small_table):
    calls = {"n": 0}

    def buggy(table):
        calls["n"] += 1
        if calls["n"] > 1:
            raise ZeroDivisionError("a genuine bug")
        return 0.5

    with pytest.raises(ZeroDivisionError):
        bootstrap(small_table, buggy, n_boot=4, seed=0)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_an_unexpected_error_is_the_lowest_numbered_replicates(small_table, threads):
    """Replicates 3 and 5 fail with errors of their own, 3 after a pause
    that lets 5 fail first on more than one thread: the error raised is
    replicate 3's, at any thread count."""
    n = small_table.n_rows
    number = {derived_rng(4, b).integers(0, n, size=n).tobytes(): b for b in range(8)}
    assert len(number) == 8

    def buggy(table):
        rows = table.origin()[1]
        b = None if rows is None else number[rows.tobytes()]
        if b == 3:
            time.sleep(0.05)
            raise ZeroDivisionError("replicate 3")
        if b == 5:
            raise KeyError("replicate 5")
        return 0.5

    with pytest.raises(ZeroDivisionError, match="replicate 3"):
        bootstrap(small_table, buggy, n_boot=8, seed=4, threads=threads)


@pytest.mark.parametrize("threads, n_boot", [(1, 12), (2, 12), (3, 12), (8, 2)])
def test_threads_bound_the_threads_that_run_the_pipeline(small_table, threads, n_boot):
    """The calling thread runs the point pass and takes replicates beside
    its helpers, so threads=t runs the pipeline on at most t threads, and
    on no more threads than there are replicates."""
    seen = set()

    def pipeline(table):
        seen.add(threading.get_ident())
        time.sleep(0.002)
        return 0.5

    bootstrap(small_table, pipeline, n_boot=n_boot, seed=1, threads=threads)
    assert threading.get_ident() in seen
    assert len(seen) <= min(threads, n_boot)


def test_interval_covers_a_stable_statistic(small_table):
    result = bootstrap(small_table, lambda t: float(t.columns["y"].mean()),
                       n_boot=200, seed=5)
    assert result.ci_lower <= result.point <= result.ci_upper
    assert result.boot_sd > 0.0


@pytest.mark.parametrize(
    "counts, message",
    [
        pytest.param({"n_boot": 2.7}, "bootstrap replicate count must be an integer, got 2.7",
                     id="fractional-replicates"),
        pytest.param({"n_boot": True}, "bootstrap replicate count must be an integer, got True",
                     id="bool-replicates"),
        pytest.param({"threads": 1.9}, "thread count must be an integer, got 1.9",
                     id="fractional-threads"),
        pytest.param({"threads": True}, "thread count must be an integer, got True",
                     id="bool-threads"),
    ],
)
def test_non_integer_counts_are_config_errors(counts, message, small_table):
    """2.7 replicates is a mistake, not a request for 2."""
    with pytest.raises(ConfigError) as info:
        bootstrap(small_table, _pns_pipeline, **{"n_boot": 3, **counts})
    assert str(info.value) == message


def _low_mean(table):
    """Mean outcome, undefined on resamples whose mean exceeds 2.6."""
    mean = float(table.columns["y"].mean())
    if mean > 2.6:
        raise NoSupportError("resample mean above 2.6")
    return mean


def _pns_and_low_mean(table):
    """Both statistics, each failure returned in place of its value."""
    values = []
    for statistic in (_pns_pipeline, _low_mean):
        try:
            values.append(statistic(table))
        except NoSupportError as exc:
            values.append(exc)
    return values


def test_each_value_gets_the_interval_it_gets_alone(small_table):
    """A pipeline of two values, the second failing on some replicates,
    gives each value the result bootstrap gives that value on its own."""
    both = bootstrap(small_table, _pns_and_low_mean, n_boot=60, seed=8)
    alone = (
        bootstrap(small_table, _pns_pipeline, n_boot=60, seed=8),
        bootstrap(small_table, _low_mean, n_boot=60, seed=8),
    )
    assert tuple(both) == alone
    assert 0 < alone[0].n_failures < alone[1].n_failures < 60
    assert both.n_failures == alone[0].n_failures + alone[1].n_failures


def test_several_values_do_not_depend_on_thread_count(small_table):
    serial = bootstrap(small_table, _pns_and_low_mean, n_boot=60, seed=8, threads=1)
    parallel = bootstrap(small_table, _pns_and_low_mean, n_boot=60, seed=8, threads=3)
    assert tuple(serial) == tuple(parallel)
    assert serial.n_failures == parallel.n_failures


def test_a_value_failing_on_every_replicate_is_degenerate(small_table):
    def second_fails_on_resamples(table):
        failed = NoSupportError("every resample breaks")
        return (0.5, 0.25 if table is small_table else failed)

    with pytest.raises(DegenerateError):
        bootstrap(small_table, second_fails_on_resamples, n_boot=4, seed=0)
