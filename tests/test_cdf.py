import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocause import cdf
from pocause import (
    DataTable,
    EmpiricalCdf,
    LogisticCdf,
    ConfigError,
    NoSupportError,
    ScalarScore,
    SeparationError,
    SingularError,
    TableSchema,
    Variable,
    fit_logistic,
    indicator_below,
    lexicographic_default,
)

COEF_TOL = 1e-7


def test_logistic_recovers_exact_two_point_solution():
    """Binary feature, success rates 1/4 at 0 and 3/4 at 1.

    The likelihood is maximized exactly at intercept log(1/3) and slope
    log(9), so the solver has a closed-form answer to hit.
    """
    x = np.repeat([0.0, 1.0], 8).reshape(-1, 1)
    y = np.array([1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1], dtype=float)
    model = fit_logistic(x, y)
    assert model.converged
    assert abs(model.intercept - math.log(1 / 3)) < COEF_TOL
    assert abs(model.coefficients[0] - math.log(9.0)) < COEF_TOL


def test_logistic_fit_is_deterministic():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(400, 3))
    y = (rng.random(400) < 1 / (1 + np.exp(-x[:, 0]))).astype(float)
    a = fit_logistic(x, y)
    b = fit_logistic(x, y)
    np.testing.assert_array_equal(a.coefficients, b.coefficients)
    assert a.intercept == b.intercept
    assert a.n_iter == b.n_iter


def test_constant_labels_raise_separation():
    x = np.linspace(-1, 1, 30).reshape(-1, 1)
    with pytest.raises(SeparationError):
        fit_logistic(x, np.ones(30))
    with pytest.raises(SeparationError):
        fit_logistic(x, np.zeros(30))


def test_diverging_iterates_raise_separation():
    """Labels split perfectly across a gap far below the feature scale, so
    the unpenalized iterates blow up instead of settling."""
    x = np.concatenate([np.zeros(20), np.full(20, 1e-9)]).reshape(-1, 1)
    y = np.concatenate([np.zeros(20), np.ones(20)])
    with pytest.raises(SeparationError):
        fit_logistic(x, y)
    model = fit_logistic(x, y, ridge=0.1)
    assert model.converged
    assert np.isfinite(model.coefficients).all()


def test_fit_logistic_reads_the_iteration_cap(monkeypatch):
    """The cap is read at call time, and the gradient is tested once more
    after the last allowed step: a cap equal to the steps a fit needs still
    converges, one step fewer stops unconverged."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(400, 3))
    y = (rng.random(400) < 1 / (1 + np.exp(-x[:, 0]))).astype(float)
    full = fit_logistic(x, y)
    assert full.converged and full.n_iter >= 2
    monkeypatch.setattr(cdf, "IRLS_MAX_ITER", full.n_iter)
    capped = fit_logistic(x, y)
    assert capped.converged and capped.n_iter == full.n_iter
    np.testing.assert_array_equal(capped.coefficients, full.coefficients)
    monkeypatch.setattr(cdf, "IRLS_MAX_ITER", full.n_iter - 1)
    short = fit_logistic(x, y)
    assert not short.converged and short.n_iter == full.n_iter - 1
    monkeypatch.setattr(cdf, "IRLS_MAX_ITER", 0)
    start = fit_logistic(x, y)
    assert not start.converged and start.n_iter == 0


def test_ridge_shrinks_slopes_not_intercept():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(600, 2))
    y = (rng.random(600) < 1 / (1 + np.exp(-(0.5 + x[:, 0])))).astype(float)
    loose = fit_logistic(x, y, ridge=1e-9)
    tight = fit_logistic(x, y, ridge=50.0)
    assert np.linalg.norm(tight.coefficients) < np.linalg.norm(loose.coefficients)
    # The intercept is never penalized, so it still tracks the base rate.
    base = math.log(y.mean() / (1 - y.mean()))
    assert abs(tight.intercept - base) < 0.2


def _unblocked_fit(features, labels, *, ridge=0.0):
    """fit_logistic's Newton loop as it was before it ran in row blocks,
    kept as its reference: each sum over rows is one product over the whole
    table. Inputs are taken as valid."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float).ravel()
    mean_y = float(y.mean())
    if mean_y == 0.0 or mean_y == 1.0:
        raise SeparationError(
            f"labels are constant ({int(mean_y)}); no finite intercept exists"
        )
    n, p = X.shape
    design = np.hstack([np.ones((n, 1)), X])
    penalty = np.zeros(p + 1)
    penalty[1:] = ridge
    penalty_matrix = np.diag(penalty)
    beta = np.zeros(p + 1)
    beta[0] = float(np.log(mean_y / (1.0 - mean_y)))
    for n_iter in range(cdf.IRLS_MAX_ITER + 1):
        eta = design @ beta
        prob = cdf._sigmoid(eta)
        grad = design.T @ (y - prob) - penalty * beta
        converged = float(np.max(np.abs(grad))) <= cdf.IRLS_TOL
        if converged or n_iter == cdf.IRLS_MAX_ITER:
            break
        w = prob * (1.0 - prob)
        hess = design.T @ (design * w[:, None]) + penalty_matrix
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise SingularError(
                f"IRLS normal equations singular at iteration {n_iter + 1}"
            ) from exc
        beta = beta + step
        if float(np.max(np.abs(beta))) > 1e8:
            raise SeparationError(
                "IRLS iterates diverged; labels look perfectly separated"
            )
    if not converged and float(np.max(prob * (1.0 - prob))) < 1e-12:
        raise SeparationError(
            f"no convergence in {cdf.IRLS_MAX_ITER} iterations and all fitted "
            "probabilities are saturated; labels look perfectly separated"
        )
    return cdf.LogisticModel(beta[1:].copy(), float(beta[0]), converged, n_iter, float(ridge))


def _fit_outcome(fit, x, y, ridge):
    """A fit's model, or its SeparationError or SingularError as its class
    and message."""
    try:
        return fit(x, y, ridge=ridge)
    except (SeparationError, SingularError) as exc:
        return type(exc).__name__, str(exc)


def _separated(k, n=20):
    """Labels split perfectly at 0 by a feature of size k."""
    x = np.concatenate([np.full(n, -k), np.full(n, k)]).reshape(-1, 1)
    return x, (x[:, 0] > 0).astype(float)


# (features, labels, ridge, iteration cap) that reach each way out of the
# loop: convergence, the cap, divergence, saturation, a singular system.
_FIT_CASES = {
    "converges": lambda rng: (*_logistic_sample(rng, 300, 3), 0.0, None),
    "ridge": lambda rng: (*_logistic_sample(rng, 300, 2), 0.5, None),
    "capped": lambda rng: (*_logistic_sample(rng, 300, 3), 0.0, 2),
    "no steps": lambda rng: (*_logistic_sample(rng, 50, 1), 0.0, 0),
    "diverges": lambda rng: (*_separated(1e-9), 0.0, None),
    "ridge fallback": lambda rng: (*_separated(1e-9), cdf.RIDGE_FALLBACK, None),
    "separated, converges": lambda rng: (*_separated(1.0), 0.0, None),
    "saturates": lambda rng: (*_separated(1e4), 0.0, 30),
    "saturates after its first rows": lambda rng: (
        np.r_[np.zeros((4, 1)), _separated(1e4)[0]], np.r_[0.0, 1.0, 0.0, 1.0, _separated(1e4)[1]],
        0.0, 30,
    ),
    "singular, zero column": lambda rng: (np.c_[rng.normal(size=40), np.zeros(40)],
                                          (rng.random(40) < 0.5).astype(float), 0.0, None),
    "singular, equal columns": lambda rng: (np.repeat(rng.normal(size=(40, 1)), 2, axis=1),
                                            (rng.random(40) < 0.5).astype(float), 0.0, None),
}
# Which Newton step finds two equal columns' normal equations exactly
# singular depends on rounding, in the unblocked loop too (at 16-row blocks
# the first step does, unblocked the second), so that case is compared in
# one block only.
_MANY_BLOCK_CASES = sorted(set(_FIT_CASES) - {"singular, equal columns"})


def _logistic_sample(rng, n, p):
    x = rng.normal(size=(n, p))
    return x, (rng.random(n) < 1 / (1 + np.exp(-(0.3 + x @ rng.normal(size=p))))).astype(float)


@pytest.mark.parametrize("case", sorted(_FIT_CASES))
def test_a_one_block_fit_is_the_unblocked_fit_bit_for_bit(case, monkeypatch):
    """A table of at most _BLOCK_ROWS rows is one block, so the blocked loop
    runs the unblocked statements: same coefficient and intercept bits, the
    same n_iter and converged, and the same errors."""
    x, y, ridge, cap = _FIT_CASES[case](np.random.default_rng(7))
    if cap is not None:
        monkeypatch.setattr(cdf, "IRLS_MAX_ITER", cap)
    got, want = _fit_outcome(fit_logistic, x, y, ridge), _fit_outcome(_unblocked_fit, x, y, ridge)
    assert x.shape[0] <= cdf._BLOCK_ROWS
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.coefficients.tobytes() == want.coefficients.tobytes()
    assert (np.float64(got.intercept).tobytes(), got.n_iter, got.converged) == (
        np.float64(want.intercept).tobytes(), want.n_iter, want.converged
    )


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 200),
    p=st.integers(1, 3),
    ridge=st.sampled_from([0.0, 1e-6, 0.5]),
    cap=st.sampled_from([0, 1, 3, cdf.IRLS_MAX_ITER]),
    scale=st.sampled_from([0.5, 3.0, 50.0]),
)
def test_one_block_fits_match_the_unblocked_fit(seed, n, p, ridge, cap, scale):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, p)) * np.where(rng.random(p) < 0.3, 0.0, 1.0)
    y = (rng.random(n) < 1 / (1 + np.exp(-scale * (x @ rng.normal(size=p))))).astype(float)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cdf, "IRLS_MAX_ITER", cap)
        got, want = _fit_outcome(fit_logistic, x, y, ridge), _fit_outcome(_unblocked_fit, x, y, ridge)
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.coefficients.tobytes(), got.intercept, got.n_iter, got.converged) == (
        want.coefficients.tobytes(), want.intercept, want.n_iter, want.converged
    )


def test_a_full_block_is_one_block():
    x, y = _logistic_sample(np.random.default_rng(8), cdf._BLOCK_ROWS, 2)
    got, want = fit_logistic(x, y), _unblocked_fit(x, y)
    assert got.coefficients.tobytes() == want.coefficients.tobytes()
    assert (got.intercept, got.n_iter) == (want.intercept, want.n_iter)


@pytest.mark.parametrize("block_rows", [1, 7, 16])
@pytest.mark.parametrize("case", _MANY_BLOCK_CASES)
def test_a_many_block_fit_agrees_with_the_unblocked_fit(case, block_rows, monkeypatch):
    """With small blocks, which the fit's probabilities show it used, the
    sums add up in another order: the models agree to rounding, relative to
    their largest entry, with the same n_iter and converged, and the same
    errors."""
    x, y, ridge, cap = _FIT_CASES[case](np.random.default_rng(7))
    if cap is not None:
        monkeypatch.setattr(cdf, "IRLS_MAX_ITER", cap)
    want = _fit_outcome(_unblocked_fit, x, y, ridge)
    sizes, sigmoid = [], cdf._sigmoid
    monkeypatch.setattr(cdf, "_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(cdf, "_sigmoid", lambda eta: sizes.append(eta.size) or sigmoid(eta))
    got = _fit_outcome(fit_logistic, x, y, ridge)
    assert max(sizes) == block_rows < x.shape[0]
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.n_iter, got.converged) == (want.n_iter, want.converged)
    got, want = np.r_[got.intercept, got.coefficients], np.r_[want.intercept, want.coefficients]
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(sorted(_FIT_CASES)),
    seed=st.integers(0, 2**32 - 1),
    block_rows=st.sampled_from([cdf._BLOCK_ROWS, 16]),
)
def test_bool_labels_fit_as_their_floats_do(case, seed, block_rows):
    """fit_logistic keeps bool labels bool: the model has the bytes, n_iter
    and converged of the same labels as floats, and the errors are the
    same, in one block or in many."""
    x, y, ridge, cap = _FIT_CASES[case](np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cdf, "_BLOCK_ROWS", block_rows)
        if cap is not None:
            patch.setattr(cdf, "IRLS_MAX_ITER", cap)
        got = _fit_outcome(fit_logistic, x, y.astype(bool), ridge)
        want = _fit_outcome(fit_logistic, x, y, ridge)
    if isinstance(want, tuple):
        assert got == want
        return
    assert (got.coefficients.tobytes(), np.float64(got.intercept).tobytes(), got.n_iter,
            got.converged) == (want.coefficients.tobytes(), np.float64(want.intercept).tobytes(),
                               want.n_iter, want.converged)


def _traced_peak(call):
    """call()'s result, and the most bytes it held at once under
    tracemalloc beyond what was held before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_fit_keeps_the_design_and_one_steps_probabilities():
    """Beyond its inputs, a fit on 200k rows with bool labels holds the
    design matrix and one vector of probabilities, with 1 MiB to spare: the
    labels are not copied to float, and a Newton step frees the last step's
    probabilities before it computes its own. Either copy is a 1.5 MiB
    vector at this size, so it cannot hide in the spare MiB."""
    x, y = _logistic_sample(np.random.default_rng(3), 200_000, 2)
    y = y.astype(bool)
    model, peak = _traced_peak(lambda: fit_logistic(x, y))
    n, p = x.shape
    assert model.converged and model.n_iter > 1
    assert peak <= n * (p + 1) * 8 + n * 8 + 2**20


def test_a_logistic_estimator_fits_its_bool_indicator_column():
    """LogisticCdf hands fit_logistic its bool indicator column as it is:
    with the root's features and indicators cached, a fresh estimator's
    first rho_pair on 200k rows holds the design, one vector of
    probabilities and 1 MiB at most, and no float copy of the labels."""
    x, _ = _logistic_sample(np.random.default_rng(3), 200_000, 2)
    y = x @ [1.0, -0.5] + np.random.default_rng(4).logistic(size=x.shape[0])
    schema = TableSchema((Variable("y", "outcome", position=0), Variable("x", "treatment"),
                          Variable("c", "covariate")))
    root = DataTable(schema, {"y": y, "x": x[:, 0], "c": x[:, 1]})
    LogisticCdf(root).rho_pair((0.3,), [(0.0, 0.0)])  # caches the features and indicators
    est = LogisticCdf(root)
    _, peak = _traced_peak(lambda: est.rho_pair((0.3,), [(0.0, 0.0)]))
    n = root.n_rows
    assert est.diagnostics == []
    assert peak <= n * 3 * 8 + n * 8 + 2**20


_BLAS_FIT = """
import numpy as np
from pocause import fit_logistic
rng = np.random.default_rng(19)
x = rng.normal(size=(200_000, 2))
y = (rng.random(200_000) < 1 / (1 + np.exp(-(0.3 + x @ [1.0, -0.5])))).astype(float)
model = fit_logistic(x, y)
print(model.coefficients.tobytes().hex(), np.float64(model.intercept).tobytes().hex(), model.n_iter)
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: OpenBLAS runs one thread anyway")
def test_a_large_fit_does_not_depend_on_the_blas_thread_count():
    """A 200k-row fit gives the same bits with OpenBLAS on one thread as on
    its default thread count, each in a child process of its own."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    src = str(Path(cdf.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outs = [
        subprocess.run([sys.executable, "-c", _BLAS_FIT], env=child, capture_output=True,
                       text=True, check=True).stdout
        for child in (env, {**env, "OPENBLAS_NUM_THREADS": "1"})
    ]
    assert outs[0] and outs[0] == outs[1]


def test_empirical_rho_matches_hand_counts(small_table):
    est = EmpiricalCdf(small_table)
    strict, weak = est.rho_pair((3.0,), [(0.0, 1.0)])
    # Cell outcomes are 1,2,3,4: strictly below 3 is 2 of 4, weakly 3 of 4.
    assert strict[0] == 0.5
    assert weak[0] == 0.75
    assert est.clip_count == 0


def test_empirical_off_support_stratum(small_table):
    est = EmpiricalCdf(small_table)
    with pytest.raises(NoSupportError) as excinfo:
        est.rho_pair((3.0,), [(99.0, 0.0)])
    assert "99.0" in str(excinfo.value)
    assert "np.float64" not in str(excinfo.value)


def test_empirical_negative_zero_finds_zero_stratum(small_table):
    est = EmpiricalCdf(small_table)
    np.testing.assert_array_equal(
        est.rho_pair((3.0,), [(-0.0, 0.0)]), est.rho_pair((3.0,), [(0.0, 0.0)])
    )


@st.composite
def _stratified_tables(draw):
    """Small tables, zero rows among them, whose treatment and covariate
    columns each take 1-3 distinct values, -0.0 among the candidates, plus
    a point to look up."""
    n_x = draw(st.integers(1, 2))
    n_c = draw(st.integers(0, 2))
    n = draw(st.integers(0, 30))
    cells = st.sampled_from([-0.0, 0.0, 1.0, 2.5])
    columns = {"y": np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), float)}
    for name in [f"x{j}" for j in range(n_x)] + [f"c{j}" for j in range(n_c)]:
        support = draw(st.lists(cells, min_size=1, max_size=3))
        columns[name] = np.array(draw(st.lists(st.sampled_from(support), min_size=n, max_size=n)))
    point = draw(st.lists(cells, min_size=n_x + n_c, max_size=n_x + n_c))
    threshold = float(draw(st.integers(0, 5)))
    return n_x, columns, point, threshold


def _schema(names):
    return TableSchema(
        (Variable("y", "outcome", position=0),)
        + tuple(Variable(name, "treatment" if name[0] == "x" else "covariate") for name in names)
    )


def _check_against_mask(est, columns, names, point, threshold):
    mask = np.ones(columns["y"].shape[0], dtype=bool)
    for name, value in zip(names, point):
        mask &= columns[name] == value
    if not mask.any():
        with pytest.raises(NoSupportError):
            est.rho_pair((threshold,), [point])
        return
    (strict,), (weak,) = est.rho_pair((threshold,), [point])
    y = columns["y"][mask]
    assert strict == float((y < threshold).mean())
    assert weak == float((y <= threshold).mean())
    assert strict <= weak


@settings(max_examples=200, deadline=None)
@given(_stratified_tables())
def test_empirical_rho_pair_matches_brute_force_counts(case):
    n_x, columns, point, threshold = case
    names = [name for name in columns if name != "y"]
    est = EmpiricalCdf(DataTable(_schema(names), columns))
    present = {tuple(row) for row in np.column_stack([columns[n] for n in names]).tolist()}
    for row in sorted(present) + [point]:
        _check_against_mask(est, columns, names, list(row), threshold)


def _outcome(est, threshold, point):
    """rho_pair's values at one point as bytes, or its NoSupportError."""
    try:
        strict, weak = est.rho_pair((threshold,), [point])
    except NoSupportError as exc:
        return "NoSupportError", str(exc)
    return strict.tobytes(), weak.tobytes()


@settings(max_examples=200, deadline=None)
@given(_stratified_tables(), st.data())
def test_a_resample_inherits_its_parents_strata(case, data):
    """An estimator on table.take(idx) counts through the parent's stratum
    index; it answers bit for bit what one on a fresh table of the same
    rows answers, or raises the same NoSupportError. The draws include
    empty ones and ones confined to a few rows, which empty strata."""
    _, columns, point, threshold = case
    names = [name for name in columns if name != "y"]
    table = DataTable(_schema(names), columns)
    table.stratum_index()
    n = table.n_rows
    rows = st.integers(0, n - 1)
    draws = [[]] if n == 0 else [
        data.draw(st.lists(rows, max_size=2 * n)),
        data.draw(st.lists(rows, min_size=n, max_size=n)),
        data.draw(st.lists(st.sampled_from(data.draw(st.lists(rows, min_size=1, max_size=2))),
                           min_size=1, max_size=n)),
    ]
    present = sorted({tuple(row) for row in np.column_stack([columns[m] for m in names]).tolist()})
    for idx in draws:
        idx = np.array(idx, dtype=int)
        resample = table.take(idx)
        assert resample.stratum_index()[1] is table.stratum_index()[1]
        inherited = EmpiricalCdf(resample)
        fresh = EmpiricalCdf(DataTable(table.schema, {k: v[idx] for k, v in columns.items()}))
        for row in present + [tuple(point)]:
            assert _outcome(inherited, threshold, list(row)) == _outcome(fresh, threshold, list(row))


def _outcomes(est, threshold, points) -> list:
    """rho_pair's values at each point as bytes, or its NoSupportError."""
    out = []
    for point in points:
        try:
            out.append(tuple(v.tobytes() for v in est.rho_pair(threshold, [point])))
        except NoSupportError as exc:
            out.append(("NoSupportError", str(exc)))
    return out


@settings(max_examples=200, deadline=None)
@given(_stratified_tables(), st.data())
def test_a_resample_counts_what_a_fresh_table_of_its_rows_counts(case, data):
    """EmpiricalCdf on table.take(idx), and on a take of that take, answers
    bit for bit what it answers on a fresh table of the same rows, or
    raises the same NoSupportError, under two orders on one root at the
    same threshold: a lexicographic one and a scalar score. The outcome is
    two-dimensional, the root's index is built before the first take or
    not, and the draws include empty ones and ones that empty strata."""
    _, columns, point, _ = case
    n = columns["y"].shape[0]
    columns["y2"] = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), float)
    names = [name for name in columns if name[0] != "y"]
    schema = TableSchema(
        (Variable("y", "outcome", position=0), Variable("y2", "outcome", position=1))
        + _schema(names).variables[1:]
    )
    table = DataTable(schema, columns)
    if data.draw(st.booleans(), label="index built before take"):
        table.stratum_index()
    threshold = tuple(float(t) for t in data.draw(st.tuples(st.integers(0, 5), st.integers(0, 3))))
    weights = data.draw(st.tuples(st.sampled_from([-1.0, 0.5, 2.0]), st.sampled_from([-1.0, 1.0])))
    orders = [lexicographic_default(2), ScalarScore(weights)]
    present = sorted({tuple(row) for row in np.column_stack([columns[m] for m in names]).tolist()})
    points = present + [tuple(point)]

    def fresh(rows):
        return DataTable(schema, {k: v[rows] for k, v in columns.items()})

    rows = st.integers(0, max(n - 1, 0))
    draws = [[]] if n == 0 else [
        [],
        data.draw(st.lists(rows, min_size=n, max_size=n)),
        data.draw(st.lists(st.sampled_from(data.draw(st.lists(rows, min_size=1, max_size=2))),
                           min_size=1, max_size=n)),
    ]
    for idx in draws:
        idx = np.array(idx, dtype=int)
        resample = table.take(idx)
        inner = np.array(data.draw(st.lists(st.integers(0, len(idx) - 1), max_size=2 * n))
                         if len(idx) else [], dtype=int)
        again = resample.take(inner)
        for order in orders:
            assert _outcomes(EmpiricalCdf(resample, order), threshold, points) == _outcomes(
                EmpiricalCdf(fresh(idx), order), threshold, points
            )
            assert _outcomes(EmpiricalCdf(again, order), threshold, points) == _outcomes(
                EmpiricalCdf(fresh(idx[inner]), order), threshold, points
            )


class _ReadLog(dict):
    """A root table's columns, counting every read of their values."""

    reads = 0

    def __getitem__(self, name):
        self.reads += 1
        return super().__getitem__(name)

    def items(self):
        self.reads += 1
        return super().items()

    def values(self):
        self.reads += 1
        return super().values()


def test_an_empirical_answer_on_a_resample_reads_no_column(small_table):
    columns = _ReadLog(small_table.columns)
    root = DataTable(small_table.schema, columns)
    EmpiricalCdf(root).rho_pair((3.0,), [(1.0, 0.0)])  # builds the root's index and cells
    resample = root.take(np.arange(root.n_rows)[::-1])
    again = resample.take([0, 0, 5])
    columns.reads = 0
    for table in (resample, again):
        EmpiricalCdf(table).rho_pair((3.0,), [(1.0, 0.0)])
    assert columns.reads == 0
    assert resample.columns["y"][0] == small_table.columns["y"][-1]
    assert columns.reads == 1


@pytest.mark.parametrize("rows", [None, [0, 1, 2, 3]])
def test_a_point_without_rows_fails_before_a_bad_threshold(small_table, rows):
    """Only stratum (0, 0) has rows in the resample; asking for (1, 1) at a
    threshold of the wrong length raises NoSupportError, as it did when
    stratum sizes were counted before any threshold was looked at."""
    table = small_table if rows is None else small_table.take(rows)
    est = EmpiricalCdf(table)
    with pytest.raises(NoSupportError, match=r"treatment \[2.0\]"):
        est.rho_pair((3.0, 1.0), [(0.0, 0.0), (2.0, 0.0)])
    if rows is not None:
        with pytest.raises(NoSupportError, match=r"treatment \[1.0\]"):
            est.rho_pair((3.0, 1.0), [(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(ConfigError, match="threshold has 2"):
        est.rho_pair((3.0, 1.0), [(0.0, 0.0)])


@st.composite
def _batches(draw):
    """A seeded table whose (x, c) columns take three values each, a
    threshold at the outcome median, and 1-12 query rows."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_x, n_c = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    n, k = draw(st.integers(20, 80)), draw(st.integers(1, 12))
    return seed, n_x, n_c, n, k


@pytest.mark.parametrize("estimator", [EmpiricalCdf, LogisticCdf])
@settings(max_examples=60, deadline=None)
@given(_batches())
def test_rho_pair_batch_equals_one_point_calls(estimator, case):
    seed, n_x, n_c, n, k = case
    rng = np.random.default_rng(seed)
    names = [f"x{j}" for j in range(n_x)] + [f"c{j}" for j in range(n_c)]
    xc = rng.integers(0, 3, size=(n, n_x + n_c)) * rng.normal(1.0, 0.5, size=n_x + n_c)
    y = xc.sum(axis=1) + rng.normal(size=n)
    schema = TableSchema(
        (Variable("y", "outcome", position=0),)
        + tuple(Variable(name, "treatment" if name[0] == "x" else "covariate") for name in names)
    )
    columns = {"y": y, **{name: xc[:, j] for j, name in enumerate(names)}}
    est = estimator(DataTable(schema, columns))
    if estimator is EmpiricalCdf:
        points = xc[rng.integers(0, n, size=k)]
    else:
        points = rng.normal(0.0, 2.0, size=(k, n_x + n_c))
    threshold = (float(np.median(y)),)
    strict, weak = est.rho_pair(threshold, points)
    singles = [est.rho_pair(threshold, point[None, :]) for point in points]
    np.testing.assert_array_equal(strict, [s[0] for s, _ in singles])
    np.testing.assert_array_equal(weak, [w[0] for _, w in singles])
    assert strict.shape == weak.shape == (k,)
    assert np.all((0.0 <= strict) & (strict <= weak) & (weak <= 1.0))


def test_logistic_constant_labels_bypass_the_solver(small_table):
    est = LogisticCdf(small_table)
    # Every outcome is weakly below 9, none strictly below 1.
    assert est.rho_pair((9.0,), [(0.0, 0.0)])[1][0] == 1.0
    assert est.rho_pair((1.0,), [(1.0, 1.0)])[0][0] == 0.0


def test_logistic_clips_strict_to_weak(small_table):
    est = LogisticCdf(small_table)
    for y in (2.0, 3.0, 4.0):
        for x in (0.0, 1.0):
            (strict,), (weak,) = est.rho_pair((y,), [(x, 0.0)])
            assert 0.0 <= strict <= weak <= 1.0


def test_logistic_separation_fallback_is_recorded():
    """A treatment column that perfectly splits the labels trips the exact
    solver; the estimator retries with a tiny ridge and says so."""
    schema = TableSchema(
        (Variable("y", "outcome", position=0), Variable("x", "treatment"))
    )
    x = np.concatenate([np.zeros(20), np.full(20, 1e-9)])
    y = np.where(x > 0, 5.0, 0.0)
    table = DataTable(schema, {"y": y, "x": x})
    est = LogisticCdf(table)
    (strict,), (weak,) = est.rho_pair((2.0,), [(0.0,)])
    assert 0.0 < strict <= weak < 1.0
    notes = list(est.diagnostics)
    assert sum("ridge" in note for note in notes) == 2
    assert all("np.float64" not in note for note in notes)


def test_logistic_non_convergence_is_recorded(monkeypatch):
    """A fit cut short by the iteration cap is used, and the estimator says
    which indicator it was and after how many iterations."""
    monkeypatch.setattr(cdf, "IRLS_MAX_ITER", 1)
    schema = TableSchema(
        (Variable("y", "outcome", position=0), Variable("x", "treatment"))
    )
    x = np.repeat([0.0, 1.0, 2.0], 10)
    y = np.tile(np.arange(10.0), 3) + 2.0 * x
    est = LogisticCdf(DataTable(schema, {"y": y, "x": x}))
    est.rho_pair((6.0,), [(1.0,)])
    assert est.diagnostics == [
        "strict indicator at [6.0]: IRLS stopped unconverged after 1 iteration(s); "
        "using the last iterate",
        "weak indicator at [6.0]: IRLS stopped unconverged after 1 iteration(s); "
        "using the last iterate",
    ]


def test_equal_indicator_columns_share_one_fit(monkeypatch):
    """A continuous outcome has no atom at a threshold it never takes, so
    the strict and weak columns agree and one fit serves both; at an
    observed value they differ and each gets its own."""
    calls = []

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return fit_logistic(*args, **kwargs)

    monkeypatch.setattr(cdf, "fit_logistic", counting_fit)
    schema = TableSchema(
        (Variable("y", "outcome", position=0), Variable("x", "treatment"))
    )
    rng = np.random.default_rng(3)
    x = rng.integers(0, 3, 300).astype(float)
    y = x + rng.normal(size=300)
    est = LogisticCdf(DataTable(schema, {"y": y, "x": x}))
    strict, weak = est.rho_pair((0.5,), [(0.0,), (2.0,)])
    assert len(calls) == 1
    np.testing.assert_array_equal(strict, weak)
    est.rho_pair((float(y[0]),), [(1.0,)])
    assert len(calls) == 3


class _Refitting:
    """The logistic estimator without its column cache: every side of every
    threshold is fitted afresh and evaluated on its own."""

    def __init__(self, table):
        self.table = table
        self.xc = np.hstack([table.treatments(), table.covariates()])
        self.order = lexicographic_default(len(table.schema.outcome_names))
        self.models = {}
        self.clip_count = 0
        self.diagnostics = []

    def _side(self, labels):
        rate = float(labels.mean())
        if rate in (0.0, 1.0):
            return rate, [f"indicator is constant {int(rate)}; using it directly"]
        notes = []
        try:
            model = fit_logistic(self.xc, labels)
        except SeparationError:
            notes.append(f"separation; refitted with ridge {cdf.RIDGE_FALLBACK:g}")
            model = fit_logistic(self.xc, labels, ridge=cdf.RIDGE_FALLBACK)
        if not model.converged:
            notes.append(
                f"IRLS stopped unconverged after {model.n_iter} iteration(s); "
                "using the last iterate"
            )
        return model, notes

    def rho_pair(self, threshold, points):
        key = tuple(threshold)
        if key not in self.models:
            sides = indicator_below(self.table.outcomes(), threshold, self.order)
            fits = [self._side(below.astype(float)) for below in sides]
            for side, (_, notes) in zip(("strict", "weak"), fits):
                self.diagnostics.extend(
                    f"{side} indicator at {list(key)}: {note}" for note in notes
                )
            self.models[key] = [model for model, _ in fits]
        pts = np.asarray(points, dtype=float)
        strict, weak = (
            np.full(len(pts), m) if isinstance(m, float) else m.predict_proba(pts)
            for m in self.models[key]
        )
        clipped = strict > weak
        self.clip_count += int(np.count_nonzero(clipped))
        return np.where(clipped, weak, strict), weak


def _answers(est, asks):
    """Each ask's (strict, weak) as bytes, up to the first exception, which
    ends the list as its class and message; then clip_count and the
    diagnostics."""
    out = []
    for threshold, points in asks:
        try:
            strict, weak = est.rho_pair(threshold, points)
        except (SeparationError, SingularError) as exc:
            out.append((type(exc).__name__, str(exc)))
            break
        out.append((strict.tobytes(), weak.tobytes()))
    return out, est.clip_count, list(est.diagnostics)


def _check_column_cache(table, asks):
    """LogisticCdf answers every ask as _Refitting does, bit for bit, with
    the same clip_count and diagnostics in the same order, and fits each
    distinct non-constant indicator column once: one fit_logistic call
    per column, plus one ridge refit per column that separates. Returns
    the diagnostics and the number of fit_logistic calls."""
    calls = []

    def counting_fit(features, labels, **kwargs):
        calls.append((np.asarray(labels, dtype=bool).tobytes(), kwargs.get("ridge", 0.0)))
        return fit_logistic(features, labels, **kwargs)

    expected = _answers(_Refitting(table), asks)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cdf, "fit_logistic", counting_fit)
        got = _answers(LogisticCdf(table), asks)
    assert got == expected
    order = lexicographic_default(len(table.schema.outcome_names))
    answered = [t for (t, _), answer in zip(asks, got[0]) if isinstance(answer[0], bytes)]
    columns = {
        below.tobytes()
        for t in answered
        for below in indicator_below(table.outcomes(), t, order)
        if 0 < below.sum() < below.size
    }
    fitted = {labels for labels, ridge in calls if ridge == 0.0}
    assert len(set(calls)) == len(calls)
    # An ask that raised may have fitted a column before the failing one.
    assert fitted == columns if len(answered) == len(got[0]) else fitted >= columns
    return got[2], len(calls)


def _grades_table(n=120, seed=4):
    """Three integer grades that rise together with a treatment and a
    covariate, as in the education study; as there, no row is (6, 6, 5)."""
    rng = np.random.default_rng(seed)
    x = rng.integers(1, 5, n).astype(float)
    c = rng.integers(0, 2, n).astype(float)
    g1 = np.clip(np.round(3 + x + c + rng.normal(0, 1.5, n)), 0, 10)
    g2 = np.clip(g1 + rng.integers(-1, 2, n), 0, 10)
    g3 = np.clip(g2 + rng.integers(-1, 2, n), 0, 10)
    g1[(g3 == 6) & (g2 == 6) & (g1 == 5)] = 6
    schema = TableSchema((
        Variable("g3", "outcome", position=0), Variable("g2", "outcome", position=1),
        Variable("g1", "outcome", position=2), Variable("x", "treatment"),
        Variable("c", "covariate"),
    ))
    return DataTable(schema, {"g3": g3, "g2": g2, "g1": g1, "x": x, "c": c})


def test_coinciding_columns_are_fitted_once():
    """On integer grades with no (6, 6, 5) row, (6, 6, 5)'s strict and weak
    columns are both (6, 6, 6)'s strict column, and (5, 5, 5.5) repeats
    (5, 5, 5)'s weak one: eight threshold sides, four distinct columns."""
    table = _grades_table()
    points = [(x, c) for x in (1.0, 4.0) for c in (0.0, 1.0)]
    asks = [(t, points) for t in ((6.0, 6.0, 6.0), (5.0, 5.0, 5.0), (6.0, 6.0, 5.0),
                                  (5.0, 5.0, 5.5), (6.0, 6.0, 6.0))]
    assert _check_column_cache(table, asks) == ([], 4)


def test_constant_columns_bypass_the_cache_too():
    table = _grades_table()
    points = [(2.0, 0.0), (3.0, 1.0)]
    asks = [(t, points) for t in ((-1.0, 0.0, 0.0), (99.0, 0.0, 0.0), (-1.0, 5.0, 5.0))]
    notes, fits = _check_column_cache(table, asks)
    assert fits == 0
    assert notes == [
        f"{side} indicator at {t}: indicator is constant {v}; using it directly"
        for t, v in (([-1.0, 0.0, 0.0], 0), ([99.0, 0.0, 0.0], 1), ([-1.0, 5.0, 5.0], 0))
        for side in ("strict", "weak")
    ]


def test_a_separated_column_is_refitted_with_the_ridge_once():
    schema = TableSchema((Variable("y", "outcome", position=0), Variable("x", "treatment")))
    x = np.concatenate([np.zeros(20), np.full(20, 1e-9)])
    table = DataTable(schema, {"y": np.where(x > 0, 5.0, 0.0), "x": x})
    asks = [((t,), [(0.0,), (1e-9,)]) for t in (2.0, 3.0, 2.0, 0.0)]
    notes, fits = _check_column_cache(table, asks)
    # Thresholds 2 and 3 and 0's weak side share one column: five notes, two fits.
    assert fits == 2
    assert sum("separation; refitted with ridge 1e-06" in note for note in notes) == 5


def test_an_unconverged_column_is_reused_with_its_note(monkeypatch):
    monkeypatch.setattr(cdf, "IRLS_MAX_ITER", 1)
    table = _grades_table()
    asks = [(t, [(2.0, 1.0)]) for t in ((6.0, 6.0, 6.0), (6.0, 6.0, 5.0))]
    notes, fits = _check_column_cache(table, asks)
    assert (len(notes), fits) == (4, 2)
    assert all("IRLS stopped unconverged after 1 iteration(s)" in note for note in notes)


@settings(max_examples=100, deadline=None)
@given(
    columns=st.tuples(st.integers(0, 2**32 - 1), st.integers(4, 25)).map(
        lambda case: {
            name: np.random.default_rng([case[0], k]).integers(0, levels, case[1]).astype(float)
            for k, (name, levels) in enumerate((("y", 5), ("x", 3), ("c", 2)))
        }
    ),
    thresholds=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0]),
                        min_size=1, max_size=6),
    max_iter=st.sampled_from([1, 3, cdf.IRLS_MAX_ITER]),
)
def test_the_column_cache_answers_as_a_refit_would(columns, thresholds, max_iter):
    """Small integer tables, 4 to 25 rows, where thresholds share columns,
    columns are constant, fits stop short, and the solver may fail."""
    schema = TableSchema((Variable("y", "outcome", position=0), Variable("x", "treatment"),
                          Variable("c", "covariate")))
    points = [(x, c) for x in (0.0, 2.0) for c in (0.0, 1.0)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cdf, "IRLS_MAX_ITER", max_iter)
        _check_column_cache(DataTable(schema, columns), [((t,), points) for t in thresholds])


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 40),
    thresholds=st.lists(st.tuples(st.sampled_from([-1.0, 1.0, 2.0, 2.5, 9.0]),
                                  st.sampled_from([0.0, 1.0, 2.0])), min_size=1, max_size=4),
    block_rows=st.sampled_from([5, cdf._BLOCK_ROWS]),
    data=st.data(),
)
def test_a_logistic_resample_answers_what_a_fresh_table_of_its_rows_answers(
    seed, n, thresholds, block_rows, data
):
    """LogisticCdf on table.take(idx), and on a take of that take, answers
    bit for bit what it answers on a fresh table of the same rows, with the
    same clip_count and diagnostics, or raises the same error, under a
    lexicographic and a scalar-score order on one root. The root's cached
    features and indicators are built before the first take or not, and
    the fits run in one block or in several."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 3, n).astype(float)
    c = rng.integers(0, 2, n).astype(float)
    columns = {"y": np.clip(np.round(x + c + rng.normal(0, 1, n)), 0, 4),
               "y2": rng.integers(0, 3, n).astype(float), "x": x, "c": c}
    schema = TableSchema((Variable("y", "outcome", position=0),
                          Variable("y2", "outcome", position=1),
                          Variable("x", "treatment"), Variable("c", "covariate")))
    table = DataTable(schema, columns)
    orders = [lexicographic_default(2), ScalarScore((1.0, -0.5))]
    points = [(x, c) for x in (0.0, 2.0) for c in (0.0, 1.0)]
    asks = [(t, points) for t in thresholds]

    def fresh(rows):
        return DataTable(schema, {k: v[rows] for k, v in columns.items()})

    rows = st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)
    idx = np.array(data.draw(rows), dtype=int)
    inner = np.array(data.draw(st.lists(st.integers(0, len(idx) - 1), min_size=1,
                                        max_size=2 * n)), dtype=int)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cdf, "_BLOCK_ROWS", block_rows)
        if data.draw(st.booleans(), label="root cache built before take"):
            for order in orders:
                _answers(LogisticCdf(table, order), asks)
        resample = table.take(idx)
        again = resample.take(inner)
        for order in orders:
            assert _answers(LogisticCdf(resample, order), asks) == _answers(
                LogisticCdf(fresh(idx), order), asks
            )
            assert _answers(LogisticCdf(again, order), asks) == _answers(
                LogisticCdf(fresh(idx[inner]), order), asks
            )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), data=st.data())
def test_a_resamples_logistic_features_are_a_fresh_tables_bytes(seed, n, data):
    """The feature matrix LogisticCdf gathers from its root at a resample's
    rows, and at a take of that take, has the bytes, shape and layout of
    the one a fresh table of those rows builds, -0.0 and nan included."""
    rng = np.random.default_rng(seed)
    columns = {"y": rng.integers(0, 3, n).astype(float),
               "x1": rng.choice([-1.0, -0.0, 0.0, 2.5], n),
               "x2": rng.normal(size=n),
               "c": rng.choice([0.0, 1.0, np.nan], n)}
    schema = TableSchema((Variable("y", "outcome", position=0), Variable("x1", "treatment"),
                          Variable("x2", "treatment"), Variable("c", "covariate")))
    table = DataTable(schema, columns)
    idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n)))
    inner = np.array(data.draw(st.lists(st.integers(0, len(idx) - 1), min_size=1,
                                        max_size=2 * n)))
    resample = table.take(idx)
    for sub, rows in ((resample, idx), (resample.take(inner), idx[inner])):
        got = LogisticCdf(sub)._xc
        want = LogisticCdf(DataTable(schema, {k: v[rows] for k, v in columns.items()}))._xc
        assert got.dtype == want.dtype and got.shape == want.shape == (len(rows), 3)
        assert got.flags.c_contiguous and want.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_a_logistic_answer_on_a_resample_reads_no_column(small_table):
    columns = _ReadLog(small_table.columns)
    root = DataTable(small_table.schema, columns)
    est = LogisticCdf(root)
    for threshold in ((3.0,), (9.0,)):  # caches the root's features and indicators
        est.rho_pair(threshold, [(1.0, 0.0)])
    resample = root.take(np.arange(root.n_rows)[::-1])
    again = resample.take([0, 0, 5, 9, 12, 3])
    columns.reads = 0
    for table in (resample, again):
        est = LogisticCdf(table)
        est.rho_pair((3.0,), [(1.0, 0.0)])
        est.rho_pair((9.0,), [(1.0, 0.0)])
    assert columns.reads == 0
    assert resample.columns["y"][0] == small_table.columns["y"][-1]
    assert columns.reads == 1


def _one_treatment_table(y, x):
    schema = TableSchema((Variable("y", "outcome", position=0), Variable("x", "treatment")))
    return DataTable(schema, {"y": np.asarray(y, float), "x": np.asarray(x, float)})


def test_a_non_finite_outcome_fails_every_logistic_resample():
    """The indicators come from the root's outcomes, so a root with a
    non-finite outcome fails on each resample, one that misses that row
    included, as EmpiricalCdf does."""
    y = np.arange(20.0)
    y[0] = np.nan
    root = _one_treatment_table(y, np.arange(20.0) % 2)
    for table in (root, root.take(np.arange(1, 20)), root.take([3, 4, 5]).take([0, 2])):
        with pytest.raises(ConfigError, match="outcome rows must be finite"):
            LogisticCdf(table).rho_pair((5.0,), [(0.0,)])


def test_non_finite_features_fail_only_where_a_fit_needs_them():
    x = np.arange(20.0) % 2
    x[3] = np.inf
    root = _one_treatment_table(np.arange(20.0), x)
    est = LogisticCdf(root)
    # A constant indicator column needs no fit, and so reads no feature.
    assert est.rho_pair((-1.0,), [(0.0,)])[1][0] == 0.0
    with pytest.raises(ConfigError, match="features must be finite"):
        est.rho_pair((5.0,), [(0.0,)])
    with pytest.raises(ConfigError, match="features must be finite"):
        LogisticCdf(root.take([2, 3, 7, 8])).rho_pair((5.0,), [(0.0,)])
    (strict,), (weak,) = LogisticCdf(root.take([2, 4, 7, 8, 11])).rho_pair((5.0,), [(0.0,)])
    assert 0.0 < strict <= weak < 1.0


def test_order_defaults_to_first_component_ascending(small_table):
    est = EmpiricalCdf(small_table)
    assert est.order == lexicographic_default(1)


def _masked_sigmoid(eta):
    """The boolean-mask logistic function _sigmoid replaced, kept as its
    reference."""
    out = np.empty_like(eta, dtype=float)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ez = np.exp(eta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("scale", [1.0, 10.0, 800.0])
def test_sigmoid_matches_the_masked_version_bit_for_bit(scale):
    rng = np.random.default_rng(int(scale))
    eta = np.concatenate([
        scale * rng.standard_normal(5000),
        [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 2.2e-308, -2.2e-308,
         710.0, -710.0, 745.5, -745.5, np.inf, -np.inf],
    ])
    new, old = cdf._sigmoid(eta), _masked_sigmoid(eta)
    assert new.dtype == old.dtype == np.float64
    assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize("ridge", [float("nan"), float("inf"), -1.0])
def test_fit_logistic_rejects_a_non_finite_or_negative_ridge(ridge):
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 1.0, 0.0, 1.0])
    with pytest.raises(ConfigError, match=f"^ridge must be finite and >= 0, got {ridge}$"):
        fit_logistic(x, y, ridge=ridge)
