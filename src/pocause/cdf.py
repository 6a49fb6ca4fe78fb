"""Conditional CDF estimation at outcome thresholds.

Everything downstream needs the pair of numbers

    strict = P(Y strictly below y | X = x, C = c)
    weak   = P(Y weakly below y   | X = x, C = c)

for a handful of thresholds y. Two estimators are provided. The empirical
one conditions by exact stratum match on (x, c) and counts, which is the
right tool for discrete treatments and covariates with real support. The
logistic one fits a binary regression of each threshold indicator on the
raw treatment and covariate columns (main effects, no interactions) and
evaluates it at (x, c); it extrapolates, the empirical one refuses to.

Both answer in batches: rho_pair(threshold, points) takes a (k, n_x + n_c)
array of (x, c) rows and returns the strict and weak values as two float
arrays of length k, with strict <= weak elementwise. A point's values are
the same whatever else is in the batch.

The logistic solver is iteratively reweighted least squares written here on
purpose: its convergence rule, ridge behavior, and failure modes are part
of this package's contract, and an external GLM would make the bootstrap's
failure accounting opaque. Fits are deterministic: same inputs, same model,
bit for bit, whatever the BLAS thread count, since every sum over rows runs
in fixed row blocks small enough for BLAS to keep on one thread. Both
estimators keep what they derive from a table's rows with its root table,
so an estimator on a resample reads none of the resample's columns.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .dataset import DataTable
from .errors import ConfigError, NoSupportError, SeparationError, SingularError
from .ordering import OrderSpec, indicator_below, lexicographic_default

RIDGE_FALLBACK = 1e-6
IRLS_TOL = 1e-8
IRLS_MAX_ITER = 100
_BLOCK_ROWS = 8192  # rows per IRLS block: each block's BLAS calls stay small and in cache


@dataclass(frozen=True)
class LogisticModel:
    coefficients: np.ndarray
    intercept: float
    converged: bool
    n_iter: int
    ridge: float

    def predict_proba(self, features) -> np.ndarray:
        f = np.atleast_2d(np.asarray(features, dtype=float))
        if f.shape[1] != self.coefficients.shape[0]:
            raise ConfigError(
                f"model has {self.coefficients.shape[0]} features, got {f.shape[1]}"
            )
        # One (1, p) @ (p,) product per row, the same BLAS dot a one-row
        # call makes, so a row's probability does not depend on the batch
        # (a (k, p) @ (p,) product can differ from it in the last bit).
        return _sigmoid(self.intercept + (f[:, None, :] @ self.coefficients)[:, 0])


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    ez = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, ez) / (1.0 + ez)


def fit_logistic(features, labels, *, ridge: float = 0.0) -> LogisticModel:
    """Newton / IRLS fit of a binary logistic regression.

    The intercept is never penalized; ridge applies to the feature
    coefficients only, as 0.5 * ridge * ||coef||^2 subtracted from the
    log-likelihood. Convergence is a sup-norm gradient test at IRLS_TOL,
    within IRLS_MAX_ITER Newton steps.

    Each step sums the gradient and the Hessian over blocks of _BLOCK_ROWS
    rows, in row order, so the fit is the same bit for bit whatever the
    BLAS thread count. Beyond the design matrix and the labels (bool ones
    stay bool), a fit holds one step's probabilities over every row: a step
    frees the last step's before it computes its own. A table of at most
    one block is summed by one product each.

    Raises SeparationError when the labels are all 0 or all 1 (the MLE
    intercept is infinite, ridge or not) and when the iterates walk off to
    a perfectly separating hyperplane. Raises SingularError when the
    weighted normal equations cannot be solved.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels)
    y = (y if y.dtype == bool else np.asarray(y, dtype=float)).ravel()
    if X.ndim != 2:
        raise ConfigError(f"features must be 2-d, got shape {X.shape}")
    if X.shape[0] != y.shape[0]:
        raise ConfigError(f"{X.shape[0]} feature rows vs {y.shape[0]} labels")
    if not np.all(np.isfinite(X)):
        raise ConfigError("features must be finite")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ConfigError("labels must be 0/1")
    if not 0 <= ridge < np.inf:
        raise ConfigError(f"ridge must be finite and >= 0, got {ridge}")

    mean_y = float(y.mean())
    if mean_y == 0.0 or mean_y == 1.0:
        raise SeparationError(
            f"labels are constant ({int(mean_y)}); no finite intercept exists"
        )

    n, p = X.shape
    design = np.hstack([np.ones((n, 1)), X])
    # Row blocks of the design and labels; a table of at most one block
    # (and an empty one) is a single block of every row.
    blocks = [
        (design[start : start + _BLOCK_ROWS], y[start : start + _BLOCK_ROWS])
        for start in range(0, max(n, 1), _BLOCK_ROWS)
    ]
    penalty = np.zeros(p + 1)
    penalty[1:] = ridge
    penalty_matrix = np.diag(penalty)
    beta = np.zeros(p + 1)
    # Warm-start the intercept at the marginal log-odds.
    beta[0] = float(np.log(mean_y / (1.0 - mean_y)))

    # n_iter counts the Newton steps taken; the gradient is tested once
    # more after the last allowed step. Each sum over blocks starts from the
    # first block's term, not from 0 (0 + -0.0 is 0.0), so the sum over one
    # block is that block's product, bit for bit.
    for n_iter in range(IRLS_MAX_ITER + 1):
        probs = [_sigmoid(block @ beta) for block, _ in blocks]
        grad = reduce(
            operator.add,
            (block.T @ (labels - prob) for (block, labels), prob in zip(blocks, probs)),
        ) - penalty * beta
        converged = float(np.max(np.abs(grad))) <= IRLS_TOL
        if converged or n_iter == IRLS_MAX_ITER:
            break
        hess = reduce(
            operator.add,
            (
                block.T @ (block * (prob * (1.0 - prob))[:, None])
                for (block, _), prob in zip(blocks, probs)
            ),
        ) + penalty_matrix
        del probs  # the next step's probabilities replace these, not join them
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

    if not converged and max(float(np.max(prob * (1.0 - prob))) for prob in probs) < 1e-12:
        raise SeparationError(
            f"no convergence in {IRLS_MAX_ITER} iterations and all fitted "
            "probabilities are saturated; labels look perfectly separated"
        )

    return LogisticModel(
        coefficients=beta[1:].copy(),
        intercept=float(beta[0]),
        converged=converged,
        n_iter=n_iter,
        ridge=float(ridge),
    )




class _ThresholdCdf:
    """What both estimators share: the number of (x, c) columns, the outcome
    order, the check on query points, and one fitted state per threshold,
    which the subclass's _fit builds the first time it is asked for.
    """

    def __init__(self, table: DataTable, order: OrderSpec | None):
        self.table = table
        n_y = len(table.schema.outcome_names)
        if n_y == 0:
            raise ConfigError("table has no outcome columns")
        self.order = order if order is not None else lexicographic_default(n_y)
        self._n_x = len(table.schema.treatment_names)
        self._n_c = len(table.schema.covariate_names)
        if self._n_x + self._n_c == 0:
            raise ConfigError("table has neither treatment nor covariate columns")
        self._root, self._rows = table.origin()
        self._by_threshold: dict[tuple, tuple] = {}
        self.clip_count = 0
        self.diagnostics: list[str] = []

    def _at_rows(self, values: np.ndarray) -> np.ndarray:
        """values, one per root row, at this table's rows."""
        return values if self._rows is None else np.take(values, self._rows, axis=0)

    def _points(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self._n_x + self._n_c:
            raise ConfigError(
                f"expected points of {self._n_x} treatment and {self._n_c} covariate "
                f"values each, got an array of shape {pts.shape}"
            )
        return pts

    def _fitted(self, threshold) -> tuple:
        key = _threshold_key(threshold)
        if key not in self._by_threshold:
            self._by_threshold[key] = self._fit(threshold)
        return self._by_threshold[key]


def _threshold_key(threshold) -> tuple:
    """A threshold's shape and float bits: equal keys, equal indicators."""
    thr = np.asarray(threshold, dtype=float)
    return thr.shape, thr.tobytes()


class EmpiricalCdf(_ThresholdCdf):
    """Conditional CDF by exact (x, c) stratum counting.

    The strata are those of the root table's stratum index
    (DataTable.stratum_index), looked up by value, so -0.0 and 0.0 name the
    same stratum. For each order and threshold the root keeps one cell
    code per row, stratum * 4 + 2 * strict + weak, in the smallest unsigned
    dtype that holds them all; every resample take() makes of the root
    shares them. A table's counts are then one bincount of the codes at
    its rows, or of all of them for the root itself: per stratum, the
    strict, weak and total counts, exact integers. A resample's columns are
    never read, and a threshold is checked against every root outcome, so
    a root with a non-finite outcome fails (ConfigError) on each of its
    resamples, as it does on itself. Asking for a stratum with no rows raises NoSupportError;
    there is no smoothing and no borrowing across strata.
    """

    def __init__(self, table: DataTable, order: OrderSpec | None = None):
        super().__init__(table, order)
        self._lookup = self._root.stratum_index()[1]

    def _cells(self, threshold) -> np.ndarray:
        """The root's cell code per row at threshold under this order."""
        root, n_cells = self._root, 4 * len(self._lookup)

        def build():
            codes = root.stratum_index()[0]
            strict, weak = indicator_below(root.outcomes(), threshold, self.order)
            return (codes * 4 + 2 * strict + weak).astype(np.min_scalar_type(max(n_cells - 1, 0)))

        return root.cached((self.order, *_threshold_key(threshold)), build)

    def _fit(self, threshold) -> tuple:
        """The strict, weak and total counts in each stratum."""
        counts = np.bincount(
            self._at_rows(self._cells(threshold)), minlength=4 * len(self._lookup)
        ).reshape(-1, 4)
        return counts[:, 2] + counts[:, 3], counts[:, 1] + counts[:, 3], counts.sum(axis=1)

    def _codes(self, points: np.ndarray, sizes: np.ndarray) -> np.ndarray:
        """Each point's stratum code; NoSupportError for the first point
        whose stratum has no rows."""
        codes = []
        for point in points.tolist():
            code = self._lookup.get(tuple(point))
            if code is None or sizes[code] == 0:
                raise NoSupportError(
                    f"no observations with treatment {point[: self._n_x]} "
                    f"and covariates {point[self._n_x:]}"
                )
            codes.append(code)
        return np.array(codes, dtype=np.intp)

    def rho_pair(self, threshold, points) -> tuple[np.ndarray, np.ndarray]:
        pts = self._points(points)
        try:
            strict, weak, sizes = self._fitted(threshold)
        except ConfigError:
            # A threshold that cannot be counted: a point with no rows
            # still fails first, as NoSupportError.
            codes = self.table.stratum_index()[0]
            self._codes(pts, np.bincount(codes, minlength=len(self._lookup)))
            raise
        codes = self._codes(pts, sizes)
        # Whole-number counts, so count / size is what a boolean mean gives.
        sizes = sizes[codes]
        return strict[codes] / sizes, weak[codes] / sizes


class LogisticCdf(_ThresholdCdf):
    """Conditional CDF via a logistic fit of each threshold indicator.

    Each distinct indicator column is fitted once per estimator, whichever
    thresholds and sides ask for it: for a continuous outcome a threshold's
    strict and weak columns agree, and on integer outcomes several
    thresholds give the same column. Fits are deterministic, so the stored
    model is the one a refit would give, bit for bit. A model that serves
    both sides of a threshold is evaluated once.

    Constant indicator columns (threshold outside the observed outcome
    range) short-circuit to the exact probability 0 or 1 with a diagnostic;
    a separation failure is retried once with a small ridge, and a fit that
    stops without converging is used as is; both leave a diagnostic too,
    written for each side the column serves. Where the two fits put strict
    above weak, strict is pulled down to weak and clip_count counts the
    point.

    The root table keeps the (x, c) feature matrix and, for each order and
    threshold, the strict and weak indicator columns (DataTable.cached); an
    estimator on a resample take() made gathers them at its rows and reads
    none of the resample's columns. So a root with a non-finite outcome
    fails (ConfigError) on each of its resamples, as EmpiricalCdf does,
    while a non-finite feature fails only a table whose rows include it,
    and only where a fit is needed: a constant indicator column needs none.
    """

    def __init__(self, table: DataTable, order: OrderSpec | None = None, *, ridge: float = 0.0):
        super().__init__(table, order)
        root = self._root
        self._xc = self._at_rows(
            root.cached("features", lambda: np.hstack([root.treatments(), root.covariates()]))
        )
        self.ridge = float(ridge)
        self._by_column: dict[bytes, tuple] = {}

    def _fit_side(self, below: np.ndarray) -> tuple:
        """The model for one indicator column, and notes on how it was got;
        fitted the first time the column is asked for."""
        key = np.packbits(below).tobytes()
        if key not in self._by_column:
            self._by_column[key] = self._fit_column(below)
        return self._by_column[key]

    def _fit_column(self, labels: np.ndarray) -> tuple:
        rate = float(labels.mean())
        if rate == 0.0 or rate == 1.0:
            return rate, [f"indicator is constant {int(rate)}; using it directly"]
        notes = []
        try:
            model = fit_logistic(self._xc, labels, ridge=self.ridge)
        except SeparationError:
            fallback = max(self.ridge, RIDGE_FALLBACK)
            notes.append(f"separation; refitted with ridge {fallback:g}")
            model = fit_logistic(self._xc, labels, ridge=fallback)
        if not model.converged:
            notes.append(
                f"IRLS stopped unconverged after {model.n_iter} "
                "iteration(s); using the last iterate"
            )
        return model, notes

    def _fit(self, threshold) -> tuple:
        root = self._root
        strict, weak = (
            self._at_rows(below)
            for below in root.cached(
                ("indicators", self.order, *_threshold_key(threshold)),
                lambda: indicator_below(root.outcomes(), threshold, self.order),
            )
        )
        label = np.asarray(threshold, dtype=float).tolist()
        fits = self._fit_side(strict), self._fit_side(weak)
        for side, (_, notes) in zip(("strict", "weak"), fits):
            self.diagnostics.extend(f"{side} indicator at {label}: {note}" for note in notes)
        return fits[0][0], fits[1][0]

    def rho_pair(self, threshold, points) -> tuple[np.ndarray, np.ndarray]:
        pts = self._points(points)
        strict_model, weak_model = self._fitted(threshold)
        strict = _predict(strict_model, pts)
        if weak_model is strict_model:
            return strict, strict
        weak = _predict(weak_model, pts)
        clipped = strict > weak
        self.clip_count += int(np.count_nonzero(clipped))
        return np.where(clipped, weak, strict), weak


def _predict(model: LogisticModel | float, points: np.ndarray) -> np.ndarray:
    """A side's CDF values at points: its fitted model's probabilities, or
    its constant indicator rate."""
    if isinstance(model, float):
        return np.full(points.shape[0], model)
    return model.predict_proba(points)
