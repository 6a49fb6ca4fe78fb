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

The logistic solver is iteratively reweighted least squares written here on
purpose: its convergence rule, ridge behavior, and failure modes are part
of this package's contract, and an external GLM would make the bootstrap's
failure accounting opaque. Fits are deterministic: same inputs, same model,
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DataTable, binarize_outcome
from .errors import ConfigError, NoSupportError, SeparationError, SingularError
from .ordering import OrderSpec, lexicographic_default

RIDGE_FALLBACK = 1e-6


@dataclass(frozen=True)
class RhoPair:
    """Strict and weak below-threshold probabilities at one (y, x, c).

    strict <= weak always holds on the way out; if an estimator produced
    the reverse (possible when the two logistic fits disagree), strict is
    pulled down to weak and clipped is set.
    """

    strict: float
    weak: float
    clipped: bool = False


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
        return _sigmoid(self.intercept + f @ self.coefficients)


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta, dtype=float)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ez = np.exp(eta[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def fit_logistic(
    features,
    labels,
    *,
    ridge: float = 0.0,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> LogisticModel:
    """Newton / IRLS fit of a binary logistic regression.

    The intercept is never penalized; ridge applies to the feature
    coefficients only, as 0.5 * ridge * ||coef||^2 subtracted from the
    log-likelihood. Convergence is a sup-norm gradient test at tol.

    Raises SeparationError when the labels are all 0 or all 1 (the MLE
    intercept is infinite, ridge or not) and when the iterates walk off to
    a perfectly separating hyperplane. Raises SingularError when the
    weighted normal equations cannot be solved.
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float).ravel()
    if X.ndim != 2:
        raise ConfigError(f"features must be 2-d, got shape {X.shape}")
    if X.shape[0] != y.shape[0]:
        raise ConfigError(f"{X.shape[0]} feature rows vs {y.shape[0]} labels")
    if not np.all(np.isfinite(X)):
        raise ConfigError("features must be finite")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ConfigError("labels must be 0/1")
    if ridge < 0:
        raise ConfigError(f"ridge must be >= 0, got {ridge}")

    mean_y = float(y.mean())
    if mean_y == 0.0 or mean_y == 1.0:
        raise SeparationError(
            f"labels are constant ({int(mean_y)}); no finite intercept exists"
        )

    n, p = X.shape
    design = np.hstack([np.ones((n, 1)), X])
    penalty = np.zeros(p + 1)
    penalty[1:] = ridge
    beta = np.zeros(p + 1)
    # Warm-start the intercept at the marginal log-odds.
    beta[0] = float(np.log(mean_y / (1.0 - mean_y)))

    n_iter = 0
    converged = False
    for n_iter in range(1, max_iter + 1):
        eta = design @ beta
        prob = _sigmoid(eta)
        grad = design.T @ (y - prob) - penalty * beta
        if float(np.max(np.abs(grad))) <= tol:
            converged = True
            n_iter -= 1
            break
        w = prob * (1.0 - prob)
        hess = design.T @ (design * w[:, None]) + np.diag(penalty)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError as exc:
            raise SingularError(
                f"IRLS normal equations singular at iteration {n_iter}"
            ) from exc
        beta = beta + step
        if float(np.max(np.abs(beta))) > 1e8:
            raise SeparationError(
                "IRLS iterates diverged; labels look perfectly separated"
            )

    if not converged:
        eta = design @ beta
        prob = _sigmoid(eta)
        grad = design.T @ (y - prob) - penalty * beta
        if float(np.max(np.abs(grad))) <= tol:
            converged = True
        elif float(np.max(prob * (1.0 - prob))) < 1e-12:
            raise SeparationError(
                f"no convergence in {max_iter} iterations and all fitted "
                "probabilities are saturated; labels look perfectly separated"
            )

    return LogisticModel(
        coefficients=beta[1:].copy(),
        intercept=float(beta[0]),
        converged=converged,
        n_iter=n_iter,
        ridge=float(ridge),
    )


class EmpiricalCdf:
    """Conditional CDF by exact (x, c) stratum counting.

    The stratum index comes from one stable sort of the (x, c) rows: each
    distinct row maps to its row numbers, in ascending order. Strata are
    keyed and looked up by value, so -0.0 and 0.0 name the same stratum.
    Asking for a stratum with no rows raises NoSupportError; there is no
    smoothing and no borrowing across strata.
    """

    def __init__(self, table: DataTable, order: OrderSpec | None = None):
        self.table = table
        y = table.outcomes()
        if y.shape[1] == 0:
            raise ConfigError("table has no outcome columns")
        self.order = order if order is not None else lexicographic_default(y.shape[1])
        xc = np.hstack([table.treatments(), table.covariates()])
        self._n_x = table.treatments().shape[1]
        self._n_c = table.covariates().shape[1]
        if xc.shape[1] == 0:
            raise ConfigError("table has neither treatment nor covariate columns")
        rows = np.lexsort(xc.T)
        ordered = xc[rows]
        starts = np.zeros(xc.shape[0], dtype=bool)
        starts[:1] = True
        for j in range(xc.shape[1]):
            starts[1:] |= ordered[1:, j] != ordered[:-1, j]
        first = np.flatnonzero(starts)
        ends = np.append(first[1:], xc.shape[0])
        self._strata = {
            tuple(key): rows[a:b]
            for key, a, b in zip(ordered[first].tolist(), first.tolist(), ends.tolist())
        }
        self._indicators: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}
        self.clip_count = 0
        self.diagnostics: list[str] = []

    def _point(self, x, c) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        c = np.asarray(c, dtype=float).ravel()
        if x.size != self._n_x or c.size != self._n_c:
            raise ConfigError(
                f"expected {self._n_x} treatment and {self._n_c} covariate values, "
                f"got {x.size} and {c.size}"
            )
        return np.concatenate([x, c])

    def _thresh_indicators(self, threshold) -> tuple[np.ndarray, np.ndarray]:
        key = np.asarray(threshold, dtype=float).tobytes()
        if key not in self._indicators:
            self._indicators[key] = binarize_outcome(self.table, threshold, self.order)
        return self._indicators[key]

    def rho_pair(self, threshold, x, c) -> RhoPair:
        point = self._point(x, c)
        idx = self._strata.get(tuple(point.tolist()))
        if idx is None:
            raise NoSupportError(
                f"no observations with treatment {point[: self._n_x].tolist()} "
                f"and covariates {point[self._n_x:].tolist()}"
            )
        strict, weak = self._thresh_indicators(threshold)
        return RhoPair(
            strict=float(strict[idx].mean()),
            weak=float(weak[idx].mean()),
            clipped=False,
        )


class LogisticCdf:
    """Conditional CDF via one pair of logistic fits per threshold.

    Models are fitted lazily the first time a threshold is requested and
    cached. Constant indicator columns (threshold outside the observed
    outcome range) short-circuit to the exact probability 0 or 1 with a
    diagnostic; a separation failure is retried once with a small ridge,
    also with a diagnostic.
    """

    def __init__(
        self,
        table: DataTable,
        order: OrderSpec | None = None,
        *,
        ridge: float = 0.0,
        tol: float = 1e-8,
        max_iter: int = 100,
    ):
        self.table = table
        y = table.outcomes()
        if y.shape[1] == 0:
            raise ConfigError("table has no outcome columns")
        self.order = order if order is not None else lexicographic_default(y.shape[1])
        self._features = np.hstack([table.treatments(), table.covariates()])
        self._n_x = table.treatments().shape[1]
        self._n_c = table.covariates().shape[1]
        if self._features.shape[1] == 0:
            raise ConfigError("table has neither treatment nor covariate columns")
        self.ridge = float(ridge)
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self._models: dict[bytes, tuple] = {}
        self.clip_count = 0
        self.diagnostics: list[str] = []

    def _fit_side(self, labels: np.ndarray, what: str):
        rate = float(labels.mean())
        if rate == 0.0 or rate == 1.0:
            self.diagnostics.append(
                f"{what}: indicator is constant {int(rate)}; using it directly"
            )
            return rate
        try:
            return fit_logistic(
                self._features,
                labels,
                ridge=self.ridge,
                tol=self.tol,
                max_iter=self.max_iter,
            )
        except SeparationError:
            fallback = max(self.ridge, RIDGE_FALLBACK)
            self.diagnostics.append(
                f"{what}: separation; refitted with ridge {fallback:g}"
            )
            return fit_logistic(
                self._features,
                labels,
                ridge=fallback,
                tol=self.tol,
                max_iter=self.max_iter,
            )

    def _models_for(self, threshold) -> tuple:
        key = np.asarray(threshold, dtype=float).tobytes()
        if key not in self._models:
            strict, weak = binarize_outcome(self.table, threshold, self.order)
            label = np.asarray(threshold, dtype=float).tolist()
            self._models[key] = (
                self._fit_side(strict.astype(float), f"strict indicator at {label}"),
                self._fit_side(weak.astype(float), f"weak indicator at {label}"),
            )
        return self._models[key]

    def _predict(self, model, point: np.ndarray) -> float:
        if isinstance(model, float):
            return model
        return float(model.predict_proba(point.reshape(1, -1))[0])

    def rho_pair(self, threshold, x, c) -> RhoPair:
        x = np.asarray(x, dtype=float).ravel()
        c = np.asarray(c, dtype=float).ravel()
        if x.size != self._n_x or c.size != self._n_c:
            raise ConfigError(
                f"expected {self._n_x} treatment and {self._n_c} covariate values, "
                f"got {x.size} and {c.size}"
            )
        point = np.concatenate([x, c])
        strict_model, weak_model = self._models_for(threshold)
        strict = self._predict(strict_model, point)
        weak = self._predict(weak_model, point)
        clipped = False
        if strict > weak:
            strict = weak
            clipped = True
            self.clip_count += 1
        return RhoPair(strict=strict, weak=weak, clipped=clipped)

