"""Structural simulators and brute-force counterfactual oracles.

The estimators in this package lean on two assumptions: treatment is
exogenous given covariates, and the structural response moves one way in
the latent noise. Neither is checkable from one observational table. This
module builds worlds where both are true (or deliberately false), so the
identification formulas can be compared against ground truth computed the
honest way: fix the latent draw, evaluate every counterfactual, average.

A model is mean + noise + coupling + treatment policy + covariate law:

* LinearMean with Additive coupling gives Y = A x + B c + b + U, the
  plainest monotone continuous mechanism.
* TabularMean maps a scalar uniform latent through per-(x, c) cut points
  onto a fixed ascending list of outcome levels, producing discrete
  outcomes with atoms (the regime where observed evidence carries mass).
* NonMonotoneTest flips the latent's direction once treatment crosses
  flip_at. It exists to be caught: estimates built on the monotone
  assumption should disagree with the oracle here, and the monotonicity
  and trajectory diagnostics should flag it.

The policy depends on covariates only, never on the latent draw, so
conditional exogeneity holds by construction. All randomness flows through
counter-based streams (derived_rng), which keeps every simulation and
oracle call reproducible from a single seed regardless of call order.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields
from itertools import chain, combinations

import numpy as np

from .bootstrap import derived_rng
from .dataset import DataTable, TableSchema, Variable, _distinct_rows, _read_json
from .errors import ConfigError, NoSupportError, PocError, as_float
from .estimands import EstimatorConfig, Evidence, PoCQuery, estimate_with_interval, evaluate_query
from .ordering import (
    Ordering,
    OrderSpec,
    compare,
    indicator_below,
    lexicographic_default,
    order_from_dict,
)

MAX_TABULAR_STATES = 1000

# Fixed stream indices so same-seed calls to different entry points stay
# statistically independent of each other.
_STREAM_SIMULATE = 0
_STREAM_ORACLE_JOINT = 1
_STREAM_ORACLE_EVIDENCE = 2
_STREAM_MONOTONICITY = 3
_STREAM_PROBE = 4
_STREAM_TRAJECTORIES = 5


def _floats(v, name: str) -> np.ndarray:
    """v as a float array; a ragged or non-numeric v, or one holding a
    string, is a ConfigError that names the field. numpy gives a list that
    holds a string at any depth a text dtype, or the object dtype when the
    list also holds None or an integer past int64."""
    try:
        arr = np.asarray(v)
        if arr.dtype.kind in "US" or (
            arr.dtype.kind == "O" and any(isinstance(x, (str, bytes)) for x in arr.flat)
        ):
            raise TypeError(v)
        return arr.astype(float, copy=False)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be numbers in a rectangular array, got {v!r}") from None


def _matrix(v, name: str) -> np.ndarray:
    arr = _floats(v, name)
    if arr.ndim != 2:
        raise ConfigError(f"{name} must be a 2-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} contains non-finite entries")
    return arr


def _vector(v, name: str) -> np.ndarray:
    arr = _floats(v, name).ravel()
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} contains non-finite entries")
    return arr


def _match_rows(rows: np.ndarray, levels: np.ndarray, what: str) -> np.ndarray:
    """Index of each row in a declared level table, by exact value."""
    if rows.shape[1] != levels.shape[1]:
        raise ConfigError(
            f"{what} rows have {rows.shape[1]} columns, levels have {levels.shape[1]}"
        )
    eq = np.all(rows[:, None, :] == levels[None, :, :], axis=2)
    hit = eq.any(axis=1)
    if not hit.all():
        bad = rows[~hit][0]
        raise NoSupportError(f"{what} value {bad.tolist()} is not a declared level")
    return eq.argmax(axis=1)


def _check_distinct(rows: np.ndarray, what: str) -> None:
    """Reject repeated rows, compared by value as _distinct_rows groups them."""
    if _distinct_rows(rows)[0].shape[0] != rows.shape[0]:
        raise ConfigError(f"{what} contains duplicate rows")


_LADDER_CHUNK = 1 << 14  # keys bucketed at once; bounds the search's temporaries


def _ladder_search(ladder: np.ndarray, keys, side: str) -> np.ndarray:
    """np.searchsorted(ladder, keys, side), exactly, for an ascending float
    ladder; by bucket lookup once the ladder has 16 or more values.

    16 buckets per ladder value split the ladder's span evenly. A value's
    bucket is trunc(clip((v - ladder[0]) * scale + 1, 0, top)), with NaN
    in the top bucket, where numpy sorts it. Each step is monotone in v, so
    a ladder value in a lower bucket than a key precedes it and one in a
    higher bucket follows it. A key's index is then the count of ladder
    values in lower buckets, plus one comparison when its bucket holds one
    value (with no value, the next one up compares false); only keys in a
    bucket of two or more values are searched. A span that gives no
    positive finite scale (a zero, subnormal or overflowing span, or a
    non-finite end) is searched directly.
    """
    n_l = len(ladder)
    scale = 0.0
    if n_l >= 16:
        with np.errstate(over="ignore", divide="ignore"):
            scale = (16 * n_l) / (ladder[-1] - ladder[0])
    if not 0.0 < scale < np.inf:
        return np.searchsorted(ladder, keys, side)
    top = 16 * n_l + 2  # above every ladder value's bucket, n_l * 16 + 1 at most

    def buckets(v):
        b = np.subtract(v, ladder[0])
        b *= scale
        b += 1.0
        np.fmin(b, top, out=b)
        np.fmax(b, 0.0, out=b)
        return b.astype(np.intp)

    with np.errstate(over="ignore"):
        count = np.bincount(buckets(ladder), minlength=top + 1)
        shared = count > 1
        before = np.cumsum(count)
        before -= count
        del count
        nexts = np.append(ladder, np.nan)  # the value at each index; NaN compares false
        reached = np.less_equal if side == "right" else np.less
        keys = np.asarray(keys, dtype=float)
        flat = keys.reshape(-1)
        out = np.empty(flat.shape, dtype=np.intp)
        for s in range(0, flat.size, _LADDER_CHUNK):
            v = flat[s:s + _LADDER_CHUNK]
            b = buckets(v)
            idx = out[s:s + _LADDER_CHUNK]
            np.take(before, b, out=idx)
            idx += reached(nexts[idx], v)
            many = np.flatnonzero(shared[b])
            if many.size:
                idx[many] = np.searchsorted(ladder, v[many], side)
    return out.reshape(keys.shape)


# ---------------------------------------------------------------------------
# Mechanism pieces.
# ---------------------------------------------------------------------------


class _Piece:
    """A model-spec piece whose dataclass fields are its JSON keys."""

    def as_dict(self) -> dict:
        """The kind, for a piece that has one, then every field: arrays as
        nested lists, nested pieces and orders by their own as_dict."""
        kind = _KINDS.get(type(self))
        out = {} if kind is None else {"kind": kind}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, np.ndarray):
                v = v.tolist()
            elif hasattr(v, "as_dict"):
                v = v.as_dict()
            out[f.name] = v
        return out


@dataclass(frozen=True)
class LinearMean(_Piece):
    """Outcome location A x + B c + b."""

    treat_coef: tuple  # (n_outcomes, n_treatments)
    cov_coef: tuple    # (n_outcomes, n_covariates); may be empty-width
    intercept: tuple   # (n_outcomes,)

    def __post_init__(self):
        a = _matrix(self.treat_coef, "treat_coef")
        b0 = _vector(self.intercept, "intercept")
        if self.cov_coef is None:
            b = np.zeros((a.shape[0], 0))
        else:
            b = _floats(self.cov_coef, "cov_coef")
            if b.ndim == 1:
                b = b.reshape(a.shape[0], -1) if b.size else np.zeros((a.shape[0], 0))
            b = _matrix(b, "cov_coef") if b.size else b
        if a.shape[0] != b0.size or (b.size and b.shape[0] != a.shape[0]):
            raise ConfigError(
                "treat_coef, cov_coef and intercept disagree on the outcome dimension"
            )
        object.__setattr__(self, "treat_coef", a)
        object.__setattr__(self, "cov_coef", b)
        object.__setattr__(self, "intercept", b0)

    @property
    def n_outcomes(self) -> int:
        return self.treat_coef.shape[0]

    @property
    def n_treatments(self) -> int:
        return self.treat_coef.shape[1]

    @property
    def n_covariates(self) -> int:
        return self.cov_coef.shape[1]

    def value(self, X: np.ndarray, C: np.ndarray) -> np.ndarray:
        out = X @ self.treat_coef.T + self.intercept
        if self.n_covariates:
            out = out + C @ self.cov_coef.T
        return out


@dataclass(frozen=True)
class TabularMean(_Piece):
    """Discrete mechanism: a scalar uniform latent cut into outcome levels.

    For each (x, c) cell, cuts[ix, ic] splits (0, 1) into len(levels)
    intervals; the latent's interval picks the outcome row. Levels must be
    strictly ascending under the model's outcome order, which is what makes
    the mechanism monotone in the latent.
    """

    x_levels: tuple   # (n_x, n_treatments)
    c_levels: tuple | None  # (n_c, n_covariates); None or empty: no covariates
    cuts: tuple       # (n_x, n_c, n_states - 1), nondecreasing in (0, 1)
    levels: tuple     # (n_states, n_outcomes)

    def __post_init__(self):
        xl = _matrix(self.x_levels, "x_levels")
        cl = _floats([] if self.c_levels is None else self.c_levels, "c_levels")
        cl = _matrix(cl if cl.size or cl.shape[0] else np.zeros((1, 0)), "c_levels")
        lv = _matrix(self.levels, "levels")
        cuts = _floats(self.cuts, "cuts")
        n_states = lv.shape[0]
        if n_states < 2:
            raise ConfigError("a tabular mechanism needs at least two outcome levels")
        if n_states > MAX_TABULAR_STATES:
            raise ConfigError(
                f"{n_states} outcome levels exceeds the cap of {MAX_TABULAR_STATES}"
            )
        want = (xl.shape[0], cl.shape[0], n_states - 1)
        if cuts.shape != want:
            raise ConfigError(f"cuts must have shape {want}, got {cuts.shape}")
        if not np.all(np.isfinite(cuts)) or np.any(cuts < 0) or np.any(cuts > 1):
            raise ConfigError("cuts must lie in [0, 1]")
        if np.any(np.diff(cuts, axis=2) < 0):
            raise ConfigError("cuts must be nondecreasing within each (x, c) cell")
        _check_distinct(xl, "x_levels")
        _check_distinct(cl, "c_levels")
        object.__setattr__(self, "x_levels", xl)
        object.__setattr__(self, "c_levels", cl)
        object.__setattr__(self, "cuts", cuts)
        object.__setattr__(self, "levels", lv)

    @property
    def n_outcomes(self) -> int:
        return self.levels.shape[1]

    @property
    def n_treatments(self) -> int:
        return self.x_levels.shape[1]

    @property
    def n_covariates(self) -> int:
        return self.c_levels.shape[1]

    def outcome(self, X: np.ndarray, C: np.ndarray, u: np.ndarray) -> np.ndarray:
        """The level row of each latent u. X and C are each row-aligned
        with u or one row for every latent; when both are one row, a single
        cut row is searched, with no per-row match or mask."""
        ix = _match_rows(X, self.x_levels, "treatment")
        ic = _match_rows(C, self.c_levels, "covariate")
        n_c = self.c_levels.shape[0]
        cell = ix * n_c + ic
        if cell.size == 1:
            return self.levels[_ladder_search(self.cuts[ix[0], ic[0]], u, "right")]
        state = np.empty(len(u), dtype=int)
        for cell_id in np.flatnonzero(np.bincount(cell)):
            mask = cell == cell_id
            state[mask] = _ladder_search(self.cuts[cell_id // n_c, cell_id % n_c], u[mask],
                                         "right")
        return self.levels[state]

    def state_probs(self, x, c) -> np.ndarray:
        ix = _match_rows(np.atleast_2d(np.asarray(x, float)), self.x_levels, "treatment")[0]
        ic = _match_rows(np.atleast_2d(np.asarray(c, float)).reshape(1, -1),
                         self.c_levels, "covariate")[0]
        edges = np.concatenate(([0.0], self.cuts[ix, ic], [1.0]))
        return np.diff(edges)


@dataclass(frozen=True)
class UniformBox(_Piece):
    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = _vector(self.lo, "lo")
        hi = _vector(self.hi, "hi")
        if lo.size != hi.size or lo.size == 0 or np.any(hi <= lo):
            raise ConfigError("uniform box needs lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self) -> int:
        return self.lo.size

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.lo + (self.hi - self.lo) * rng.random((n, self.dimension))

    def contains(self, u: np.ndarray) -> bool:
        return bool(np.all(u >= self.lo) and np.all(u <= self.hi))


@dataclass(frozen=True)
class GaussianDiag(_Piece):
    mean: tuple
    sd: tuple

    def __post_init__(self):
        m = _vector(self.mean, "mean")
        s = _vector(self.sd, "sd")
        if m.size != s.size or m.size == 0 or np.any(s <= 0):
            raise ConfigError("gaussian noise needs matching mean/sd with sd > 0")
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "sd", s)

    @property
    def dimension(self) -> int:
        return self.mean.size

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.mean + self.sd * rng.standard_normal((n, self.dimension))

    def contains(self, u: np.ndarray) -> bool:
        return True


@dataclass(frozen=True)
class Additive(_Piece):
    """Latent enters as-is: monotone by construction."""

    def flipped(self, X: np.ndarray) -> np.ndarray:
        return np.zeros(X.shape[0], dtype=bool)


@dataclass(frozen=True)
class NonMonotoneTest(_Piece):
    """Reverses the latent's direction once x[0] reaches flip_at.

    Linear mechanisms get Y = mean - U on the flipped side; tabular ones
    read the cut table at 1 - u. Either way the common-latent monotonicity
    the estimators assume is broken across the flip, on purpose.
    """

    flip_at: float = 0.5

    def __post_init__(self):
        try:
            f = as_float(self.flip_at)
        except (TypeError, ValueError):
            raise ConfigError(f"flip_at must be a number, got {self.flip_at!r}") from None
        if not np.isfinite(f):
            raise ConfigError(f"flip_at must be finite, got {self.flip_at!r}")
        object.__setattr__(self, "flip_at", f)

    def flipped(self, X: np.ndarray) -> np.ndarray:
        """Which treatment rows have reached flip_at."""
        return X[:, 0] >= self.flip_at


@dataclass(frozen=True)
class TreatmentPolicy(_Piece):
    """Softmax choice over a finite treatment support, driven by covariates only."""

    support: tuple    # (n_levels, n_treatments)
    logits: tuple     # (n_levels,)
    covariate_logits: tuple | None = None  # (n_levels, n_covariates)

    def __post_init__(self):
        sup = _matrix(self.support, "policy support")
        lg = _vector(self.logits, "policy logits")
        if sup.shape[0] != lg.size or sup.shape[0] == 0:
            raise ConfigError("policy support and logits disagree on the level count")
        _check_distinct(sup, "policy support")
        cl = self.covariate_logits
        if cl is not None:
            cl = _matrix(cl, "covariate_logits")
            if cl.shape[0] != sup.shape[0]:
                raise ConfigError("covariate_logits rows must match the support")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "logits", lg)
        object.__setattr__(self, "covariate_logits", cl)

    @property
    def n_levels(self) -> int:
        return self.support.shape[0]

    def probabilities(self, c) -> np.ndarray:
        eta = self.logits.copy()
        if self.covariate_logits is not None:
            eta = eta + self.covariate_logits @ np.asarray(c, dtype=float)
        eta -= eta.max()
        w = np.exp(eta)
        return w / w.sum()

    def sample(self, C: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One support row per data row; one uniform per row, in row order.
        Each distinct covariate row's probabilities are computed once, on
        rows grouped by one stable sort in np.unique's order."""
        u = rng.random(C.shape[0])
        eta = self.logits[None, :]
        if self.covariate_logits is None:
            inv = 0
        else:
            profiles, inv = _distinct_rows(C)
            eta = eta + (self.covariate_logits @ profiles[:, :, None])[:, :, 0]
        # probabilities(c) for every profile at once, row by row, to the bit.
        w = np.exp(eta - eta.max(axis=1, keepdims=True))
        cum = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)
        # A row's level is the number of its profile's cumulative
        # probabilities at or below u, capped at the last level; counting
        # over all levels but the last applies the cap.
        idx = np.zeros(C.shape[0], dtype=np.intp)
        for level in range(self.n_levels - 1):
            idx += cum[inv, level] <= u
        return self.support[idx]


@dataclass(frozen=True)
class CovariateDist(_Piece):
    support: tuple  # (n_profiles, n_covariates)
    probs: tuple    # (n_profiles,)

    def __post_init__(self):
        sup = _matrix(self.support, "covariate support")
        p = _vector(self.probs, "covariate probs")
        if sup.shape[0] != p.size or sup.shape[0] == 0:
            raise ConfigError("covariate support and probs disagree on the profile count")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ConfigError("covariate probs must be nonnegative and sum to 1")
        _check_distinct(sup, "covariate support")
        object.__setattr__(self, "support", sup)
        object.__setattr__(self, "probs", p / p.sum())

    @property
    def dimension(self) -> int:
        return self.support.shape[1]

    def sample_rows(self, n: int, rng: np.random.Generator) -> np.ndarray:
        cum = np.cumsum(self.probs)
        idx = np.minimum(
            _ladder_search(cum, rng.random(n), "right"), len(cum) - 1
        )
        return self.support[idx]


# ---------------------------------------------------------------------------
# The assembled model.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScmSpec(_Piece):
    mean: LinearMean | TabularMean
    noise: UniformBox | GaussianDiag
    coupling: Additive | NonMonotoneTest
    policy: TreatmentPolicy
    covariates: CovariateDist | None = None
    order: OrderSpec | None = None  # defaults to lexicographic over outcomes

    def __post_init__(self):
        m = self.mean
        if m.n_treatments == 0:
            raise ConfigError("a model needs at least one treatment column")
        if self.policy.support.shape[1] != m.n_treatments:
            raise ConfigError(
                f"policy support is {self.policy.support.shape[1]}-dimensional, "
                f"mechanism expects {m.n_treatments} treatment columns"
            )
        if self.covariates is None:
            if m.n_covariates != 0:
                raise ConfigError(
                    "mechanism uses covariates but no covariate distribution was given"
                )
            if self.policy.covariate_logits is not None:
                raise ConfigError("policy covariate_logits given without covariates")
        else:
            if self.covariates.dimension != m.n_covariates:
                raise ConfigError(
                    f"covariate distribution is {self.covariates.dimension}-dimensional, "
                    f"mechanism expects {m.n_covariates}"
                )
            cl = self.policy.covariate_logits
            if cl is not None and cl.shape[1] != m.n_covariates:
                raise ConfigError("covariate_logits columns must match the covariates")
        order = self.order
        if order is not None and order.dimension != m.n_outcomes:
            raise ConfigError(
                f"order is over {order.dimension} components, "
                f"outcomes have {m.n_outcomes}"
            )
        if isinstance(m, LinearMean):
            if self.noise.dimension != m.n_outcomes:
                raise ConfigError(
                    f"noise is {self.noise.dimension}-dimensional, "
                    f"outcomes are {m.n_outcomes}-dimensional"
                )
        else:
            if not isinstance(self.noise, UniformBox) or self.noise.dimension != 1 \
                    or self.noise.lo[0] != 0.0 or self.noise.hi[0] != 1.0:
                raise ConfigError(
                    "a tabular mechanism needs scalar uniform_box noise on (0, 1)"
                )
            # An undeclared support row is a fault of the spec, not of a query.
            try:
                _match_rows(self.policy.support, m.x_levels, "policy support")
                if self.covariates is not None:
                    _match_rows(self.covariates.support, m.c_levels, "covariate support")
            except NoSupportError as exc:
                raise ConfigError(str(exc)) from None
            late = np.flatnonzero(
                compare(m.levels[:-1], m.levels[1:], self.outcome_order) != Ordering.LESS
            )
            if late.size:
                k = int(late[0])
                raise ConfigError(
                    f"tabular levels must ascend under the outcome order; "
                    f"level {k} does not precede level {k + 1}"
                )

    @property
    def n_outcomes(self) -> int:
        return self.mean.n_outcomes

    @property
    def n_treatments(self) -> int:
        return self.mean.n_treatments

    @property
    def n_covariates(self) -> int:
        return self.mean.n_covariates

    @property
    def outcome_order(self) -> OrderSpec:
        return self.order if self.order is not None else lexicographic_default(self.n_outcomes)

    def _check_rows(self, X: np.ndarray, C: np.ndarray, n: int) -> None:
        """ConfigError unless the 2-d X and C each hold one row or n, of
        this spec's treatment and covariate widths."""
        for role, M, width in (("treatment", X, self.n_treatments),
                               ("covariate", C, self.n_covariates)):
            if M.shape[0] not in (1, n):
                raise ConfigError(f"{role} rows: got {M.shape[0]}, need 1 or {n} (one per latent)")
            if M.shape[1] != width:
                raise ConfigError(f"{role} rows have {M.shape[1]} columns, need {width}")

    def outcomes(self, X, C, U: np.ndarray) -> np.ndarray:
        """Structural response Y(x) at each latent row of U. X and C are
        each one row, which may be flat (() for no covariates), or one row
        per latent; any other row count, or a row of the wrong width, is a
        ConfigError.

        Where the coupling flips, a tabular mechanism reads its cut table
        at 1 - u and a linear one gives mean - U. A tabular mechanism reads
        one cut row when X and C are both one row. A linear one broadcasts
        them to U's rows first: a one-row product can differ in the last
        bit from the same row's product in an n-row one.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        C = np.atleast_2d(np.asarray(C, dtype=float))
        U = np.asarray(U, dtype=float)
        n = U.shape[0]
        self._check_rows(X, C, n)
        flip = self.coupling.flipped(X)
        if isinstance(self.mean, TabularMean):
            u = U[:, 0]
            return self.mean.outcome(X, C, np.where(flip, 1.0 - u, u) if flip.any() else u)
        mu = self.mean.value(np.broadcast_to(X, (n, X.shape[1])),
                             np.broadcast_to(C, (n, C.shape[1])))
        if flip.any():
            U = np.where(flip[:, None], -U, U)  # mu + -U is mu - U, bit for bit
        return mu + U


_PIECES = {
    "mean": {"linear": LinearMean, "tabular": TabularMean},
    "noise": {"uniform_box": UniformBox, "gaussian_diag": GaussianDiag},
    "coupling": {"additive": Additive, "nonmonotone_test": NonMonotoneTest},
    "policy": TreatmentPolicy,
    "covariates": CovariateDist,
}
_KINDS = {
    cls: kind
    for kinds in _PIECES.values() if isinstance(kinds, dict)
    for kind, cls in kinds.items()
}


def _piece_from_dict(section: str, obj):
    """One model-spec piece from its JSON object: a kind, for the sections
    that have several, and then the piece's fields. A field left out takes
    its dataclass default, or None."""
    if not isinstance(obj, dict):
        raise ConfigError(f"model spec needs a {section!r} object")
    obj = dict(obj)
    cls = _PIECES[section]
    if isinstance(cls, dict):
        kind = obj.pop("kind", None)
        if not isinstance(kind, str) or kind not in cls:
            raise ConfigError(f"unknown {section} kind {kind!r}")
        cls = cls[kind]
    # The piece checks its values before stray keys are rejected, so a bad
    # value is reported ahead of an unknown field.
    piece = cls(**{
        f.name: obj.pop(f.name, None)
        for f in fields(cls) if f.name in obj or f.default is MISSING
    })
    if obj:
        raise ConfigError(f"unknown {section} fields: {sorted(obj)}")
    return piece


def scm_from_dict(obj: dict) -> ScmSpec:
    if not isinstance(obj, dict):
        raise ConfigError(f"model spec must be a JSON object, got {type(obj).__name__}")
    extra = set(obj) - {f.name for f in fields(ScmSpec)}
    if extra:
        raise ConfigError(f"unknown model spec fields: {sorted(extra)}")
    for key in ("mean", "noise", "policy"):
        if obj.get(key) is None:
            raise ConfigError(f"model spec needs a {key!r} object")
    # A missing, null or empty coupling is additive.
    if obj.get("coupling") in (None, {}):
        obj = dict(obj, coupling={"kind": "additive"})
    pieces = {s: _piece_from_dict(s, obj[s]) for s in _PIECES if obj.get(s) is not None}
    order = order_from_dict(obj["order"]) if obj.get("order") is not None else None
    return ScmSpec(**pieces, order=order)


def load_scm(path) -> ScmSpec:
    return scm_from_dict(_read_json(path, "model spec"))


def simulate(spec: ScmSpec, n: int, seed: int = 0, *, return_latent: bool = False):
    """Draw an observational table (columns y*, x*, c*) from the model.

    Draw order is fixed (covariates, then policy, then latent noise) so a
    seed pins the table exactly. With return_latent=True also returns the
    latent matrix, row-aligned; tests use it to confirm the policy never
    peeks at the noise.
    """
    n = int(n)
    if n <= 0:
        raise ConfigError(f"need a positive sample size, got {n}")
    rng = derived_rng(seed, _STREAM_SIMULATE)
    if spec.covariates is None:
        C = np.zeros((n, 0))
    else:
        C = spec.covariates.sample_rows(n, rng)
    X = spec.policy.sample(C, rng)
    U = spec.noise.sample(n, rng)
    Y = spec.outcomes(X, C, U)

    variables = []
    columns: dict[str, np.ndarray] = {}
    for prefix, role, M in (("y", "outcome", Y), ("x", "treatment", X), ("c", "covariate", C)):
        for j in range(M.shape[1]):
            name = f"{prefix}{j + 1}"
            variables.append(Variable(name, role, position=j if role == "outcome" else None))
            columns[name] = M[:, j].copy()
    table = DataTable(
        schema=TableSchema(variables=tuple(variables)),
        columns=columns,
        source="simulated",
    )
    return (table, U) if return_latent else table


# ---------------------------------------------------------------------------
# Counterfactual events and oracles.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CfClause:
    """One counterfactual requirement: Y(x) strictly before `below`,
    and/or at-or-after `at_least`, under the outcome order."""

    x: tuple
    below: tuple | None = None
    at_least: tuple | None = None

    def __post_init__(self):
        if self.below is None and self.at_least is None:
            raise ConfigError("a counterfactual clause needs at least one bound")
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        for name in ("below", "at_least"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, tuple(float(t) for t in v))


@dataclass(frozen=True)
class CounterfactualEvent:
    clauses: tuple

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(self.clauses))
        if not self.clauses:
            raise ConfigError("a counterfactual event needs at least one clause")


def flip_event(thresholds, treatments) -> CounterfactualEvent:
    """The chain event: each threshold is missed under its earlier treatment
    and reached under its later one. One threshold gives the plain flip."""
    ts = [tuple(float(v) for v in t) for t in thresholds]
    xs = [tuple(float(v) for v in x) for x in treatments]
    if len(xs) != len(ts) + 1 or not ts:
        raise ConfigError(
            f"a chain with {len(ts)} thresholds needs {len(ts) + 1} treatments"
        )
    clauses = []
    for i, y in enumerate(ts):
        clauses.append(CfClause(x=xs[i], below=y))
        clauses.append(CfClause(x=xs[i + 1], at_least=y))
    return CounterfactualEvent(clauses=tuple(clauses))


def _reference_c(spec: ScmSpec) -> tuple:
    """The covariate profile the diagnostics use when given none: the
    first covariate support row, or () for a model without covariates."""
    return () if spec.covariates is None else tuple(spec.covariates.support[0])


def _support_pairs(spec: ScmSpec) -> list:
    """Every pair of policy support rows, in support order."""
    return list(combinations(map(tuple, spec.policy.support), 2))


def _latents(spec: ScmSpec, n, seed: int, stream: int) -> np.ndarray:
    """n latent draws from counter stream `stream` under `seed`."""
    n = int(n)
    if n <= 0:
        raise ConfigError(f"need a positive Monte Carlo size, got {n}")
    return spec.noise.sample(n, derived_rng(seed, stream))


@dataclass(frozen=True)
class OracleResult:
    """An event's probability and, from the same draws, the probability of
    each of its clauses on its own (in clause order)."""

    value: float
    std_error: float
    n_mc: int
    n_used: int
    exact: bool = False
    clause_values: tuple = ()


def _oracle_result(
    spec: ScmSpec, event: CounterfactualEvent, c, U: np.ndarray, n_mc: int, exact: bool = False
) -> OracleResult:
    """The frequency of event, and of each of its clauses on its own, over
    the latent rows of U (n_mc counts the draws made before any rejection)."""
    order = spec.outcome_order
    ok = np.ones(U.shape[0], dtype=bool)
    clause_values = []
    for clause in event.clauses:
        y = spec.outcomes(clause.x, c, U)
        below = at_least = True
        if clause.below is not None:
            below = indicator_below(y, clause.below, order)[0]
        if clause.at_least is not None:
            at_least = ~indicator_below(y, clause.at_least, order)[0]
        hit = below & at_least
        clause_values.append(float(hit.mean()))
        ok &= hit
        # Only the running mask outlives a clause: a treatment two clauses
        # share is evaluated twice rather than held.
        del y, below, at_least, hit
    v = float(ok.mean())
    return OracleResult(
        value=v,
        std_error=float(np.sqrt(v * (1.0 - v) / U.shape[0])),
        n_mc=n_mc,
        n_used=U.shape[0],
        exact=exact,
        clause_values=tuple(clause_values),
    )


def oracle_joint(
    spec: ScmSpec, event: CounterfactualEvent, c=(), n_mc: int = 200_000, seed: int = 0
) -> OracleResult:
    """P(event | C=c) by sharing one latent draw across all counterfactuals.

    This is the ground truth the identification formulas are supposed to
    recover: no CDFs, no modeling, just the mechanism run both ways.
    """
    U = _latents(spec, n_mc, seed, _STREAM_ORACLE_JOINT)
    return _oracle_result(spec, event, c, U, U.shape[0])


def oracle_evidence(
    spec: ScmSpec,
    thresholds,
    treatments,
    evidence_y,
    evidence_x,
    c=(),
    n_mc: int = 200_000,
    seed: int = 0,
    atom_tol: float = 1e-9,
) -> OracleResult:
    """P(chain flips | observed Y(evidence_x) = evidence_y, C=c).

    Linear mechanisms are inverted exactly: the observation pins the latent
    to a point, so the answer is 0 or 1 with no Monte Carlo error. Tabular
    mechanisms get rejection sampling against the observed atom.
    """
    event = flip_event(thresholds, treatments)
    ev_y = np.asarray(evidence_y, dtype=float).ravel()
    ev_x = np.asarray(evidence_x, dtype=float).ravel()
    c_arr = np.asarray(c, dtype=float).ravel()
    if ev_y.size != spec.n_outcomes:
        raise ConfigError(
            f"evidence outcome has {ev_y.size} components, expected {spec.n_outcomes}"
        )
    x_row, c_row = ev_x.reshape(1, -1), c_arr.reshape(1, -1)
    spec._check_rows(x_row, c_row, 1)

    if isinstance(spec.mean, LinearMean):
        u_star = ev_y - spec.mean.value(x_row, c_row)[0]
        if spec.coupling.flipped(x_row)[0]:
            u_star = -u_star
        if not spec.noise.contains(u_star):
            raise NoSupportError(
                "the observed outcome cannot occur under this mechanism "
                f"(implied latent {u_star.tolist()} is outside the noise support)"
            )
        return _oracle_result(spec, event, c_arr, u_star.reshape(1, -1), 1, exact=True)

    U = _latents(spec, n_mc, seed, _STREAM_ORACLE_EVIDENCE)
    Yx = spec.outcomes(ev_x, c_arr, U)
    match = np.max(np.abs(Yx - ev_y), axis=1) <= atom_tol
    if not match.any():
        raise NoSupportError(
            f"no draws produced the observed outcome {ev_y.tolist()} "
            f"under treatment {ev_x.tolist()}; it has no support there"
        )
    return _oracle_result(spec, event, c_arr, U[match], U.shape[0])


@dataclass(frozen=True)
class MonotonicityReport:
    max_violation: float
    std_error: float
    at_pair: tuple
    at_threshold: tuple
    n_mc: int


def check_monotonicity(
    spec: ScmSpec,
    thresholds,
    pairs=None,
    c=None,
    n_mc: int = 100_000,
    seed: int = 0,
) -> MonotonicityReport:
    """Largest two-sided counterfactual flip over a probe grid.

    For treatments xa, xb and threshold y, a common-latent monotone
    mechanism sends every latent the same way, so at most one of
    P(Y(xa) before y, Y(xb) at-or-after y) and its mirror is positive.
    The reported violation is the smaller of the two, maximized over the
    grid; a mechanism that keeps it at zero (up to Monte Carlo noise) is
    consistent with the assumption, one that pushes it well above zero is
    caught red-handed.

    Every flip is counted exactly, from ranks: with the distinct thresholds
    sorted, each Y(x) strictly precedes the thresholds from its rank on.
    """
    order = spec.outcome_order
    if pairs is None:
        pairs = _support_pairs(spec)
    if not pairs:
        raise ConfigError("need at least one treatment pair to probe")
    thresholds = [tuple(float(v) for v in t) for t in thresholds]
    if not thresholds:
        raise ConfigError("need at least one threshold to probe")
    for t in thresholds:
        if len(t) != spec.n_outcomes:
            raise ConfigError(f"rows have {spec.n_outcomes} components, threshold has {len(t)}")
    # Equal thresholds (0.0 and -0.0 included) take one place on the ladder.
    ladder = _sorted_rows(_matrix(list(dict.fromkeys(thresholds)), "thresholds"), order)
    n_t = ladder.shape[0]

    U = _latents(spec, n_mc, seed, _STREAM_MONOTONICITY)
    n_mc = U.shape[0]
    c = _reference_c(spec) if c is None else c

    def key(x):
        return np.asarray(x, dtype=float).tobytes()

    def at_most(ranks):
        """Draws of rank at most j, for each ladder position j."""
        return np.cumsum(np.bincount(ranks, minlength=n_t + 1))[:n_t]

    rank = {}
    for x in chain.from_iterable(pairs):
        if key(x) not in rank:
            # Only the ranks of each Y(x) outlive its ranking.
            rank[key(x)] = _threshold_ranks(spec.outcomes(x, c, U), ladder, order)
    below = {k: at_most(r) for k, r in rank.items()}
    flips = np.empty((len(pairs), n_t), dtype=np.int64)
    for i, (xa, xb) in enumerate(pairs):
        ka, kb = key(xa), key(xb)
        # Y(xa) before ladder[j] and Y(xb) not is below[ka] less the draws
        # before it under both; the mirror likewise.
        both = at_most(np.maximum(rank[ka], rank[kb]))
        flips[i] = np.minimum(below[ka], below[kb]) - both
    # Each threshold reads the last ladder column it reaches, which it ties,
    # and tied thresholds split the draws alike. argmax takes the first
    # largest in pair-major order.
    columns = _threshold_ranks(np.asarray(thresholds), ladder, order).astype(np.intp) - 1
    violation = flips[:, columns] / n_mc
    i, j = np.unravel_index(np.argmax(violation), violation.shape)
    v = float(violation[i, j])
    return MonotonicityReport(
        max_violation=v,
        std_error=float(np.sqrt(v * (1.0 - v) / n_mc)),
        at_pair=tuple(pairs[i]),
        at_threshold=thresholds[j],
        n_mc=n_mc,
    )


def _threshold_ranks(rows: np.ndarray, ladder: np.ndarray, order: OrderSpec) -> np.ndarray:
    """For each of the (n, d) rows, how many thresholds of ladder (ascending
    under order) precede or tie it, as the smallest unsigned type that holds
    len(ladder). A row strictly precedes exactly the thresholds from its rank on.

    One search on the first sort key ranks every row that ties no threshold
    there; a row that does is bisected inside its tie range with compare.
    """
    first = order.keys(ladder)[0]
    row_keys = order.keys(rows)
    dtype = np.min_scalar_type(len(ladder))
    ranks = _ladder_search(first, row_keys[0], "right").astype(dtype)
    if len(row_keys) > 1:
        lo = _ladder_search(first, row_keys[0], "left")
        tied = np.flatnonzero(lo < ranks)
        tied_rows, lo, hi = rows[tied], lo[tied], ranks[tied]
        open_ = lo < hi
        while open_.any():
            mid = (lo + hi) // 2
            # A closed row's mid may be len(ladder); its answer is kept.
            reached = compare(ladder[np.minimum(mid, len(ladder) - 1)], tied_rows, order) <= 0
            lo = np.where(open_ & reached, mid + 1, lo)
            hi = np.where(open_ & ~reached, mid, hi)
            open_ = lo < hi
        ranks[tied] = lo
    return ranks


def _sorted_rows(rows: np.ndarray, order: OrderSpec) -> np.ndarray:
    return rows[np.lexsort(order.keys(rows)[::-1])]


def monotonicity_probe(
    spec: ScmSpec, n_thresholds: int = 50, n_pilot: int = 4000, seed: int = 0
):
    """Thresholds and treatment pairs worth probing: evenly spaced order
    statistics of pilot counterfactual outcomes, against every support pair."""
    if n_thresholds < 1 or n_pilot < n_thresholds:
        raise ConfigError("need n_pilot >= n_thresholds >= 1")
    c, U = _reference_c(spec), _latents(spec, n_pilot, seed, _STREAM_PROBE)
    pool = _sorted_rows(
        np.vstack([spec.outcomes(x, c, U) for x in spec.policy.support]), spec.outcome_order
    )
    picks = np.linspace(0, pool.shape[0] - 1, n_thresholds).round().astype(int)
    return [tuple(row) for row in pool[picks]], _support_pairs(spec)


@dataclass(frozen=True)
class TrajectorySet:
    x_grid: np.ndarray     # (n_grid, n_treatments)
    u_values: np.ndarray   # (n_u, noise dimension)
    outcomes: np.ndarray   # (n_u, n_grid, n_outcomes)
    crossing_count: int


def export_trajectories(
    spec: ScmSpec, x_grid, c=None, n_u: int = 20, seed: int = 0
) -> TrajectorySet:
    """Outcome curves x -> Y(x; u) for a handful of latent draws.

    Under a common-latent monotone mechanism the curves never cross: two
    latents keep their outcome ranking across the whole treatment grid.
    crossing_count totals the rank flips over all curve pairs (ties are
    skipped), so monotone worlds report 0 and the flip construction shows
    one crossing per pair.
    """
    grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    if grid.shape[1] != spec.n_treatments or grid.shape[0] < 2:
        raise ConfigError(
            f"need a grid of at least 2 treatment rows with {spec.n_treatments} columns"
        )
    if int(n_u) < 2:
        raise ConfigError("need at least two latent draws to compare")
    U = _latents(spec, n_u, seed, _STREAM_TRAJECTORIES)
    c = _reference_c(spec) if c is None else c
    curves = np.stack([spec.outcomes(x, c, U) for x in grid], axis=1)
    return TrajectorySet(
        x_grid=grid, u_values=U, outcomes=curves,
        crossing_count=_crossing_count(curves, spec.outcome_order),
    )


def _crossing_count(curves: np.ndarray, order: OrderSpec) -> int:
    """Rank flips of (n_u, n_grid, d) outcome curves, summed over curve
    pairs: along the grid, ties are skipped and each change of sign between
    the nonzero comparisons left is one crossing."""
    steps = np.arange(curves.shape[1])
    crossings = 0
    for i in range(curves.shape[0] - 1):
        signs = compare(curves[i], curves[i + 1:], order)
        # Carry each pair's last nonzero sign across the ties after it.
        last = np.maximum.accumulate(np.where(signs != 0, steps, 0), axis=1)
        held = np.take_along_axis(signs, last, axis=1)
        crossings += int(np.count_nonzero(held[:, 1:] * held[:, :-1] < 0))
    return crossings


# ---------------------------------------------------------------------------
# Validation: every check above, run against one simulated table.
# ---------------------------------------------------------------------------

ORACLE_TOL = 0.02
ALARM_MIN = 0.05


def _trajectory_grid(spec: ScmSpec, size: int) -> np.ndarray:
    """Treatments to trace the latent curves over: a tabular model's own
    levels in lexicographic order, otherwise size points spanning the
    policy support."""
    if isinstance(spec.mean, TabularMean):
        levels = spec.mean.x_levels
        return _sorted_rows(levels, lexicographic_default(levels.shape[1]))
    sup = spec.policy.support
    # A size below 2 gives too few rows, which export_trajectories rejects.
    return np.linspace(sup.min(axis=0), sup.max(axis=0), max(size, 0))


def validate_spec(
    spec: ScmSpec,
    *,
    n: int,
    n_mc: int,
    grid: int,
    n_u: int,
    config: EstimatorConfig,
    seed: int,
) -> list[dict]:
    """Estimate on n rows simulated from spec, at the first covariate
    profile, and hold the answers and the monotonicity diagnostics against
    the brute-force oracles (n_mc draws; grid and n_u size the trajectories).

    Returns one record per check, in a fixed order: name, status ("pass",
    "fail", or "xfail" where disagreement is expected), observed, band and
    detail. A nonmonotone spec gets its alarms checked; a monotone one also
    evidence conditioning and, if the support allows, treatment chains. A
    check that raises a PocError is recorded as failed.
    """
    nonmono = isinstance(spec.coupling, NonMonotoneTest)
    c = _reference_c(spec)
    # The trajectories come first, so a bad grid or n_u fails before any
    # oracle runs; their latent stream is independent of the others.
    traj = export_trajectories(spec, _trajectory_grid(spec, grid), c=c, n_u=n_u, seed=seed)
    crossings, n_u = traj.crossing_count, traj.u_values.shape[0]
    table = simulate(spec, n, seed)
    thresholds, pairs = monotonicity_probe(spec, n_thresholds=50, n_pilot=4000, seed=seed)
    sup = spec.policy.support
    n_levels = sup.shape[0]
    x0, x1 = tuple(sup[0]), tuple(sup[-1])
    y_mid = thresholds[len(thresholds) // 2]
    checks: list[dict] = []

    def check(name: str, status: str, observed, band, detail: str) -> None:
        checks.append(dict(name=name, status=status, observed=observed, band=band, detail=detail))

    def query(kind, ts, xs, evidence=None):
        return PoCQuery(
            kind=kind,
            thresholds=tuple(ts),
            treatments=tuple(xs),
            covariates=c if c else None,
            evidence=evidence,
            order=spec.order,
        )

    # Every estimate held against a joint oracle is one record: truth() is
    # asked once the estimate stands. Under a broken monotonicity assumption
    # the two are expected to disagree, so there a gap gets no verdict.
    def vs_oracle(name: str, label: str, q: PoCQuery, truth) -> None:
        value = evaluate_query(table, q, config).value
        target = truth()
        gap = abs(value - target)
        detail = f"{label} {value:.4f} vs oracle {target:.4f}"
        if nonmono:
            status = "xfail" if gap > ORACLE_TOL else "pass"
            detail += "; the mechanism is deliberately nonmonotone, disagreement expected"
        else:
            status = "pass" if gap <= ORACLE_TOL else "fail"
        check(name, status, gap, ORACLE_TOL, detail)

    # Identification: pns, pn and ps are the flip's oracle probability over
    # 1, over P(Y(x1) reaches y_mid) and over P(Y(x0) is short of y_mid),
    # the flip's clause values; a row whose denominator is 0 is skipped.
    try:
        o_flip = oracle_joint(spec, flip_event([y_mid], [x0, x1]), c, n_mc, seed)
        short, reach = o_flip.clause_values
        for kind, denominator in (("pns", 1.0), ("pn", reach), ("ps", short)):
            if denominator > 0:
                vs_oracle(
                    f"{kind}_vs_oracle", f"{kind} formula", query(kind, [y_mid], [x0, x1]),
                    lambda: o_flip.value / denominator,
                )
    except PocError as exc:
        check("identification", "fail", None, ORACLE_TOL, f"identification checks errored: {exc}")

    # The two diagnostics of the monotonicity assumption: alarms that must
    # fire on a nonmonotone spec and stay silent on a monotone one.
    report = check_monotonicity(spec, thresholds, pairs, c=c, n_mc=n_mc, seed=seed)
    violation = report.max_violation
    if nonmono:
        check(
            "monotonicity_alarm", "pass" if violation >= ALARM_MIN else "fail",
            violation, ALARM_MIN,
            f"two-sided flip probability {violation:.4f} "
            f"(alarm should fire, threshold {ALARM_MIN})",
        )
        check(
            "crossing_alarm", "pass" if crossings > 0 else "fail", crossings, 1,
            f"{crossings} crossings over {n_u} latent curves "
            "(a nonmonotone mechanism must cross)",
        )
        return checks
    band = 3.0 * report.std_error
    check(
        "monotonicity", "pass" if violation <= band else "fail", violation, band,
        f"largest two-sided flip probability {violation:.5f} "
        f"(3 std errors = {band:.5f})",
    )
    check(
        "crossings", "pass" if crossings == 0 else "fail", crossings, 0,
        f"{crossings} crossings over {n_u} latent curves",
    )

    # Evidence conditioning, in whichever regime this model lives: an atom
    # of a tabular outcome, or a continuous outcome that pins the latent.
    tabular = isinstance(spec.mean, TabularMean)
    try:
        if tabular:
            x_ev = x0
            y_ev = tuple(spec.mean.levels[int(np.argmax(spec.mean.state_probs(x0, c)))])
        else:
            noise = spec.noise
            if isinstance(noise, GaussianDiag):
                u_star = noise.mean + 0.3 * noise.sd
            else:
                u_star = noise.lo + 0.3 * (noise.hi - noise.lo)
            x_ev = tuple(sup[n_levels // 2])
            y_ev = tuple(spec.outcomes(x_ev, c, u_star.reshape(1, -1))[0])
        q_ev = query("pns_evidence", [y_mid], [x0, x1], Evidence(y=y_ev, x=x_ev))
        [(est, boot)] = estimate_with_interval(
            table, [q_ev], config, n_boot=200 if tabular else 0, seed=seed
        )
        orc = oracle_evidence(
            spec, [y_mid], [x0, x1], y_ev, x_ev, c,
            n_mc=n_mc, seed=seed, atom_tol=config.atom_tol,
        )
        gap = abs(est.value - orc.value)
        if tabular:
            band = 3.0 * float(np.hypot(orc.std_error, boot.boot_sd))
            check(
                "evidence_atoms",
                "pass" if gap <= band and est.case == "evidence_case_a" else "fail", gap, band,
                f"conditioned estimate {est.value:.4f} ({est.case}) vs "
                f"rejection oracle {orc.value:.4f} "
                f"(accepted {orc.n_used} of {orc.n_mc})",
            )
        else:
            check(
                "evidence_pinned",
                "pass" if gap == 0 and est.case == "evidence_case_b" else "fail", gap, 0,
                f"conditioned estimate {est.value:.0f} ({est.case}) vs "
                f"pinned-latent oracle {orc.value:.0f}",
            )
    except PocError as exc:
        check("evidence", "fail", None, None, f"evidence check errored: {exc}")

    # Treatment chains, each run where the support has a level for every
    # step's treatment: name, support indices and threshold quantiles.
    n_t = len(thresholds)
    chains = (
        ("chain_two_steps", [0, n_levels // 2, n_levels - 1], (0.4, 0.6)),
        ("chain_three_steps", np.round(np.linspace(0, n_levels - 1, 4)).astype(int).tolist(),
         (0.35, 0.5, 0.65)),
    )
    for name, xs_idx, quantiles in chains:
        if n_levels < len(xs_idx):
            continue
        xs = [tuple(sup[i]) for i in xs_idx]
        ts = [thresholds[int(q * n_t)] for q in quantiles]
        try:
            vs_oracle(
                name, "chain estimate", query("pns_multi", ts, xs),
                lambda: oracle_joint(spec, flip_event(ts, xs), c, n_mc, seed).value,
            )
        except PocError as exc:
            check(name, "fail", None, ORACLE_TOL, f"chain check errored: {exc}")
    return checks
