"""Probabilities of causation for threshold events on ordered outcomes.

The estimands answer "did setting the treatment to x1 rather than x0 push
the outcome from below the threshold y to at-or-above it?" for a unit with
covariates c:

* pns: probability the treatment is both necessary and sufficient,
  P(Y(x0) below y, Y(x1) at-or-above y | c).
* pn: probability of necessity among units that were treated and reached
  the threshold.
* ps: probability of sufficiency among untreated units that fell short.
* evidence variants: the same, further conditioned on having actually
  observed outcome y' under treatment x'.
* multi variants: a chain x_0, ..., x_P with a threshold y_p between each
  consecutive pair, all required to flip jointly.
* marginal: pns averaged over the empirical covariate distribution.

Everything is computed from conditional CDF values at the thresholds (the
strict/weak pairs that the cdf estimators' rho_pair returns), which is what
makes these identifiable from observational data in the first place: under
conditional exogeneity plus a monotone structural response, the joint law
of the counterfactuals collapses onto those CDFs. The formulas here are exact under those assumptions; checking
the assumptions is the job of the scm module's oracles.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .bootstrap import RECOVERABLE, BootstrapResult, bootstrap, interval_settings
from .cdf import EmpiricalCdf, LogisticCdf
from .dataset import DataTable, _distinct_rows, _read_json
from .errors import ConfigError, NoSupportError, NotIdentifiedError, as_float, as_index
from .ordering import OrderSpec, order_from_dict

QUERY_KINDS = (
    "pns",
    "pn",
    "ps",
    "pns_evidence",
    "pns_multi",
    "pns_multi_evidence",
    "marginal_pns",
)

_SINGLE_KINDS = ("pns", "pn", "ps", "pns_evidence", "marginal_pns")
_EVIDENCE_KINDS = ("pns_evidence", "pns_multi_evidence")

DEFAULT_ATOM_TOL = 1e-9


def _prob(v, name: str) -> float:
    x = float(v)
    if not np.isfinite(x) or x < 0.0 or x > 1.0:
        raise ConfigError(f"{name} must be a probability in [0, 1], got {v!r}")
    return x


# ---------------------------------------------------------------------------
# Point formulas. Pure functions of CDF values; no data in sight.
# ---------------------------------------------------------------------------


def pns_point(rho0: float, rho1: float) -> float:
    """max(rho0 - rho1, 0): mass the treatment shift moves across y."""
    r0 = _prob(rho0, "rho0")
    r1 = _prob(rho1, "rho1")
    return max(r0 - r1, 0.0)


def pn_point(rho0: float, rho1: float) -> float:
    r0 = _prob(rho0, "rho0")
    r1 = _prob(rho1, "rho1")
    if r1 == 1.0:
        raise NotIdentifiedError(
            "pn denominator 1 - rho1 is zero: under x1 the outcome never "
            "reaches the threshold, so necessity is conditioned on a null event"
        )
    return max((r0 - r1) / (1.0 - r1), 0.0)


def ps_point(rho0: float, rho1: float) -> float:
    r0 = _prob(rho0, "rho0")
    r1 = _prob(rho1, "rho1")
    if r0 == 0.0:
        raise NotIdentifiedError(
            "ps denominator rho0 is zero: under x0 the outcome always reaches "
            "the threshold, so sufficiency is conditioned on a null event"
        )
    return max((r0 - r1) / r0, 0.0)


def binary_poc(p_y1_given_x1: float, p_y1_given_x0: float) -> tuple[float, float, float]:
    """The classic binary-outcome special case, as (pns, pn, ps).

    p_y1_given_x1 and p_y1_given_x0 are success probabilities under each
    treatment arm. Equivalent to the threshold formulas with
    rho = 1 - P(success): kept separate so the two routes can be checked
    against each other.
    """
    p11 = _prob(p_y1_given_x1, "p_y1_given_x1")
    p10 = _prob(p_y1_given_x0, "p_y1_given_x0")
    pns = max(p11 - p10, 0.0)
    if p11 == 0.0:
        raise NotIdentifiedError(
            "pn denominator P(y1 | x1) is zero: success never occurs under x1"
        )
    if p10 == 1.0:
        raise NotIdentifiedError(
            "ps denominator P(y0 | x0) is zero: success always occurs under x0"
        )
    return pns, pns / p11, pns / (1.0 - p10)


def pns_evidence_point(
    rho0: float,
    rho1: float,
    evidence_strict: float,
    evidence_weak: float,
    *,
    atom_tol: float = DEFAULT_ATOM_TOL,
) -> tuple[float, str]:
    """pns further conditioned on an observed outcome, as (value, case).

    evidence_strict / evidence_weak are the CDF pair at the observed
    outcome y' under the observed treatment x'. When the observation sits
    on an atom (weak - strict > atom_tol, case "evidence_case_a") the
    answer is a ratio of interval overlaps; when it has zero mass (case
    "evidence_case_b") it degenerates to a 0/1 indicator of whether the
    evidence pins the latent state inside the flip interval.
    """
    r0 = _prob(rho0, "rho0")
    r1 = _prob(rho1, "rho1")
    return _given_evidence(r0, r1, evidence_strict, evidence_weak, atom_tol)


def _given_evidence(hi, lo, evidence_strict, evidence_weak, atom_tol) -> tuple[float, str]:
    """The flip interval [lo, hi) of latent CDF values, conditioned on the
    evidence CDF pair, as (value, case)."""
    ev_s = _prob(evidence_strict, "evidence_strict")
    ev_w = _prob(evidence_weak, "evidence_weak")
    if ev_s > ev_w:
        raise ConfigError(
            f"evidence strict CDF {ev_s} exceeds weak CDF {ev_w}; "
            "the estimator should have clipped this"
        )
    if not 0 <= float(atom_tol) < np.inf:
        raise ConfigError(f"atom_tol must be finite and >= 0, got {atom_tol}")
    beta = ev_w - ev_s
    if beta > atom_tol:
        alpha = min(hi, ev_w) - max(lo, ev_s)
        return max(alpha / beta, 0.0), "evidence_case_a"
    return (1.0 if (lo <= ev_s < hi) else 0.0), "evidence_case_b"


def _multi_vectors(rho_upper, rho_lower) -> tuple[np.ndarray, np.ndarray]:
    up = np.asarray(rho_upper, dtype=float).ravel()
    lo = np.asarray(rho_lower, dtype=float).ravel()
    if up.size == 0 or up.size != lo.size:
        raise ConfigError(
            f"need equal-length nonempty CDF vectors, got {up.size} and {lo.size}"
        )
    for v, name in ((up, "rho_upper"), (lo, "rho_lower")):
        if not np.all(np.isfinite(v)) or np.any(v < 0) or np.any(v > 1):
            raise ConfigError(f"{name} entries must be probabilities in [0, 1]")
    return up, lo


def pns_multi_point(rho_upper, rho_lower) -> float:
    """Joint flip probability along a treatment chain.

    rho_upper[p] is the CDF of threshold y_p under the chain's previous
    treatment x_{p-1}; rho_lower[p] is the CDF of y_p under x_p. Each step
    confines the latent state to [rho_lower[p], rho_upper[p]); the chain
    succeeds on the intersection.
    """
    up, lo = _multi_vectors(rho_upper, rho_lower)
    return max(float(np.min(up)) - float(np.max(lo)), 0.0)


def pns_multi_evidence_point(
    rho_upper,
    rho_lower,
    evidence_strict: float,
    evidence_weak: float,
    *,
    atom_tol: float = DEFAULT_ATOM_TOL,
) -> tuple[float, str]:
    """Chain flip probability given an observed outcome, as (value, case)."""
    up, lo = _multi_vectors(rho_upper, rho_lower)
    return _given_evidence(
        float(np.min(up)), float(np.max(lo)), evidence_strict, evidence_weak, atom_tol
    )


# ---------------------------------------------------------------------------
# Queries and evaluation against a table.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Evidence:
    y: tuple[float, ...]
    x: tuple[float, ...]


@dataclass(frozen=True)
class CovariateRow:
    """Covariates to be read from a data row at evaluation time."""

    row: int

    def __post_init__(self):
        object.__setattr__(self, "row", as_index(self.row, "covariate row"))


def _vec(v, name: str) -> tuple[float, ...]:
    try:
        if isinstance(v, str):
            raise TypeError(v)
        out = tuple(map(as_float, v))
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a list of numbers, got {v!r}") from None
    if not out or not all(np.isfinite(out)):
        raise ConfigError(f"{name} must be a nonempty finite vector, got {v!r}")
    return out


@dataclass(frozen=True)
class PoCQuery:
    """A fully specified causal question.

    thresholds holds one vector for the single-threshold kinds and the
    chain y_1..y_P for the multi kinds; treatments holds (x0, x1) or the
    chain x_0..x_P. covariates is the conditioning vector c, a CovariateRow
    reference, or None (marginal queries, or tables with no covariates).
    order defaults to lexicographic ascending on outcome positions.
    """

    kind: str
    thresholds: tuple[tuple[float, ...], ...]
    treatments: tuple[tuple[float, ...], ...]
    covariates: tuple[float, ...] | CovariateRow | None = None
    evidence: Evidence | None = None
    order: OrderSpec | None = None

    def __post_init__(self):
        if self.kind not in QUERY_KINDS:
            raise ConfigError(f"unknown query kind {self.kind!r}")
        if self.kind in _SINGLE_KINDS:
            if len(self.thresholds) != 1:
                raise ConfigError(f"{self.kind} takes exactly one threshold")
            if len(self.treatments) != 2:
                raise ConfigError(f"{self.kind} takes exactly two treatments (x0, x1)")
        else:
            p = len(self.thresholds)
            if p < 1:
                raise ConfigError("multi queries need at least one threshold")
            if len(self.treatments) != p + 1:
                raise ConfigError(
                    f"a chain with {p} thresholds needs {p + 1} treatments, "
                    f"got {len(self.treatments)}"
                )
        arms = list(self.treatments) + ([self.evidence.x] if self.evidence is not None else [])
        if len({len(x) for x in arms}) > 1:
            raise ConfigError("every treatment vector, evidence x included, needs the same length")
        if (self.evidence is None) == (self.kind in _EVIDENCE_KINDS):
            need = "requires" if self.kind in _EVIDENCE_KINDS else "does not take"
            raise ConfigError(f"{self.kind} {need} an evidence block")
        if self.kind == "marginal_pns" and isinstance(self.covariates, (tuple, CovariateRow)):
            raise ConfigError("marginal_pns averages over covariates; drop the c field")


def load_query(path) -> PoCQuery:
    return query_from_dict(_read_json(path, "query file"))


def query_from_dict(obj: dict) -> PoCQuery:
    """Parse the JSON form of a query.

    Single-threshold kinds use "threshold", "x0", "x1"; multi kinds use
    "thresholds" and "treatments" lists. "c" is a number list or
    {"row": k}. Evidence kinds add {"evidence": {"y": [...], "x": [...]}}.
    An "order" object is optional.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"query must be a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in QUERY_KINDS:
        raise ConfigError(f"unknown query kind {kind!r}")
    known = {"kind", "threshold", "thresholds", "x0", "x1", "treatments", "c",
             "evidence", "order"}
    extra = set(obj) - known
    if extra:
        raise ConfigError(f"unknown query fields: {sorted(extra)}")

    if kind in _SINGLE_KINDS:
        for key in ("threshold", "x0", "x1"):
            if key not in obj:
                raise ConfigError(f"{kind} query needs {key!r}")
        thresholds = (_vec(obj["threshold"], "threshold"),)
        treatments = (_vec(obj["x0"], "x0"), _vec(obj["x1"], "x1"))
    else:
        for key in ("thresholds", "treatments"):
            if key not in obj:
                raise ConfigError(f"{kind} query needs {key!r}")
            if not isinstance(obj[key], (list, tuple)):
                raise ConfigError(f"{key} must be a list of vectors, got {obj[key]!r}")
        thresholds = tuple(
            _vec(t, f"thresholds[{i}]") for i, t in enumerate(obj["thresholds"])
        )
        treatments = tuple(
            _vec(t, f"treatments[{i}]") for i, t in enumerate(obj["treatments"])
        )

    covariates = None
    if "c" in obj and obj["c"] is not None:
        c = obj["c"]
        if isinstance(c, dict):
            if set(c) != {"row"}:
                raise ConfigError('covariate reference must be {"row": k}')
            covariates = CovariateRow(row=c["row"])
        else:
            covariates = _vec(c, "c")

    evidence = None
    if obj.get("evidence") is not None:
        ev = obj["evidence"]
        if not isinstance(ev, dict) or set(ev) != {"y", "x"}:
            raise ConfigError('evidence must be {"y": [...], "x": [...]}')
        evidence = Evidence(y=_vec(ev["y"], "evidence.y"), x=_vec(ev["x"], "evidence.x"))

    order = order_from_dict(obj["order"]) if obj.get("order") is not None else None
    return PoCQuery(
        kind=kind,
        thresholds=thresholds,
        treatments=treatments,
        covariates=covariates,
        evidence=evidence,
        order=order,
    )


def query_as_dict(query: PoCQuery) -> dict:
    out: dict = {"kind": query.kind}
    if query.kind in _SINGLE_KINDS:
        out["threshold"] = list(query.thresholds[0])
        out["x0"] = list(query.treatments[0])
        out["x1"] = list(query.treatments[1])
    else:
        out["thresholds"] = [list(t) for t in query.thresholds]
        out["treatments"] = [list(t) for t in query.treatments]
    if isinstance(query.covariates, CovariateRow):
        out["c"] = {"row": query.covariates.row}
    elif query.covariates is not None:
        out["c"] = list(query.covariates)
    if query.evidence is not None:
        out["evidence"] = {"y": list(query.evidence.y), "x": list(query.evidence.x)}
    if query.order is not None:
        out["order"] = query.order.as_dict()
    return out


@dataclass(frozen=True)
class EstimatorConfig:
    method: str = "logistic"  # "logistic" | "empirical"
    ridge: float = 0.0
    atom_tol: float = DEFAULT_ATOM_TOL

    def __post_init__(self):
        if self.method not in ("logistic", "empirical"):
            raise ConfigError(f"unknown estimator method {self.method!r}")
        for name in ("ridge", "atom_tol"):
            v = getattr(self, name)
            try:
                x = as_float(v)
            except (TypeError, ValueError):
                raise ConfigError(f"{name} must be a number, got {v!r}") from None
            if not 0 <= x < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, x)


@dataclass(frozen=True)
class PoCEstimate:
    value: float
    kind: str
    case: str  # "closed_form" | "evidence_case_a" | "evidence_case_b"
    clamped_at_zero: bool
    components: dict[str, float] = field(default_factory=dict)
    diagnostics: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {**asdict(self), "diagnostics": list(self.diagnostics)}


def _build_estimator(table: DataTable, order: OrderSpec | None, config: EstimatorConfig):
    if config.method == "empirical":
        return EmpiricalCdf(table, order)
    return LogisticCdf(table, order, ridge=config.ridge)


def _resolve_covariates(table: DataTable, query: PoCQuery) -> tuple[float, ...]:
    n_c = len(table.schema.covariate_names)
    cov = query.covariates
    if isinstance(cov, CovariateRow):
        if not (0 <= cov.row < table.n_rows):
            raise ConfigError(
                f"covariate row {cov.row} out of range for a {table.n_rows}-row table"
            )
        return tuple(float(v) for v in table.covariates()[cov.row])
    if cov is None:
        if n_c == 0:
            return ()
        raise ConfigError(
            f"query needs a covariate vector 'c' ({n_c} values) for this table"
        )
    if len(cov) != n_c:
        raise ConfigError(f"query c has {len(cov)} values, table has {n_c} covariates")
    return cov


def _gather(estimator, query: PoCQuery, profiles: np.ndarray):
    """Pull every CDF value the query needs at each covariate profile.

    Every kind but the marginal one is a chain: pns, pn, ps and
    pns_evidence are chains of length 1. Step p asks for threshold y_p at
    (x_{p-1}, c) and (x_p, c) for each profile c in turn, in one call.
    Returns upper and lower, (P, m) arrays of strict CDF values under
    x_{p-1} and x_p; the evidence (strict, weak) pair at each profile, or
    None; and the estimator's diagnostics.
    """
    m = profiles.shape[0]

    def points(*xs):
        return np.hstack([np.tile(np.asarray(xs, dtype=float), (m, 1)),
                          np.repeat(profiles, len(xs), axis=0)])

    upper, lower = [], []
    for p, y in enumerate(query.thresholds, start=1):
        strict, _ = estimator.rho_pair(y, points(query.treatments[p - 1], query.treatments[p]))
        upper.append(strict[0::2])
        lower.append(strict[1::2])
    evidence = None
    if query.evidence is not None:
        evidence = estimator.rho_pair(query.evidence.y, points(query.evidence.x))
    notes = list(estimator.diagnostics)
    if estimator.clip_count:
        notes.append(
            f"strict/weak CDF order violated and clipped {estimator.clip_count} time(s)"
        )
    return np.array(upper), np.array(lower), evidence, notes


def evaluate_query(
    table: DataTable,
    query: PoCQuery,
    config: EstimatorConfig | None = None,
) -> PoCEstimate:
    """Answer a query against a loaded table."""
    config = config or EstimatorConfig()
    # _answer answers marginal queries too. They go through marginal_pns so
    # that it stays on the call path EXPECTED_CALLS in bench/workloads.py needs.
    if query.kind == "marginal_pns":
        return marginal_pns(table, query, config)
    return _answer(_build_estimator(table, query.order, config), table, query, config)


def _answer(estimator, table: DataTable, query: PoCQuery, config: EstimatorConfig) -> PoCEstimate:
    """Answer a query with an estimator already built on table for the
    query's order and config: at the query's own covariate profile, or, for
    marginal_pns, at each distinct covariate row weighted by its frequency."""
    marginal = query.kind == "marginal_pns"
    if marginal:
        # The cumsum below depends on the profiles' (lexicographic) order.
        profiles, inverse = _distinct_rows(table.covariates())
        if not len(profiles):
            raise NoSupportError("marginal_pns has no rows to average over")
    else:
        profiles = np.array(_resolve_covariates(table, query), dtype=float).reshape(1, -1)
    upper, lower, evidence, notes = _gather(estimator, query, profiles)
    case = "closed_form"
    if marginal:
        counts = np.bincount(inverse)
        gap = upper[0] - lower[0]
        clamped_profiles = int(np.count_nonzero(gap < 0))
        # Summed left to right, profile by profile: np.sum would pair terms up
        # and can differ in the last bit.
        value = float(np.cumsum(counts / counts.sum() * np.maximum(gap, 0.0))[-1])
        clamped = clamped_profiles == len(profiles)
        components = {
            "n_profiles": float(len(profiles)),
            "clamped_profiles": float(clamped_profiles),
        }
    else:
        up, lo = upper[:, 0].tolist(), lower[:, 0].tolist()
        if query.kind in _SINGLE_KINDS:
            components = {"rho_y_x0": up[0], "rho_y_x1": lo[0]}
        else:
            components = {}
            for p, (u, low) in enumerate(zip(up, lo), start=1):
                components[f"rho_y{p}_x{p - 1}"] = u
                components[f"rho_y{p}_x{p}"] = low
        if evidence is None:
            point = {"pn": pn_point, "ps": ps_point}.get(query.kind)
            value = point(up[0], lo[0]) if point else pns_multi_point(up, lo)
            clamped = min(up) - max(lo) < 0
        else:
            ev_strict, ev_weak = float(evidence[0][0]), float(evidence[1][0])
            components["rho_ev"] = ev_strict
            components["rho_ev_weak"] = ev_weak
            value, case = pns_multi_evidence_point(
                up, lo, ev_strict, ev_weak, atom_tol=config.atom_tol
            )
            clamped = case == "evidence_case_a" and value == 0.0
    return PoCEstimate(
        value=value,
        kind=query.kind,
        case=case,
        clamped_at_zero=clamped,
        components=components,
        diagnostics=tuple(notes),
    )


def estimate_with_interval(
    table: DataTable,
    queries: Sequence[PoCQuery],
    config: EstimatorConfig | None = None,
    *,
    n_boot: int = 0,
    seed: int = 0,
    alpha: float = 0.05,
    threads: int = 1,
) -> list[tuple[PoCEstimate, BootstrapResult | None]]:
    """One (estimate, interval) pair per query: the interval is a bootstrap
    one when n_boot > 0, None otherwise.

    The queries share one resampling run. Replicate b resamples the rows
    once, builds one estimator per distinct order on it and answers every
    query with that; each query's interval, failure count included, is the
    one it gets on its own. A {"row": k} reference is bound to row k's
    covariates in table first, so every resample conditions on that same
    unit, not on whichever unit the resample puts at row k. The
    bootstrap's full-sample pass reuses the point estimates. The interval
    arguments are checked even when n_boot is 0.
    """
    n_boot, alpha, threads = interval_settings(n_boot, alpha, threads, min_boot=0)
    config = config or EstimatorConfig()
    queries = [
        replace(q, covariates=_resolve_covariates(table, q))
        if isinstance(q.covariates, CovariateRow) else q
        for q in queries
    ]
    estimates = [evaluate_query(table, q, config) for q in queries]
    if n_boot == 0:
        return [(estimate, None) for estimate in estimates]

    def answers(t: DataTable) -> list:
        if t is table:  # bootstrap's full-sample pass: the points above
            return [estimate.value for estimate in estimates]
        estimators, values = {}, []
        for q in queries:
            try:
                if q.order not in estimators:
                    estimators[q.order] = _build_estimator(t, q.order, config)
                values.append(_answer(estimators[q.order], t, q, config).value)
            except RECOVERABLE as exc:
                values.append(exc)
        return values

    intervals = bootstrap(table, answers, n_boot=n_boot, seed=seed, alpha=alpha, threads=threads)
    return list(zip(estimates, intervals))


def marginal_pns(
    table: DataTable,
    query: PoCQuery,
    config: EstimatorConfig | None = None,
) -> PoCEstimate:
    """pns averaged over the table's empirical covariate distribution.

    Uses one estimator for all covariate profiles, weighting each distinct
    profile by its frequency. Stratum failures from the empirical estimator
    propagate; a profile you observed but cannot evaluate is a real answer.
    """
    config = config or EstimatorConfig()
    if query.kind != "marginal_pns":
        raise ConfigError(f"marginal_pns got a {query.kind!r} query")
    return _answer(_build_estimator(table, query.order, config), table, query, config)
