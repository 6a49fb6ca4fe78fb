import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pocause import (
    Additive,
    CfClause,
    ConfigError,
    CounterfactualEvent,
    CovariateDist,
    EstimatorConfig,
    GaussianDiag,
    Lexicographic,
    LinearMean,
    NonMonotoneTest,
    NoSupportError,
    Ordering,
    ScalarScore,
    ScmSpec,
    TabularMean,
    TreatmentPolicy,
    UniformBox,
    check_monotonicity,
    compare,
    derived_rng,
    export_trajectories,
    flip_event,
    lexicographic_default,
    load_scm,
    monotonicity_probe,
    oracle_evidence,
    oracle_joint,
    packaged_spec_path,
    scm_from_dict,
    simulate,
    validate_spec,
)
from pocause import scm

ORACLE_SIGMAS = 4.0


def _spec(name):
    return load_scm(packaged_spec_path(name))


def test_simulate_is_seed_deterministic():
    spec = _spec("lexi2")
    a = simulate(spec, 500, seed=3)
    b = simulate(spec, 500, seed=3)
    for name in a.columns:
        np.testing.assert_array_equal(a.columns[name], b.columns[name])
    c = simulate(spec, 500, seed=4)
    assert any(
        not np.array_equal(a.columns[name], c.columns[name]) for name in a.columns
    )


def test_policy_never_sees_the_noise():
    """Treatment choice must be independent of the latent draw; the group
    means of each latent coordinate stay at the population value."""
    spec = _spec("lexi2")
    table, latent = simulate(spec, 60_000, seed=1, return_latent=True)
    x = table.treatments()[:, 0]
    for j in range(latent.shape[1]):
        for v in np.unique(x):
            group = latent[x == v, j]
            se = group.std() / math.sqrt(group.size)
            assert abs(group.mean()) < ORACLE_SIGMAS * se + 1e-3


def test_oracle_matches_normal_closed_form():
    spec = _spec("additive_scalar")
    event = flip_event([(0.8,)], [(0.0,), (1.5,)])
    result = oracle_joint(spec, event, n_mc=200_000, seed=5)
    from scipy.stats import norm

    truth = norm.cdf(0.8) - norm.cdf(0.8 - 1.5)
    assert abs(result.value - truth) < ORACLE_SIGMAS * result.std_error
    assert result.n_used == result.n_mc


def test_oracle_single_clause_reach_probability():
    spec = _spec("additive_scalar")
    event = CounterfactualEvent((CfClause(x=(1.5,), at_least=(0.8,)),))
    result = oracle_joint(spec, event, n_mc=200_000, seed=6)
    from scipy.stats import norm

    truth = 1.0 - norm.cdf(0.8 - 1.5)
    assert abs(result.value - truth) < ORACLE_SIGMAS * result.std_error


@pytest.mark.parametrize("name", ["additive_scalar", "lexi2", "nonmono", "tabular"])
def test_clause_values_match_one_clause_oracles(name):
    """Each clause's probability, read off one oracle call, is bit for bit
    what an oracle call on that clause alone gives."""
    spec = _spec(name)
    thresholds, _ = monotonicity_probe(spec, n_thresholds=9, n_pilot=900, seed=4)
    sup = [tuple(x) for x in spec.policy.support]
    c = tuple(spec.covariates.support[0]) if spec.covariates is not None else ()
    for event in (flip_event([thresholds[4]], [sup[0], sup[-1]]),
                  flip_event([thresholds[2], thresholds[6]], [sup[0], sup[-1], sup[0]])):
        got = oracle_joint(spec, event, c, n_mc=20_000, seed=8)
        assert len(got.clause_values) == len(event.clauses)
        for clause, value in zip(event.clauses, got.clause_values):
            alone = oracle_joint(spec, CounterfactualEvent((clause,)), c, n_mc=20_000, seed=8)
            assert alone.clause_values == (alone.value,)
            assert value.hex() == alone.value.hex()


def test_pinned_evidence_oracle_is_exact():
    spec = _spec("additive_scalar")
    result = oracle_evidence(
        spec,
        thresholds=((0.8,),),
        treatments=((0.0,), (1.5,)),
        evidence_y=(0.5,),
        evidence_x=(1.0,),
    )
    # Seeing y = 0.5 under x = 1.0 pins u = -0.5, inside the flip window.
    assert result.exact
    assert result.std_error == 0.0
    assert result.value == 1.0


def test_pinned_evidence_outside_noise_support():
    obj = json.load(open(packaged_spec_path("additive_scalar"), encoding="utf-8"))
    obj["noise"] = {"kind": "uniform_box", "lo": [-1.0], "hi": [1.0]}
    spec = scm_from_dict(obj)
    # Seeing y = 9 under x = 1 would need u = 8, outside the box.
    with pytest.raises(NoSupportError):
        oracle_evidence(
            spec,
            thresholds=((0.8,),),
            treatments=((0.0,), (1.5,)),
            evidence_y=(9.0,),
            evidence_x=(1.0,),
        )


def test_gaussian_noise_pinned_evidence_never_lacks_support():
    spec = _spec("nonmono")
    result = oracle_evidence(
        spec,
        thresholds=((0.5,),),
        treatments=((0.0,), (1.0,)),
        evidence_y=(9.0,),
        evidence_x=(0.0,),
    )
    # An extreme observation is merely improbable, and u = 9 sits far
    # outside every flip window.
    assert result.exact
    assert result.value == 0.0


def test_rejection_evidence_oracle_recovers_hand_value():
    spec = _spec("tabular")
    result = oracle_evidence(
        spec,
        thresholds=((2.0,),),
        treatments=((1.0,), (2.0,)),
        evidence_y=(1.0,),
        evidence_x=(1.0,),
        c=(0.0,),
        n_mc=150_000,
        seed=8,
    )
    # Atom (0, 0.5], flip interval [0.2, 0.5): overlap ratio 0.6 by hand.
    assert not result.exact
    assert 0 < result.n_used < result.n_mc
    assert abs(result.value - 0.6) < ORACLE_SIGMAS * result.std_error


def test_rejection_oracle_rejects_impossible_atom():
    spec = _spec("tabular")
    with pytest.raises(NoSupportError):
        oracle_evidence(
            spec,
            thresholds=((2.0,),),
            treatments=((1.0,), (2.0,)),
            evidence_y=(7.0,),
            evidence_x=(1.0,),
            c=(0.0,),
            n_mc=5_000,
            seed=8,
        )


@pytest.mark.parametrize("name", ["additive_scalar", "lexi2", "nonmono", "tabular"])
def test_spec_json_round_trip(name):
    spec = _spec(name)
    clone = scm_from_dict(json.loads(json.dumps(spec.as_dict())))
    assert clone.as_dict() == spec.as_dict()


_DROP = object()


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        pytest.param(None, "bonus", True, "unknown model spec fields: ['bonus']", id="spec-field"),
        pytest.param(None, "mean", _DROP, "model spec needs a 'mean' object", id="spec-no-mean"),
        pytest.param(None, "noise", _DROP, "model spec needs a 'noise' object", id="spec-no-noise"),
        pytest.param(None, "policy", [], "model spec needs a 'policy' object", id="spec-policy-list"),
        pytest.param("mean", "kind", "quadratic", "unknown mean kind 'quadratic'", id="mean-kind"),
        pytest.param("noise", "kind", _DROP, "unknown noise kind None", id="noise-no-kind"),
        pytest.param(
            "coupling", "kind", "multiplicative", "unknown coupling kind 'multiplicative'",
            id="coupling-kind",
        ),
        pytest.param("mean", "bonus", 1, "unknown mean fields: ['bonus']", id="mean-field"),
        pytest.param("noise", "bonus", 1, "unknown noise fields: ['bonus']", id="noise-field"),
        pytest.param(
            "coupling", "flip_at", 0.3, "unknown coupling fields: ['flip_at']",
            id="coupling-field",
        ),
        pytest.param("policy", "bonus", 1, "unknown policy fields: ['bonus']", id="policy-field"),
        pytest.param(
            "covariates", "bonus", 1, "unknown covariates fields: ['bonus']",
            id="covariates-field",
        ),
        pytest.param("policy", "kind", "softmax", "unknown policy fields: ['kind']", id="policy-kind"),
        pytest.param(
            "covariates", "kind", "discrete", "unknown covariates fields: ['kind']",
            id="covariates-kind",
        ),
    ],
)
def test_spec_rejects_unknown_fields(section, key, value, message):
    obj = json.load(open(packaged_spec_path("lexi2"), encoding="utf-8"))
    target = obj if section is None else obj[section]
    if value is _DROP:
        del target[key]
    else:
        target[key] = value
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        scm_from_dict(obj)


@pytest.mark.parametrize(
    "coupling",
    [
        pytest.param(None, id="coupling-omitted"),
        pytest.param({"kind": "nonmonotone_test"}, id="flip-at-omitted"),
    ],
)
def test_spec_round_trip_fills_defaults(coupling):
    """Omitted optional keys read as their defaults and are written out."""
    obj = {
        "mean": {
            "kind": "tabular",
            "x_levels": [[0.0], [1.0]],
            "cuts": [[[0.5]], [[0.3]]],
            "levels": [[0.0], [1.0]],
        },
        "noise": {"kind": "uniform_box", "lo": [0.0], "hi": [1.0]},
        "policy": {"support": [[0.0], [1.0]], "logits": [0.0, 0.0]},
    }
    if coupling is not None:
        obj["coupling"] = coupling
    full = {
        "mean": {**obj["mean"], "c_levels": [[]]},
        "noise": obj["noise"],
        "coupling": (
            {"kind": "additive"} if coupling is None
            else {"kind": "nonmonotone_test", "flip_at": 0.5}
        ),
        "policy": {**obj["policy"], "covariate_logits": None},
        "covariates": None,
        "order": None,
    }
    raw = scm_from_dict(obj).as_dict()
    assert raw == full
    assert list(raw) == list(full)
    assert list(raw["mean"]) == ["kind", "x_levels", "c_levels", "cuts", "levels"]
    assert scm_from_dict(json.loads(json.dumps(raw))).as_dict() == full


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(
            lambda: TabularMean(
                x_levels=[[0.0], [-0.0]], c_levels=[], cuts=[[[0.5]], [[0.5]]],
                levels=[[0.0], [1.0]],
            ),
            id="x_levels",
        ),
        pytest.param(
            lambda: TabularMean(
                x_levels=[[1.0]], c_levels=[[0.0], [-0.0]], cuts=[[[0.5], [0.5]]],
                levels=[[0.0], [1.0]],
            ),
            id="c_levels",
        ),
        pytest.param(
            lambda: TreatmentPolicy(support=[[0.0], [-0.0]], logits=[0.0, 0.0]),
            id="policy-support",
        ),
        pytest.param(
            lambda: CovariateDist(support=[[0.0], [-0.0]], probs=[0.5, 0.5]),
            id="covariate-support",
        ),
    ],
)
def test_negative_zero_rows_are_duplicates(make):
    """0.0 and -0.0 are one value wherever rows are matched, so a support
    or level table listing both repeats a row."""
    with pytest.raises(ConfigError, match="contains duplicate rows"):
        make()


def test_monotone_model_reports_zero_violation():
    spec = _spec("additive_scalar")
    thresholds, pairs = monotonicity_probe(spec, n_thresholds=12, n_pilot=800, seed=2)
    report = check_monotonicity(spec, thresholds, pairs=pairs, n_mc=4_000, seed=2)
    assert report.max_violation == 0.0
    assert report.std_error == 0.0


def test_flipped_model_reports_large_violation():
    spec = _spec("nonmono")
    thresholds, pairs = monotonicity_probe(spec, n_thresholds=12, n_pilot=800, seed=2)
    report = check_monotonicity(spec, thresholds, pairs=pairs, n_mc=20_000, seed=2)
    assert report.max_violation >= 0.05
    assert report.at_pair is not None


@pytest.mark.parametrize("n_mc", [0, -3])
def test_monotonicity_check_needs_a_positive_size(n_mc):
    spec = _spec("additive_scalar")
    thresholds, pairs = monotonicity_probe(spec, n_thresholds=4, n_pilot=100, seed=2)
    with pytest.raises(ConfigError, match="positive Monte Carlo size"):
        check_monotonicity(spec, thresholds, pairs=pairs, n_mc=n_mc, seed=2)


def test_validate_spec_on_nonmono_fires_both_alarms():
    checks = validate_spec(
        _spec("nonmono"), n=6000, n_mc=20_000, grid=8, n_u=8,
        config=EstimatorConfig(method="empirical"), seed=3,
    )
    assert all(
        set(row) == {"name", "status", "observed", "band", "detail"} for row in checks
    )
    status = {row["name"]: row["status"] for row in checks}
    assert status["monotonicity_alarm"] == "pass"
    assert status["crossing_alarm"] == "pass"
    vs_oracle = [name for name in status if name.endswith("_vs_oracle")]
    assert vs_oracle and all(status[name] in ("pass", "xfail") for name in vs_oracle)
    # No evidence or chain checks: they rest on the monotonicity it lacks.
    assert set(status) == set(vs_oracle) | {"monotonicity_alarm", "crossing_alarm"}


def test_validate_spec_with_uniform_noise_passes_every_check():
    """A linear mean with uniform_box noise pins its evidence point 30 % of
    the way across the box, a branch the bundled Gaussian specs never take."""
    raw = _spec("additive_scalar").as_dict()
    raw["noise"] = {"kind": "uniform_box", "lo": [-1.0], "hi": [1.0]}
    checks = validate_spec(
        scm_from_dict(raw), n=20_000, n_mc=20_000, grid=8, n_u=8,
        config=EstimatorConfig(method="empirical"), seed=3,
    )
    status = {row["name"]: row["status"] for row in checks}
    assert "evidence_pinned" in status
    assert set(status.values()) == {"pass"}


def test_trajectories_monotone_never_cross():
    spec = _spec("additive_scalar")
    grid = [(0.0,), (0.5,), (1.0,), (1.5,)]
    traj = export_trajectories(spec, grid, n_u=20, seed=4)
    assert traj.outcomes.shape == (20, 4, 1)
    assert traj.crossing_count == 0


def test_trajectories_flipped_all_pairs_cross():
    spec = _spec("nonmono")
    traj = export_trajectories(spec, [(0.0,), (1.0,)], n_u=20, seed=4)
    # Every latent pair swaps rank across the flip, one crossing per pair.
    assert traj.crossing_count == math.comb(20, 2)


def test_derived_streams_are_independent_and_stable():
    a1 = derived_rng(11, 0).random(6)
    a2 = derived_rng(11, 0).random(6)
    b = derived_rng(11, 1).random(6)
    np.testing.assert_array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_tabular_mean_validation():
    with pytest.raises(ConfigError):
        TabularMean(
            x_levels=((1.0,),),
            c_levels=((0.0,),),
            cuts=(((0.8, 0.5),),),
            levels=((1.0,), (2.0,), (3.0,)),
        )
    obj = json.load(open(packaged_spec_path("tabular"), encoding="utf-8"))
    obj["mean"]["levels"] = [[1.0], [1.0], [3.0]]
    with pytest.raises(ConfigError, match="ascend"):
        scm_from_dict(obj)


def test_flip_event_arity_error():
    with pytest.raises(ConfigError):
        flip_event([(0.3,), (0.9,)], [(0.0,), (1.0,)])


def test_tabular_state_probs_sum_to_one():
    spec = _spec("tabular")
    mean = spec.mean
    for x in mean.x_levels:
        for c in mean.c_levels:
            probs = mean.state_probs(x, c)
            assert probs.shape == (3,)
            assert abs(probs.sum() - 1.0) < 1e-12


def test_policy_sample_matches_per_row_search():
    """Each row's level is the searchsorted position of its uniform in its
    own profile's cumulative probabilities, capped at the last level."""
    policy = TreatmentPolicy(
        support=[[0.0], [1.0], [2.0], [3.0]],
        logits=[0.2, -0.1, 0.0, 0.3],
        covariate_logits=[[0.5, -1.0], [0.0, 2.0], [-0.7, 0.1], [1.5, 0.0]],
    )
    rng = np.random.default_rng(8)
    C = rng.integers(0, 3, size=(2000, 2)).astype(float)
    X = policy.sample(C, np.random.default_rng(21))
    u = np.random.default_rng(21).random(C.shape[0])
    expected = []
    for c, ui in zip(C, u):
        cum = np.cumsum(policy.probabilities(c))
        expected.append(min(int(np.searchsorted(cum, ui, side="right")), policy.n_levels - 1))
    np.testing.assert_array_equal(X, policy.support[expected])
    assert len({tuple(row) for row in C.tolist()}) == 9
    assert set(X[:, 0].tolist()) == {0.0, 1.0, 2.0, 3.0}


@pytest.mark.parametrize(
    "levels, first_bad",
    [
        pytest.param([[2.0], [1.0], [3.0]], 0, id="first"),
        pytest.param([[1.0], [2.0], [2.0]], 1, id="tie-last"),
    ],
)
def test_tabular_levels_name_the_first_that_fails_to_ascend(levels, first_bad):
    obj = json.load(open(packaged_spec_path("tabular"), encoding="utf-8"))
    obj["mean"]["levels"] = levels
    message = (
        "tabular levels must ascend under the outcome order; "
        f"level {first_bad} does not precede level {first_bad + 1}"
    )
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        scm_from_dict(obj)


@pytest.mark.parametrize(
    "grid, n_u, message",
    [
        pytest.param(1, 8, "need a grid of at least 2 treatment rows", id="grid"),
        pytest.param(8, 1, "need at least two latent draws to compare", id="n_u"),
    ],
)
def test_validate_checks_trajectory_sizes_before_simulating(grid, n_u, message, monkeypatch):
    import pocause.scm as scm

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking the trajectory sizes")

    monkeypatch.setattr(scm, "simulate", no_simulation)
    with pytest.raises(ConfigError, match=re.escape(message)):
        validate_spec(
            _spec("lexi2"), n=2000, n_mc=2000, grid=grid, n_u=n_u,
            config=EstimatorConfig(method="empirical"), seed=3,
        )


@pytest.mark.parametrize("d", [2, 3, 9])
def test_scalar_score_pool_is_sorted_under_the_order(d):
    """Rows whose scores tie up to rounding sort by the bits compare sees."""
    from pocause.scm import _sorted_rows

    rng = np.random.default_rng(d)
    order = ScalarScore(tuple(rng.normal(size=d)))
    rows = rng.normal(size=(4000, d))
    # Rescale every row onto score 1, so neighbours differ in the last bits.
    rows /= (rows * np.asarray(order.weights)).sum(axis=1, keepdims=True)
    pool = _sorted_rows(rows, order)
    assert sorted(map(tuple, pool)) == sorted(map(tuple, rows))
    assert np.all(compare(pool[:-1], pool[1:], order) <= 0)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_lexicographic_pool_sorts_stably_under_the_order(d):
    """Mixed asc/desc orders over values that tie often, -0.0 against 0.0
    included: the sort is the stable sort by each component in priority
    order, negated where it descends, and tied rows keep their input order."""
    from pocause.scm import _sorted_rows

    rng = np.random.default_rng(40 + d)
    for _ in range(20):
        order = Lexicographic(
            tuple(rng.permutation(d).tolist()),
            tuple(rng.choice(["asc", "desc"], size=d).tolist()),
        )
        rows = rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], size=(300, d))

        def rank(i):
            return tuple(rows[i, p] if s == "asc" else -rows[i, p]
                         for p, s in zip(order.priority, order.direction))

        pool = _sorted_rows(rows, order)
        assert pool.tobytes() == rows[sorted(range(len(rows)), key=rank)].tobytes()
        assert np.all(compare(pool[:-1], pool[1:], order) <= 0)


def _cached_monotonicity(spec, thresholds, pairs, n_mc, seed):
    """check_monotonicity as a double loop over pairs and thresholds, one
    cached strict indicator per (x, threshold): the reference the
    threshold-by-threshold check must match."""
    from pocause.scm import MonotonicityReport, _STREAM_MONOTONICITY
    from pocause.scm import _latents, _reference_c
    from pocause.ordering import indicator_below

    thresholds = [tuple(float(v) for v in t) for t in thresholds]
    U = _latents(spec, n_mc, seed, _STREAM_MONOTONICITY)
    outcomes = {}

    def at(x):
        key = np.asarray(x, dtype=float).tobytes()
        if key not in outcomes:
            outcomes[key] = spec.outcomes(x, _reference_c(spec), U)
        return outcomes[key]

    cache = {}

    def strict(x, y):
        key = (np.asarray(x, dtype=float).tobytes(), np.asarray(y, dtype=float).tobytes())
        if key not in cache:
            cache[key] = indicator_below(at(x), y, spec.outcome_order)[0]
        return cache[key]

    best = (-1.0, 0.0, pairs[0], thresholds[0])
    for xa, xb in pairs:
        for y in thresholds:
            sa, sb = strict(xa, y), strict(xb, y)
            v = min(float(np.mean(sa & ~sb)), float(np.mean(sb & ~sa)))
            if v > best[0]:
                best = (v, float(np.sqrt(v * (1.0 - v) / U.shape[0])), (xa, xb), y)
    return MonotonicityReport(*best, n_mc=U.shape[0])


@pytest.mark.parametrize("name", ["additive_scalar", "lexi2", "nonmono", "tabular"])
@pytest.mark.parametrize("seed", [2, 9])
def test_monotonicity_check_matches_the_cached_double_loop(name, seed):
    spec = _spec(name)
    thresholds, pairs = monotonicity_probe(spec, n_thresholds=15, n_pilot=600, seed=seed)
    # Pairs as lists, and every threshold twice over.
    as_lists = [[list(xa), list(xb)] for xa, xb in pairs]
    cases = [(thresholds, pairs), ([t for t in thresholds for _ in "ab"], as_lists)]
    # Thresholds below every outcome: each violation is 0, and the first
    # pair and threshold are reported.
    cases.append(([(-1e9 - k,) * spec.n_outcomes for k in range(3)], pairs[::-1]))
    for ts, ps in cases:
        got = check_monotonicity(spec, ts, pairs=ps, n_mc=3_000, seed=seed)
        assert got == _cached_monotonicity(spec, ts, ps, n_mc=3_000, seed=seed)
        assert type(got.at_pair[0]) is type(ps[0][0])


def _tied_tabular():
    """A nonmonotone tabular model whose two-component levels all tie on
    their first component, 0.0 and -0.0 both, under an asc/desc order."""
    obj = json.load(open(packaged_spec_path("tabular"), encoding="utf-8"))
    obj["mean"]["levels"] = [[0.0, 1.0], [-0.0, 0.0], [0.0, -1.0]]
    obj["order"] = {"kind": "lexicographic", "priority": [0, 1], "direction": ["asc", "desc"]}
    obj["coupling"] = {"kind": "nonmonotone_test", "flip_at": 1.5}
    return scm_from_dict(obj)


def _edge_case(name):
    if name == "signed-zeros":
        spec = _tied_tabular()
        zeros = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]
        return spec, zeros + [(0.0, 0.5), (0.0, 1.0), (-0.0, -1.0)] + zeros[::-1], True
    if name == "tied-scores":
        obj = json.load(open(packaged_spec_path("lexi2"), encoding="utf-8"))
        obj["order"] = {"kind": "scalar_score", "weights": [1.0, 2.0]}
        obj["coupling"] = {"kind": "nonmonotone_test", "flip_at": 0.5}
        # Distinct thresholds, four of them with score 1 and two with score 0.
        ties = [(0.0, 0.0), (1.0, 0.0), (0.0, 0.5), (-1.0, 1.0), (2.0, -1.0), (0.5, 0.25)]
        return scm_from_dict(obj), ties + [(0.3, 0.1), (-0.5, 0.9)], True
    if name == "over-255":
        spec = _spec("nonmono")
        thresholds, _ = monotonicity_probe(spec, n_thresholds=300, n_pilot=3000, seed=4)
        assert len(set(thresholds)) > 255
        return spec, thresholds, True
    spec = _spec("nonmono") if name == "above-all" else _tied_tabular()
    return spec, [(1e9 + k,) * spec.n_outcomes for k in range(3)], False


@pytest.mark.parametrize(
    "name", ["signed-zeros", "tied-scores", "over-255", "above-all", "above-all-tied"]
)
def test_monotonicity_check_matches_the_cached_double_loop_at_the_edges(name):
    """Repeated thresholds, 0.0 against -0.0, first-key ties, distinct
    thresholds whose scores tie, more thresholds than a byte can rank, and
    thresholds above every outcome."""
    spec, thresholds, flips = _edge_case(name)
    pairs = [(x, x) for x in map(tuple, spec.policy.support)] + [
        tuple(map(tuple, spec.policy.support))
    ]
    got = check_monotonicity(spec, thresholds, pairs=pairs, n_mc=3_000, seed=6)
    assert got == _cached_monotonicity(spec, thresholds, pairs, n_mc=3_000, seed=6)
    assert (got.max_violation > 0) is flips


def test_threshold_ranks_count_the_thresholds_each_row_reaches():
    """Each row's rank is the number of thresholds it does not strictly
    precede, over random orders (descending components and distinct
    thresholds with tied scores included) and small-integer rows that
    often tie a threshold on its first key."""
    from pocause.ordering import indicator_below
    from pocause.scm import _sorted_rows, _threshold_ranks

    rng = np.random.default_rng(29)
    values = [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0]
    for _ in range(300):
        d = int(rng.integers(1, 5))
        order = _random_order(rng, d)
        distinct = np.unique(rng.choice(values, size=(int(rng.integers(1, 16)), d)), axis=0)
        ladder = _sorted_rows(distinct, order)
        rows = rng.choice(values + [-3.0, 3.0], size=(40, d))
        ranks = _threshold_ranks(rows, ladder, order)
        reached = sum(~indicator_below(rows, y, order)[0] for y in ladder)
        assert ranks.dtype == np.uint8
        np.testing.assert_array_equal(ranks, reached)


def test_threshold_ranks_widen_past_255_thresholds():
    from pocause.scm import _threshold_ranks

    # Every threshold ties every row on the first key, so each rank comes
    # from the bisection.
    ladder = np.stack([np.zeros(300), np.arange(300.0)], axis=1)
    rows = [[0.0, -1.0], [-0.0, 0.0], [0.0, 254.5], [0.0, 299.0], [0.0, 1e6],
            [1.0, -5.0], [-1.0, 5e2]]
    ranks = _threshold_ranks(np.asarray(rows), ladder, lexicographic_default(2))
    assert ranks.dtype == np.uint16
    assert ranks.tolist() == [0, 1, 255, 300, 300, 300, 0]


def _pairwise_crossings(curves, order):
    """The crossing count as a loop over curve pairs and grid points: the
    reference the batched count must match."""
    crossings = 0
    for i, j in itertools.combinations(range(curves.shape[0]), 2):
        signs = []
        for g in range(curves.shape[1]):
            s = compare(curves[i, g], curves[j, g], order)
            if s is not Ordering.EQUAL:
                signs.append(int(s))
        crossings += sum(1 for k in range(1, len(signs)) if signs[k] != signs[k - 1])
    return crossings


def _random_order(rng, d):
    if rng.random() < 0.3:
        return ScalarScore(tuple(rng.integers(-2, 3, size=d).astype(float)))
    return Lexicographic(
        tuple(rng.permutation(d).tolist()), tuple(rng.choice(["asc", "desc"], size=d).tolist())
    )


def test_crossing_count_matches_the_pairwise_loop():
    from pocause.scm import _crossing_count

    rng = np.random.default_rng(17)
    for _ in range(150):
        n_u, n_grid, d = rng.integers(2, 7), rng.integers(2, 9), rng.integers(1, 12)
        # Few distinct values, so ties (leading, trailing and whole-vector)
        # are common.
        curves = rng.integers(-2, 3, size=(n_u, n_grid, d)).astype(float)
        if rng.random() < 0.3:
            curves[:, :rng.integers(1, n_grid + 1)] = curves[0, 0]
        if rng.random() < 0.3:
            curves[:, -rng.integers(1, n_grid + 1):] = curves[0, -1]
        order = _random_order(rng, d)
        assert _crossing_count(curves, order) == _pairwise_crossings(curves, order)


@pytest.mark.parametrize(
    "rows, expected",
    [
        pytest.param([[0, 1], [1, 0]], 1, id="two-point-swap"),
        pytest.param([[0, 0], [1, 0]], 0, id="two-point-tie"),
        pytest.param([[0, 0, 1, 1, 0, -1, -1, 0, 0], [0] * 9], 1, id="ties-around-a-flip"),
        pytest.param([[1, -1, 1, 0, -1], [0] * 5], 3, id="flips-across-ties"),
    ],
)
def test_crossing_count_skips_ties(rows, expected):
    from pocause.scm import _crossing_count

    curves = np.asarray(rows, dtype=float)[:, :, None]
    assert _pairwise_crossings(curves, lexicographic_default(1)) == expected
    assert _crossing_count(curves, lexicographic_default(1)) == expected


def test_trajectories_count_crossings_per_pair():
    spec = _spec("nonmono")
    grid = np.linspace(0.0, 1.0, 7)[:, None]
    traj = export_trajectories(spec, grid, n_u=12, seed=5)
    assert traj.crossing_count == _pairwise_crossings(traj.outcomes, spec.outcome_order)


@pytest.mark.parametrize(
    "base, path, value, field",
    [
        pytest.param("lexi2", ("mean", "treat_coef"), [[1.0], [2.0, 3.0]], "treat_coef",
                     id="treat_coef-ragged"),
        pytest.param("lexi2", ("mean", "cov_coef"), [["a"], [1.0]], "cov_coef",
                     id="cov_coef-string"),
        pytest.param("lexi2", ("mean", "cov_coef"), [[0.5], [1.0, 2.0]], "cov_coef",
                     id="cov_coef-ragged"),
        pytest.param("lexi2", ("mean", "intercept"), [0.0, "b"], "intercept",
                     id="intercept-string"),
        pytest.param("lexi2", ("noise", "sd"), "x", "sd", id="sd-string"),
        pytest.param("lexi2", ("noise", "mean"), ["a"], "mean", id="noise-mean-string"),
        pytest.param("lexi2", ("policy", "logits"), [[0.0], [0.0, 1.0]], "policy logits",
                     id="logits-ragged"),
        pytest.param("lexi2", ("policy", "covariate_logits"), [["a"]], "covariate_logits",
                     id="covariate_logits-string"),
        pytest.param("lexi2", ("covariates", "probs"), [0.5, "half"], "covariate probs",
                     id="probs-string"),
        pytest.param("nonmono", ("coupling", "flip_at"), "x", "flip_at", id="flip_at-string"),
        pytest.param("nonmono", ("coupling", "flip_at"), [0.5, 1.0], "flip_at",
                     id="flip_at-list"),
        pytest.param("tabular", ("mean", "cuts"), "abc", "cuts", id="cuts-string"),
        pytest.param("tabular", ("mean", "levels"), [[1.0], [2.0, 2.5], [3.0]], "levels",
                     id="levels-ragged"),
        pytest.param("tabular", ("mean", "c_levels"), [["q"]], "c_levels", id="c_levels-string"),
        pytest.param("tabular", ("noise", "lo"), ["z"], "lo", id="lo-string"),
        pytest.param("lexi2", ("order",), {"kind": "scalar_score", "weights": ["x", 1.0]},
                     "weights", id="weights-string"),
        pytest.param("nonmono", ("coupling", "flip_at"), "0.25", "flip_at",
                     id="flip_at-numeric-string"),
        pytest.param("lexi2", ("mean", "intercept"), ["1e0", 0.0], "intercept",
                     id="intercept-numeric-string"),
        pytest.param("lexi2", ("mean", "treat_coef"), [[1.0], ["2"]], "treat_coef",
                     id="treat_coef-nested-numeric-string"),
        pytest.param("lexi2", ("noise", "sd"), "1", "sd", id="sd-numeric-string"),
        pytest.param("tabular", ("mean", "cuts"), [["0.5"]], "cuts", id="cuts-numeric-string"),
        pytest.param("lexi2", ("order",), {"kind": "scalar_score", "weights": ["1", 1.0]},
                     "weights", id="weights-numeric-string"),
    ],
)
def test_malformed_spec_numbers_name_their_field(base, path, value, field):
    """A ragged or non-numeric array in a model spec is a ConfigError that
    names the field, never a bare numpy ValueError; a number written as a
    string, at any depth, is rejected, not parsed."""
    obj = json.load(open(packaged_spec_path(base), encoding="utf-8"))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ConfigError, match=f"^{re.escape(field)} must be"):
        scm_from_dict(obj)


@pytest.mark.parametrize("value", [[None, "1"], [10**30, "2"]], ids=["none", "huge-int"])
def test_a_numeric_string_in_an_object_array_is_rejected(value):
    """None or an integer past int64 gives the list numpy's object dtype;
    a string beside it is still rejected, not parsed."""
    obj = json.load(open(packaged_spec_path("lexi2"), encoding="utf-8"))
    obj["mean"]["intercept"] = value
    with pytest.raises(ConfigError, match="^intercept must be numbers in a rectangular array"):
        scm_from_dict(obj)


_LADDER_VALUES = st.one_of(
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
        1.7976931348623157e308, -1.7976931348623157e308,
    ]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def _ladders(draw):
    """An ascending ladder of 1 to 80 values drawn, with repeats, from a
    pool: small numbers, or any finite ones with the extremes, zeros of
    both signs and subnormals, so some spans overflow or underflow."""
    values = draw(st.sampled_from([st.floats(-4.0, 4.0), _LADDER_VALUES]))
    pool = draw(st.lists(values, min_size=1, max_size=80))
    n = draw(st.integers(1, 80))
    return np.sort(np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))))


@settings(max_examples=400, deadline=None)
@given(
    ladder=_ladders(),
    extra=st.lists(st.one_of(_LADDER_VALUES, st.floats()), max_size=40),
    side=st.sampled_from(["left", "right"]),
)
@example(ladder=np.full(20, 0.5), extra=[], side="right")
@example(ladder=np.full(20, -0.0), extra=[0.0], side="left")
@example(ladder=np.linspace(0.0, 1.0, 16), extra=[float("nan")], side="right")
def test_ladder_search_is_searchsorted(ladder, extra, side):
    """The bucketed search gives numpy's answer for every key: the ladder's
    own values and their float neighbours, +-inf, NaN (sorted last) and
    drawn floats."""
    with np.errstate(over="ignore"):
        up, down = np.nextafter(ladder, np.inf), np.nextafter(ladder, -np.inf)
    keys = np.concatenate([
        ladder, up, down, [np.inf, -np.inf, np.nan, 0.0, -0.0], np.array(extra, dtype=float),
    ])
    got = scm._ladder_search(ladder, keys, side)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, np.searchsorted(ladder, keys, side))


def _tabular_spec(x_levels, c_levels, cuts, n_outcomes, coupling):
    """A ScmSpec around a TabularMean whose levels ascend lexicographically:
    state k's first outcome is k."""
    n_states = cuts.shape[2] + 1
    levels = np.column_stack([np.arange(n_states, dtype=float)]
                             + [np.linspace(1.0, -1.0, n_states)] * (n_outcomes - 1))
    covariates = None
    if c_levels.shape[1]:
        covariates = CovariateDist(support=c_levels, probs=[1.0 / len(c_levels)] * len(c_levels))
    return ScmSpec(
        mean=TabularMean(x_levels=x_levels, c_levels=c_levels if c_levels.shape[1] else None,
                         cuts=cuts, levels=levels),
        noise=UniformBox(lo=[0.0], hi=[1.0]),
        coupling=coupling,
        policy=TreatmentPolicy(support=x_levels, logits=[0.0] * len(x_levels)),
        covariates=covariates,
    )


def _old_tabular_outcome(mean, X, C, u):
    """TabularMean.outcome as it was before one-row queries searched a
    single cut row: every row matched, then one mask per distinct cell."""
    ix = scm._match_rows(X, mean.x_levels, "treatment")
    ic = scm._match_rows(C, mean.c_levels, "covariate")
    state = np.empty(len(u), dtype=int)
    cell = ix * mean.c_levels.shape[0] + ic
    for cell_id in np.unique(cell):
        mask = cell == cell_id
        row = mean.cuts[cell_id // mean.c_levels.shape[0], cell_id % mean.c_levels.shape[0]]
        state[mask] = np.searchsorted(row, u[mask], side="right")
    return mean.levels[state]


@st.composite
def _tabular_cases(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_x, n_c = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    x_cols, c_cols = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    n_c = n_c if c_cols else 1
    # Distinct level rows from a small grid, so levels share values.
    x_levels = rng.permutation(np.array(list(itertools.product(
        [-1.0, 0.0, 0.5, 1.0, 2.0], repeat=x_cols))))[:n_x]
    c_levels = rng.permutation(np.array(list(itertools.product(
        [0.0, 1.0, 2.5], repeat=c_cols))))[:n_c]
    n_states = draw(st.integers(2, 12))
    # Cuts on a coarse grid that holds 0 and 1, so ties and end cuts are common.
    cuts = np.sort(rng.choice([0.0, 0.125, 0.25, 0.5, 0.75, 1.0],
                              size=(len(x_levels), len(c_levels), n_states - 1)), axis=2)
    flip = draw(st.sampled_from([None, "level", "between"]))
    if flip is None:
        coupling = Additive()
    elif flip == "level":
        coupling = NonMonotoneTest(flip_at=float(rng.choice(x_levels[:, 0])))
    else:
        coupling = NonMonotoneTest(flip_at=0.25)
    spec = _tabular_spec(x_levels, c_levels, cuts, draw(st.integers(1, 2)), coupling)
    # Latents: uniform draws, every cut value exactly, and both ends.
    u = np.concatenate([rng.random(draw(st.integers(0, 40))), np.unique(cuts), [0.0, 1.0]])
    return spec, rng.permutation(u)[:, None], rng


@settings(max_examples=150, deadline=None)
@given(case=_tabular_cases())
def test_one_row_tabular_outcomes_equal_row_aligned_ones(case):
    """One (x, c) row for every latent gives the same array as the row
    repeated for each latent, as the per-row code gave, and as one row per
    latent in any mix of shapes: a single x row with row-aligned c, or the
    reverse."""
    spec, U, rng = case
    mean = spec.mean
    n = U.shape[0]
    u = U[:, 0]
    flip_at = getattr(spec.coupling, "flip_at", np.inf)  # additive: no row flips
    for x in mean.x_levels:
        for c in mean.c_levels:
            X, C = np.repeat(x[None], n, axis=0), np.repeat(c[None], n, axis=0)
            one = spec.outcomes(x[None], c[None], U)
            aligned = spec.outcomes(X, C, U)
            u_eff = np.where(X[:, 0] >= flip_at, 1.0 - u, u)
            assert one.dtype == aligned.dtype and one.shape == (n, spec.n_outcomes)
            assert one.tobytes() == aligned.tobytes()
            assert one.tobytes() == _old_tabular_outcome(mean, X, C, u_eff).tobytes()
            # A single row of one kind against rows of the other.
            Xr = mean.x_levels[rng.integers(0, len(mean.x_levels), n)]
            Cr = mean.c_levels[rng.integers(0, len(mean.c_levels), n)]
            for Xa, Ca in ((x[None], Cr), (Xr, c[None]), (Xr, Cr)):
                Xf = np.broadcast_to(Xa, (n, Xa.shape[1]))
                Cf = np.broadcast_to(Ca, (n, Ca.shape[1]))
                expected = _old_tabular_outcome(
                    mean, Xf, Cf, np.where(Xf[:, 0] >= flip_at, 1.0 - u, u))
                assert spec.outcomes(Xa, Ca, U).tobytes() == expected.tobytes()
                by_row = [spec.outcomes(Xf[i:i + 1], Cf[i:i + 1], U[i:i + 1])[0] for i in range(n)]
                assert np.array(by_row).reshape(n, -1).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "x, c, what",
    [
        pytest.param((7.5,), (0.0,), "treatment", id="treatment"),
        pytest.param((1.0,), (7.5,), "covariate", id="covariate"),
        pytest.param((7.5,), (7.5,), "treatment", id="both-treatment-first"),
    ],
)
def test_an_undeclared_level_fails_alike_in_one_row_and_row_aligned(x, c, what):
    spec = _spec("tabular")
    U = np.array([[0.1], [0.7], [0.95]])
    message = f"{what} value [7.5] is not a declared level"
    X, C = np.array([x]), np.array([c])
    X3, C3 = np.repeat(X, 3, axis=0), np.repeat(C, 3, axis=0)
    for Xa, Ca in ((X, C), (X3, C3), (X, C3), (X3, C)):
        with pytest.raises(NoSupportError, match=f"^{re.escape(message)}$"):
            spec.outcomes(Xa, Ca, U)
    event = CounterfactualEvent((CfClause(x=x, below=(2.0,)),))
    with pytest.raises(NoSupportError, match=f"^{re.escape(message)}$"):
        oracle_joint(spec, event, c=c, n_mc=100)


def test_tabular_oracles_match_one_row_per_call(monkeypatch):
    """oracle_joint, oracle_evidence and check_monotonicity evaluate a
    tabular mechanism at one (x, c) row per call, never at one per latent."""
    spec = _spec("tabular")
    match_rows = scm._match_rows
    seen = []

    def spy(rows, levels, what):
        seen.append(rows.shape[0])
        return match_rows(rows, levels, what)

    monkeypatch.setattr(scm, "_match_rows", spy)
    oracle_joint(spec, flip_event([(2.0,)], [(1.0,), (2.0,)]), c=(1.0,), n_mc=5_000, seed=3)
    oracle_evidence(spec, thresholds=((2.0,),), treatments=((1.0,), (2.0,)), evidence_y=(1.0,),
                    evidence_x=(1.0,), c=(0.0,), n_mc=5_000, seed=3)
    check_monotonicity(spec, [(2.0,), (3.0,)], n_mc=5_000, seed=3)
    assert len(seen) >= 2 * (2 + 3 + 2)
    assert set(seen) == {1}


def _unique_policy_sample(policy, C, rng):
    """TreatmentPolicy.sample as it was when np.unique found the profiles."""
    u = rng.random(C.shape[0])
    eta = policy.logits[None, :]
    if C.shape[1] == 0 or policy.covariate_logits is None:
        inv = 0
    else:
        profiles, inv = np.unique(C, axis=0, return_inverse=True)
        eta = eta + (policy.covariate_logits @ profiles[:, :, None])[:, :, 0]
    w = np.exp(eta - eta.max(axis=1, keepdims=True))
    cum = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)
    idx = np.zeros(C.shape[0], dtype=np.intp)
    for level in range(policy.n_levels - 1):
        idx += cum[inv, level] <= u
    return policy.support[idx]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_levels=st.integers(1, 20),
    n_cov=st.integers(0, 7),
    n_rows=st.integers(0, 300),
    kind=st.sampled_from(["rounded", "unrounded", "signed zeros", "no covariate logits"]),
)
def test_policy_sample_matches_the_np_unique_profiles(seed, n_levels, n_cov, n_rows, kind):
    """Profiles found by one stable sort give np.unique's output bit for
    bit: the same rows, the same draws, -0.0 and 0.0 as one profile."""
    rng = np.random.default_rng(seed)
    policy = TreatmentPolicy(
        support=np.column_stack([np.arange(n_levels, dtype=float), rng.normal(size=n_levels)]),
        logits=rng.normal(0.0, 2.0, n_levels),
        covariate_logits=None if kind == "no covariate logits"
        else rng.normal(0.0, 1.5, (n_levels, n_cov)),
    )
    C = rng.normal(size=(n_rows, n_cov))
    if kind == "rounded":
        C = np.round(C, 1)
    elif kind == "signed zeros":
        C = rng.choice([-1.0, -0.0, 0.0, 0.5], size=(n_rows, n_cov))
    got = policy.sample(C, np.random.default_rng(seed + 1))
    want = _unique_policy_sample(policy, C, np.random.default_rng(seed + 1))
    assert got.shape == want.shape == (n_rows, 2)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(0, 3), st.integers(1, 60)),
    flip=st.booleans(),
)
def test_one_row_linear_outcomes_are_the_broadcast_rows(seed, shape, flip):
    """A linear mechanism given one (x, c) row computes its mean at every
    latent row, as the broadcast rows do: a one-row product can differ from
    the same row's product in an n-row one in the last bit."""
    n_y, n_x, n_c, n = shape
    rng = np.random.default_rng(seed)
    mean = LinearMean(treat_coef=rng.normal(size=(n_y, n_x)),
                      cov_coef=rng.normal(size=(n_y, n_c)) if n_c else None,
                      intercept=rng.normal(size=n_y))
    spec = ScmSpec(
        mean=mean,
        noise=GaussianDiag(mean=[0.0] * n_y, sd=[1.0] * n_y),
        coupling=NonMonotoneTest(flip_at=0.0) if flip else Additive(),
        policy=TreatmentPolicy(support=rng.normal(size=(2, n_x)), logits=[0.0, 0.0]),
        covariates=CovariateDist(support=rng.normal(size=(1, n_c)), probs=[1.0]) if n_c else None,
    )
    U = rng.normal(size=(n, n_y))
    x, c = rng.normal(size=n_x), rng.normal(size=n_c)
    X, C = np.broadcast_to(x, (n, n_x)), np.broadcast_to(c, (n, n_c))
    sign = np.where(X[:, 0] >= 0.0, -1.0, 1.0) if flip else np.ones(n)
    want = mean.value(X, C) + sign[:, None] * U
    assert spec.outcomes(x[None], c[None], U).tobytes() == want.tobytes()
    assert spec.outcomes(X, C, U).tobytes() == want.tobytes()


def _unreachable_top_level_spec():
    """additive_scalar with its top treatment level (1.5) all but never
    drawn, so an n-row table has no rows there."""
    obj = json.loads(packaged_spec_path("additive_scalar").read_text())
    obj["policy"]["logits"] = [0.0, 0.0, 0.0, -40.0]
    return scm_from_dict(obj)


_NO_TOP_LEVEL = "errored: no observations with treatment [1.5] and covariates []"
_SILENT_DIAGNOSTICS = [
    {"name": "monotonicity", "status": "pass", "observed": 0.0, "band": 0.0,
     "detail": "largest two-sided flip probability 0.00000 (3 std errors = 0.00000)"},
    {"name": "crossings", "status": "pass", "observed": 0, "band": 0,
     "detail": "0 crossings over 5 latent curves"},
]


@pytest.mark.parametrize(
    "method, oracle_calls, expected",
    [
        pytest.param("empirical", 1, [
            {"name": "identification", "status": "fail", "observed": None, "band": 0.02,
             "detail": f"identification checks {_NO_TOP_LEVEL}"},
            *_SILENT_DIAGNOSTICS,
            {"name": "evidence", "status": "fail", "observed": None, "band": None,
             "detail": f"evidence check {_NO_TOP_LEVEL}"},
            {"name": "chain_two_steps", "status": "fail", "observed": None, "band": 0.02,
             "detail": f"chain check {_NO_TOP_LEVEL}"},
            {"name": "chain_three_steps", "status": "fail", "observed": None, "band": 0.02,
             "detail": f"chain check {_NO_TOP_LEVEL}"},
        ], id="empirical"),
        pytest.param("logistic", 3, [
            {"name": "pns_vs_oracle", "status": "pass", "observed": 0.005034990700631292,
             "band": 0.02, "detail": "pns formula 0.5570 vs oracle 0.5520"},
            {"name": "pn_vs_oracle", "status": "pass", "observed": 0.0026111567667651547,
             "band": 0.02, "detail": "pn formula 0.7226 vs oracle 0.7252"},
            {"name": "ps_vs_oracle", "status": "pass", "observed": 0.01056409303484207,
             "band": 0.02, "detail": "ps formula 0.7086 vs oracle 0.6980"},
            *_SILENT_DIAGNOSTICS,
            {"name": "evidence_pinned", "status": "pass", "observed": 0.0, "band": 0,
             "detail": "conditioned estimate 1 (evidence_case_b) vs pinned-latent oracle 1"},
            {"name": "chain_two_steps", "status": "pass", "observed": 0.004111433495577799,
             "band": 0.02, "detail": "chain estimate 0.1997 vs oracle 0.1956"},
            {"name": "chain_three_steps", "status": "pass", "observed": 0.015528311589917215,
             "band": 0.02, "detail": "chain estimate 0.1577 vs oracle 0.1732"},
        ], id="logistic"),
    ],
)
def test_validate_spec_records_checks_that_error(method, oracle_calls, expected, monkeypatch):
    """A treatment level with no rows makes every empirical check that asks
    for it an errored, failed record, in its usual place: one for all of
    identification, one for evidence and one per chain, whose oracle is not
    run once its estimate has failed. The logistic estimator extrapolates
    to that level, and every check passes. The records are compared whole,
    as JSON, so a 0 and a 0.0 differ."""
    calls, oracle = [], scm.oracle_joint
    monkeypatch.setattr(scm, "oracle_joint", lambda *a: calls.append(a) or oracle(*a))
    checks = validate_spec(
        _unreachable_top_level_spec(), n=2000, n_mc=5000, grid=6, n_u=5,
        config=EstimatorConfig(method=method), seed=3,
    )
    assert json.dumps(checks) == json.dumps(expected)
    assert len(calls) == oracle_calls


@pytest.mark.parametrize("name", ["additive_scalar", "lexi2", "tabular"])
@pytest.mark.parametrize("role", ["treatment", "covariate"])
def test_outcomes_reject_rows_that_match_neither_one_nor_the_latents(name, role):
    """X and C must each be one row or one row per latent; 2 rows against
    3 latents is a ConfigError naming both counts, for either mechanism."""
    spec = _spec(name)
    U = spec.noise.sample(3, np.random.default_rng(0))
    x = np.asarray(spec.policy.support[:1], dtype=float)
    c = (np.zeros((1, 0)) if spec.covariates is None
         else np.asarray(spec.covariates.support[:1], dtype=float))
    X, C = (np.repeat(x, 2, axis=0), c) if role == "treatment" else (x, np.repeat(c, 2, axis=0))
    with pytest.raises(ConfigError, match=f"^{role} rows: got 2, need 1 or 3 "):
        spec.outcomes(X, C, U)


@pytest.mark.parametrize("name", ["additive_scalar", "lexi2", "nonmono", "tabular"])
def test_outcomes_take_flat_rows_and_check_their_widths(name):
    """One treatment row and one covariate row may be flat, tuples and ()
    included, with the bytes of the 2-d one-row call. A row one column too
    wide, flat or 2-d, is a ConfigError naming its role, for a linear
    mechanism as for a tabular one."""
    spec = _spec(name)
    U = spec.noise.sample(50, np.random.default_rng(5))
    c = scm._reference_c(spec)
    for x in spec.policy.support:
        want = spec.outcomes(x[None], np.asarray(c, dtype=float).reshape(1, -1), U)
        for xa, ca in ((tuple(x), c), (x, np.asarray(c, dtype=float)), (list(x), list(c))):
            assert spec.outcomes(xa, ca, U).tobytes() == want.tobytes()
    x = tuple(spec.policy.support[0])
    for role, xa, ca, need in (("treatment", x + (0.0,), c, len(x)),
                               ("covariate", x, c + (0.0,), len(c))):
        message = f"^{role} rows have {need + 1} columns, need {need}$"
        for X, C in ((xa, ca), ([xa], [ca])):
            with pytest.raises(ConfigError, match=message):
                spec.outcomes(X, C, U)


@pytest.mark.parametrize("name", ["additive_scalar", "lexi2", "nonmono"])
def test_pinned_latent_oracle_scores_the_latent_behind_the_evidence(name):
    """A linear mechanism's evidence oracle inverts Y(x') = y' to the one
    latent that produced it, on the flipped side of nonmono too: at each
    threshold it scores the flip event as that latent does."""
    spec = _spec(name)
    c = scm._reference_c(spec)
    u = (spec.noise.mean + 0.7 * spec.noise.sd)[None]  # every linear bundled model is gaussian
    xs = [tuple(spec.policy.support[0]), tuple(spec.policy.support[-1])]
    for x_ev in map(tuple, spec.policy.support):
        y_ev = spec.outcomes(x_ev, c, u)[0]
        for t in np.linspace(-2.0, 2.0, 9):
            ts = [(t,) * spec.n_outcomes]
            want = scm._oracle_result(spec, flip_event(ts, xs), c, u, 1, exact=True)
            assert oracle_evidence(spec, ts, xs, y_ev, x_ev, c) == want


@pytest.mark.parametrize("name", ["additive_scalar", "lexi2", "nonmono", "tabular"])
def test_evidence_rows_of_the_wrong_width_are_config_errors(name):
    """The evidence treatment and the covariate row are checked against the
    spec's widths before any inversion or draw, with ScmSpec.outcomes's
    messages, for a linear mechanism as for a tabular one."""
    spec = _spec(name)
    c = tuple(scm._reference_c(spec))
    x = tuple(spec.policy.support[0])
    xs, ts = [x, tuple(spec.policy.support[-1])], [(0.5,) * spec.n_outcomes]
    y_ev = (0.3,) * spec.n_outcomes
    for role, x_ev, c_ev, need in (("treatment", x + (1.0,), c, len(x)),
                                   ("covariate", x, c + (0.0,), len(c))):
        with pytest.raises(ConfigError, match=f"^{role} rows have {need + 1} columns, need {need}$"):
            oracle_evidence(spec, ts, xs, y_ev, x_ev, c_ev, n_mc=100)
    if name == "additive_scalar":
        with pytest.raises(ConfigError, match="^treatment rows have 2 columns, need 1$"):
            oracle_evidence(spec, [(0.5,)], [(0.0,), (1.5,)], (0.3,), (0.0, 1.0))
