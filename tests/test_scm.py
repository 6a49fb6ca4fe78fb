import itertools
import json
import math
import re

import numpy as np
import pytest

from pocause import (
    CfClause,
    ConfigError,
    CounterfactualEvent,
    CovariateDist,
    EstimatorConfig,
    Lexicographic,
    NoSupportError,
    Ordering,
    ScalarScore,
    TabularMean,
    TreatmentPolicy,
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
    from pocause.scm import MonotonicityReport, _STREAM_MONOTONICITY, _outcomes_at
    from pocause.scm import _latents, _reference_c
    from pocause.ordering import indicator_below

    thresholds = [tuple(float(v) for v in t) for t in thresholds]
    U = _latents(spec, n_mc, seed, _STREAM_MONOTONICITY)
    outcomes = {}

    def at(x):
        key = np.asarray(x, dtype=float).tobytes()
        if key not in outcomes:
            outcomes[key] = _outcomes_at(spec, x, _reference_c(spec), U)
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
    ],
)
def test_malformed_spec_numbers_name_their_field(base, path, value, field):
    """A ragged or non-numeric array in a model spec is a ConfigError that
    names the field, never a bare numpy ValueError."""
    obj = json.load(open(packaged_spec_path(base), encoding="utf-8"))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ConfigError, match=f"^{re.escape(field)} must be"):
        scm_from_dict(obj)
