import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocause import (
    ConfigError,
    CovariateRow,
    EstimatorConfig,
    Evidence,
    NotIdentifiedError,
    PoCQuery,
    binary_poc,
    estimate_with_interval,
    evaluate_query,
    load_scm,
    marginal_pns,
    packaged_spec_path,
    pn_point,
    pns_evidence_point,
    pns_multi_evidence_point,
    pns_multi_point,
    pns_point,
    ps_point,
    query_as_dict,
    query_from_dict,
    scm_from_dict,
    simulate,
)
from pocause import estimands
from pocause.estimands import _build_estimator

EXACT = 1e-12

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_binary_worked_example():
    pns, pn, ps = binary_poc(0.8, 0.3)
    assert abs(pns - 0.5) < EXACT
    assert abs(pn - 0.625) < EXACT
    assert abs(ps - 0.7142857142857143) < EXACT


def test_binary_agrees_with_threshold_route():
    for p1, p0 in [(0.8, 0.3), (0.55, 0.2), (0.2, 0.55), (1.0, 0.0)]:
        rho0, rho1 = 1.0 - p0, 1.0 - p1
        pns, pn, ps = binary_poc(p1, p0)
        assert abs(pns - pns_point(rho0, rho1)) < EXACT
        if rho1 < 1.0:
            assert abs(pn - pn_point(rho0, rho1)) < EXACT
        if rho0 > 0.0:
            assert abs(ps - ps_point(rho0, rho1)) < EXACT


def test_points_clamp_harmful_shifts_to_zero():
    assert pns_point(0.2, 0.7) == 0.0
    assert pn_point(0.2, 0.7) == 0.0
    assert ps_point(0.2, 0.7) == 0.0


def test_denominator_failures_are_named():
    with pytest.raises(NotIdentifiedError, match="never"):
        pn_point(0.9, 1.0)
    with pytest.raises(NotIdentifiedError, match="always"):
        ps_point(0.0, 0.0)


def test_evidence_atom_worked_example():
    value, case = pns_evidence_point(0.5, 0.2, 0.0, 0.5)
    assert case == "evidence_case_a"
    assert abs(value - 0.6) < EXACT


def test_evidence_atom_full_overlap_is_one():
    value, case = pns_evidence_point(0.5, 0.2, 0.2, 0.5)
    assert case == "evidence_case_a"
    assert value == 1.0


def test_evidence_pinned_indicator():
    inside, case_in = pns_evidence_point(0.7, 0.2, 0.4, 0.4)
    outside, case_out = pns_evidence_point(0.7, 0.2, 0.9, 0.9)
    assert (inside, outside) == (1.0, 0.0)
    assert case_in == case_out == "evidence_case_b"
    # The flip interval is closed below and open above.
    at_lower, _ = pns_evidence_point(0.7, 0.2, 0.2, 0.2)
    at_upper, _ = pns_evidence_point(0.7, 0.2, 0.7, 0.7)
    assert (at_lower, at_upper) == (1.0, 0.0)


def test_multi_worked_example():
    assert abs(pns_multi_point([0.6, 0.65], [0.4, 0.45]) - 0.15) < EXACT


def test_multi_disjoint_steps_give_zero():
    assert pns_multi_point([0.3, 0.9], [0.1, 0.5]) == 0.0


@given(r0=probs, r1=probs)
def test_single_step_chain_reduces_to_pns(r0, r1):
    assert pns_multi_point([r0], [r1]) == pns_point(r0, r1)


@given(r0=probs, r1=probs, e=st.tuples(probs, probs))
def test_vacuous_evidence_reduces_to_pns(r0, r1, e):
    lo, hi = sorted(e)
    value, _ = pns_evidence_point(r0, r1, 0.0, 1.0)
    assert abs(value - pns_point(r0, r1)) < EXACT
    multi, _ = pns_multi_evidence_point([r0, hi], [r1 * 0.0 + lo * 0.0, 0.0], 0.0, 1.0)
    assert multi == pns_multi_point([r0, hi], [0.0, 0.0])


@given(r0=probs, r1=probs, es=probs, width=probs)
@settings(max_examples=300)
def test_single_step_evidence_matches_multi_evidence(r0, r1, es, width):
    ew = min(1.0, es + width)
    single = pns_evidence_point(r0, r1, es, ew)
    multi = pns_multi_evidence_point([r0], [r1], es, ew)
    assert single == multi


@given(r0=probs, r1=probs, px=probs)
@settings(max_examples=500)
def test_necessity_sufficiency_mixture_identity(r0, r1, px):
    """pn and ps recombine into pns when weighted by their own denominators.

    Clamping keeps this exact: either the shift helps (no clamp anywhere)
    or every term is zero.
    """
    if r1 >= 1.0 or r0 <= 0.0:
        return
    pns = pns_point(r0, r1)
    pn = pn_point(r0, r1)
    ps = ps_point(r0, r1)
    mixed = pn * (1.0 - r1) * px + ps * r0 * (1.0 - px)
    target = pns * px + pns * (1.0 - px)
    assert abs(mixed - target) < EXACT


def test_mixture_identity_over_many_random_triples():
    rng = np.random.default_rng(2024)
    r = rng.random((10_000, 3))
    worst = 0.0
    for r0, r1, px in r:
        if r1 >= 1.0 or r0 <= 0.0:
            continue
        mixed = pn_point(r0, r1) * (1.0 - r1) * px + ps_point(r0, r1) * r0 * (1.0 - px)
        worst = max(worst, abs(mixed - pns_point(r0, r1)))
    assert worst < EXACT


def test_evidence_value_always_within_unit_interval():
    rng = np.random.default_rng(7)
    for _ in range(2_000):
        r0, r1 = rng.random(2)
        es = rng.random()
        ew = es + rng.random() * (1 - es)
        value, case = pns_evidence_point(r0, r1, es, ew)
        assert 0.0 <= value <= 1.0
        assert case in ("evidence_case_a", "evidence_case_b")


class TestQueryParsing:
    def test_round_trip_single(self):
        query = PoCQuery(
            kind="pns_evidence",
            thresholds=((0.8,),),
            treatments=((0.0,), (1.5,)),
            covariates=(1.0,),
            evidence=Evidence(y=(0.5,), x=(1.0,)),
        )
        clone = query_from_dict(query_as_dict(query))
        assert clone == query

    def test_round_trip_multi(self):
        query = PoCQuery(
            kind="pns_multi",
            thresholds=((0.3,), (0.9,)),
            treatments=((0.0,), (0.5,), (1.0,)),
            covariates=CovariateRow(4),
        )
        assert query_from_dict(query_as_dict(query)) == query

    def test_unknown_field_rejected(self):
        payload = {
            "kind": "pns",
            "threshold": [0.8],
            "x0": [0.0],
            "x1": [1.0],
            "surprise": 1,
        }
        with pytest.raises(ConfigError, match="surprise"):
            query_from_dict(payload)

    def test_kind_must_be_known(self):
        with pytest.raises(ConfigError, match="kind"):
            query_from_dict({"kind": "pnx", "threshold": [0.1], "x0": [0], "x1": [1]})

    def test_chain_arm_count_must_match(self):
        with pytest.raises(ConfigError):
            PoCQuery(
                kind="pns_multi",
                thresholds=((0.3,), (0.9,)),
                treatments=((0.0,), (1.0,)),
            )

    def test_treatment_vectors_share_one_length(self):
        with pytest.raises(ConfigError, match="same length"):
            PoCQuery(kind="pns", thresholds=((0.8,),), treatments=((0.0,), (1.0, 2.0)))
        with pytest.raises(ConfigError, match="same length"):
            PoCQuery(
                kind="pns_evidence",
                thresholds=((0.8,),),
                treatments=((0.0,), (1.0,)),
                evidence=Evidence(y=(0.5,), x=(1.0, 0.0)),
            )

    def test_evidence_only_on_evidence_kinds(self):
        with pytest.raises(ConfigError):
            PoCQuery(
                kind="pns",
                thresholds=((0.8,),),
                treatments=((0.0,), (1.0,)),
                evidence=Evidence(y=(0.5,), x=(1.0,)),
            )
        with pytest.raises(ConfigError):
            PoCQuery(
                kind="pns_evidence",
                thresholds=((0.8,),),
                treatments=((0.0,), (1.0,)),
            )

    def test_marginal_rejects_fixed_covariates(self):
        with pytest.raises(ConfigError):
            PoCQuery(
                kind="marginal_pns",
                thresholds=((0.8,),),
                treatments=((0.0,), (1.0,)),
                covariates=(1.0,),
            )


def test_evaluate_query_on_hand_countable_table(small_table):
    # Cell outcomes are 1,2,3,4 in every (x, c) cell, so rho0 == rho1: a
    # null effect, zero without any clamping.
    query = PoCQuery(kind="pns", thresholds=((3.0,),), treatments=((0.0,), (1.0,)),
                     covariates=(0.0,))
    est = evaluate_query(small_table, query, EstimatorConfig(method="empirical"))
    assert est.value == 0.0
    assert not est.clamped_at_zero
    assert est.components["rho_y_x0"] == 0.5
    assert est.components["rho_y_x1"] == 0.5


@pytest.mark.parametrize("method", ["empirical", "logistic"])
def test_interval_reuses_the_point_estimate(small_table, monkeypatch, method):
    """The bootstrap's full-sample pass takes the values evaluate_query
    already computed: one estimator for the point and one per replicate."""
    built = []

    def counting_build(*args):
        built.append(args[0])
        return _build_estimator(*args)

    monkeypatch.setattr(estimands, "_build_estimator", counting_build)
    query = PoCQuery(kind="pns", thresholds=((3.0,),), treatments=((0.0,), (1.0,)),
                     covariates=(0.0,))
    config = EstimatorConfig(method=method)
    [(estimate, interval)] = estimate_with_interval(small_table, [query], config, n_boot=3, seed=4)
    assert len(built) == 4
    assert built[0] is small_table
    assert interval.point == estimate.value


def test_harmful_shift_is_flagged_as_clamped(scalar_schema, write_csv):
    from pocause import load_table

    lines = ["y;x;c"]
    for y in (3, 4, 5, 6):
        lines.append(f"{y};0;0")
    for y in (1, 2, 3, 4):
        lines.append(f"{y};1;0")
    table = load_table(write_csv("\n".join(lines) + "\n"), scalar_schema)
    query = PoCQuery(kind="pns", thresholds=((3.0,),), treatments=((0.0,), (1.0,)),
                     covariates=(0.0,))
    est = evaluate_query(table, query, EstimatorConfig(method="empirical"))
    assert est.value == 0.0
    assert est.clamped_at_zero


def test_evaluate_query_with_shifted_cells(scalar_schema, write_csv):
    from pocause import load_table

    lines = ["y;x;c"]
    for y in (1, 2, 3, 4):
        lines.append(f"{y};0;0")
    for y in (3, 4, 5, 6):
        lines.append(f"{y};1;0")
    table = load_table(write_csv("\n".join(lines) + "\n"), scalar_schema)
    query = PoCQuery(kind="pns", thresholds=((3.0,),), treatments=((0.0,), (1.0,)),
                     covariates=(0.0,))
    est = evaluate_query(table, query, EstimatorConfig(method="empirical"))
    # rho0 = P(y < 3 | x=0) = 1/2, rho1 = P(y < 3 | x=1) = 0.
    assert est.value == 0.5
    assert not est.clamped_at_zero


def test_marginal_averages_over_covariate_profiles(scalar_schema, write_csv):
    from pocause import load_table

    lines = ["y;x;c"]
    # c=0 cells: treatment moves half the mass across the threshold.
    for y in (1, 2, 3, 4):
        lines.append(f"{y};0;0")
    for y in (3, 4, 5, 6):
        lines.append(f"{y};1;0")
    # c=1 cells: treatment does nothing.
    for y in (1, 2, 3, 4):
        lines.append(f"{y};0;1")
        lines.append(f"{y};1;1")
    table = load_table(write_csv("\n".join(lines) + "\n"), scalar_schema)
    query = PoCQuery(kind="marginal_pns", thresholds=((3.0,),),
                     treatments=((0.0,), (1.0,)))
    est = marginal_pns(table, query, EstimatorConfig(method="empirical"))
    # Half the rows sit at each covariate value: 0.5 * 0.5 + 0.5 * 0.0.
    assert abs(est.value - 0.25) < EXACT
    assert est.components["n_profiles"] == 2


@pytest.mark.parametrize("method", ["empirical", "logistic"])
def test_single_threshold_kinds_equal_chains_of_length_one(method):
    spec = load_scm(packaged_spec_path("lexi2"))
    table = simulate(spec, 3000, seed=12)
    config = EstimatorConfig(method=method)
    observed = tuple(table.outcomes()[0].tolist())
    for arms in (((0.0,), (1.0,)), ((1.0,), (0.0,))):
        for evidence in (None, Evidence(y=observed, x=(0.0,)), Evidence(y=(0.1, 0.2), x=(1.0,))):
            fields = dict(thresholds=((0.3, 0.0),), treatments=arms, covariates=(1.0,),
                          evidence=evidence, order=spec.order)
            kinds = ("pns", "pns_multi") if evidence is None else ("pns_evidence", "pns_multi_evidence")
            single, chain = (evaluate_query(table, PoCQuery(kind=k, **fields), config) for k in kinds)
            assert (single.value, single.case, single.clamped_at_zero) == (
                chain.value, chain.case, chain.clamped_at_zero)
            assert list(single.components.values()) == list(chain.components.values())
            assert list(single.components)[:2] == ["rho_y_x0", "rho_y_x1"]
            assert list(chain.components)[:2] == ["rho_y1_x0", "rho_y1_x1"]
    # Both arms orders, so both clamp outcomes were compared.
    assert evaluate_query(table, PoCQuery(kind="pns", thresholds=((0.3, 0.0),),
                                          treatments=((1.0,), (0.0,)), covariates=(1.0,),
                                          order=spec.order), config).clamped_at_zero


@pytest.mark.parametrize("method", ["empirical", "logistic"])
def test_marginal_matches_a_per_profile_loop(method):
    raw = load_scm(packaged_spec_path("lexi2")).as_dict()
    # Forty profiles: enough terms that a pairwise sum, unlike a left to
    # right one, changes the logistic total in the last bit.
    raw["covariates"] = {"support": [[0.07 * i] for i in range(40)], "probs": [1.0 / 40] * 40}
    _assert_marginal_matches_a_loop(raw, method)


@pytest.mark.parametrize("method", ["empirical", "logistic"])
def test_marginal_sums_two_covariate_profiles_in_lexicographic_order(method):
    """With two covariates, the profiles are summed first column first, as
    np.unique orders them; ordering by the second column changes the
    logistic total in the last bit."""
    raw = load_scm(packaged_spec_path("lexi2")).as_dict()
    raw["mean"]["cov_coef"] = [[0.5, 0.2], [-0.3, 0.1]]
    raw["policy"]["covariate_logits"] = [[0.4, 0.1], [-0.4, 0.0]]
    raw["covariates"] = {
        "support": [[0.07 * i, float(7 * i % 5)] for i in range(40)], "probs": [1.0 / 40] * 40
    }
    _assert_marginal_matches_a_loop(raw, method)


def _assert_marginal_matches_a_loop(raw, method):
    """marginal_pns on a table simulated from raw equals, bit for bit, a
    left to right sum over np.unique's profiles, one rho_pair per arm."""
    spec = scm_from_dict(raw)
    table = simulate(spec, 6000, seed=31)
    config = EstimatorConfig(method=method)
    y, x0, x1 = (0.4, -0.2), (0.0,), (1.0,)
    query = PoCQuery(kind="marginal_pns", thresholds=(y,), treatments=(x0, x1), order=spec.order)
    est = marginal_pns(table, query, config)

    reference = _build_estimator(table, spec.order, config)
    profiles, counts = np.unique(table.covariates(), axis=0, return_counts=True)
    total, clamped = 0.0, 0
    for c, w in zip(profiles.tolist(), counts / counts.sum()):
        r0 = reference.rho_pair(y, [list(x0) + c])[0][0]
        r1 = reference.rho_pair(y, [list(x1) + c])[0][0]
        clamped += r0 - r1 < 0
        total += w * pns_point(r0, r1)
    assert len(profiles) == 40
    assert est.value == total
    assert est.components == {"n_profiles": 40.0, "clamped_profiles": float(clamped)}
    assert est.clamped_at_zero == (clamped == 40)


_PNS = {"kind": "pns", "threshold": [1.0, 2.0], "x0": [0.0], "x1": [1.0], "c": [1.0]}
_EVIDENCE = {**_PNS, "kind": "pns_evidence", "evidence": {"y": [0.5, 0.5], "x": [1.0]}}
_CHAIN = {"kind": "pns_multi", "thresholds": [[1.0], [2.0]], "treatments": [[0.0], [0.5], [1.0]]}


@pytest.mark.parametrize(
    "payload, message",
    [
        pytest.param({**_PNS, "threshold": "12"},
                     "threshold must be a list of numbers, got '12'", id="threshold"),
        pytest.param({**_PNS, "x0": "0"}, "x0 must be a list of numbers, got '0'", id="x0"),
        pytest.param({**_PNS, "x1": "1"}, "x1 must be a list of numbers, got '1'", id="x1"),
        pytest.param({**_PNS, "c": "1"}, "c must be a list of numbers, got '1'", id="c"),
        pytest.param({**_EVIDENCE, "evidence": {"y": "05", "x": [1.0]}},
                     "evidence.y must be a list of numbers, got '05'", id="evidence-y"),
        pytest.param({**_EVIDENCE, "evidence": {"y": [0.5, 0.5], "x": "1"}},
                     "evidence.x must be a list of numbers, got '1'", id="evidence-x"),
        pytest.param({**_CHAIN, "thresholds": ["1", [2.0]]},
                     "thresholds[0] must be a list of numbers, got '1'", id="thresholds-entry"),
        pytest.param({**_CHAIN, "treatments": [[0.0], "5", [1.0]]},
                     "treatments[1] must be a list of numbers, got '5'", id="treatments-entry"),
        pytest.param({**_CHAIN, "thresholds": "12"},
                     "thresholds must be a list of vectors, got '12'", id="thresholds"),
        pytest.param({**_CHAIN, "treatments": 3},
                     "treatments must be a list of vectors, got 3", id="treatments"),
        pytest.param({**_PNS, "threshold": ["0.9", "0.2"]},
                     "threshold must be a list of numbers, got ['0.9', '0.2']",
                     id="threshold-numeric-strings"),
        pytest.param({**_PNS, "x0": ["0"]}, "x0 must be a list of numbers, got ['0']",
                     id="x0-numeric-string"),
        pytest.param({**_PNS, "c": [1.0, "1"]}, "c must be a list of numbers, got [1.0, '1']",
                     id="c-numeric-string"),
        pytest.param({**_EVIDENCE, "evidence": {"y": ["0.5", 0.5], "x": [1.0]}},
                     "evidence.y must be a list of numbers, got ['0.5', 0.5]",
                     id="evidence-y-numeric-string"),
        pytest.param({**_CHAIN, "thresholds": [["1"], [2.0]]},
                     "thresholds[0] must be a list of numbers, got ['1']",
                     id="thresholds-entry-numeric-string"),
        pytest.param({**_CHAIN, "treatments": [[0.0], ["0.5"], [1.0]]},
                     "treatments[1] must be a list of numbers, got ['0.5']",
                     id="treatments-entry-numeric-string"),
    ],
)
def test_strings_are_not_number_lists(payload, message):
    """A JSON string where a list belongs is rejected, not read as a list
    of its characters; a number written as a string is rejected, not
    parsed, just as "1" is not accepted as a priority or row."""
    with pytest.raises(ConfigError) as info:
        query_from_dict(payload)
    assert str(info.value) == message


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("field", ["ridge", "atom_tol"])
def test_estimator_config_rejects_a_non_finite_or_negative_setting(field, value):
    with pytest.raises(ConfigError, match=f"^{field} must be finite and >= 0, got {value}$"):
        EstimatorConfig(**{field: value})


@pytest.mark.parametrize("atom_tol", [float("nan"), float("inf")])
def test_evidence_formulas_reject_a_non_finite_atom_tol(atom_tol):
    """A NaN tolerance would send every observation to the no-atom case."""
    message = f"^atom_tol must be finite and >= 0, got {atom_tol}$"
    with pytest.raises(ConfigError, match=message):
        pns_evidence_point(0.5, 0.2, 0.0, 0.5, atom_tol=atom_tol)
    with pytest.raises(ConfigError, match=message):
        pns_multi_evidence_point([0.5], [0.2], 0.0, 0.5, atom_tol=atom_tol)
