"""Exact answers on random finite monotone models.

Each model has a latent U with a few integer-count atoms per covariate
profile, and Y(x) = f(x, c, u) nondecreasing in u under the lexicographic
order: the paper's monotonicity assumption. A table that holds the counted
copies of f(x, c, u) for every treatment x gives the empirical estimator
the exact conditional CDFs, and repeating a profile's block of rows sets
that profile's weight. Every counterfactual probability is then a sum over
atoms, computed here in Fractions, so each identified answer must equal it
up to float rounding.
"""

import itertools
from fractions import Fraction

import numpy as np

from pocause import (
    DataTable,
    EstimatorConfig,
    NotIdentifiedError,
    PoCQuery,
    TableSchema,
    Variable,
    evaluate_query,
)

TOL = 1e-12
EMPIRICAL = EstimatorConfig(method="empirical")


def _draw_model(rng):
    """(treatment levels, outcome width, covariate width, profiles): each
    profile is (c, atom counts, block repeats, f) with f[x] the outcome of
    each atom under x, ascending in the atom."""
    levels = sorted(rng.choice(4, size=rng.integers(2, 4), replace=False).tolist())
    d, k = int(rng.integers(1, 3)), int(rng.integers(0, 3))
    values = [sorted(rng.choice(3, size=rng.integers(1, 3), replace=False).tolist())
              for _ in range(k)]
    profiles = []
    for c in itertools.product(*values):
        counts = rng.integers(1, 4, size=rng.integers(1, 5)).tolist()
        f = {x: sorted(tuple(rng.integers(0, 4, size=d).tolist()) for _ in counts)
             for x in levels}
        profiles.append((c, counts, int(rng.integers(1, 4)), f))
    return levels, d, k, profiles


def _shuffled(model, rng):
    """The model with each f[x] permuted over the atoms: the same table
    law, but no longer monotone."""
    levels, d, k, profiles = model
    return levels, d, k, [
        (c, counts, reps, {x: [ys[i] for i in rng.permutation(len(ys))] for x, ys in f.items()})
        for c, counts, reps, f in profiles
    ]


def _table(model) -> DataTable:
    levels, d, k, profiles = model
    rows = [
        (*y, x, *c)
        for c, counts, reps, f in profiles
        for _ in range(reps)
        for x in levels
        for y, copies in zip(f[x], counts)
        for _ in range(copies)
    ]
    names = [f"y{j}" for j in range(d)] + ["x"] + [f"c{j}" for j in range(k)]
    variables = [Variable(n, "outcome", position=j) for j, n in enumerate(names[:d])]
    variables.append(Variable("x", "treatment"))
    variables += [Variable(n, "covariate") for n in names[d + 1:]]
    cols = np.array(rows, dtype=float)
    return DataTable(schema=TableSchema(variables=tuple(variables)),
                     columns={n: cols[:, j].copy() for j, n in enumerate(names)})


def _truths(counts, f, y, x0, x1) -> dict:
    """pns, pn and ps by enumeration over the atoms; None where the
    conditioning event has probability 0."""
    n = sum(counts)
    below0 = [f[x0][u] < y for u in range(len(counts))]
    at1 = [not f[x1][u] < y for u in range(len(counts))]
    joint = Fraction(sum(c for c, b, a in zip(counts, below0, at1) if b and a), n)
    p_at1 = Fraction(sum(c for c, a in zip(counts, at1) if a), n)
    p_below0 = Fraction(sum(c for c, b in zip(counts, below0) if b), n)
    return {"pns": joint, "pn": joint / p_at1 if p_at1 else None,
            "ps": joint / p_below0 if p_below0 else None}


def _compare(model, rng) -> tuple[int, int, int]:
    """Answer pns, pn and ps at every profile, and marginal_pns, for a few
    thresholds and every ordered pair of treatment levels. Returns the
    counts of answers, of NotIdentifiedErrors and of answers off the truth
    by more than TOL; a NotIdentifiedError must come exactly where the
    truth's denominator is 0."""
    levels, d, k, profiles = model
    table = _table(model)
    weights = [Fraction(reps * len(levels) * sum(counts), table.n_rows)
               for _, counts, reps, _ in profiles]
    answered = not_identified = off = 0
    for _ in range(3):
        y = tuple(rng.integers(0, 5, size=d).tolist())
        for x0, x1 in itertools.permutations(levels, 2):
            arms = dict(thresholds=(tuple(map(float, y)),), treatments=((x0,), (x1,)))
            marginal = Fraction(0)
            for w, (c, counts, _, f) in zip(weights, profiles):
                truths = _truths(counts, f, y, x0, x1)
                marginal += w * truths["pns"]
                for kind, truth in truths.items():
                    query = PoCQuery(kind=kind, covariates=tuple(map(float, c)) or None, **arms)
                    try:
                        value = evaluate_query(table, query, EMPIRICAL).value
                    except NotIdentifiedError:
                        assert truth is None, (model, query)
                        not_identified += 1
                        continue
                    assert truth is not None, (model, query)
                    answered += 1
                    off += abs(value - float(truth)) > TOL
            value = evaluate_query(table, PoCQuery(kind="marginal_pns", **arms), EMPIRICAL).value
            answered += 1
            off += abs(value - float(marginal)) > TOL
    return answered, not_identified, off


def test_answers_on_random_finite_monotone_models_are_exact():
    rng = np.random.default_rng(20240531)
    totals = np.zeros(3, dtype=int)
    for _ in range(300):
        totals += _compare(_draw_model(rng), rng)
    answered, not_identified, off = totals
    assert off == 0
    assert answered > 10_000 and not_identified > 1_000


def test_the_exact_check_fails_once_the_models_are_not_monotone():
    rng = np.random.default_rng(20240531)
    shuffle = np.random.default_rng(7)
    off = sum(_compare(_shuffled(_draw_model(rng), shuffle), rng)[2] for _ in range(60))
    assert off > 100
