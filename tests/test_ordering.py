import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocause import (
    ConfigError,
    Lexicographic,
    Ordering,
    ScalarScore,
    compare,
    indicator_below,
    lexicographic_default,
    order_from_dict,
)

DIM = 3

vectors = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=DIM, max_size=DIM
)
orders = st.one_of(
    st.permutations(list(range(DIM))).flatmap(
        lambda p: st.tuples(
            *[st.sampled_from(["asc", "desc"]) for _ in range(DIM)]
        ).map(lambda d: Lexicographic(tuple(p), d))
    ),
    st.lists(
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        min_size=DIM,
        max_size=DIM,
    ).map(lambda w: ScalarScore(tuple(w))),
)


def test_lexicographic_priority_and_direction():
    order = Lexicographic((1, 0), ("asc", "desc"))
    # Second coordinate decides first; ascending there.
    assert compare((9.0, 1.0), (0.0, 2.0), order) is Ordering.LESS
    # Tie on the deciding coordinate falls through; descending on the first.
    assert compare((5.0, 7.0), (3.0, 7.0), order) is Ordering.LESS
    assert compare((3.0, 7.0), (3.0, 7.0), order) is Ordering.EQUAL


def test_scalar_score_ties_are_equal():
    order = ScalarScore((1.0, -1.0))
    assert compare((2.0, 2.0), (5.0, 5.0), order) is Ordering.EQUAL
    assert compare((2.0, 0.0), (0.0, 0.0), order) is Ordering.GREATER


def test_default_order_is_entrywise_priority():
    order = lexicographic_default(2)
    assert order.priority == (0, 1)
    assert order.direction == ("asc", "asc")


@given(a=vectors, b=vectors, order=orders)
def test_compare_is_antisymmetric(a, b, order):
    assert compare(a, b, order).value == -compare(b, a, order).value


@given(a=vectors, b=vectors, c=vectors, order=orders)
@settings(max_examples=200)
def test_compare_is_transitive(a, b, c, order):
    triple = sorted([tuple(a), tuple(b), tuple(c)],
                    key=lambda v: _rank(v, order))
    lo, mid, hi = triple
    if compare(lo, mid, order) is Ordering.LESS and compare(mid, hi, order) is Ordering.LESS:
        assert compare(lo, hi, order) is Ordering.LESS


def _rank(v, order):
    if isinstance(order, ScalarScore):
        return (order.score(v),)
    key = []
    for pos, coord in enumerate(order.priority):
        sign = 1.0 if order.direction[pos] == "asc" else -1.0
        key.append(sign * v[coord])
    return tuple(key)


@given(a=vectors, b=vectors, order=orders)
def test_strict_implies_weak(a, b, order):
    if compare(a, b, order) is Ordering.LESS:
        assert compare(a, b, order) is not Ordering.GREATER
    assert compare(a, a, order) is not Ordering.GREATER
    assert compare(a, a, order) is not Ordering.LESS


@given(rows=st.lists(vectors, min_size=1, max_size=12), t=vectors, order=orders)
@settings(max_examples=150)
def test_indicator_below_matches_scalar_compare(rows, t, order):
    arr = np.asarray(rows, dtype=float)
    strict, weak = indicator_below(arr, t, order)
    for i, row in enumerate(rows):
        assert bool(strict[i]) == (compare(row, t, order) is Ordering.LESS)
        assert bool(weak[i]) == (compare(row, t, order) is not Ordering.GREATER)
    assert np.all(weak >= strict)


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "lexicographic", "priority": [0, 0], "direction": ["asc", "asc"]},
        {"kind": "lexicographic", "priority": [0, 1], "direction": ["asc"]},
        {"kind": "lexicographic", "priority": [0, 1], "direction": ["asc", "up"]},
        {"kind": "scalar_score", "weights": []},
        {"kind": "mystery"},
    ],
)
def test_order_from_dict_rejects_malformed(payload):
    with pytest.raises(ConfigError):
        order_from_dict(payload)


@given(order=orders)
def test_order_serialization_round_trip(order):
    clone = order_from_dict(order.as_dict())
    assert clone == order
