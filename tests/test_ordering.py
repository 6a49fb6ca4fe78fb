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
        {"kind": "lexicographic", "priority": [0, 1], "directions": ["desc", "asc"]},
        {"kind": "scalar_score", "weights": [1.0], "priority": [0]},
        {"kind": "lexicographic", "priority": []},
        {"kind": "lexicographic", "priority": [1.9, 0.2]},
        {"kind": "lexicographic", "priority": [True, False]},
        {"kind": "lexicographic", "priority": ["1", "0"]},
        {"kind": "lexicographic", "priority": ["a", 0]},
        {"kind": "lexicographic", "priority": [1.0, 0.0]},
    ],
)
def test_order_from_dict_rejects_malformed(payload):
    with pytest.raises(ConfigError):
        order_from_dict(payload)


@given(order=orders)
def test_order_serialization_round_trip(order):
    clone = order_from_dict(order.as_dict())
    assert clone == order


# Values from a small pool so that ties, within a component and across
# whole vectors, are common.
_TIE_VALUES = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 1e-300, 7.25e12])


@st.composite
def batch_cases(draw):
    """Two broadcast-compatible (..., d) batches and an order over d."""
    d = draw(st.integers(1, 12))
    if draw(st.booleans()):
        prio = draw(st.permutations(list(range(d))))
        direc = draw(st.lists(st.sampled_from(["asc", "desc"]), min_size=d, max_size=d))
        order = Lexicographic(tuple(prio), tuple(direc))
    else:
        w = draw(st.lists(
            st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=d, max_size=d
        ))
        order = ScalarScore(tuple(w))
    lead = draw(st.lists(st.integers(1, 6), min_size=0, max_size=3))
    # Each side keeps or collapses each leading axis (size 1 broadcasts), and
    # may drop leading axes altogether; a side with none is a plain vector.
    shapes = []
    for _ in range(2):
        kept = [n if draw(st.booleans()) else 1 for n in lead]
        shapes.append(tuple(kept[draw(st.integers(0, len(kept))):]) + (d,))
    # Every vector is one base vector with up to two components replaced,
    # so whole vectors tie often and the first difference falls anywhere.
    values = st.one_of(_TIE_VALUES, st.floats(min_value=-1e6, max_value=1e6))
    base = draw(st.lists(values, min_size=d, max_size=d))
    edit = st.lists(st.tuples(st.integers(0, d - 1), values), max_size=2)

    def fill(shape):
        n = int(np.prod(shape[:-1]))
        rows = []
        for edits in draw(st.lists(edit, min_size=n, max_size=n)):
            row = list(base)
            for k, v in edits:
                row[k] = v
            rows.append(row)
        return np.asarray(rows, dtype=float).reshape(shape)

    a, b = fill(shapes[0]), fill(shapes[1])
    if a.ndim >= 2 and draw(st.booleans()):
        # A column-major batch must score exactly as its rows do one by one.
        a = np.asfortranarray(a)
    return a, b, order


@given(case=batch_cases())
@settings(max_examples=300, deadline=None)
def test_batched_compare_matches_scalar_compare(case):
    a, b, order = case
    got = compare(a, b, order)
    if a.ndim == 1 and b.ndim == 1:
        assert isinstance(got, Ordering)
        return
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    assert isinstance(got, np.ndarray) and got.dtype == np.int8 and got.shape == shape
    wa = np.broadcast_to(a, shape + a.shape[-1:])
    wb = np.broadcast_to(b, shape + b.shape[-1:])
    for idx in np.ndindex(*shape):
        assert got[idx] == compare(wa[idx].copy(), wb[idx].copy(), order).value


@pytest.mark.parametrize("d", [3, 8, 12])
def test_scalar_scores_ignore_the_memory_layout(d):
    """A batch scores every vector bit for bit as it scores alone, however
    the batch is laid out, so equal vectors stay tied."""
    rng = np.random.default_rng(d)
    order = ScalarScore(tuple(rng.normal(size=d)))
    rows = rng.normal(size=(60, d)) * 10.0 ** rng.integers(-4, 5, size=(60, d))
    alone = [order.score(row.copy()) for row in rows]
    for batch in (rows, np.asfortranarray(rows), np.asfortranarray(rows.reshape(6, 10, d))):
        np.testing.assert_array_equal(order.score(batch).reshape(-1), alone)
        assert not compare(batch, batch.copy(order="C"), order).any()


def test_batched_compare_sees_ties_and_directions():
    order = Lexicographic((1, 0), ("asc", "desc"))
    a = np.array([(9.0, 1.0), (5.0, 7.0), (3.0, 7.0), (-0.0, 2.0)])
    b = np.array([(0.0, 2.0), (3.0, 7.0), (3.0, 7.0), (0.0, 2.0)])
    np.testing.assert_array_equal(compare(a, b, order), [-1, -1, 0, 0])
    np.testing.assert_array_equal(compare(b, a, order), [1, 1, 0, 0])
    # A vector against a batch broadcasts like any other leading axis.
    np.testing.assert_array_equal(compare(a[2], b, order), [1, 0, 0, 1])
    score = ScalarScore((1.0, -1.0))
    np.testing.assert_array_equal(
        compare([[2.0, 2.0], [2.0, 0.0]], [[5.0, 5.0], [0.0, 0.0]], score), [0, 1]
    )


@pytest.mark.parametrize(
    "a, b, order, message",
    [
        pytest.param(
            [1.0, float("nan")], [0.0, 0.0], lexicographic_default(2),
            "left outcome must be finite, got [1.0, nan]", id="nan-vector",
        ),
        pytest.param(
            [0.0, 0.0], [[0.0, 1.0], [float("inf"), 2.0]], ScalarScore((1.0, 1.0)),
            "right outcome must be finite, got [inf, 2.0]", id="inf-in-batch",
        ),
        pytest.param(
            [0.0, 1.0], [[0.0, 1.0, 2.0]], lexicographic_default(2),
            "cannot compare vectors of length 2 and 3", id="length",
        ),
        pytest.param(
            [[0.0], [1.0]], [[0.0], [1.0], [2.0]], lexicographic_default(1),
            "cannot compare batches of shape (2,) and (3,)", id="batch-shape",
        ),
        pytest.param(
            [0.0, 1.0, 2.0], [0.0, 1.0, 2.0], lexicographic_default(2),
            "vectors have 3 components, order expects 2", id="lexicographic-dimension",
        ),
        pytest.param(
            [[0.0, 1.0]], [0.0, 1.0], ScalarScore((1.0, 2.0, 3.0)),
            "outcome has 2 components, order expects 3", id="score-dimension",
        ),
        pytest.param(
            3.0, 3.0, lexicographic_default(1),
            "left outcome must be a vector or a batch of vectors, got shape ()",
            id="scalar",
        ),
    ],
)
def test_compare_rejects_bad_input(a, b, order, message):
    import re

    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        compare(a, b, order)
