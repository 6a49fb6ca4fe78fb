"""Total orders on vector outcomes.

An outcome here is a fixed-length real vector. Causal thresholds like
"the grade vector reached (6, 6, 6)" need a total order on those vectors,
and every estimand in this package is defined relative to one. Two order
families are provided:

* Lexicographic: compare components in a stated priority sequence, each
  ascending or descending, first difference wins. This is a genuine total
  order on R^d.
* ScalarScore: map the vector to a real score (a weighted sum) and compare
  scores. Distinct vectors with equal scores compare as Equal, so this is
  a total preorder, not antisymmetric, unless the weights make the score
  injective on your data. Fine for estimation (only the induced CDFs
  matter), but don't expect sort stability arguments to hold.

Comparisons use exact float equality throughout; there is no tolerance.
Callers who want fuzzy thresholds should quantize before comparing.

Each order states its sort keys once, in keys(), most significant first.
compare, indicator_below and every row sort in the package use only those
keys, so they cannot disagree about the order.

keys, compare, ScalarScore.score and indicator_below all take batches:
arrays of shape (..., d) hold one d-vector per position of their leading
axes. A batch gives each of its vectors exactly the answer that vector gets
on its own, so a vectorized caller and a loop over the same vectors agree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, as_index


class Ordering(enum.IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


_DIRECTIONS = ("asc", "desc")


def _as_batch(v, name: str) -> np.ndarray:
    """v as a float array of d-vectors along its last axis, every one finite."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        raise ConfigError(f"{name} must be a vector or a batch of vectors, got shape ()")
    if not np.isfinite(arr).all():
        bad = ~np.isfinite(arr).all(axis=-1)
        raise ConfigError(f"{name} must be finite, got {arr[bad][0].tolist()}")
    return arr


@dataclass(frozen=True)
class Lexicographic:
    """Lexicographic order over vector components.

    priority lists component indices in comparison order (a permutation of
    0..d-1). direction[i] applies to the component at priority[i]: "asc"
    means smaller values precede, "desc" means larger values precede.
    """

    priority: tuple[int, ...]
    direction: tuple[str, ...]

    def __post_init__(self):
        prio = tuple(as_index(p, "each priority entry") for p in self.priority)
        direc = tuple(str(d) for d in self.direction)
        if not prio:
            raise ConfigError("lexicographic order needs at least one component")
        if sorted(prio) != list(range(len(prio))):
            raise ConfigError(
                f"priority must be a permutation of 0..{len(prio) - 1}, got {list(prio)}"
            )
        if len(direc) != len(prio):
            raise ConfigError(
                f"direction has {len(direc)} entries for {len(prio)} components"
            )
        for d in direc:
            if d not in _DIRECTIONS:
                raise ConfigError(f"direction entries must be 'asc' or 'desc', got {d!r}")
        object.__setattr__(self, "priority", prio)
        object.__setattr__(self, "direction", direc)

    @property
    def dimension(self) -> int:
        return len(self.priority)

    def keys(self, v) -> list[np.ndarray]:
        """Sort keys of a (..., d) batch, most significant first: each
        component in priority order, negated where it is descending."""
        arr = _as_batch(v, "outcome")
        if arr.shape[-1] != self.dimension:
            raise ConfigError(
                f"vectors have {arr.shape[-1]} components, order expects {self.dimension}"
            )
        return [arr[..., pos] if direc == "asc" else -arr[..., pos]
                for pos, direc in zip(self.priority, self.direction)]

    def as_dict(self) -> dict:
        return {
            "kind": "lexicographic",
            "priority": list(self.priority),
            "direction": list(self.direction),
        }


@dataclass(frozen=True)
class ScalarScore:
    """Order by the weighted sum of components (larger score = later).

    Equal scores compare Equal even for distinct vectors; see the module
    docstring for the preorder caveat.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        try:
            w = tuple(float(x) for x in self.weights)
        except (TypeError, ValueError):
            raise ConfigError(f"weights must be a list of numbers, got {self.weights!r}") from None
        if len(w) == 0:
            raise ConfigError("ScalarScore needs at least one weight")
        if not all(np.isfinite(w)):
            raise ConfigError(f"weights must be finite, got {list(w)}")
        object.__setattr__(self, "weights", w)

    @property
    def dimension(self) -> int:
        return len(self.weights)

    def keys(self, v) -> list:
        """Sort keys of a (..., d) batch: its one score per vector."""
        return [self.score(v)]

    def score(self, y):
        """The weighted sum of an outcome's components: a float for one
        d-vector, an array over the leading axes for a (..., d) batch."""
        arr = _as_batch(y, "outcome")
        if arr.shape[-1] != len(self.weights):
            raise ConfigError(
                f"outcome has {arr.shape[-1]} components, order expects {len(self.weights)}"
            )
        # Elementwise multiply, then sum along contiguous rows; never a BLAS
        # dot, and never a column-major product, whose sum runs in another
        # order. Either would change the last bits and break ties.
        scores = (np.ascontiguousarray(arr) * np.asarray(self.weights)).sum(axis=-1)
        return float(scores) if arr.ndim == 1 else scores

    def as_dict(self) -> dict:
        return {"kind": "scalar_score", "weights": list(self.weights)}


OrderSpec = Union[Lexicographic, ScalarScore]


def lexicographic_default(dimension: int) -> Lexicographic:
    """Component 0 first, all ascending. The package-wide default order."""
    if dimension < 1:
        raise ConfigError(f"dimension must be >= 1, got {dimension}")
    return Lexicographic(
        priority=tuple(range(dimension)), direction=("asc",) * dimension
    )


_ENTRIES = {"priority": "integers", "direction": "'asc'/'desc' entries", "weights": "numbers"}


def order_from_dict(obj: dict) -> OrderSpec:
    """Parse the JSON form of an order spec.

    {"kind": "lexicographic", "priority": [...], "direction": [...]}
    {"kind": "scalar_score", "weights": [...]}
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"order spec must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in ("lexicographic", "scalar_score"):
        raise ConfigError(f"unknown order kind {kind!r}")
    fields = ("priority", "direction") if kind == "lexicographic" else ("weights",)
    extra = set(obj) - {"kind", *fields}
    if extra:
        raise ConfigError(f"unknown order fields: {sorted(extra)}")
    for key in fields:
        # tuple() would read a string as a list of its characters.
        if key in obj and not isinstance(obj[key], (list, tuple)):
            raise ConfigError(f"{key} must be a list of {_ENTRIES[key]}, got {obj[key]!r}")
    if kind == "lexicographic":
        if "priority" not in obj:
            raise ConfigError("lexicographic order needs a 'priority' list")
        priority = tuple(obj["priority"])
        direction = tuple(obj.get("direction", ("asc",) * len(priority)))
        return Lexicographic(priority=priority, direction=direction)
    if "weights" not in obj:
        raise ConfigError("scalar_score order needs a 'weights' list")
    return ScalarScore(weights=tuple(obj["weights"]))


def _precedes(a, b, order: OrderSpec) -> tuple[np.ndarray, np.ndarray]:
    """Where a's vector precedes b's, and where the order ties them, over
    the broadcast leading axes: the first key that differs decides."""
    keys_a, keys_b = order.keys(a), order.keys(b)
    less, tied = np.less(keys_a[0], keys_b[0]), np.equal(keys_a[0], keys_b[0])
    for ka, kb in zip(keys_a[1:], keys_b[1:]):
        less |= tied & (ka < kb)
        tied &= ka == kb
    return less, tied


def compare(a, b, order: OrderSpec) -> Ordering | np.ndarray:
    """Three-way comparison of outcome vectors under the given order.

    a and b are d-vectors or (..., d) batches whose leading axes broadcast
    against each other. Two d-vectors give one Ordering. Otherwise the
    result is an int8 array over the broadcast leading axes, holding -1
    where a's vector precedes b's, 0 where the order ties them and 1 where
    it follows: at every position, the value of the Ordering that the two
    vectors there give on their own.
    """
    va = _as_batch(a, "left outcome")
    vb = _as_batch(b, "right outcome")
    if va.shape[-1] != vb.shape[-1]:
        raise ConfigError(
            f"cannot compare vectors of length {va.shape[-1]} and {vb.shape[-1]}"
        )
    try:
        np.broadcast_shapes(va.shape[:-1], vb.shape[:-1])
    except ValueError:
        raise ConfigError(
            f"cannot compare batches of shape {va.shape[:-1]} and {vb.shape[:-1]}"
        ) from None
    less, tied = _precedes(va, vb, order)
    sign = np.subtract(~(less | tied), less, dtype=np.int8)
    if va.ndim == 1 and vb.ndim == 1:
        return Ordering(int(sign))
    return sign


def indicator_below(rows, threshold, order: OrderSpec) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized threshold indicators for a batch of outcomes.

    rows is (n, d); threshold is a d-vector. Returns two boolean arrays of
    length n: strict[i] says row i strictly precedes the threshold, weak[i]
    says it precedes-or-equals. strict implies weak, always.
    """
    mat = np.asarray(rows, dtype=float)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    if mat.ndim != 2:
        raise ConfigError(f"rows must be 2-d, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ConfigError("outcome rows must be finite")
    thr = np.asarray(threshold, dtype=float)
    if thr.ndim != 1:
        raise ConfigError(f"threshold must be a 1-d vector, got shape {thr.shape}")
    thr = _as_batch(thr, "threshold")
    if mat.shape[1] != thr.size:
        raise ConfigError(
            f"rows have {mat.shape[1]} components, threshold has {thr.size}"
        )
    strict, tied = _precedes(mat, thr, order)
    return strict, strict | tied
