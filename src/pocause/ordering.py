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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError


class Ordering(enum.IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


_DIRECTIONS = ("asc", "desc")


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1:
        raise ConfigError(f"{name} must be a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{name} must be finite, got {arr.tolist()}")
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
        prio = tuple(int(p) for p in self.priority)
        direc = tuple(str(d) for d in self.direction)
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
        w = tuple(float(x) for x in self.weights)
        if len(w) == 0:
            raise ConfigError("ScalarScore needs at least one weight")
        if not all(np.isfinite(w)):
            raise ConfigError(f"weights must be finite, got {list(w)}")
        object.__setattr__(self, "weights", w)

    @property
    def dimension(self) -> int:
        return len(self.weights)

    def score(self, y) -> float:
        arr = _as_vector(y, "outcome")
        if arr.size != len(self.weights):
            raise ConfigError(
                f"outcome has {arr.size} components, order expects {len(self.weights)}"
            )
        # Elementwise multiply then sum, never a BLAS dot: the batch path in
        # indicator_below must produce bit-identical scores or ties break.
        return float((arr * np.asarray(self.weights)).sum())

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


def order_from_dict(obj: dict) -> OrderSpec:
    """Parse the JSON form of an order spec.

    {"kind": "lexicographic", "priority": [...], "direction": [...]}
    {"kind": "scalar_score", "weights": [...]}
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"order spec must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "lexicographic":
        if "priority" not in obj:
            raise ConfigError("lexicographic order needs a 'priority' list")
        priority = tuple(obj["priority"])
        direction = tuple(obj.get("direction", ("asc",) * len(priority)))
        return Lexicographic(priority=priority, direction=direction)
    if kind == "scalar_score":
        if "weights" not in obj:
            raise ConfigError("scalar_score order needs a 'weights' list")
        return ScalarScore(weights=tuple(obj["weights"]))
    raise ConfigError(f"unknown order kind {kind!r}")


def compare(a, b, order: OrderSpec) -> Ordering:
    """Three-way comparison of two outcome vectors under the given order."""
    va = _as_vector(a, "left outcome")
    vb = _as_vector(b, "right outcome")
    if va.size != vb.size:
        raise ConfigError(f"cannot compare vectors of length {va.size} and {vb.size}")
    if isinstance(order, ScalarScore):
        sa, sb = order.score(va), order.score(vb)
        if sa < sb:
            return Ordering.LESS
        if sa > sb:
            return Ordering.GREATER
        return Ordering.EQUAL
    if va.size != order.dimension:
        raise ConfigError(
            f"vectors have {va.size} components, order expects {order.dimension}"
        )
    for pos, direc in zip(order.priority, order.direction):
        x, y = va[pos], vb[pos]
        if x == y:
            continue
        ahead = x < y if direc == "asc" else x > y
        return Ordering.LESS if ahead else Ordering.GREATER
    return Ordering.EQUAL


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
    thr = _as_vector(threshold, "threshold")
    if mat.shape[1] != thr.size:
        raise ConfigError(
            f"rows have {mat.shape[1]} components, threshold has {thr.size}"
        )

    if isinstance(order, ScalarScore):
        if thr.size != order.dimension:
            raise ConfigError(
                f"threshold has {thr.size} components, order expects {order.dimension}"
            )
        w = np.asarray(order.weights)
        scores = (mat * w).sum(axis=1)
        t = float((thr * w).sum())
        return scores < t, scores <= t

    if thr.size != order.dimension:
        raise ConfigError(
            f"threshold has {thr.size} components, order expects {order.dimension}"
        )
    n = mat.shape[0]
    strict = np.zeros(n, dtype=bool)
    tied = np.ones(n, dtype=bool)
    for pos, direc in zip(order.priority, order.direction):
        col = mat[:, pos]
        t = thr[pos]
        ahead = col < t if direc == "asc" else col > t
        strict |= tied & ahead
        tied &= col == t
    return strict, strict | tied
