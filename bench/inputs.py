"""Seeded input files for the benchmark workloads.

Every file the program reads is written here from the workload seed, so the
same seed always gives byte-identical inputs. Generation happens before any
timing starts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GRADE_COLUMNS = "sex;studytime;failures;schoolsup;famsup;paid;goout;G1;G2;G3"

# Rows that guarantee every treatment arm used by the student variants occurs
# (the same four rows the package's own student tests pin).
GRADE_FIXED_ROWS = (
    "F;2;0;no;yes;no;3;10;10;10",
    "M;4;0;no;no;yes;2;14;15;15",
    "F;1;1;no;yes;no;4;7;6;6",
    "M;2;0;no;yes;yes;3;11;10;12",
)

# The bundled lexi2 model, with its binary covariate replaced by many
# distinct support values in [0, 1].
LEXI2_MEAN = {
    "kind": "linear",
    "treat_coef": [[1.0], [0.6]],
    "cov_coef": [[0.5], [-0.3]],
    "intercept": [0.0, 0.0],
}
LEXI2_NOISE = {"kind": "gaussian_diag", "mean": [0.0, 0.0], "sd": [1.0, 0.8]}
LEXI2_POLICY = {
    "support": [[0.0], [1.0]],
    "logits": [0.0, 0.0],
    "covariate_logits": [[0.4], [-0.4]],
}
LEXI2_ORDER = {"kind": "lexicographic", "priority": [0, 1], "direction": ["asc", "asc"]}
LEXI2_THRESHOLD = [0.9, 0.2]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def write_grade_file(path: Path, seed: int, n_rows: int = 649) -> None:
    """A synthetic grade file with the columns of the UCI Portuguese file."""
    rng = _rng(seed, 1)
    rows = []
    for i in range(n_rows):
        studytime = int(rng.integers(1, 5))
        paid = "yes" if rng.random() < 0.4 else "no"
        base = 3 + 2 * studytime + (2 if paid == "yes" else 0)
        g = np.clip(base + rng.integers(-5, 6, size=3), 0, 19)
        rows.append(
            f"{'F' if i % 2 else 'M'};{studytime};{int(rng.integers(0, 3))};"
            f"{'yes' if rng.random() < 0.2 else 'no'};"
            f"{'yes' if rng.random() < 0.6 else 'no'};{paid};"
            f"{int(rng.integers(1, 6))};{g[0]};{g[1]};{g[2]}"
        )
    rows[: len(GRADE_FIXED_ROWS)] = GRADE_FIXED_ROWS
    path.write_text(GRADE_COLUMNS + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def profile_spec(seed: int, n_profiles: int) -> dict:
    """lexi2 with one covariate taking n_profiles distinct values, uniformly."""
    rng = _rng(seed, 2)
    grid = 1_000_000
    values = np.sort(rng.choice(grid, size=n_profiles, replace=False)) / grid
    return {
        "mean": LEXI2_MEAN,
        "noise": LEXI2_NOISE,
        "coupling": {"kind": "additive"},
        "policy": LEXI2_POLICY,
        "covariates": {
            "support": [[float(v)] for v in values],
            "probs": [1.0 / n_profiles] * n_profiles,
        },
        "order": LEXI2_ORDER,
    }


def write_profile_inputs(work: Path, seed: int, n_profiles: int) -> dict:
    """Spec and query files for the roundtrip-profiles workload.

    Returns the covariate profile the point query asks about, which the
    correctness check needs for its oracle.
    """
    spec = profile_spec(seed, n_profiles)
    support = spec["covariates"]["support"]
    c = support[int(_rng(seed, 3).integers(0, len(support)))]
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    marginal = {"kind": "marginal_pns", "threshold": LEXI2_THRESHOLD, "x0": [0.0], "x1": [1.0]}
    point = {"kind": "pns", "threshold": LEXI2_THRESHOLD, "x0": [0.0], "x1": [1.0], "c": c}
    (work / "marginal.json").write_text(json.dumps(marginal), encoding="utf-8")
    (work / "pns.json").write_text(json.dumps(point), encoding="utf-8")
    return {"c": c}
