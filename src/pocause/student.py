"""Secondary-school grade application: does studying more cause passing?

A worked reproduction on the UCI student performance data (the Portuguese
course file, 649 rows; the math file also loads). Outcomes are the three
period grades ordered lexicographically by final grade first, treatment is
(study time, paid extra classes), and conditioning is on the covariate
profile of the file's first student: their sex, past failures, school and
family support, and going-out level.

Four studies, each a different causal question about moving a student from
low effort to high effort with respect to reaching grade 6 everywhere:

* study1: necessity and sufficiency of the effort change (pns, pn, ps).
* study2: the same, for a student actually observed just under the bar
  at the low effort level.
* study3: a three-step effort chain required to clear grade 5 and then
  grade 6 in sequence.
* study4: that chain, conditioned on the same observed near-miss.

The published point estimates reproduced here (as probabilities):

    variant "joint"      study1 pns 0.08862, pn 0.09212, ps 0.72331
                         study2 0.00024, study3 0.0, study4 0.96711
    variant "studytime"  study1 pns 0.02491, pn 0.02709, ps 0.25864
                         study2 0.0, study3 0.0, study4 0.42489
    variant "paid"       study1 pns 0.07700, pn 0.08132, ps 0.65398
                         study2 0.00009

"joint" moves both treatment components, "studytime" moves study time
only, "paid" moves paid classes up from the lowest study time (published
for the first two studies only). Tolerance bands gate the "joint" variant
on the 649-row file; other variants report deltas without a verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .bootstrap import BootstrapResult
from .dataset import DataTable, TableSchema, load_table, schema_from_dict
from .errors import ConfigError
from .estimands import CovariateRow, EstimatorConfig, Evidence, PoCQuery, estimate_with_interval
from .ordering import Lexicographic

VARIANTS = ("joint", "studytime", "paid")

GRADE_ORDER = Lexicographic(priority=(0, 1, 2), direction=("asc", "asc", "asc"))

_Y_GOOD = (6.0, 6.0, 6.0)
_Y_MID = (5.0, 5.0, 5.0)
_Y_NEAR_MISS = (6.0, 6.0, 5.0)

# Treatment vectors are (studytime, paid) with paid coded no=1, yes=2 by
# the loader's alphabetical level coding.
_VARIANT_ARMS = {
    "joint": {"x0": (2.0, 1.0), "x1": (4.0, 2.0)},
    "studytime": {"x0": (2.0, 1.0), "x1": (4.0, 1.0)},
    "paid": {"x0": (1.0, 1.0), "x1": (2.0, 2.0)},
}
_EVIDENCE_X = (2.0, 1.0)

TARGETS = {
    "joint": {
        ("study1", "pns"): 0.08862,
        ("study1", "pn"): 0.09212,
        ("study1", "ps"): 0.72331,
        ("study2", "pns_evidence"): 0.00024,
        ("study3", "pns_multi"): 0.0,
        ("study4", "pns_multi_evidence"): 0.96711,
    },
    "studytime": {
        ("study1", "pns"): 0.02491,
        ("study1", "pn"): 0.02709,
        ("study1", "ps"): 0.25864,
        ("study2", "pns_evidence"): 0.0,
        ("study3", "pns_multi"): 0.0,
        ("study4", "pns_multi_evidence"): 0.42489,
    },
    "paid": {
        ("study1", "pns"): 0.07700,
        ("study1", "pn"): 0.08132,
        ("study1", "ps"): 0.65398,
        ("study2", "pns_evidence"): 0.00009,
    },
}

# Verdict bands, applied to the "joint" variant on the 649-row file.
_BANDS = {
    ("study1", "pns"): ("close", 0.03),
    ("study1", "pn"): ("close", 0.03),
    ("study1", "ps"): ("close", 0.10),
    ("study2", "pns_evidence"): ("below", 0.005),
    ("study3", "pns_multi"): ("below", 1e-6),
    ("study4", "pns_multi_evidence"): ("above", 0.50),
}


def packaged_student_schema() -> TableSchema:
    """Schema for the raw semicolon-delimited grade files, as shipped."""
    text = resources.files("pocause").joinpath("assets/student_schema.json").read_text(
        encoding="utf-8"
    )
    return schema_from_dict(json.loads(text))


def load_student_table(path) -> DataTable:
    return load_table(path, packaged_student_schema(), delimiter=";")


def study_queries(variant: str) -> tuple[tuple[str, str, PoCQuery], ...]:
    """(study, estimand, query) rows for one treatment variant.

    Covariates are referenced as the first data row rather than embedded,
    so the queries bind to whichever file they are evaluated against.
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    arms = _VARIANT_ARMS[variant]
    x0, x1 = arms["x0"], arms["x1"]
    near_miss = Evidence(y=_Y_NEAR_MISS, x=_EVIDENCE_X)

    def query(kind, thresholds, treatments, evidence=None):
        return PoCQuery(
            kind=kind, thresholds=thresholds, treatments=treatments,
            covariates=CovariateRow(row=0), evidence=evidence, order=GRADE_ORDER,
        )

    rows = [("study1", kind, query(kind, (_Y_GOOD,), (x0, x1))) for kind in ("pns", "pn", "ps")]
    rows.append(("study2", "pns_evidence", query("pns_evidence", (_Y_GOOD,), (x0, x1), near_miss)))
    if variant == "paid":
        return tuple(rows)

    chain = ((1.0, 1.0), x0, x1)
    rows.append(("study3", "pns_multi", query("pns_multi", (_Y_MID, _Y_GOOD), chain)))
    rows.append((
        "study4", "pns_multi_evidence",
        query("pns_multi_evidence", (_Y_MID, _Y_GOOD), chain, near_miss),
    ))
    return tuple(rows)


@dataclass(frozen=True)
class StudyRow:
    study: str
    estimand: str
    value: float
    target: float | None
    within_band: bool | None  # None when no verdict band applies
    interval: BootstrapResult | None

    def as_dict(self) -> dict:
        return {
            "study": self.study,
            "estimand": self.estimand,
            "value": self.value,
            "target": self.target,
            "delta": None if self.target is None else self.value - self.target,
            "within_band": self.within_band,
            "interval": None if self.interval is None else self.interval.as_dict(),
        }


@dataclass(frozen=True)
class StudentReport:
    dataset: str
    variant: str
    n_rows: int
    estimator: str
    n_boot: int
    seed: int
    alpha: float
    rows: tuple
    all_within_bands: bool | None

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "variant": self.variant,
            "n_rows": self.n_rows,
            "estimator": self.estimator,
            "n_boot": self.n_boot,
            "seed": self.seed,
            "alpha": self.alpha,
            "rows": [row.as_dict() for row in self.rows],
            "all_within_bands": self.all_within_bands,
        }


def _dataset_label(n_rows: int) -> str:
    return {649: "portuguese-649", 395: "math-395"}.get(n_rows, f"unknown-{n_rows}")


def _check_band(key, value: float) -> bool | None:
    band = _BANDS.get(key)
    if band is None:
        return None
    mode, limit = band
    if mode == "close":
        return abs(value - TARGETS["joint"][key]) <= limit
    if mode == "below":
        return value <= limit
    return value >= limit


def reproduce_student(
    data_path,
    variant: str = "joint",
    *,
    n_boot: int = 1000,
    seed: int = 0,
    alpha: float = 0.05,
    threads: int = 1,
    config: EstimatorConfig | None = None,
) -> StudentReport:
    """Recompute one variant's studies on a grade file, with intervals.

    All the studies share one resampling run: each replicate resamples the
    rows once and answers every study on that resample with one set of
    fitted models. Failed replicates are still counted per study.
    n_boot=0 skips the resampling and reports point estimates only. The
    verdict column is filled for the "joint" variant on the 649-row file;
    elsewhere the targets are shown purely for comparison.
    """
    config = config or EstimatorConfig(method="logistic")
    table = load_student_table(data_path)
    label = _dataset_label(table.n_rows)
    gate = variant == "joint" and label == "portuguese-649"

    studies = study_queries(variant)
    answers = estimate_with_interval(
        table, [query for _, _, query in studies], config,
        n_boot=n_boot, seed=seed, alpha=alpha, threads=threads,
    )
    rows: list[StudyRow] = []
    for (study, estimand, _), (estimate, interval) in zip(studies, answers):
        rows.append(StudyRow(
            study=study,
            estimand=estimand,
            value=estimate.value,
            target=TARGETS[variant].get((study, estimand)),
            within_band=_check_band((study, estimand), estimate.value) if gate else None,
            interval=interval,
        ))

    verdicts = [row.within_band for row in rows if row.within_band is not None]
    return StudentReport(
        dataset=label,
        variant=variant,
        n_rows=table.n_rows,
        estimator=config.method,
        n_boot=n_boot,
        seed=seed,
        alpha=alpha,
        rows=tuple(rows),
        all_within_bands=all(verdicts) if verdicts else None,
    )


def format_student_report(report: StudentReport) -> str:
    """Human-readable table, targets printed beside computed values."""
    lines = [
        f"dataset {report.dataset} ({report.n_rows} rows), "
        f"variant {report.variant}, estimator {report.estimator}, "
        f"B={report.n_boot}, seed={report.seed}",
    ]
    for row in report.rows:
        piece = f"{row.study:7s} {row.estimand:18s} computed {100 * row.value:7.3f}%"
        if row.target is not None:
            piece += (
                f"  target {100 * row.target:7.3f}%"
                f"  delta {100 * (row.value - row.target):+7.3f}pp"
            )
        if row.interval is not None:
            piece += (
                f"  ci [{100 * row.interval.ci_lower:.3f}%, "
                f"{100 * row.interval.ci_upper:.3f}%]"
            )
            if row.interval.n_failures:
                piece += f"  ({row.interval.n_failures} replicates failed)"
        if row.within_band is not None:
            piece += "  [ok]" if row.within_band else "  [off target]"
        lines.append(piece)
    if report.all_within_bands is not None:
        lines.append(
            "all studies within tolerance"
            if report.all_within_bands
            else "some studies off target"
        )
    return "\n".join(lines)
