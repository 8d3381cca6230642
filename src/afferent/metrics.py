"""Evaluation records (RunLog) and every pooling, summary and comparison of them.

CAT efficiency is the reciprocal of the pooled mean CAT (quieter sensing at
equal safety scores higher); age robustness is the absolute CAT drift between
the youngest and oldest evaluated ages; the safe-action fraction counts work
intensities below 0.3.  Welch p-values are raw: bonferroni_multiplier counts
the comparisons, and no correction is applied.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ValidationError
from .stats import welch_test

__all__ = [
    "SAFE_ACTION_THRESHOLD",
    "RunLog",
    "MetricsReport",
    "age_key",
    "pool",
    "summary",
    "compute_metrics",
    "compare_arms",
]

SAFE_ACTION_THRESHOLD = 0.3


@dataclass(frozen=True)
class RunLog:
    """One evaluation: an episode, or a pool of them; labels are None on an episode."""

    d_total: float
    task_mean: float
    actions: np.ndarray
    cats: np.ndarray | None = None
    recalls: np.ndarray | None = None
    variant: str | None = None
    age: float | None = None
    seed: int | None = None


@dataclass
class MetricsReport:
    mean_cat: dict = field(default_factory=dict)
    cat_efficiency: float | None = None
    age_robustness: float | None = None
    mean_action: dict = field(default_factory=dict)
    safe_action_fraction: dict = field(default_factory=dict)
    d_total: list = field(default_factory=list)
    welch: dict = field(default_factory=dict)
    bonferroni_multiplier: int = 0
    recall_mean: dict | None = None


def age_key(age: float) -> str:
    """JSON object keys must be strings; '%g' keeps 20.0 and 20 identical."""
    return f"{float(age):g}"


def pool(records, **labels) -> RunLog:
    """One RunLog of records: mean d_total and task_mean, arrays joined in order.

    CATs and recalls join from the records that have them; None if none has.
    """
    records = list(records)
    cats = [r.cats for r in records if r.cats is not None]
    recalls = [r.recalls for r in records if r.recalls is not None]
    return RunLog(
        d_total=float(np.mean([r.d_total for r in records])),
        task_mean=float(np.mean([r.task_mean for r in records])),
        actions=np.concatenate([r.actions for r in records]),
        cats=np.concatenate(cats) if cats else None,
        recalls=np.concatenate(recalls) if recalls else None,
        **labels,
    )


def summary(rec: RunLog) -> dict:
    """Report fields of one record; cat_mean and recall_mean only where it has them."""
    row = {
        "d_total": float(rec.d_total),
        "task_mean": float(rec.task_mean),
        "action_mean": float(rec.actions.mean()),
        "safe_fraction": float((rec.actions < SAFE_ACTION_THRESHOLD).mean()),
    }
    if rec.cats is not None:
        row["cat_mean"] = float(rec.cats.mean())
    if rec.recalls is not None:
        row["recall_mean"] = float(rec.recalls.mean())
    return row


def _welch(pairs, keys) -> dict:
    """Welch tests of each (pair, runs_a, runs_b) on the per-run summary keys.

    Results are keyed '<key less _mean>:<pair>'.  A pair needs two runs a
    side; a key is compared where every run's summary has it.
    """
    out = {}
    for pair, runs_a, runs_b in pairs:
        if len(runs_a) < 2 or len(runs_b) < 2:
            continue
        rows_a = [summary(r) for r in runs_a]
        rows_b = [summary(r) for r in runs_b]
        for key in keys:
            if all(key in row for row in rows_a + rows_b):
                out[f"{key.removesuffix('_mean')}:{pair}"] = asdict(welch_test(
                    [row[key] for row in rows_a], [row[key] for row in rows_b]))
    return out


def compute_metrics(runs) -> MetricsReport:
    """Pool one arm's run logs into a MetricsReport.

    Age-keyed maps summarize the pool of every run at that age.  Welch
    comparisons (youngest vs oldest age, on per-run terminal damage, action
    mean and CAT mean) require at least two ages with two runs each and are
    omitted otherwise; age robustness likewise needs two ages.
    """
    runs = list(runs)
    if not runs:
        raise ValidationError("compute_metrics requires at least one run log")
    ages = sorted({float(r.age) for r in runs})
    by_age = {a: [r for r in runs if float(r.age) == a] for a in ages}
    pooled = {a: pool(by_age[a]) for a in ages}
    rows = {age_key(a): summary(p) for a, p in pooled.items()}

    def per_age(key):
        return {ak: row[key] for ak, row in rows.items() if key in row}

    mean_cat = per_age("cat_mean")
    cat_efficiency = None
    age_robustness = None
    if len(mean_cat) == len(ages):
        mean = pool(pooled.values()).cats.mean()
        cat_efficiency = float(1.0 / mean) if mean > 0 else float("inf")
        if len(ages) >= 2:
            age_robustness = float(abs(mean_cat[age_key(ages[-1])]
                                       - mean_cat[age_key(ages[0])]))

    d_total = [
        {"variant": r.variant, "age": float(r.age), "seed": int(r.seed),
         "d_total": float(r.d_total)}
        for r in sorted(runs, key=lambda r: (r.variant, float(r.age), int(r.seed)))
    ]

    welch = {}
    if len(ages) >= 2:
        pair = f"age{age_key(ages[0])}_vs_age{age_key(ages[-1])}"
        welch = _welch([(pair, by_age[ages[0]], by_age[ages[-1]])],
                       ("d_total", "action_mean", "cat_mean"))

    return MetricsReport(
        mean_cat=mean_cat,
        cat_efficiency=cat_efficiency,
        age_robustness=age_robustness,
        mean_action=per_age("action_mean"),
        safe_action_fraction=per_age("safe_fraction"),
        d_total=d_total,
        welch=welch,
        bonferroni_multiplier=len(welch),
        recall_mean=per_age("recall_mean") or None,
    )


def compare_arms(logs) -> dict:
    """Welch tests of the full arm against every other arm at each age of a list of logs.

    Keys 'd_total:full_vs_<arm>@age<a>' and 'cat:full_vs_<arm>@age<a>' follow
    the logs' order of arms and ages.
    """

    def runs(variant, age):
        return [log for log in logs if log.variant == variant and log.age == age]

    arms = dict.fromkeys(log.variant for log in logs)
    pairs = [(f"full_vs_{v}@age{age_key(a)}", runs("full", a), runs(v, a))
             for a in dict.fromkeys(log.age for log in logs) for v in arms if v != "full"]
    return _welch(pairs, ("d_total", "cat_mean"))
