"""Aggregate evaluation metrics: CAT efficiency, age robustness, safe fraction.

Metrics are computed from per-run evaluation logs.  CAT efficiency is the
reciprocal of the pooled mean CAT (quieter sensing at equal safety scores
higher); age robustness is the absolute CAT drift between the youngest and
oldest evaluated ages; the safe-action fraction counts work intensities
below 0.3.
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
    "compute_metrics",
]

SAFE_ACTION_THRESHOLD = 0.3


@dataclass(frozen=True)
class RunLog:
    """Evaluation summary of one trained policy (one variant/age/seed cell)."""

    variant: str
    age: float
    seed: int
    d_total: float
    task_mean: float
    actions: np.ndarray
    cats: np.ndarray | None = None
    recalls: np.ndarray | None = None


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


def _welch_dict(a, b) -> dict:
    return asdict(welch_test(a, b))


def compute_metrics(runs) -> MetricsReport:
    """Pool per-run logs into a MetricsReport.

    Age-keyed maps pool every action/CAT sample at that age.  Welch
    comparisons (youngest vs oldest age, on per-run CAT mean, action mean,
    and terminal damage) require at least two ages with two runs each and
    are omitted otherwise; age robustness likewise needs two ages.
    """
    runs = list(runs)
    if not runs:
        raise ValidationError("compute_metrics requires at least one run log")
    ages = sorted({float(r.age) for r in runs})
    by_age = {a: [r for r in runs if float(r.age) == a] for a in ages}

    mean_cat = {}
    mean_action = {}
    safe_fraction = {}
    recall_mean = {}
    for a in ages:
        group = by_age[a]
        actions = np.concatenate([r.actions for r in group])
        mean_action[age_key(a)] = float(actions.mean())
        safe_fraction[age_key(a)] = float((actions < SAFE_ACTION_THRESHOLD).mean())
        cats = [r.cats for r in group if r.cats is not None]
        if cats:
            mean_cat[age_key(a)] = float(np.concatenate(cats).mean())
        recalls = [r.recalls for r in group if r.recalls is not None]
        if recalls:
            recall_mean[age_key(a)] = float(np.concatenate(recalls).mean())

    cat_efficiency = None
    age_robustness = None
    if len(mean_cat) == len(ages):
        pooled = np.concatenate([np.concatenate([r.cats for r in by_age[a]])
                                 for a in ages])
        cat_efficiency = float(1.0 / pooled.mean()) if pooled.mean() > 0 else float("inf")
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
        young, old = by_age[ages[0]], by_age[ages[-1]]
        if len(young) >= 2 and len(old) >= 2:
            pair = f"age{age_key(ages[0])}_vs_age{age_key(ages[-1])}"
            welch[f"d_total:{pair}"] = _welch_dict(
                [r.d_total for r in young], [r.d_total for r in old])
            welch[f"action:{pair}"] = _welch_dict(
                [r.actions.mean() for r in young], [r.actions.mean() for r in old])
            if all(r.cats is not None for r in young + old):
                welch[f"cat:{pair}"] = _welch_dict(
                    [r.cats.mean() for r in young], [r.cats.mean() for r in old])

    return MetricsReport(
        mean_cat=mean_cat,
        cat_efficiency=cat_efficiency,
        age_robustness=age_robustness,
        mean_action=mean_action,
        safe_action_fraction=safe_fraction,
        d_total=d_total,
        welch=welch,
        bonferroni_multiplier=len(welch),
        recall_mean=recall_mean if recall_mean else None,
    )
