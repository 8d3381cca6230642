import numpy as np
import pytest

from afferent.errors import ValidationError
from afferent.metrics import (
    SAFE_ACTION_THRESHOLD,
    RunLog,
    age_key,
    compute_metrics,
)
from afferent.stats import welch_test


def run(variant="full", age=60.0, seed=0, d_total=0.01, actions=None, cats=None,
        recalls=None):
    if actions is None:
        actions = np.array([0.5, 0.6])
    return RunLog(variant=variant, age=age, seed=seed, d_total=d_total,
                  task_mean=0.5, actions=np.asarray(actions, float),
                  cats=None if cats is None else np.asarray(cats, float),
                  recalls=None if recalls is None else np.asarray(recalls, float))


def test_age_key_formats():
    assert age_key(20.0) == "20"
    assert age_key(20) == "20"
    assert age_key(62.5) == "62.5"


def test_empty_input_rejected():
    with pytest.raises(ValidationError):
        compute_metrics([])


def test_single_age_pooling():
    runs = [
        run(seed=0, actions=[0.2, 0.4], cats=[0.1, 0.3]),
        run(seed=1, actions=[0.6, 0.8], cats=[0.5, 0.7]),
    ]
    rep = compute_metrics(runs)
    assert rep.mean_action == {"60": pytest.approx(0.5)}
    assert rep.mean_cat == {"60": pytest.approx(0.4)}
    assert rep.safe_action_fraction == {"60": pytest.approx(0.25)}
    assert rep.cat_efficiency == pytest.approx(2.5)
    assert rep.age_robustness is None
    assert rep.welch == {} and rep.bonferroni_multiplier == 0
    assert rep.recall_mean is None


def test_safe_fraction_threshold_is_strict():
    rep = compute_metrics([run(actions=[SAFE_ACTION_THRESHOLD, 0.29, 0.1, 0.9])])
    assert rep.safe_action_fraction["60"] == pytest.approx(0.5)


def test_two_ages_full_report():
    young = [run(age=20.0, seed=s, d_total=0.01 * (s + 1),
                 actions=[0.7 + 0.01 * s, 0.8], cats=[0.2, 0.3 + 0.01 * s])
             for s in range(3)]
    old = [run(age=80.0, seed=s, d_total=0.03 + 0.01 * s,
               actions=[0.2, 0.25 + 0.01 * s], cats=[0.4, 0.5 + 0.01 * s])
           for s in range(3)]
    rep = compute_metrics(young + old)
    assert set(rep.mean_cat) == {"20", "80"}
    assert rep.age_robustness == pytest.approx(
        abs(rep.mean_cat["80"] - rep.mean_cat["20"]))
    assert set(rep.welch) == {"d_total:age20_vs_age80", "action:age20_vs_age80",
                              "cat:age20_vs_age80"}
    assert rep.bonferroni_multiplier == 3
    oracle = welch_test([r.d_total for r in young], [r.d_total for r in old])
    got = rep.welch["d_total:age20_vs_age80"]
    assert got["t"] == pytest.approx(oracle.t, abs=1e-12)
    assert got["p"] == pytest.approx(oracle.p, abs=1e-12)


def test_d_total_rows_sorted():
    runs = [run(variant="no_cat", age=80.0, seed=1), run(variant="full", age=20.0, seed=2),
            run(variant="full", age=20.0, seed=0), run(variant="full", age=80.0, seed=1)]
    rep = compute_metrics(runs)
    keys = [(r["variant"], r["age"], r["seed"]) for r in rep.d_total]
    assert keys == sorted(keys)


def test_cat_efficiency_requires_cats_everywhere():
    rep = compute_metrics([run(cats=[0.2, 0.4]), run(age=80.0, seed=1, cats=None)])
    assert rep.cat_efficiency is None
    assert "60" in rep.mean_cat and "80" not in rep.mean_cat


def test_welch_needs_two_runs_per_side():
    rep = compute_metrics([run(age=20.0), run(age=80.0)])
    assert rep.welch == {} and rep.bonferroni_multiplier == 0


def test_recall_mean_reported_when_present():
    rep = compute_metrics([run(recalls=[0.001, 0.003]), run(seed=1, recalls=[0.005, 0.007])])
    assert rep.recall_mean == {"60": pytest.approx(0.004)}
