from dataclasses import asdict

import numpy as np
import pytest

from afferent.config import ABLATIONS
from afferent.errors import ValidationError
from afferent.metrics import (
    SAFE_ACTION_THRESHOLD,
    RunLog,
    age_key,
    compare_arms,
    compute_metrics,
    pool,
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


def _episode(rng, n, cats=True, recalls=False):
    return RunLog(d_total=float(rng.uniform()), task_mean=float(rng.uniform()),
                  actions=rng.uniform(size=n), cats=rng.uniform(size=n) if cats else None,
                  recalls=rng.uniform(size=n) if recalls else None)


@pytest.mark.parametrize("case", ["one", "several", "mixed_cats"])
def test_pool_matches_numpy_bit_for_bit(case):
    rng = np.random.default_rng(5)
    if case == "one":
        records = [_episode(rng, 7, recalls=True)]
    elif case == "several":
        records = [_episode(rng, n, recalls=True) for n in (5, 9, 3, 6)]
    else:  # an age group of CAT (epi) and no-CAT (plain) runs
        records = [_episode(rng, 4), _episode(rng, 6, cats=False), _episode(rng, 5)]
    got = pool(records, variant="full", age=20.0, seed=3)
    assert (got.variant, got.age, got.seed) == ("full", 20.0, 3)
    assert got.d_total == float(np.mean([r.d_total for r in records]))
    assert got.task_mean == float(np.mean([r.task_mean for r in records]))
    assert got.actions.tobytes() == np.concatenate([r.actions for r in records]).tobytes()
    with_cats = [r.cats for r in records if r.cats is not None]
    assert got.cats.tobytes() == np.concatenate(with_cats).tobytes()
    if case == "mixed_cats":
        assert got.recalls is None
        assert len(with_cats) == 2
    else:
        assert got.recalls.tobytes() == np.concatenate([r.recalls for r in records]).tobytes()
    assert pool(records).variant is None


def _arm_logs(ages=(20.0, 80.0), seeds=(0, 1)):
    rng = np.random.default_rng(9)
    return [RunLog(d_total=float(rng.uniform()), task_mean=0.5, actions=rng.uniform(size=6),
                   cats=None if v == "no_cat" else rng.uniform(size=6),
                   variant=v, age=a, seed=s)
            for v in ABLATIONS for a in ages for s in seeds]


def test_compare_arms_keys_and_values():
    logs = _arm_logs()
    welch = compare_arms(logs)
    others = [v for v in ABLATIONS if v != "full"]
    want = [f"{field}:full_vs_{v}@age{a}" for a in ("20", "80") for v in others
            for field in ("d_total", "cat") if field == "d_total" or v != "no_cat"]
    assert list(welch) == want

    def runs(v, a):
        return [log for log in logs if log.variant == v and log.age == a]

    for a in (20.0, 80.0):
        for v in others:
            full, arm = runs("full", a), runs(v, a)
            got = welch[f"d_total:full_vs_{v}@age{age_key(a)}"]
            assert got == asdict(welch_test([r.d_total for r in full],
                                            [r.d_total for r in arm]))
            if v != "no_cat":
                got = welch[f"cat:full_vs_{v}@age{age_key(a)}"]
                assert got == asdict(welch_test([r.cats.mean() for r in full],
                                                [r.cats.mean() for r in arm]))


def test_compare_arms_skips_an_age_with_one_run_a_side():
    def drop(logs, variant, age):
        return [log for log in logs
                if not (log.variant == variant and log.age == age and log.seed == 0)]

    logs = drop(_arm_logs(), "no_predictive", 80.0)  # one run on the arm's side
    assert not any("no_predictive@age80" in key for key in compare_arms(logs))
    assert "d_total:full_vs_no_cat@age80" in compare_arms(logs)
    logs = drop(logs, "full", 20.0)  # one run on the full side
    welch = compare_arms(logs)
    assert not any(key.endswith("@age20") for key in welch)
    assert "d_total:full_vs_no_cat@age80" in welch
