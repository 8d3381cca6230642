import numpy as np
import pytest

from afferent.errors import ConfigError, ValidationError
from afferent.predictive import (
    DiscrepancyParams,
    SafeStateModel,
    combine_cat,
    discrepancy,
    fit_safe_model,
    pred_signal,
)
from afferent.util import rng_for, sigmoid


def linear_rollouts(n, seed=0, noise=0.0):
    """Transitions generated by a known linear map for recovery tests."""
    rng = rng_for(seed, 40)
    A = np.array([[0.5, 0.1, 0.2, 0.0], [0.0, 0.4, 0.1, 0.3], [0.2, 0.0, 0.6, 0.1]])
    b = np.array([0.05, -0.02, 0.1])
    out = []
    for _ in range(n):
        x = rng.uniform(0.0, 1.0, 3)
        a = float(rng.uniform(0.0, 1.0))
        s = rng.uniform(-1.0, 1.0, 0 + 0)  # no context columns in this fixture
        z = np.concatenate([x, [a]])
        x_next = A @ z + b + rng.normal(0.0, noise, 3)
        out.append((x, a, s, x_next))
    return out, A, b


def test_fit_recovers_linear_map():
    rollouts, A, b = linear_rollouts(200, seed=1)
    model = fit_safe_model(rollouts)
    assert np.allclose(model.A, A, atol=1e-8)
    assert np.allclose(model.b, b, atol=1e-8)
    assert model.residual_rms == pytest.approx(0.0, abs=1e-8)
    assert not model.ridge


def test_fit_residual_rms_tracks_noise():
    rollouts, _, _ = linear_rollouts(4000, seed=2, noise=0.05)
    model = fit_safe_model(rollouts)
    assert model.residual_rms == pytest.approx(0.05, rel=0.1)


def test_fit_rank_deficient_falls_back_to_ridge():
    x = np.array([0.5, 0.5, 0.5])
    rollouts = [(x, 0.5, np.zeros(0), x) for _ in range(10)]
    model = fit_safe_model(rollouts)
    assert model.ridge
    assert np.all(np.isfinite(model.A)) and np.all(np.isfinite(model.b))


def test_fit_validation():
    with pytest.raises(ConfigError):
        fit_safe_model([])
    x = np.array([0.5, 0.5, 0.5])
    with pytest.raises(ConfigError):
        fit_safe_model([(x, 0.5, np.zeros(0), x)] * 3)  # fewer samples than columns


def test_predict_shapes():
    model = SafeStateModel(A=np.eye(3, 4), b=np.zeros(3))
    out = model.predict(np.array([1.0, 2.0, 3.0]), 4.0, np.zeros(0))
    assert np.allclose(out, [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        model.predict(np.array([1.0, 2.0]), 4.0, np.zeros(0))
    with pytest.raises(ValidationError):
        SafeStateModel(A=np.full((2, 3), np.nan), b=np.zeros(2))
    with pytest.raises(ValidationError):
        SafeStateModel(A=np.eye(3), b=np.zeros(2))


def test_discrepancy_weighted_norm():
    p = DiscrepancyParams(w_delta=np.array([1.0, 2.0, 0.0]))
    d = discrepancy(np.array([1.0, 1.0, 1.0]), np.array([0.0, 0.5, 9.0]), p)
    assert d == pytest.approx(np.sqrt(1.0 + 1.0), abs=1e-12)
    with pytest.raises(ValidationError):
        discrepancy(np.zeros(2), np.zeros(3), p)


def test_discrepancy_equals_linalg_norm_bits():
    rng = rng_for(9)
    for _ in range(2000):
        p = DiscrepancyParams(w_delta=rng.uniform(0.0, 2.0, 3))
        x_next, x_hat = rng.normal(size=3), rng.normal(size=3) * 10.0 ** rng.integers(-9, 3)
        want = float(np.linalg.norm(p.w_delta * (x_next - x_hat)))
        assert discrepancy(x_next, x_hat, p) == want


def test_predict_equals_stacked_input_bits():
    rng = rng_for(10)
    model = SafeStateModel(A=rng.normal(size=(3, 7)), b=rng.normal(size=3))
    for _ in range(500):
        x, a, s = rng.uniform(size=3), float(rng.uniform()), rng.normal(size=3)
        want = model.A @ np.concatenate([x, [a], s]) + model.b
        assert model.predict(x, a, s).tobytes() == want.tobytes()
    with pytest.raises(ValidationError):
        model.predict(np.ones(3), 0.5, np.ones(1))


def test_params_validation():
    with pytest.raises(ValidationError):
        DiscrepancyParams(w_delta=np.array([-1.0, 1.0]))
    with pytest.raises(ValidationError):
        DiscrepancyParams(w_delta=np.ones(3), kappa=0.0)
    with pytest.raises(ValidationError):
        DiscrepancyParams(w_delta=np.ones(3), delta0=-0.1)
    with pytest.raises(ValidationError):
        DiscrepancyParams(w_delta=np.ones(3), lambda_env=-0.2)
    with pytest.raises(ValidationError, match="lambda_env \\+ lambda_pred"):
        DiscrepancyParams(w_delta=np.ones(3), lambda_env=0.0, lambda_pred=0.0)


def test_pred_signal_logistic():
    p = DiscrepancyParams(w_delta=np.ones(3), kappa=10.0, delta0=0.2)
    assert pred_signal(0.2, p) == 0.5
    assert pred_signal(0.3, p) == pytest.approx(sigmoid(1.0), abs=1e-12)
    assert pred_signal(0.0, p) == pytest.approx(sigmoid(-2.0), abs=1e-12)
    assert 0.0 <= pred_signal(100.0, p) <= 1.0


def test_combine_cat_convex():
    p = DiscrepancyParams(w_delta=np.ones(3), lambda_env=0.7, lambda_pred=0.3)
    assert combine_cat(1.0, 0.0, p) == pytest.approx(0.7)
    assert combine_cat(0.0, 1.0, p) == pytest.approx(0.3)
    assert combine_cat(0.4, 0.4, p) == pytest.approx(0.4)
    uneven = DiscrepancyParams(w_delta=np.ones(3), lambda_env=2.0, lambda_pred=2.0)
    assert combine_cat(1.0, 0.0, uneven) == pytest.approx(0.5)
