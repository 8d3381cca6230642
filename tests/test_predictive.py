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


def linear_transitions(n, seed=0, noise=0.0):
    """Design rows [x, a, 1] and targets of a known linear map for recovery tests."""
    rng = rng_for(seed, 40)
    A = np.array([[0.5, 0.1, 0.2, 0.0], [0.0, 0.4, 0.1, 0.3], [0.2, 0.0, 0.6, 0.1]])
    b = np.array([0.05, -0.02, 0.1])
    design, targets = np.ones((n, 5)), np.empty((n, 3))  # no context columns
    for row, y in zip(design, targets):
        row[:3], row[3] = rng.uniform(0.0, 1.0, 3), rng.uniform(0.0, 1.0)
        y[:] = A @ row[:4] + b + rng.normal(0.0, noise, 3)
    return design, targets, A, b


def test_fit_recovers_linear_map():
    design, targets, A, b = linear_transitions(200, seed=1)
    model = fit_safe_model(design, targets)
    assert np.allclose(model.A, A, atol=1e-8)
    assert np.allclose(model.b, b, atol=1e-8)
    assert model.residual_rms == pytest.approx(0.0, abs=1e-8)
    assert not model.ridge


def test_fit_residual_rms_tracks_noise():
    design, targets, _, _ = linear_transitions(4000, seed=2, noise=0.05)
    model = fit_safe_model(design, targets)
    assert model.residual_rms == pytest.approx(0.05, rel=0.1)


def test_fit_rank_deficient_falls_back_to_ridge():
    design = np.tile([0.5, 0.5, 0.5, 0.5, 1.0], (10, 1))  # x = 0.5 and a = 0.5 every row
    model = fit_safe_model(design, design[:, :3].copy())
    assert model.ridge
    assert np.all(np.isfinite(model.A)) and np.all(np.isfinite(model.b))


def test_fit_validation():
    with pytest.raises(ConfigError):
        fit_safe_model(np.empty((0, 5)), np.empty((0, 3)))
    design = np.tile([0.5, 0.5, 0.5, 0.5, 1.0], (3, 1))
    with pytest.raises(ConfigError):
        fit_safe_model(design, design[:, :3].copy())  # fewer samples than columns


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


def test_discrepancy_plain_norm():
    d = discrepancy(np.array([1.0, 1.0, 1.0]), np.array([0.0, 0.5, 3.0]))
    assert d == np.linalg.norm([1.0, 0.5, -2.0])
    with pytest.raises(ValidationError):
        discrepancy(np.zeros(2), np.zeros(3))


def test_discrepancy_equals_linalg_norm_bits():
    rng = rng_for(9)
    for _ in range(2000):
        x_next, x_hat = rng.normal(size=3), rng.normal(size=3) * 10.0 ** rng.integers(-9, 3)
        want = float(np.linalg.norm(x_next - x_hat))
        assert discrepancy(x_next, x_hat) == want


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
        DiscrepancyParams(kappa=0.0)
    with pytest.raises(ValidationError):
        SafeStateModel(A=np.eye(3, 4), b=np.zeros(3), delta0=-0.1)
    with pytest.raises(ValidationError):
        DiscrepancyParams(lambda_env=-0.2)
    with pytest.raises(ValidationError, match="lambda_env \\+ lambda_pred"):
        DiscrepancyParams(lambda_env=0.0, lambda_pred=0.0)


def test_pred_signal_logistic():
    p = DiscrepancyParams(kappa=10.0)
    assert pred_signal(0.2, 0.2, p) == 0.5
    assert pred_signal(0.3, 0.2, p) == pytest.approx(sigmoid(1.0), abs=1e-12)
    assert pred_signal(0.0, 0.2, p) == pytest.approx(sigmoid(-2.0), abs=1e-12)
    assert 0.0 <= pred_signal(100.0, 0.2, p) <= 1.0


def test_combine_cat_convex():
    p = DiscrepancyParams(lambda_env=0.7, lambda_pred=0.3)
    assert combine_cat(1.0, 0.0, p) == pytest.approx(0.7)
    assert combine_cat(0.0, 1.0, p) == pytest.approx(0.3)
    assert combine_cat(0.4, 0.4, p) == pytest.approx(0.4)
    uneven = DiscrepancyParams(lambda_env=2.0, lambda_pred=2.0)
    assert combine_cat(1.0, 0.0, uneven) == pytest.approx(0.5)
