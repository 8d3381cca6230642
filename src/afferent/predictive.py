"""Predictive-discrepancy CAT component.

A linear safe-state model predicts the next biomechanical feature vector under
healthy dynamics from the current features, the action, and a small context
vector.  Deviations from that prediction feed a logistic risk signal which can
be blended with the envelope-based CAT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ValidationError
from .util import sigmoid

__all__ = [
    "SafeStateModel",
    "DiscrepancyParams",
    "fit_safe_model",
    "discrepancy",
    "pred_signal",
    "combine_cat",
]


@dataclass
class SafeStateModel:
    """Linear model x_hat = A [x; a; s] + b over features, action, context."""

    A: np.ndarray  # K x (K + 1 + S)
    b: np.ndarray  # length K
    residual_rms: float = 0.0
    ridge: bool = False  # set when the fit fell back to a ridge solve

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise ValidationError("safe-state model has non-finite coefficients")
        if self.A.ndim != 2 or self.b.shape != (self.A.shape[0],):
            raise ValidationError("safe-state model shape mismatch")

    def predict(self, x: np.ndarray, action: float, context: np.ndarray) -> np.ndarray:
        k = len(x)
        if k + 1 + len(context) != self.A.shape[1]:
            raise ValidationError("safe-state model input length mismatch")
        z = np.empty(self.A.shape[1])
        z[:k], z[k], z[k + 1:] = x, action, context
        return self.A @ z + self.b


@dataclass
class DiscrepancyParams:
    """Weights and calibration for the predictive risk signal."""

    w_delta: np.ndarray
    kappa: float = 10.0
    delta0: float = 0.0
    lambda_env: float = 0.7
    lambda_pred: float = 0.3

    def __post_init__(self):
        self.w_delta = np.asarray(self.w_delta, dtype=float)
        if np.any(self.w_delta < 0):
            raise ValidationError("w_delta must be nonnegative")
        if not self.kappa > 0:
            raise ValidationError("kappa must be positive")
        if self.delta0 < 0:
            raise ValidationError("delta0 must be nonnegative")
        if self.lambda_env < 0 or self.lambda_pred < 0:
            raise ValidationError("combination weights must be nonnegative")
        if not self.lambda_env + self.lambda_pred > 0:
            raise ValidationError("lambda_env + lambda_pred must be positive")


def fit_safe_model(rollouts) -> SafeStateModel:
    """Least-squares fit of the safe-state model from healthy transitions.

    rollouts is a sequence of (x_t, a_t, s_t, x_next) tuples, written row by
    row into one design matrix [x_t, a_t, s_t, 1] and one target matrix.  A
    rank-deficient design triggers a ridge solve with penalty 1e-6, flagged
    on the result.
    """
    n = len(rollouts)
    if n == 0:
        raise ConfigError("safe-model fit needs nonempty rollout tuples")
    x, _, s, _ = rollouts[0]
    k, w = len(x), len(x) + 1 + len(s)
    design, Y = np.empty((n, w + 1)), np.empty((n, k))
    for row, y, (x, a, s, x_next) in zip(design, Y, rollouts):
        row[:k], row[k], row[k + 1:w] = x, a, s
        y[:] = x_next
    design[:, w] = 1.0
    if n < design.shape[1]:
        raise ConfigError("too few samples to fit the safe-state model")
    coef, _, rank, _ = np.linalg.lstsq(design, Y, rcond=None)
    ridge = False
    if rank < design.shape[1]:
        ridge = True
        gram = design.T @ design + 1e-6 * np.eye(design.shape[1])
        coef = np.linalg.solve(gram, design.T @ Y)
    A = coef[:-1, :].T
    b = coef[-1, :]
    resid = design @ coef - Y
    rms = float(np.sqrt(np.mean(resid**2)))
    return SafeStateModel(A=A, b=b, residual_rms=rms, ridge=ridge)


def discrepancy(x_next: np.ndarray, x_hat: np.ndarray, p: DiscrepancyParams) -> float:
    """Weighted Euclidean distance ||diag(w_delta)(x_next - x_hat)||."""
    if x_next.shape != x_hat.shape or x_next.shape != p.w_delta.shape:
        raise ValidationError("discrepancy length mismatch")
    v = p.w_delta * (x_next - x_hat)
    return math.sqrt(v @ v)  # np.linalg.norm's form for a vector


def pred_signal(delta: float, p: DiscrepancyParams) -> float:
    """Logistic risk signal sigma(kappa * (delta - delta0))."""
    return sigmoid(p.kappa * (delta - p.delta0))


def combine_cat(c_env: float, c_pred: float, p: DiscrepancyParams) -> float:
    """Convex blend of envelope and predictive components."""
    return (p.lambda_env * c_env + p.lambda_pred * c_pred) / (p.lambda_env + p.lambda_pred)
