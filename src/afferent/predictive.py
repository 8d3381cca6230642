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

from .errors import ConfigError, ValidationError, bounded, check_bounds
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
    delta0: float = bounded(0.0, ">= 0")  # discrepancy where pred_signal reads 0.5

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise ValidationError("safe-state model has non-finite coefficients")
        if self.A.ndim != 2 or self.b.shape != (self.A.shape[0],):
            raise ValidationError("safe-state model shape mismatch")
        check_bounds(self)

    def predict(self, x: np.ndarray, action: float, context: np.ndarray) -> np.ndarray:
        k = len(x)
        if k + 1 + len(context) != self.A.shape[1]:
            raise ValidationError("safe-state model input length mismatch")
        z = np.empty(self.A.shape[1])
        z[:k], z[k], z[k + 1:] = x, action, context
        return self.A @ z + self.b


@dataclass
class DiscrepancyParams:
    """Slope of the predictive risk signal and its blend weights with the envelope CAT."""

    kappa: float = bounded(10.0, "> 0")
    lambda_env: float = bounded(0.7, ">= 0")
    lambda_pred: float = bounded(0.3, ">= 0")

    def __post_init__(self):
        check_bounds(self)
        if not self.lambda_env + self.lambda_pred > 0:
            raise ValidationError("lambda_env + lambda_pred must be > 0")


def fit_safe_model(design: np.ndarray, targets: np.ndarray) -> SafeStateModel:
    """Least-squares fit of the safe-state model from healthy transitions.

    Row i of the n x (K + 1 + S + 1) design matrix is [x_t, a_t, s_t, 1] and
    row i of the n x K target matrix is x_next, for transition i.  A
    rank-deficient design triggers a ridge solve with penalty 1e-6, flagged
    on the result.
    """
    if len(design) < design.shape[1]:
        raise ConfigError("too few samples to fit the safe-state model")
    coef, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    ridge = False
    if rank < design.shape[1]:
        ridge = True
        gram = design.T @ design + 1e-6 * np.eye(design.shape[1])
        coef = np.linalg.solve(gram, design.T @ targets)
    A = coef[:-1, :].T
    b = coef[-1, :]
    resid = design @ coef - targets
    rms = float(np.sqrt(np.mean(resid**2)))
    return SafeStateModel(A=A, b=b, residual_rms=rms, ridge=ridge)


def discrepancy(x_next: np.ndarray, x_hat: np.ndarray) -> float:
    """Euclidean distance ||x_next - x_hat||."""
    if x_next.shape != x_hat.shape:
        raise ValidationError("discrepancy length mismatch")
    v = x_next - x_hat
    return math.sqrt(v @ v)  # np.linalg.norm's form for a vector


def pred_signal(delta: float, delta0: float, p: DiscrepancyParams) -> float:
    """Logistic risk signal sigma(kappa * (delta - delta0))."""
    return sigmoid(p.kappa * (delta - delta0))


def combine_cat(c_env: float, c_pred: float, p: DiscrepancyParams) -> float:
    """Convex blend of envelope and predictive components."""
    return (p.lambda_env * c_env + p.lambda_pred * c_pred) / (p.lambda_env + p.lambda_pred)
