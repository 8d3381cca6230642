"""Afferent units, array dynamics, CAT aggregation, and genome encode/decode.

An afferent unit is a leaky integrator driven by a thresholded logistic
innovation term.  Each unit projects the feature vector through a unit-norm
weight vector, and the array aggregates unit activations into a single scalar
risk signal (the computational afferent trace, CAT) through convex weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ValidationError
from .util import inv_softplus, sigmoid, softplus

__all__ = [
    "AfferentUnitParams",
    "AfferentArray",
    "Genome",
    "decode_genome",
    "encode_genome",
    "step_unit",
    "compute_cat",
    "reset_state",
    "handcrafted_genome",
]

BLOCK_EXTRA = 4  # per-unit raw block is [w_raw(K), alpha_raw, theta_raw, tau_raw, v_raw]


@dataclass
class AfferentUnitParams:
    """Constrained parameters of a single afferent unit."""

    w: np.ndarray  # unit-norm weight vector, length K
    alpha: float  # gain, > 0
    theta: float  # threshold, in [0, 1]
    tau: float  # time constant, > 0, same units as dt

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if abs(float(np.linalg.norm(self.w)) - 1.0) > 1e-9:
            raise ValidationError("afferent weight vector must be unit norm")
        if not (self.alpha > 0 and self.tau > 0):
            raise ValidationError("alpha and tau must be positive")
        if not 0.0 <= self.theta <= 1.0:
            raise ValidationError("theta must lie in [0, 1]")


@dataclass
class AfferentArray:
    """M afferent units plus convex aggregation weights and activation state."""

    units: list
    v: np.ndarray
    dt: float
    state: np.ndarray = field(default=None)

    def __post_init__(self):
        self.v = np.asarray(self.v, dtype=float)
        if len(self.units) != self.v.shape[0]:
            raise ValidationError("aggregation weights must match unit count")
        if np.any(self.v < 0) or abs(float(self.v.sum()) - 1.0) > 1e-9:
            raise ValidationError("aggregation weights must be convex")
        if not self.dt > 0:
            raise ValidationError("dt must be positive")
        if self.state is None:
            self.state = np.zeros(len(self.units))
        self.state = np.asarray(self.state, dtype=float)
        # cache the stacked parameter arrays so stepping is vectorized
        self._W = np.stack([u.w for u in self.units])
        self._alpha = np.array([u.alpha for u in self.units])
        self._theta = np.array([u.theta for u in self.units])
        self._tau = np.array([u.tau for u in self.units])
        self._beta = self.dt / (self._tau + self.dt)

    @property
    def m(self) -> int:
        return len(self.units)

    @property
    def k(self) -> int:
        return self._W.shape[1]


@dataclass
class Genome:
    """Flattened afferent-array parameter vector of length m*(k+4)."""

    raw: np.ndarray
    m: int
    k: int

    def __post_init__(self):
        self.raw = np.asarray(self.raw, dtype=float)
        if self.raw.shape != (self.m * (self.k + BLOCK_EXTRA),):
            raise ConfigError(
                "genome length %d does not match m*(k+4)=%d"
                % (self.raw.size, self.m * (self.k + BLOCK_EXTRA))
            )


def decode_genome(g: Genome, dt: float) -> AfferentArray:
    """Map an unconstrained raw vector onto constrained array parameters.

    Per-unit block layout is [w_raw(K), alpha_raw, theta_raw, tau_raw, v_raw].
    Weights are L2-normalized (near-zero blocks fall back to a basis vector so
    decoding stays total), gains and time constants pass through softplus with
    small floors, thresholds are clamped to [0,1], and the aggregation weights
    are a softmax over all units' v_raw entries.
    """
    if not np.all(np.isfinite(g.raw)):
        raise ValidationError("genome contains non-finite values")
    if not dt > 0:
        raise ConfigError("dt must be positive")
    blocks = g.raw.reshape(g.m, g.k + BLOCK_EXTRA)
    units = []
    v_raw = blocks[:, -1]
    for i in range(g.m):
        w_raw = blocks[i, : g.k]
        norm = float(np.linalg.norm(w_raw))
        if norm < 1e-12:
            w = np.zeros(g.k)
            w[i % g.k] = 1.0
        else:
            w = w_raw / norm
        alpha = softplus(blocks[i, g.k]) + 1e-3
        theta = float(np.clip(blocks[i, g.k + 1], 0.0, 1.0))
        tau = softplus(blocks[i, g.k + 2]) + dt / 10.0
        units.append(AfferentUnitParams(w=w, alpha=alpha, theta=theta, tau=tau))
    shifted = v_raw - v_raw.max()
    ev = np.exp(shifted)
    v = ev / ev.sum()
    return AfferentArray(units=units, v=v, dt=dt)


def encode_genome(arr: AfferentArray) -> Genome:
    """Invert decode_genome on constrained parameters.

    Softplus is inverted through its log form and the softmax through
    elementwise log, so decode(encode(arr), arr.dt) reproduces the
    constrained parameters within 1e-6.
    """
    m, k = arr.m, arr.k
    raw = np.empty(m * (k + BLOCK_EXTRA))
    blocks = raw.reshape(m, k + BLOCK_EXTRA)
    for i, u in enumerate(arr.units):
        blocks[i, :k] = u.w
        blocks[i, k] = inv_softplus(u.alpha - 1e-3)
        blocks[i, k + 1] = u.theta
        blocks[i, k + 2] = inv_softplus(u.tau - arr.dt / 10.0)
        blocks[i, k + 3] = np.log(max(arr.v[i], 1e-300))
    return Genome(raw=raw.copy(), m=m, k=k)


def step_unit(u: AfferentUnitParams, a_prev: float, signal: float, dt: float) -> float:
    """One leaky-integrator update of a single unit's activation."""
    if not 0.0 <= a_prev <= 1.0:
        raise ValidationError("activation out of [0, 1]")
    beta = dt / (u.tau + dt)
    return (1.0 - beta) * a_prev + beta * sigmoid(u.alpha * (signal - u.theta))


def compute_cat(arr: AfferentArray, x: np.ndarray):
    """Step every unit on feature vector x and aggregate activations.

    Updates arr.state in place and returns (cat, activations), where
    cat = sum_i v_i a_i lies in [0, 1].
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (arr.k,):
        raise ValidationError("feature vector length %d, expected %d" % (x.size, arr.k))
    if not np.isfinite(x).all():
        raise ValidationError("feature vector contains non-finite values")
    signals = arr._W @ x
    innovation = sigmoid(arr._alpha * (signals - arr._theta))
    arr.state = (1.0 - arr._beta) * arr.state + arr._beta * innovation
    cat = float(arr.v @ arr.state)
    return cat, arr.state.copy()


def reset_state(arr: AfferentArray) -> None:
    """Zero all activations."""
    arr.state = np.zeros(arr.m)


def handcrafted_genome(m: int, k: int, dt: float = 1.0) -> Genome:
    """Fixed non-evolved genome used as a hand-tuned baseline array.

    Each unit watches a single feature axis in round-robin order with
    threshold 0.6, gain 8, time constant 5 steps, and uniform aggregation.
    """
    units = []
    for i in range(m):
        w = np.zeros(k)
        w[i % k] = 1.0
        units.append(AfferentUnitParams(w=w, alpha=8.0, theta=0.6, tau=5.0))
    arr = AfferentArray(units=units, v=np.full(m, 1.0 / m), dt=dt)
    return encode_genome(arr)
