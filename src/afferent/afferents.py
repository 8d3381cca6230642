"""Afferent array dynamics, CAT aggregation, and genome encode/decode.

An afferent unit is a leaky integrator driven by a thresholded logistic
innovation term.  The array holds its M units as parameter arrays: row i of
the (M x K) weight matrix W is unit i's unit-norm projection of the feature
vector, and alpha, theta and tau are its gain, threshold and time constant.
The array aggregates unit activations into a single scalar risk signal (the
computational afferent trace, CAT) through convex weights v.  The array holds
no activations: each stream that senses through it keeps its own and passes
them to compute_cat, so one array can serve any number of streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ValidationError
from .util import inv_softplus, sigmoid_array, softplus

__all__ = [
    "AfferentArray",
    "Genome",
    "decode_genome",
    "encode_genome",
    "compute_cat",
    "handcrafted_genome",
]

BLOCK_EXTRA = 4  # per-unit raw block is [w_raw(K), alpha_raw, theta_raw, tau_raw, v_raw]


@dataclass
class AfferentArray:
    """M afferent units as parameter arrays, plus aggregation weights."""

    W: np.ndarray  # (M x K) weight matrix with unit-norm rows
    alpha: np.ndarray  # gains, > 0
    theta: np.ndarray  # thresholds, in [0, 1]
    tau: np.ndarray  # time constants, > 0, same units as dt
    v: np.ndarray  # convex aggregation weights
    dt: float
    beta: np.ndarray = field(init=False)  # dt / (tau + dt), the per-step update weight
    keep: np.ndarray = field(init=False)  # 1 - beta, the weight kept on the last activation

    def __post_init__(self):
        self.W, self.alpha, self.theta, self.tau, self.v = (
            np.asarray(a, dtype=float)
            for a in (self.W, self.alpha, self.theta, self.tau, self.v))
        m = len(self.W)
        if self.W.ndim != 2 or any(
                a.shape != (m,) for a in (self.alpha, self.theta, self.tau, self.v)):
            raise ValidationError("parameter lengths must match the unit count")
        if not np.all(np.abs(np.linalg.norm(self.W, axis=1) - 1.0) <= 1e-9):
            raise ValidationError("afferent weight vectors must be unit norm")
        if not (np.all(self.alpha > 0) and np.all(self.tau > 0)):
            raise ValidationError("alpha and tau must be positive")
        if not np.all((self.theta >= 0.0) & (self.theta <= 1.0)):
            raise ValidationError("theta must lie in [0, 1]")
        if np.any(self.v < 0) or abs(float(self.v.sum()) - 1.0) > 1e-9:
            raise ValidationError("aggregation weights must be convex")
        if not self.dt > 0:
            raise ValidationError("dt must be positive")
        self.beta = self.dt / (self.tau + self.dt)
        self.keep = 1.0 - self.beta

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def k(self) -> int:
        return self.W.shape[1]


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
    Weights are L2-normalized (near-zero blocks fall back to basis vector
    i mod K so decoding stays total), gains and time constants pass through
    softplus with small floors, thresholds are clamped to [0,1], and the
    aggregation weights are a softmax over all units' v_raw entries.
    """
    if not np.all(np.isfinite(g.raw)):
        raise ValidationError("genome contains non-finite values")
    if not dt > 0:
        raise ConfigError("dt must be positive")
    blocks = g.raw.reshape(g.m, g.k + BLOCK_EXTRA)
    w_raw = blocks[:, :g.k]
    # The stacked per-row product has the bits of np.linalg.norm on each row;
    # norm(axis=1) and einsum round differently.
    norms = np.sqrt((w_raw[:, None, :] @ w_raw[:, :, None])[:, 0, 0])
    small = norms < 1e-12
    W = w_raw / np.where(small, 1.0, norms)[:, None]
    W[small] = 0.0
    W[small, np.flatnonzero(small) % g.k] = 1.0
    v_raw = blocks[:, -1]
    ev = np.exp(v_raw - v_raw.max())
    return AfferentArray(
        W=W,
        alpha=softplus(blocks[:, g.k]) + 1e-3,
        theta=np.clip(blocks[:, g.k + 1], 0.0, 1.0),
        tau=softplus(blocks[:, g.k + 2]) + dt / 10.0,
        v=ev / ev.sum(),
        dt=dt,
    )


def encode_genome(arr: AfferentArray) -> Genome:
    """Invert decode_genome on constrained parameters.

    Softplus is inverted through inv_softplus and the softmax through
    elementwise log, so decode(encode(arr), arr.dt) reproduces the
    constrained parameters within 1e-6.  An alpha or tau decoded onto its
    floor has an excess of 0, raised to the smallest positive float, which
    decodes back onto the floor.
    """
    k = arr.k
    excess = np.array([arr.alpha - 1e-3, arr.tau - arr.dt / 10.0])
    excess[excess == 0.0] = np.nextafter(0.0, 1.0)
    blocks = np.empty((arr.m, k + BLOCK_EXTRA))
    blocks[:, :k] = arr.W
    blocks[:, k], blocks[:, k + 2] = inv_softplus(excess)
    blocks[:, k + 1] = arr.theta
    blocks[:, k + 3] = np.log(np.maximum(arr.v, 1e-300))
    return Genome(raw=blocks.ravel(), m=arr.m, k=k)


def compute_cat(arr: AfferentArray, acts: np.ndarray, x: np.ndarray):
    """Step every unit from activations acts on feature vector x and aggregate.

    Returns (cat, next_acts), where next_acts is a new array and
    cat = sum_i v_i a_i over it lies in [0, 1]; acts is left unchanged.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != arr.W.shape[1:]:
        raise ValidationError("feature vector length %d, expected %d" % (x.size, arr.k))
    if not all(map(math.isfinite, x.tolist())):
        raise ValidationError("feature vector contains non-finite values")
    u = np.dot(arr.W, x)
    u -= arr.theta
    u *= arr.alpha
    innovation = sigmoid_array(u)
    next_acts = arr.keep * acts
    next_acts += np.multiply(arr.beta, innovation, out=innovation)
    return float(np.dot(arr.v, next_acts)), next_acts


def handcrafted_genome(m: int, k: int, dt: float = 1.0) -> Genome:
    """Fixed non-evolved genome used as a hand-tuned baseline array.

    Each unit watches a single feature axis in round-robin order with
    threshold 0.6, gain 8, time constant 5 steps, and uniform aggregation.
    """
    W = np.zeros((m, k))
    W[np.arange(m), np.arange(m) % k] = 1.0
    arr = AfferentArray(W=W, alpha=np.full(m, 8.0), theta=np.full(m, 0.6),
                        tau=np.full(m, 5.0), v=np.full(m, 1.0 / m), dt=dt)
    return encode_genome(arr)
