"""Small numeric helpers used across modules."""

from __future__ import annotations

import numpy as np

__all__ = [
    "sigmoid",
    "sigmoid_array",
    "softplus",
    "inv_softplus",
    "rng_for",
    "percentile_95",
]


def sigmoid(x: float) -> float:
    """Numerically stable logistic function, exact 0/1 in the saturated tails.

    sigmoid(x) = exp(min(x, 0)) / (1 + e), e = exp(-|x|): the numerator is
    exactly 1 where x >= 0 and e elsewhere, so neither exp overflows.
    """
    e = np.exp(-abs(x))
    return float((1.0 if x >= 0 else e) / (1.0 + e))


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """sigmoid of a float64 array, in two new arrays; each element has sigmoid's bits."""
    if not x.ndim:  # ufuncs return scalars on 0-d input, and a scalar takes no out
        return sigmoid_array(x.reshape(1))[0]
    num = np.minimum(x, 0.0)
    np.exp(num, out=num)
    den = np.copysign(x, -1.0)  # -|x|: the bits of negative(abs(x)), NaN too, in one call
    np.exp(den, out=den)
    den += 1.0
    num /= den
    return num


def softplus(x):
    """log(1 + exp(x)) without overflow; a float gives a float, as in sigmoid."""
    if isinstance(x, float):
        return float(max(x, 0.0) + np.log1p(np.exp(-abs(x))))
    x = np.asarray(x, dtype=float)
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    if out.ndim == 0:
        return float(out)
    return out


def inv_softplus(y):
    """Inverse of softplus on y > 0: log(expm1(y)) below 1, finite down to the
    smallest float, and y + log1p(-exp(-y)), which cannot overflow, from 1 up."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise ValueError("inv_softplus requires positive input")
    hi = np.maximum(y, 1.0)
    out = np.where(y < 1.0, np.log(np.expm1(np.minimum(y, 1.0))), hi + np.log1p(-np.exp(-hi)))
    if out.ndim == 0:
        return float(out)
    return out


def rng_for(*keys: int) -> np.random.Generator:
    """Deterministic generator derived from a tuple of integer keys."""
    return np.random.default_rng(np.random.SeedSequence(tuple(int(k) for k in keys)))


def percentile_95(values) -> float:
    """95th percentile as an order statistic: the ceil(0.95 n)-th smallest value."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("percentile of empty set")
    k = int(np.ceil(0.95 * v.size)) - 1
    k = max(k, 0)
    return float(np.partition(v, k)[k])
