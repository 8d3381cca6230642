"""Minimal MLP with hand-written backpropagation and an Adam optimizer.

Networks are small (two hidden tanh layers by default).  An MLP owns no
parameters: it wraps a flat vector its caller owns, and each layer's weight
matrix and bias are reshaped views into that vector in the order W0
(row-major), b0, W1, b1, ...  Backward writes the gradient into the same
layout, and Adam updates the vector in place, so optimizer state and
finite-difference checks work on the one array the forward pass reads.
Products are ``np.dot``: ``@``'s bits on these nets' shapes, less overhead, and
an ``out=`` that must be C-contiguous, as the gradient vector's layer views are.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TrainingError, ValidationError

__all__ = ["MLP", "Adam", "clip_grad"]


def _orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def _layers(sizes, flat: np.ndarray):
    """(weights, biases): per-layer views into flat, W0 row-major, b0, W1, ..."""
    weights, biases = [], []
    i = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[i : i + fan_in * fan_out].reshape(fan_in, fan_out))
        i += fan_in * fan_out
        biases.append(flat[i : i + fan_out])
        i += fan_out
    return weights, biases


class MLP:
    """Fully connected net, tanh hidden activations, linear output."""

    def __init__(self, sizes, params: np.ndarray):
        if len(sizes) < 2:
            raise ValidationError("MLP needs at least input and output sizes")
        self.sizes = [int(s) for s in sizes]
        self.n_params = self.count(self.sizes)
        if params.shape != (self.n_params,):
            raise ValidationError("parameter vector length mismatch")
        self.weights, self.biases = _layers(self.sizes, params)
        *self._hidden, self._out = zip(self.weights, self.biases)

    @staticmethod
    def count(sizes) -> int:
        """Number of parameters of an MLP with these layer sizes."""
        return sum((a + 1) * b for a, b in zip(sizes[:-1], sizes[1:]))

    def init(self, rng: np.random.Generator, out_gain: float) -> None:
        """Orthogonal weights (gain sqrt 2, out_gain on the last layer), zero biases."""
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            w[...] = _orthogonal(rng, *w.shape, out_gain if i == last else np.sqrt(2.0))
            b[...] = 0.0

    def forward(self, X: np.ndarray):
        """Forward pass; returns (output, cache for backward).

        X is a float64 batch (n x in) or a single row (in,), whose output is
        the 1-D (out,); backward takes the cache of a batch.
        """
        h, hs = X, [X]
        for w, b in self._hidden:
            h = np.dot(h, w)
            h += b
            hs.append(np.tanh(h, out=h))
        w, b = self._out
        h = np.dot(h, w)
        h += b
        hs.append(h)
        return h, hs

    def backward(self, cache, grad_out: np.ndarray, out: np.ndarray) -> None:
        """Write the gradient of sum(grad_out * output), a float64 batch, into out."""
        grads_w, grads_b = _layers(self.sizes, out)
        delta = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            np.dot(cache[i].T, delta, out=grads_w[i])
            np.add.reduce(delta, axis=0, out=grads_b[i])
            if i > 0:
                # cache[i] holds tanh(z) for hidden layers, so 1 - h^2 is tanh'
                delta = np.dot(delta, self.weights[i].T) * (1.0 - cache[i] ** 2)


class Adam:
    """Adam on a flat parameter vector, updated in place."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, n: int, lr: float):
        self.lr = lr
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self._a = np.empty(n)
        self._b = np.empty(n)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> None:
        """params -= lr * m_hat / (sqrt(v_hat) + eps), every buffer updated in place."""
        # a finite sum of squares clears grad; only an overflowed one is checked per entry
        if not math.isfinite(grad @ grad) and not np.isfinite(grad).all():
            raise TrainingError("non-finite gradient")
        self.t += 1
        a, b = self._a, self._b
        np.multiply(self.m, self.beta1, out=self.m)
        self.m += np.multiply(grad, 1.0 - self.beta1, out=a)
        np.multiply(self.v, self.beta2, out=self.v)
        np.square(grad, out=a)
        self.v += np.multiply(a, 1.0 - self.beta2, out=a)
        np.divide(self.m, 1.0 - self.beta1**self.t, out=a)
        a *= self.lr
        np.divide(self.v, 1.0 - self.beta2**self.t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        params -= a


def clip_grad(grad: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale the gradient down to the given global L2 norm if it exceeds it.

    A finite gradient whose sum of squares overflows is divided by its
    largest |entry| first; inf or NaN entries pass on to Adam.step's check.
    """
    norm = math.sqrt(grad @ grad)  # np.linalg.norm's form for a vector
    if norm == math.inf and math.isfinite(scale := float(np.abs(grad).max())):
        unit = grad / scale
        return unit * (max_norm / math.sqrt(unit @ unit))
    if norm > max_norm and norm > 0:
        return grad * (max_norm / norm)
    return grad
