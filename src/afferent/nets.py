"""Minimal MLP with hand-written backpropagation and an Adam optimizer.

Networks are small (two hidden tanh layers by default) and parameters live in
per-layer arrays exposed as one flat vector, which keeps optimizer state and
finite-difference checks simple.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

__all__ = ["MLP", "Adam", "clip_grad"]


def _orthogonal(rng: np.random.Generator, rows: int, cols: int, gain: float) -> np.ndarray:
    a = rng.standard_normal((max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


class MLP:
    """Fully connected net, tanh hidden activations, linear output."""

    def __init__(self, sizes, rng: np.random.Generator, out_gain: float = 1.0):
        if len(sizes) < 2:
            raise ValidationError("MLP needs at least input and output sizes")
        self.sizes = list(int(s) for s in sizes)
        self.weights = []
        self.biases = []
        for i in range(len(self.sizes) - 1):
            fan_in, fan_out = self.sizes[i], self.sizes[i + 1]
            gain = out_gain if i == len(self.sizes) - 2 else np.sqrt(2.0)
            self.weights.append(_orthogonal(rng, fan_in, fan_out, gain))
            self.biases.append(np.zeros(fan_out))

    @property
    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def get_params(self) -> np.ndarray:
        parts = []
        for w, b in zip(self.weights, self.biases):
            parts.append(w.ravel())
            parts.append(b)
        return np.concatenate(parts)

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.n_params,):
            raise ValidationError("parameter vector length mismatch")
        i = 0
        for li in range(len(self.weights)):
            w, b = self.weights[li], self.biases[li]
            self.weights[li] = flat[i : i + w.size].reshape(w.shape).copy()
            i += w.size
            self.biases[li] = flat[i : i + b.size].copy()
            i += b.size

    def forward(self, X: np.ndarray):
        """Forward pass; returns (output, cache for backward).

        X is a batch (n x in) or a single row (in,), whose output is the
        1-D (out,); backward takes the cache of a batch.
        """
        X = np.asarray(X, dtype=float)
        hs = [X]
        h = X
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w + b
            h = z if i == last else np.tanh(z)
            hs.append(h)
        return hs[-1], hs

    def backward(self, cache, grad_out: np.ndarray) -> np.ndarray:
        """Gradient of sum(grad_out * output) w.r.t. the flat parameters."""
        grad_out = np.atleast_2d(np.asarray(grad_out, dtype=float))
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        delta = grad_out
        for i in range(len(self.weights) - 1, -1, -1):
            h_in = cache[i]
            grads_w[i] = h_in.T @ delta
            grads_b[i] = delta.sum(axis=0)
            if i > 0:
                # cache[i] holds tanh(z) for hidden layers, so 1 - h^2 is tanh'
                delta = (delta @ self.weights[i].T) * (1.0 - cache[i] ** 2)
        parts = []
        for gw, gb in zip(grads_w, grads_b):
            parts.append(gw.ravel())
            parts.append(gb)
        return np.concatenate(parts)


class Adam:
    """Adam on a flat parameter vector."""

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, n: int, lr: float):
        self.lr = lr
        self.m = np.zeros(n)
        self.v = np.zeros(n)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if not np.all(np.isfinite(grad)):
            raise ValidationError("non-finite gradient")
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad**2
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_grad(grad: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale the gradient down to the given global L2 norm if it exceeds it."""
    norm = float(np.linalg.norm(grad))
    if norm > max_norm and norm > 0:
        return grad * (max_norm / norm)
    return grad
