"""Episodic memory: event-triggered capture, kNN retrieval, recall risk.

Each stream keeps a Window of its recent steps and open captures, and records
every step there when it senses it.  When a step's damage increment or CAT
crosses its trigger threshold, the window is summarized into a normalized
context key and a capture opens; it finalizes into the store once the next h
damage increments have been summed (or at episode end with the partial sum).
The store holds only finalized episodes and thresholds, so frozen streams
share it read-only.  Retrieval is exact linear-scan kNN under cosine
distance, and recall risk is the inverse-distance-weighted mean of retrieved
future-damage values.

The query path reads preallocated arrays, never per-call stacks.  The store
holds its finalized episodes as two row-aligned columns, oldest first: the
(len(store) x key_dim) ``keys`` matrix and the ``delta`` (summed future
damage) vector, views of the live rows of buffers of twice the capacity.
``insert`` writes past the newest row, evicts by moving the views on, and
copies the live rows to the front once per capacity inserts.  Retrieval is
one matrix-vector product on ``keys``, whose bits do not depend on the start
row.  The window keeps its steps as [x | activations | cat] rows of one
array, oldest first.  The rows hold the bytes of stacking the per-step
arrays, and means and norms are the reductions ``.mean`` and
``np.linalg.norm`` run, so keys are bit-identical to the stacking oracle in
``tests/test_memory.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "MemoryStore",
    "RecallResult",
    "Window",
    "maybe_capture",
    "retrieve",
    "recall_risk",
    "PRE_WINDOW",
    "HORIZON",
    "EPS_D",
    "KAPPA_CAT",
    "CAPACITY",
    "K_RET",
    "EPS_WEIGHT",
]

PRE_WINDOW = 8  # steps summarized into the context key
HORIZON = 10  # damage-summation horizon h
# Trigger thresholds sized to the twin's damage scale: per-step increments top
# out near 3e-4 at moderate ages, and the combined CAT crosses 0.4 only in the
# damage-adjacent intensity range, so these fire rarely but regularly.
EPS_D = 2e-4
KAPPA_CAT = 0.4
CAPACITY = 512
K_RET = 5
EPS_WEIGHT = 1e-6


@dataclass
class _Pending:
    key: np.ndarray
    delta_sum: float
    steps_left: int


@dataclass
class RecallResult:
    y_hat: float
    d_mean: float


class Window:
    """One stream's open captures and last PRE_WINDOW (x, activations, cat) steps.

    The steps are [x | activations | cat] rows, oldest first, of a
    PRE_WINDOW-row array allocated by the first push, which also fixes K.  A
    stream pushes each step once, when it senses it, so the step's query and
    a capture it opens share one key, which key() keeps until the next push or clear.
    """

    def __init__(self):
        self.steps = None
        self.clear()

    def __len__(self) -> int:
        return self.n

    def clear(self) -> None:
        """Drop the recorded steps, the open captures and the key."""
        self.n = 0
        self.pending: list[_Pending] = []
        self._key = None

    def push(self, x, activations, cat) -> None:
        """Record one step, evicting the oldest once PRE_WINDOW are held."""
        if self.steps is None:
            self.k = len(x)
            self.steps = np.empty((PRE_WINDOW, self.k + len(activations) + 1))
        if self.n == PRE_WINDOW:
            self.steps[:-1] = self.steps[1:]
            self.n -= 1
        step = self.steps[self.n]
        step[:self.k] = x
        step[self.k:-1] = activations
        step[-1] = cat
        self.n += 1
        self._key = None

    def key(self) -> np.ndarray:
        """Unit context key of the recorded steps; needs at least two.

        Layout: [mean x (K), mean activations (M), mean CAT (1), endpoint
        finite-difference (x_last − x_first)/(steps−1) (K)], then L2-normalized;
        an all-zero summary falls back to the first basis vector.
        """
        if self._key is not None:
            return self._key
        n, k = self.n, self.k
        rows = self.steps[:n]
        raw = np.empty(rows.shape[1] + k)
        np.add.reduce(rows, axis=0, out=raw[:-k])
        raw[-k - 1] = np.add.reduce(rows[:, -1])  # 1-D, in the order cats.mean() adds
        raw[:-k] /= n
        np.subtract(rows[-1, :k], rows[0, :k], out=raw[-k:])
        raw[-k:] /= n - 1
        norm = math.sqrt(raw @ raw)
        if norm < 1e-12:
            raw[:] = 0.0
            raw[0] = 1.0
        else:
            raw /= norm
        self._key = raw
        return raw


class MemoryStore:
    """Capacity-bounded FIFO store of finalized episodes.

    ``keys`` and ``delta`` are views of the len(store) live rows, oldest
    first, of buffers of 2 x capacity rows; the key buffer is allocated by the
    first insert, which fixes key_dim.  The store also holds its policy:
    queries retrieve k_ret episodes, and a step triggers a capture when its
    damage increment exceeds eps_d or its CAT exceeds kappa_cat.
    """

    def __init__(self, capacity: int = CAPACITY, k_ret: int = K_RET,
                 eps_d: float = EPS_D, kappa_cat: float = KAPPA_CAT):
        if capacity <= 0:
            raise ValidationError("capacity must be positive")
        self.capacity = int(capacity)
        self.k_ret = k_ret
        self.eps_d = eps_d
        self.kappa_cat = kappa_cat
        self.n = 0
        self._start = 0  # buffer row of the oldest live episode
        self._bufs = None  # the keys and delta buffers
        self.keys = self.delta = np.empty(0)

    def __len__(self) -> int:
        return self.n

    def insert(self, key, delta: float) -> None:
        """Append one finalized episode, evicting the oldest when full."""
        key = np.asarray(key, dtype=float)
        if not (np.isfinite(key).all() and math.isfinite(delta)):
            raise ValidationError("episode key and delta must be finite")
        if self._bufs is None:
            rows = 2 * self.capacity
            self._bufs = [np.empty((rows, key.size)), np.empty(rows)]
        if key.shape != self._bufs[0].shape[1:]:
            raise ValidationError(
                f"key shape {key.shape} does not match the store's key_dim "
                f"{self._bufs[0].shape[1]}")
        start, n = self._start, self.n
        if start + n == 2 * self.capacity:  # out of rows: copy the live rows to the front
            for buf in self._bufs:
                buf[:n] = buf[start:]
            start = 0
        for buf, value in zip(self._bufs, (key, delta)):
            buf[start + n] = value
        self._start, self.n = (start + 1, n) if n == self.capacity else (start, n + 1)
        self.keys, self.delta = (buf[self._start:self._start + self.n] for buf in self._bufs)

    def query(self, window: Window) -> RecallResult:
        """Recall risk for the context of the window's steps, the current one last.

        With fewer than two recorded steps the result is the empty-memory (0, 0).
        """
        if window.n < 2 or not self.n:
            return RecallResult(0.0, 0.0)
        idx, dist = retrieve(self, window.key(), self.k_ret)
        return recall_risk(self.delta[idx], dist)

    def end_episode(self, window: Window) -> None:
        """Finalize the window's open captures with their partial sums."""
        for p in window.pending:
            self.insert(p.key, p.delta_sum)
        window.pending = []


def maybe_capture(store: MemoryStore, window: Window, cat: float, delta_d: float) -> bool:
    """Advance open horizons and open a capture on trigger, after the step is recorded.

    The window's last step is the current one.  Its damage increment counts
    toward every open horizon, including one opened at this step (the event
    step is term j=0 of the sum); a closed horizon is inserted into the store.
    The trigger thresholds are the store's.  Returns whether a new capture
    was opened.
    """
    still_open = []
    for p in window.pending:
        p.delta_sum += delta_d
        p.steps_left -= 1
        if p.steps_left <= 0:
            store.insert(p.key, p.delta_sum)
        else:
            still_open.append(p)
    window.pending = still_open

    triggered = delta_d > store.eps_d or cat > store.kappa_cat
    if not triggered or window.n < 2:
        return False
    window.pending.append(_Pending(key=window.key(), delta_sum=delta_d,
                                   steps_left=HORIZON - 1))
    return True


def retrieve(store: MemoryStore, key: np.ndarray, k_ret: int = K_RET):
    """(rows, distances) of the k_ret episodes nearest in cosine distance, ties by age."""
    n = store.n
    if not n:
        return np.empty(0, dtype=int), np.empty(0)
    dist = store.keys @ key
    np.subtract(1.0, dist, out=dist)
    # Only distances up to the k-th smallest can be kept; a stable sort of
    # those, taken in index order, breaks ties by age as a full sort does.
    k = min(k_ret, n)
    kth = np.partition(dist, k - 1)[k - 1]
    cand = (dist <= kth).nonzero()[0]
    order = cand[dist[cand].argsort(kind="stable")[:k]]
    return order, dist[order]


def recall_risk(deltas: np.ndarray, dist: np.ndarray) -> RecallResult:
    """Inverse-distance-weighted mean of retrieved future-damage values."""
    d = dist.tolist()
    if not d:
        return RecallResult(0.0, 0.0)
    if any(v < 0 for v in d):  # not min(d): a NaN ahead of a negative would hide it
        raise ValidationError("negative retrieval distance")
    w = 1.0 / (dist + EPS_WEIGHT)
    w /= np.add.reduce(w)
    return RecallResult(float(w @ deltas), float(np.add.reduce(dist)) / len(d))
