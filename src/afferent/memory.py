"""Episodic memory: event-triggered capture, kNN retrieval, recall risk.

Each stream keeps a Window of its recent steps and open captures.  When a
step's damage increment or CAT crosses its trigger threshold, the window is
summarized into a normalized context key and a capture opens; it finalizes
into the store once the next h damage increments have been summed (or at
episode end with the partial sum).  The store holds only finalized episodes
and thresholds, so frozen streams share it read-only.  Retrieval is exact
linear-scan kNN under cosine distance, and recall risk is the
inverse-distance-weighted mean of retrieved future-damage values.

The query path reads preallocated arrays, never per-call stacks.  The store
holds its finalized episodes as row-aligned columns, oldest first: the
(len(store) x key_dim) ``keys`` matrix and the ``delta`` (summed future
damage) and ``cat_hist`` (mean CAT of the capture window) vectors, views of
the live rows of buffers of twice the capacity.  ``insert`` writes past the
newest row, evicts by moving the views on, and copies the live rows to the
front once per capacity inserts.  Retrieval is one matrix-vector product on
``keys``, whose bits do not depend on the start row.  The rolling window
keeps its steps as [x | activations | cat] rows of one array, oldest first,
with a spare row for a query's current step.  The rows hold the bytes of
stacking the per-episode and per-step arrays, and means and norms are the
reductions ``.mean`` and ``np.linalg.norm`` run, so keys are bit-identical
to the stacking oracle in ``tests/test_memory.py``.
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
    cat_hist: float
    delta_sum: float
    steps_left: int


@dataclass
class RecallResult:
    y_hat: float
    d_mean: float


class Window:
    """One stream's open captures and last PRE_WINDOW (x, activations, cat) steps.

    The steps are [x | activations | cat] rows, oldest first, allocated by the
    first push with one spare row past the window, which ``with_current``
    fills to summarize a query's current step without recording it.
    """

    def __init__(self):
        self.n = 0
        self.steps = None
        self.pending: list[_Pending] = []

    def __len__(self) -> int:
        return self.n

    def clear(self) -> None:
        """Drop the recorded steps and the open captures."""
        self.n = 0
        self.pending = []

    def _put(self, row: int, x, activations, cat) -> None:
        k = len(x)
        if self.steps is None:
            self.steps = np.empty((PRE_WINDOW + 1, k + len(activations) + 1))
        step = self.steps[row]
        step[:k] = x
        step[k:-1] = activations
        step[-1] = cat

    def push(self, x, activations, cat) -> None:
        if self.n == PRE_WINDOW:
            self.steps[:PRE_WINDOW - 1] = self.steps[1:PRE_WINDOW]
            self.n -= 1
        self._put(self.n, x, activations, cat)
        self.n += 1

    def rows(self) -> np.ndarray:
        """View of the recorded [x | activations | cat] rows."""
        return self.steps[:self.n]

    def with_current(self, x, activations, cat) -> np.ndarray:
        """View of the last PRE_WINDOW−1 recorded rows plus the given step."""
        self._put(self.n, x, activations, cat)
        return self.steps[max(0, self.n + 1 - PRE_WINDOW):self.n + 1]


class MemoryStore:
    """Capacity-bounded FIFO store of finalized episodes.

    ``keys``, ``delta`` and ``cat_hist`` are views of the len(store) live
    rows, oldest first, of buffers of 2 x capacity rows; the key buffer is
    allocated by the first insert, which fixes key_dim.  The store also holds
    its policy: queries retrieve k_ret episodes, and a step triggers a capture
    when its damage increment exceeds eps_d or its CAT exceeds kappa_cat.
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
        self._bufs = None  # the keys, delta and cat_hist buffers
        self.keys = self.delta = self.cat_hist = np.empty(0)

    def __len__(self) -> int:
        return self.n

    def insert(self, key, delta: float, cat_hist: float) -> None:
        """Append one finalized episode, evicting the oldest when full."""
        key = np.asarray(key, dtype=float)
        if self._bufs is None:
            rows = 2 * self.capacity
            self._bufs = [np.empty((rows, key.size)), np.empty(rows), np.empty(rows)]
        if key.shape != self._bufs[0].shape[1:]:
            raise ValidationError(
                f"key shape {key.shape} does not match the store's key_dim "
                f"{self._bufs[0].shape[1]}")
        start, n = self._start, self.n
        if start + n == 2 * self.capacity:  # out of rows: copy the live rows to the front
            for buf in self._bufs:
                buf[:n] = buf[start:]
            start = 0
        for buf, value in zip(self._bufs, (key, delta, cat_hist)):
            buf[start + n] = value
        self._start, self.n = (start + 1, n) if n == self.capacity else (start, n + 1)
        self.keys, self.delta, self.cat_hist = (
            buf[self._start:self._start + self.n] for buf in self._bufs)

    def query(self, window: Window, x, activations, cat) -> RecallResult:
        """Recall risk for the stream's current context before it is recorded.

        The query key summarizes the window's last PRE_WINDOW−1 recorded steps
        plus the current (x, activations, cat) triple; with fewer than two
        points the result is the empty-memory (0, 0).
        """
        if not window.n or not self.n:
            return RecallResult(0.0, 0.0)
        key, _ = _summarize(window.with_current(x, activations, cat), len(x))
        idx, dist = retrieve(self, key, self.k_ret)
        return recall_risk(self.delta[idx], dist)

    def end_episode(self, window: Window) -> None:
        """Finalize the window's open captures with their partial sums."""
        for p in window.pending:
            self.insert(p.key, p.delta_sum, p.cat_hist)
        window.pending = []


def _summarize(rows: np.ndarray, k: int):
    """(unit key, mean CAT) of a window held as [x (K) | activations | cat] rows.

    Key layout: [mean x (K), mean activations (M), mean CAT (1), endpoint
    finite-difference (x_last − x_first)/(steps−1) (K)], then L2-normalized;
    an all-zero summary falls back to the first basis vector.
    """
    n = len(rows)
    raw = np.empty(rows.shape[1] + k)
    np.add.reduce(rows, axis=0, out=raw[:-k])
    raw[-k - 1] = np.add.reduce(rows[:, -1])  # 1-D, in the order cats.mean() adds
    raw[:-k] /= n
    np.subtract(rows[-1, :k], rows[0, :k], out=raw[-k:])
    raw[-k:] /= n - 1
    cat_mean = float(raw[-k - 1])
    norm = math.sqrt(raw @ raw)
    if norm < 1e-12:
        raw[:] = 0.0
        raw[0] = 1.0
    else:
        raw /= norm
    return raw, cat_mean


def maybe_capture(store: MemoryStore, window: Window, x, activations, cat: float,
                  delta_d: float) -> bool:
    """Record one step, advance open horizons, and open a capture on trigger.

    The current step's damage increment counts toward every open horizon,
    including one opened at this step (the event step is term j=0 of the sum);
    a closed horizon is inserted into the store.  The trigger thresholds are
    the store's.  Returns whether a new capture was opened.
    """
    window.push(x, activations, cat)
    still_open = []
    for p in window.pending:
        p.delta_sum += delta_d
        p.steps_left -= 1
        if p.steps_left <= 0:
            store.insert(p.key, p.delta_sum, p.cat_hist)
        else:
            still_open.append(p)
    window.pending = still_open

    triggered = delta_d > store.eps_d or cat > store.kappa_cat
    if not triggered or len(window) < 2:
        return False
    key, cat_hist = _summarize(window.rows(), len(x))
    window.pending.append(_Pending(key=key, cat_hist=cat_hist,
                                   delta_sum=delta_d, steps_left=HORIZON - 1))
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
