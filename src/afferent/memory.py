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
holds its finalized episodes as row-aligned columns of capacity rows, oldest
first: the (capacity x key_dim) ``keys`` matrix and the ``delta`` (summed
future damage) and ``cat_hist`` (mean CAT of the capture window) vectors, row
i of each belonging to the same episode.  ``insert`` is their only writer and
shifts every column up by one row on eviction, so retrieval is one
matrix-vector product on the first len(store) rows, the stable sort still
breaks ties by age, and recall reads ``delta`` at the retrieved rows.  The
rolling window keeps its x, activation and CAT rows in fixed arrays in
chronological order, with one spare row for a query's current step, and keys
are summarized from views of those rows.  The rows hold the same bytes in the
same order as stacking the per-episode and per-step arrays, so results are
bit-identical to the stacking formulation that ``encode_key`` keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "MemoryStore",
    "RecallResult",
    "Window",
    "encode_key",
    "maybe_capture",
    "retrieve",
    "recall_risk",
    "apply_memory_bias",
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

    The steps are array rows, oldest first, allocated by the first push with
    one spare row past the window, which ``with_current`` fills to summarize
    a query's current step without recording it.
    """

    def __init__(self):
        self.n = 0
        self.xs = self.acts = self.cats = None
        self.pending: list[_Pending] = []

    def __len__(self) -> int:
        return self.n

    def clear(self) -> None:
        """Drop the recorded steps and the open captures."""
        self.n = 0
        self.pending = []

    def _put(self, row: int, x, activations, cat) -> None:
        if self.xs is None:
            self.xs = np.empty((PRE_WINDOW + 1, np.size(x)))
            self.acts = np.empty((PRE_WINDOW + 1, np.size(activations)))
            self.cats = np.empty(PRE_WINDOW + 1)
        self.xs[row] = x
        self.acts[row] = activations
        self.cats[row] = cat

    def push(self, x, activations, cat) -> None:
        if self.n == PRE_WINDOW:
            for a in (self.xs, self.acts, self.cats):
                a[:PRE_WINDOW - 1] = a[1:PRE_WINDOW]
            self.n -= 1
        self._put(self.n, x, activations, cat)
        self.n += 1

    def rows(self):
        """Views of the recorded (xs, acts, cats) rows."""
        return self.xs[:self.n], self.acts[:self.n], self.cats[:self.n]

    def with_current(self, x, activations, cat):
        """Views of the last PRE_WINDOW−1 recorded rows plus the given step."""
        self._put(self.n, x, activations, cat)
        lo, hi = max(0, self.n + 1 - PRE_WINDOW), self.n + 1
        return self.xs[lo:hi], self.acts[lo:hi], self.cats[lo:hi]


class MemoryStore:
    """Capacity-bounded FIFO store of finalized episodes.

    Rows [0, n) of ``keys``, ``delta`` and ``cat_hist`` are the finalized
    episodes, oldest first; the key matrix is allocated by the first insert,
    which fixes key_dim.  The store also holds its policy: queries retrieve
    k_ret episodes, and a step triggers a capture when its damage increment
    exceeds eps_d or its CAT exceeds kappa_cat.
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
        self.keys: np.ndarray | None = None
        self.delta = np.empty(self.capacity)
        self.cat_hist = np.empty(self.capacity)

    def __len__(self) -> int:
        return self.n

    def insert(self, key, delta: float, cat_hist: float) -> None:
        """Append one finalized episode, evicting the oldest when full."""
        key = np.asarray(key, dtype=float)
        if self.keys is None:
            self.keys = np.empty((self.capacity, key.size))
        if key.shape != self.keys.shape[1:]:
            raise ValidationError(
                f"key shape {key.shape} does not match the store's key_dim "
                f"{self.keys.shape[1]}")
        if self.n == self.capacity:
            for col in (self.keys, self.delta, self.cat_hist):
                col[:-1] = col[1:]
            self.n -= 1
        self.keys[self.n] = key
        self.delta[self.n] = delta
        self.cat_hist[self.n] = cat_hist
        self.n += 1

    def query(self, window: Window, x, activations, cat) -> RecallResult:
        """Recall risk for the stream's current context before it is recorded.

        The query key summarizes the window's last PRE_WINDOW−1 recorded steps
        plus the current (x, activations, cat) triple; with fewer than two
        points the result is the empty-memory (0, 0).
        """
        if not window or not self.n:
            return RecallResult(0.0, 0.0)
        key = _summarize(*window.with_current(x, activations, cat))
        idx, dist = retrieve(self, key, self.k_ret)
        return recall_risk(self.delta[idx], dist)

    def end_episode(self, window: Window) -> None:
        """Finalize the window's open captures with their partial sums."""
        for p in window.pending:
            self.insert(p.key, p.delta_sum, p.cat_hist)
        window.pending = []


def encode_key(window, k: int) -> np.ndarray:
    """Summarize the last k steps of (x, activations, cat) into a unit key.

    Layout: [mean x (K), mean activations (M), mean CAT (1),
    endpoint finite-difference (x_last − x_first)/(k−1) (K)], then
    L2-normalized; an all-zero summary falls back to the first basis vector.
    """
    window = list(window)[-k:]
    if len(window) < 2:
        raise ValidationError("key window needs at least 2 steps")
    xs = np.stack([np.asarray(w[0], float) for w in window])
    acts = np.stack([np.asarray(w[1], float) for w in window])
    cats = np.array([float(w[2]) for w in window])
    return _summarize(xs, acts, cats)


def _summarize(xs: np.ndarray, acts: np.ndarray, cats: np.ndarray) -> np.ndarray:
    """encode_key on a window already held as (steps x K), (steps x M), (steps,) rows."""
    xdot = (xs[-1] - xs[0]) / (len(xs) - 1)
    raw = np.concatenate([xs.mean(axis=0), acts.mean(axis=0), [cats.mean()], xdot])
    norm = float(np.linalg.norm(raw))
    if norm < 1e-12:
        key = np.zeros(raw.shape)
        key[0] = 1.0
        return key
    return raw / norm


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
    xs, acts, cats = window.rows()
    key = _summarize(xs, acts, cats)
    cat_hist = float(np.mean(cats))
    window.pending.append(_Pending(key=key, cat_hist=cat_hist,
                                   delta_sum=delta_d, steps_left=HORIZON - 1))
    return True


def retrieve(store: MemoryStore, key: np.ndarray, k_ret: int = K_RET):
    """(rows, distances) of the k_ret episodes nearest in cosine distance, ties by age."""
    key = np.asarray(key, dtype=float)
    n = len(store)
    if not n:
        return np.empty(0, dtype=int), np.empty(0)
    dist = 1.0 - store.keys[:n] @ key
    # Only distances up to the k-th smallest can be kept; a stable sort of
    # those, taken in index order, breaks ties by age as a full sort does.
    k = min(k_ret, n)
    kth = np.partition(dist, k - 1)[k - 1]
    cand = np.flatnonzero(dist <= kth)
    order = cand[np.argsort(dist[cand], kind="stable")][:k]
    return order, dist[order]


def recall_risk(deltas, dist) -> RecallResult:
    """Inverse-distance-weighted mean of retrieved future-damage values."""
    d = np.asarray(dist, dtype=float)
    if not d.size:
        return RecallResult(0.0, 0.0)
    if np.any(d < 0):
        raise ValidationError("negative retrieval distance")
    w = 1.0 / (d + EPS_WEIGHT)
    w = w / w.sum()
    return RecallResult(float(w @ deltas), float(d.mean()))


def apply_memory_bias(cat_mech: float, store: MemoryStore) -> float:
    """Blend 70% mechanical CAT with 30% historical mean CAT of the store.

    Requires at least 3 finalized episodes; otherwise the mechanical CAT
    passes through unchanged.
    """
    n = len(store)
    if n < 3:
        return cat_mech
    return 0.7 * cat_mech + 0.3 * float(np.mean(store.cat_hist[:n]))
