import numpy as np
import pytest

from afferent import memory
from afferent.errors import ValidationError
from afferent.memory import (
    EPS_WEIGHT,
    HORIZON,
    PRE_WINDOW,
    MemoryStore,
    Window,
    RecallResult,
    maybe_capture,
    recall_risk,
    retrieve,
)


def step(store, window, x, acts, cat, delta_d):
    """Record one step in the window, then advance its captures, as a Runner does."""
    window.push(np.asarray(x, float), np.asarray(acts, float), cat)
    return maybe_capture(store, window, cat, delta_d)


def recall(store, key, k_ret):
    idx, dist = retrieve(store, key, k_ret)
    return recall_risk(store.delta[idx], dist)


def encode_key(window, k: int) -> np.ndarray:
    """Oracle key of the last k (x, activations, cat) steps, stacked afresh.

    Layout: [mean x (K), mean activations (M), mean CAT (1), endpoint
    finite-difference (x_last − x_first)/(k−1) (K)], then L2-normalized; an
    all-zero summary falls back to the first basis vector.  Written with
    np.stack, .mean and np.linalg.norm, the forms the store's keys must
    reproduce bit for bit.
    """
    window = list(window)[-k:]
    if len(window) < 2:
        raise ValidationError("key window needs at least 2 steps")
    xs = np.stack([np.asarray(w[0], float) for w in window])
    acts = np.stack([np.asarray(w[1], float) for w in window])
    cats = np.array([float(w[2]) for w in window])
    xdot = (xs[-1] - xs[0]) / (len(xs) - 1)
    raw = np.concatenate([xs.mean(axis=0), acts.mean(axis=0), [cats.mean()], xdot])
    norm = float(np.linalg.norm(raw))
    if norm < 1e-12:
        key = np.zeros(raw.shape)
        key[0] = 1.0
        return key
    return raw / norm


def test_encode_key_layout_oracle():
    win = [([1.0, 0.0], [0.5, 0.5], 0.5), ([0.0, 1.0], [0.5, 0.5], 0.5)]
    key = encode_key(win, 2)
    raw = np.array([0.5, 0.5, 0.5, 0.5, 0.5, -1.0, 1.0])
    assert np.allclose(key, raw / np.sqrt(3.25), atol=1e-12)
    assert np.linalg.norm(key) == pytest.approx(1.0, abs=1e-12)
    window = Window()
    for step in win:
        window.push(*step)
    assert np.array_equal(window.key(), key)


def test_encode_key_uses_last_k():
    win = [([9.0, 9.0], [9.0], 9.0), ([1.0, 0.0], [0.5], 0.5), ([0.0, 1.0], [0.5], 0.5)]
    assert np.array_equal(encode_key(win, 2), encode_key(win[1:], 2))


def test_encode_key_zero_fallback_and_validation():
    win = [([0.0, 0.0], [0.0], 0.0), ([0.0, 0.0], [0.0], 0.0)]
    key = encode_key(win, 2)
    assert key[0] == 1.0 and np.all(key[1:] == 0.0)
    window = Window()
    for step in win:
        window.push(*step)
    assert np.array_equal(window.key(), key)
    with pytest.raises(ValidationError):
        encode_key(win[:1], 1)


def _random_step(rng, scale):
    return (rng.uniform(-1.0, 1.0, 3) * scale, rng.uniform(0.0, 1.0, 64),
            float(rng.uniform(0.0, 1.0)) * scale)


@pytest.mark.parametrize("scale", [1.0, 1e-7, 3e5])
def test_summarize_window_rows_equal_stacked_oracle_bits(scale):
    # Window lengths 2..PRE_WINDOW, then evictions: the key of the recorded
    # rows must equal the stacked oracle's to the last bit, not only be close.
    rng = np.random.default_rng(21)
    window, steps = Window(), []
    for t in range(PRE_WINDOW + 6):
        steps.append(_random_step(rng, scale))
        window.push(*steps[-1])
        n = min(t + 1, PRE_WINDOW)
        assert len(window) == n
        if t:
            assert window.key().tobytes() == encode_key(steps, n).tobytes()
    zero = (np.zeros(3), np.zeros(64), 0.0)
    for _ in range(PRE_WINDOW):
        window.push(*zero)
    assert window.key().tobytes() == encode_key([zero] * 2, 2).tobytes()


def test_store_capacity_fifo():
    store = MemoryStore(capacity=3)
    for i in range(5):
        store.insert([1.0, 0.0], float(i))
    assert len(store) == 3
    assert list(store.delta[:len(store)]) == [2.0, 3.0, 4.0]
    with pytest.raises(ValidationError):
        MemoryStore(capacity=0)


def test_capture_trigger_and_horizon_sum():
    store, window = MemoryStore(), Window()
    assert not step(store, window, [0.1, 0.1], [0.0, 0.0], 0.0, 0.0)
    assert not step(store, window, [0.1, 0.1], [0.0, 0.0], 0.0, 0.0)
    # damage trigger; the event step is the first term of the horizon sum
    assert step(store, window, [0.8, 0.8], [0.5, 0.5], 0.1, 1e-3)
    assert len(window.pending) == 1 and len(store) == 0
    for j in range(HORIZON - 1):
        opened = step(store, window, [0.2, 0.2], [0.1, 0.1], 0.1, 1e-4)
        assert not opened
    assert len(window.pending) == 0 and len(store) == 1
    assert store.delta[0] == pytest.approx(1e-3 + (HORIZON - 1) * 1e-4, abs=1e-15)
    # the key summarizes the window up to the event step
    win = [([0.1, 0.1], [0.0, 0.0], 0.0)] * 2 + [([0.8, 0.8], [0.5, 0.5], 0.1)]
    assert np.array_equal(store.keys[0], encode_key(win, 3))


def test_capture_cat_trigger_and_window_guard():
    store, window = MemoryStore(), Window()
    # high CAT alone cannot capture before the window has two steps
    assert not step(store, window, [0.5, 0.5], [0.9, 0.9], 0.9, 0.0)
    assert step(store, window, [0.5, 0.5], [0.9, 0.9], 0.9, 0.0)


def test_capture_thresholds_are_the_stores():
    # the same step triggers against the store's own eps_d and kappa_cat only
    for store, want in ((MemoryStore(eps_d=1e-2, kappa_cat=0.95), False),
                        (MemoryStore(eps_d=0.0, kappa_cat=0.95), True),
                        (MemoryStore(eps_d=1e-2, kappa_cat=0.5), True)):
        window = Window()
        step(store, window, [0.1, 0.1], [0.0, 0.0], 0.0, 0.0)
        assert step(store, window, [0.8, 0.8], [0.5, 0.5], 0.9, 1e-3) is want


def test_capture_key_matches_window_summary():
    store, window = MemoryStore(), Window()
    step(store, window, [0.1, 0.2], [0.0, 0.1], 0.05, 0.0)
    step(store, window, [0.7, 0.6], [0.4, 0.5], 0.45, 5e-4)
    win = [([0.1, 0.2], [0.0, 0.1], 0.05), ([0.7, 0.6], [0.4, 0.5], 0.45)]
    p = window.pending[0]
    assert np.array_equal(p.key, encode_key(win, 2))
    assert p.delta_sum == pytest.approx(5e-4)
    window.clear()  # drops the open capture with the steps
    assert len(window) == 0 and not window.pending


def test_end_episode_finalizes_partial_sums():
    store, window = MemoryStore(), Window()
    step(store, window, [0.1, 0.1], [0.0, 0.0], 0.0, 0.0)
    step(store, window, [0.8, 0.8], [0.5, 0.5], 0.5, 1e-3)
    step(store, window, [0.2, 0.2], [0.1, 0.1], 0.1, 2e-5)
    store.end_episode(window)
    assert len(window.pending) == 0 and len(window) == 3  # the steps stay
    window.clear()
    assert len(window.pending) == 0 and len(window) == 0
    assert len(store) == 1
    assert store.delta[0] == pytest.approx(1e-3 + 2e-5, abs=1e-15)


def test_retrieve_matches_cosine_order():
    store = MemoryStore()
    store.insert([0.0, 1.0, 0.0], 1.0)
    store.insert([1.0, 0.0, 0.0], 2.0)
    store.insert([0.6, 0.8, 0.0], 3.0)
    idx, dist = retrieve(store, np.array([1.0, 0.0, 0.0]), k_ret=2)
    assert list(idx) == [1, 2] and list(store.delta[idx]) == [2.0, 3.0]
    assert dist == pytest.approx([0.0, 0.4], abs=1e-12)
    idx, dist = retrieve(MemoryStore(), np.array([1.0, 0.0, 0.0]))
    assert idx.size == dist.size == 0


def test_retrieve_ties_break_by_insertion_order():
    store = MemoryStore()
    store.insert([1.0, 0.0], 1.0)
    store.insert([1.0, 0.0], 2.0)
    idx, _ = retrieve(store, np.array([1.0, 0.0]), k_ret=2)
    assert list(store.delta[idx]) == [1.0, 2.0]


def _stacked_retrieve(keys, deltas, key, k_ret):
    """(delta, distance) pairs recomputed from a fresh stack of the inserted keys."""
    dist = 1.0 - np.stack(keys) @ key
    order = np.argsort(dist, kind="stable")[:k_ret]
    return [(deltas[i], float(dist[i])) for i in order]


def _retrieved(store, key, k_ret):
    """retrieve as (delta, distance) pairs; each test's deltas identify its rows."""
    idx, dist = retrieve(store, key, k_ret)
    return [(float(store.delta[i]), float(d)) for i, d in zip(idx, dist)]


def test_retrieve_matches_full_stable_sort_with_ties_across_k():
    # Three distinct keys among 40 episodes, so nearly every distance ties
    # exactly, on both sides of the k_ret-th smallest.
    rng = np.random.default_rng(5)
    basis = np.eye(4)[:3]
    store = MemoryStore(capacity=64)
    keys = [basis[rng.integers(3)] for _ in range(40)]
    for i, k in enumerate(keys):
        store.insert(k, float(i))
    deltas = [float(i) for i in range(40)]
    for key in (*basis, np.full(4, 0.5)):
        for k_ret in (1, 2, 5, 13, 14, 39, 40, 41):
            assert _retrieved(store, key, k_ret) == _stacked_retrieve(keys, deltas, key, k_ret)


def test_key_matrix_matches_stacked_keys_through_evictions():
    rng = np.random.default_rng(11)
    pool = rng.normal(size=(6, 7))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    picks = [0, 1, 2, 0, 3, 0, 4, 1, 5, 2, 0, 1, 3, 0, 4, 0, 5, 1, 0, 2]
    queries = np.vstack([pool, rng.normal(size=(3, 7))])
    store = MemoryStore(capacity=8)
    oracle = []  # (key, delta) per live episode, oldest first
    for t, j in enumerate(picks):
        row = (pool[j], float(t))
        store.insert(*row)
        oracle = (oracle + [row])[-8:]
        n = len(store)
        assert n == min(t + 1, 8) == len(oracle)
        keys, deltas = (list(col) for col in zip(*oracle))
        assert np.array_equal(store.keys[:n], np.stack(keys))
        assert store.delta[:n].tolist() == deltas
        for q in queries:
            assert _retrieved(store, q, 5) == _stacked_retrieve(keys, deltas, q, 5)
    assert store.delta.tolist() == list(range(12, 20))
    # pool[0] was inserted at t = 13, 15, 18: exact duplicates tie, oldest first
    idx, dist = retrieve(store, pool[0], k_ret=3)
    assert list(idx) == [1, 3, 6] and list(store.delta[idx]) == [13.0, 15.0, 18.0]
    assert dist[0] == dist[1] == dist[2]
    with pytest.raises(ValidationError):
        store.insert(pool[0][:3], 0.0)


@pytest.mark.parametrize("key", [np.ones((2, 3)), np.float64(1.0)])
def test_first_key_must_be_a_vector(key):
    store = MemoryStore(capacity=3)
    with pytest.raises(ValidationError, match="key_dim"):
        store.insert(key, 0.0)
    assert len(store) == 0


@pytest.mark.parametrize("key, delta", [
    ([np.nan, 1.0], 0.5), ([1.0, np.inf], 0.5), ([1.0, 0.0], np.nan), ([1.0, 0.0], -np.inf),
])
def test_insert_rejects_non_finite_key_or_delta(key, delta):
    # one NaN key would drop every row from a small store's retrieval and
    # answer each query with the empty-memory (0, 0)
    store = MemoryStore(capacity=3)
    with pytest.raises(ValidationError, match="finite"):
        store.insert(key, delta)
    assert len(store) == 0
    store.insert([0.6, 0.8], 2.0)
    with pytest.raises(ValidationError, match="finite"):
        store.insert(key, delta)
    assert store.keys.tolist() == [[0.6, 0.8]] and store.delta.tolist() == [2.0]
    assert recall(store, np.array([1.0, 0.0]), 5).y_hat == 2.0


def test_store_equals_stacked_oracle_through_slide_backs():
    # The live rows are views into a buffer of 2 x capacity rows, moved back to
    # its front when it runs out; every step must still match a fresh stack of
    # the last capacity inserts, duplicates tying oldest first.
    rng = np.random.default_rng(12)
    capacity, dim = 5, 9
    pool = rng.normal(size=(3, dim))
    pool /= np.linalg.norm(pool, axis=1, keepdims=True)
    queries = np.vstack([pool, rng.normal(size=(2, dim))])
    store = MemoryStore(capacity=capacity)
    oracle, slide_backs = [], 0
    for t in range(8 * capacity + 3):
        row = (pool[rng.integers(3)], float(t))
        start = store._start
        store.insert(*row)
        slide_backs += store._start < start
        oracle = (oracle + [row])[-capacity:]
        keys, deltas = (list(col) for col in zip(*oracle))
        assert len(store) == len(oracle)
        assert store.keys.tobytes() == np.stack(keys).tobytes()
        assert store.delta.tolist() == deltas
        for q in queries:
            for k_ret in (1, 3, capacity):
                assert _retrieved(store, q, k_ret) == _stacked_retrieve(keys, deltas, q, k_ret)
    assert slide_backs >= 3


def test_query_after_end_episode_uses_only_new_steps():
    rng = np.random.default_rng(5)
    store, window = MemoryStore(), Window()
    for t in range(10):
        k = rng.normal(size=7)
        store.insert(k / np.linalg.norm(k), float(t))
    steps = [(rng.uniform(size=2), rng.uniform(size=2), float(rng.uniform()))
             for _ in range(PRE_WINDOW + 3)]
    for s in steps:
        window.push(*s)
    cur = (rng.uniform(size=2), rng.uniform(size=2), float(rng.uniform()))
    window.push(*cur)
    want = recall(store, encode_key(steps + [cur], PRE_WINDOW), 5)
    assert store.query(window) == want
    assert len(window) == PRE_WINDOW  # the query records nothing

    # an episode boundary, as a Runner takes it
    store.end_episode(window)
    window.clear()
    assert len(window) == 0
    res = store.query(window)
    assert res.y_hat == 0.0 and res.d_mean == 0.0
    window.push(*steps[0])
    window.push(*cur)
    want = recall(store, encode_key([steps[0], cur], 2), 5)
    assert store.query(window) == want


def test_recall_risk_oracle():
    res = recall_risk(np.array([1.0, 3.0]), np.array([0.1, 0.3]))
    assert res.y_hat == pytest.approx(1.5000024999875001, abs=1e-15)
    assert res.d_mean == pytest.approx(0.2, abs=1e-15)
    w = np.array([1.0 / (0.1 + EPS_WEIGHT), 1.0 / (0.3 + EPS_WEIGHT)])
    assert res.y_hat == pytest.approx(float(w @ [1.0, 3.0] / w.sum()), abs=1e-15)


def test_recall_risk_equals_mean_and_any_form_bits():
    # Reference: the np.any check, w / w.sum() and d.mean() spelled out.
    def reference(deltas, dist):
        d = np.asarray(dist, dtype=float)
        if np.any(d < 0):
            raise ValidationError("negative retrieval distance")
        w = 1.0 / (d + EPS_WEIGHT)
        w = w / w.sum()
        return RecallResult(float(w @ deltas), float(d.mean()))

    # Reference: the weights and both sums as numpy reductions.
    def reduce_form(deltas, dist):
        w = 1.0 / (dist + EPS_WEIGHT)
        w /= np.add.reduce(w)
        return RecallResult(float(w @ deltas), float(np.add.reduce(dist) / dist.size))

    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 13):
        for _ in range(400):
            dist = rng.uniform(0.0, 2.0, n) * 10.0 ** rng.integers(-8, 1, n)
            deltas = rng.uniform(0.0, 1e-2, n)
            got = recall_risk(deltas, dist)
            assert got == reference(deltas, dist) == reduce_form(deltas, dist)
            assert type(got.y_hat) is type(got.d_mean) is float
    for dist in ([0.1, -0.0, -1e-300], [np.nan, -1e-3]):
        with pytest.raises(ValidationError):
            recall_risk(np.ones(len(dist)), np.array(dist))


def test_recall_risk_edge_cases():
    empty = recall_risk(np.empty(0), np.empty(0))
    assert empty.y_hat == 0.0 and empty.d_mean == 0.0
    with pytest.raises(ValidationError):
        recall_risk(np.array([1.0]), np.array([-0.1]))


def test_query_composes_encode_retrieve_recall():
    store = MemoryStore(k_ret=3)
    rng = np.random.default_rng(7)
    for _ in range(6):
        k = rng.normal(size=7)
        store.insert(k / np.linalg.norm(k), float(rng.uniform(0, 2)))
    window = Window()
    window.push([0.3, 0.4], [0.2, 0.1], 0.15)
    window.push([0.5, 0.6], [0.3, 0.2], 0.25)
    window.push([0.7, 0.8], [0.4, 0.3], 0.35)
    got = store.query(window)
    win = [([0.3, 0.4], [0.2, 0.1], 0.15), ([0.5, 0.6], [0.3, 0.2], 0.25),
           ([0.7, 0.8], [0.4, 0.3], 0.35)]
    want = recall(store, encode_key(win, 3), 3)
    assert got.y_hat == pytest.approx(want.y_hat, abs=1e-15)
    assert got.d_mean == pytest.approx(want.d_mean, abs=1e-15)


def test_query_empty_paths():
    store, window = MemoryStore(), Window()
    res = store.query(window)
    assert res.y_hat == 0.0 and res.d_mean == 0.0
    store.insert([1.0] + [0.0] * 6, 1.0)
    # a single query point cannot form a 2-step window
    window.push([0.1, 0.1], [0.0, 0.0], 0.0)
    res2 = store.query(window)
    assert res2.y_hat == 0.0 and res2.d_mean == 0.0


def test_one_key_per_sensed_step(monkeypatch):
    # The step's query and the capture it opens share one key; a push or a
    # clear followed by new steps gets a fresh one, with the stacked oracle's bits.
    rng = np.random.default_rng(8)
    store, window = MemoryStore(eps_d=0.0), Window()
    store.insert(np.eye(7)[0], 1.0)
    steps = [(rng.uniform(size=2), rng.uniform(size=2), float(rng.uniform()))
             for _ in range(4)]
    for s in steps[:2]:
        window.push(*s)
    used = []

    def spy(store_, key, k_ret):
        used.append(key)
        return retrieve(store_, key, k_ret)

    monkeypatch.setattr(memory, "retrieve", spy)
    store.query(window)
    assert maybe_capture(store, window, 0.0, 1e-3)
    assert window.pending[0].key is used[0] is window.key()
    assert used[0].tobytes() == encode_key(steps[:2], 2).tobytes()

    window.push(*steps[2])
    fresh = window.key()
    assert fresh is not used[0]
    assert fresh.tobytes() == encode_key(steps[:3], 3).tobytes()
    assert used[0].tobytes() == encode_key(steps[:2], 2).tobytes()  # left as it was

    window.clear()
    for s in steps[2:]:
        window.push(*s)
    assert window.key() is not fresh
    assert window.key().tobytes() == encode_key(steps[2:], 2).tobytes()
