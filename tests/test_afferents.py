import math

import numpy as np
import pytest

from afferent.afferents import (
    AfferentArray,
    Genome,
    compute_cat,
    decode_genome,
    encode_genome,
    handcrafted_genome,
)
from afferent.errors import ConfigError, ValidationError
from afferent.util import rng_for, softplus


def random_genome(m, k, seed=0, scale=0.8):
    return Genome(raw=rng_for(seed, 90).normal(0.0, scale, m * (k + 4)), m=m, k=k)


def test_array_validation():
    good = dict(W=np.eye(2), alpha=np.ones(2), theta=np.full(2, 0.5),
                tau=np.full(2, 2.0), v=np.full(2, 0.5), dt=1.0)
    arr = AfferentArray(**good)
    assert arr.m == 2 and arr.k == 2
    assert np.array_equal(arr.beta, np.full(2, 1.0 / 3.0))
    for field, bad in (
        ("W", np.array([[1.0, 1.0], [0.0, 1.0]])),  # a row off unit norm
        ("W", np.ones(2)),  # not a matrix
        ("alpha", np.array([1.0, 0.0])),
        ("tau", np.array([2.0, 0.0])),
        ("theta", np.array([0.5, 1.5])),
        ("theta", np.array([-0.1, 0.5])),
        ("v", np.array([0.7, 0.7])),  # not summing to 1
        ("v", np.array([1.5, -0.5])),  # negative
        ("dt", 0.0),
        ("alpha", np.ones(3)),  # lengths disagree
        ("v", np.array([1.0])),
    ):
        with pytest.raises(ValidationError):
            AfferentArray(**{**good, field: bad})


def test_genome_length_checked():
    with pytest.raises(ConfigError):
        Genome(raw=np.zeros(10), m=2, k=3)
    g = Genome(raw=np.zeros(14), m=2, k=3)
    assert g.raw.shape == (14,)


def test_decode_constraints():
    arr = decode_genome(random_genome(6, 4, seed=1), dt=1.0)
    assert arr.m == 6 and arr.k == 4
    for i in range(arr.m):
        assert np.linalg.norm(arr.W[i]) == pytest.approx(1.0, abs=1e-9)
        assert arr.alpha[i] > 0 and arr.tau[i] > 0
        assert 0.0 <= arr.theta[i] <= 1.0
    assert np.all(arr.v >= 0)
    assert arr.v.sum() == pytest.approx(1.0, abs=1e-9)


def _per_unit_decode(g: Genome, dt: float):
    """decode_genome's formulas applied one unit at a time on scalars."""
    k = g.k
    blocks = g.raw.reshape(g.m, k + 4)
    rows = []
    for i, block in enumerate(blocks):
        norm = float(np.linalg.norm(block[:k]))
        if norm < 1e-12:
            w = np.zeros(k)
            w[i % k] = 1.0
        else:
            w = block[:k] / norm
        alpha = softplus(float(block[k])) + 1e-3
        theta = min(max(float(block[k + 1]), 0.0), 1.0)
        tau = softplus(float(block[k + 2])) + dt / 10.0
        rows.append((w, alpha, theta, tau, dt / (tau + dt)))
    ev = np.exp(blocks[:, -1] - blocks[:, -1].max())
    return rows, ev / ev.sum()


@pytest.mark.parametrize("m", [8, 64])
def test_decode_bits_match_per_unit_formulas(m):
    genomes = [random_genome(m, 3, seed=s, scale=sc)
               for s in range(10) for sc in (0.3, 0.8, 3.0)]
    raw = genomes[0].raw.copy()
    raw[2 * 7: 2 * 7 + 3] = 0.0  # unit 2's weight block falls back to a basis vector
    genomes.append(Genome(raw=raw, m=m, k=3))
    for g in genomes:
        arr = decode_genome(g, dt=1.0)
        rows, v = _per_unit_decode(g, 1.0)
        for i, (w, alpha, theta, tau, beta) in enumerate(rows):
            assert np.array_equal(arr.W[i], w)
            assert arr.alpha[i] == alpha and arr.theta[i] == theta
            assert arr.tau[i] == tau and arr.beta[i] == beta
        assert np.array_equal(arr.v, v)


def test_decode_zero_weight_block_falls_back_to_basis():
    m, k = 3, 4
    raw = rng_for(2, 90).normal(0.0, 0.5, m * (k + 4))
    raw[1 * (k + 4): 1 * (k + 4) + k] = 0.0
    arr = decode_genome(Genome(raw=raw, m=m, k=k), dt=1.0)
    expected = np.zeros(k)
    expected[1 % k] = 1.0
    assert np.array_equal(arr.W[1], expected)


def test_decode_rejects_nonfinite():
    raw = np.zeros(14)
    raw[3] = np.nan
    with pytest.raises(ValidationError):
        decode_genome(Genome(raw=raw, m=2, k=3), dt=1.0)


def test_encode_decode_round_trip():
    arr = decode_genome(random_genome(5, 3, seed=3), dt=1.0)
    arr2 = decode_genome(encode_genome(arr), dt=1.0)
    assert np.allclose(arr.W, arr2.W, atol=1e-6)
    assert np.allclose(arr.alpha, arr2.alpha, rtol=1e-6, atol=0.0)
    assert np.allclose(arr.theta, arr2.theta, rtol=0.0, atol=1e-6)
    assert np.allclose(arr.tau, arr2.tau, rtol=1e-6, atol=0.0)
    assert np.allclose(arr.v, arr2.v, atol=1e-6)


@pytest.mark.parametrize("dt", [1.0, 0.3, 7.0])
def test_encode_is_total_at_the_gain_and_time_constant_floors(dt):
    # A raw alpha or tau entry of -40 decodes within a few ulps of its floor
    # 1e-3 or dt/10, or onto it, and one of -800 decodes onto it: the excess
    # is below 1e-16 or exactly 0.
    m, k = 4, 3
    raw = random_genome(m, k, seed=12).raw
    floored = [(0, k), (1, k + 2), (2, k), (2, k + 2), (3, k + 2)]
    for unit, col in floored:
        raw[unit * (k + 4) + col] = -40.0 if unit < 3 else -800.0
    arr = decode_genome(Genome(raw=raw, m=m, k=k), dt=dt)
    assert arr.alpha[0] - 1e-3 < 1e-16 and arr.tau[1] - dt / 10.0 < 1e-16
    assert arr.tau[3] == dt / 10.0
    again = decode_genome(encode_genome(arr), dt=dt)
    for unit, col in floored:
        field = "alpha" if col == k else "tau"
        assert getattr(again, field)[unit] == getattr(arr, field)[unit]
    assert np.allclose(again.alpha, arr.alpha, rtol=1e-6, atol=0.0)
    assert np.allclose(again.tau, arr.tau, rtol=1e-6, atol=0.0)


def test_handcrafted_genome_bytes_are_the_log1p_inverse():
    # The bench digests hang on these bytes: alpha 8 and tau 5 invert through
    # y + log1p(-exp(-y)), whatever inv_softplus does below 1.
    for m, dt in ((64, 1.0), (6, 0.5)):
        blocks = handcrafted_genome(m, 3, dt).raw.reshape(m, 7)
        for col, y in ((3, 8.0 - 1e-3), (5, 5.0 - dt / 10.0)):
            want = np.float64(y) + np.log1p(-np.exp(-np.float64(y)))
            assert all(v.tobytes() == want.tobytes() for v in blocks[:, col])


def test_compute_cat_one_step_matches_formula():
    dt = 0.5
    arr = decode_genome(random_genome(5, 3, seed=6), dt=dt)
    a0 = rng_for(7, 90).uniform(0.0, 1.0, 5)
    prev = a0.copy()
    x = np.array([0.6, 0.2, 0.9])
    cat, acts = compute_cat(arr, prev, x)
    assert np.array_equal(prev, a0)  # the given activations are not mutated
    for i in range(5):
        beta = dt / (arr.tau[i] + dt)
        z = arr.alpha[i] * (float(arr.W[i] @ x) - arr.theta[i])
        expected = (1.0 - beta) * a0[i] + beta / (1.0 + math.exp(-z))
        assert acts[i] == pytest.approx(expected, abs=1e-15)
    assert cat == pytest.approx(float(np.dot(arr.v, acts)), abs=1e-15)


def test_compute_cat_equals_formula_bits():
    # Reference: the where-form logistic, then the leaky update with 1 - beta
    # computed in place.
    def reference(arr, acts, x):
        z = arr.alpha * (arr.W @ np.asarray(x, dtype=float) - arr.theta)
        e = np.exp(-np.abs(z))
        innovation = np.where(z >= 0, 1.0, e) / (1.0 + e)
        nxt = (1.0 - arr.beta) * acts + arr.beta * innovation
        return float(arr.v @ nxt), nxt

    rng = rng_for(8, 90)
    for trial in range(300):
        m, dt = int(rng.integers(1, 70)), float(rng.choice([0.25, 1.0, 3.0]))
        arr = decode_genome(random_genome(m, 3, seed=trial, scale=3.0), dt=dt)
        acts = rng.uniform(0.0, 1.0, m)
        x = rng.uniform(0.0, 1.0, 3)
        # an ndarray, a list and a float32 array take the conversion path
        for given in (x, x.tolist(), x.astype(np.float32)):
            cat, nxt = compute_cat(arr, acts, given)
            want_cat, want = reference(arr, acts, given)
            assert cat == want_cat and nxt.tobytes() == want.tobytes()
    assert np.array_equal(arr.keep, 1.0 - arr.beta)


def test_compute_cat_bounds_and_state():
    arr = decode_genome(random_genome(8, 3, seed=4), dt=1.0)
    rng = rng_for(5, 90)
    acts = np.zeros(arr.m)
    steps = []
    for _ in range(50):
        x = rng.uniform(0.0, 1.0, 3)
        prev = acts.copy()
        cat, nxt = compute_cat(arr, acts, x)
        assert 0.0 <= cat <= 1.0
        assert nxt.min() - 1e-12 <= cat <= nxt.max() + 1e-12
        assert np.array_equal(acts, prev) and nxt is not acts  # a new array
        steps.append((x, cat, nxt))
        acts = nxt
    # the array holds no activations: zeros restart the first step exactly
    x, cat, nxt = steps[0]
    again = compute_cat(arr, np.zeros(arr.m), x)
    assert again[0] == cat and np.array_equal(again[1], nxt)


def test_handcrafted_genome_decodes_to_stated_baseline():
    arr = decode_genome(handcrafted_genome(6, 3), dt=1.0)
    expected_w = np.zeros((6, 3))
    expected_w[np.arange(6), np.arange(6) % 3] = 1.0
    assert np.allclose(arr.W, expected_w, atol=1e-6)
    assert np.allclose(arr.theta, 0.6, rtol=0.0, atol=1e-6)
    assert np.allclose(arr.alpha, 8.0, rtol=1e-6, atol=0.0)
    assert np.allclose(arr.tau, 5.0, rtol=1e-6, atol=0.0)
    assert np.allclose(arr.v, np.full(6, 1.0 / 6.0), atol=1e-9)
