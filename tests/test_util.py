import numpy as np
import pytest

from afferent.util import inv_softplus, percentile_95, rng_for, sigmoid, sigmoid_array, softplus


def test_sigmoid_known_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(1.0) == pytest.approx(0.7310585786300049, abs=1e-15)
    assert sigmoid(-1.0) == pytest.approx(1.0 - 0.7310585786300049, abs=1e-15)


def test_sigmoid_saturates_exactly():
    assert sigmoid(800.0) == 1.0
    assert sigmoid(-800.0) == 0.0


def test_sigmoid_vectorized_matches_scalar():
    xs = np.linspace(-20, 20, 41)
    vec = sigmoid_array(xs)
    for x, v in zip(xs, vec):
        assert v == sigmoid(float(x))


def test_sigmoid_bits_match_two_branch_reference():
    # Reference: exp(-x) on x >= 0 and exp(x) / (1 + exp(x)) elsewhere,
    # each branch evaluated on its own elements only.
    xs = np.concatenate([rng_for(8).normal(0.0, 40.0, 5000),
                         [0.0, -0.0, 1e-320, -1e-320, 745.0, -745.0, np.inf, -np.inf]])
    want = np.empty_like(xs)
    pos = xs >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-xs[pos]))
    ex = np.exp(xs[~pos])
    want[~pos] = ex / (1.0 + ex)
    assert sigmoid_array(xs).tobytes() == want.tobytes()
    assert all(np.float64(sigmoid(float(x))).tobytes() == w.tobytes() for x, w in zip(xs, want))


EDGES = [0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0, 5e-324, -5e-324, 36.0, -36.0]


@pytest.mark.parametrize("fn, array_fn", [(sigmoid, sigmoid_array), (softplus, softplus)],
                         ids=["sigmoid", "softplus"])
def test_float_branch_equals_array_path_bits(fn, array_fn):
    # A float takes the scalar branch; a 0-d array, a length-1 array and a
    # slice of a long array take the array path.
    xs = np.concatenate([rng_for(11).normal(0.0, 30.0, 3000), EDGES])
    whole = array_fn(xs)
    for i, x in enumerate(xs):
        got = fn(float(x))
        assert type(got) is float
        for ref in (array_fn(np.array(x)), array_fn(np.array([x]))[0], whole[i]):
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()
    assert type(fn(np.float64(0.5))) is float


def test_softplus_limits():
    assert softplus(50.0) == pytest.approx(50.0, abs=1e-12)
    assert softplus(-50.0) == pytest.approx(0.0, abs=1e-12)
    assert softplus(0.0) == pytest.approx(np.log(2.0), abs=1e-15)


def test_inv_softplus_round_trip():
    for x in (-5.0, -0.3, 0.0, 0.7, 4.0, 30.0):
        assert inv_softplus(softplus(x)) == pytest.approx(x, abs=1e-9)


def test_inv_softplus_finite_down_to_the_smallest_float():
    ys = np.array([np.nextafter(0.0, 1.0), 1e-300, 4e-18, 1e-16, 1e-10, 0.5, 0.999])
    xs = inv_softplus(ys)
    assert np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0)
    assert np.allclose(softplus(xs), ys, rtol=1e-12, atol=0.0)
    assert softplus(xs[0]) == ys[0]


def test_inv_softplus_rejects_nonpositive():
    with pytest.raises(ValueError):
        inv_softplus(0.0)
    with pytest.raises(ValueError):
        inv_softplus(-1.0)


def test_percentile_95_order_statistic():
    values = list(range(1, 101))
    assert percentile_95(values) == 95.0
    assert percentile_95([3.0]) == 3.0
    # 20 values: ceil(0.95 * 20) = 19th smallest
    assert percentile_95(list(range(20))) == 18.0


def test_percentile_95_empty():
    with pytest.raises(ValueError):
        percentile_95([])


def test_rng_for_deterministic_and_key_sensitive():
    a = rng_for(1, 2, 3).standard_normal(4)
    b = rng_for(1, 2, 3).standard_normal(4)
    c = rng_for(1, 2, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
