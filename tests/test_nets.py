import math

import numpy as np
import pytest

from afferent.errors import TrainingError, ValidationError
from afferent.nets import MLP, Adam, clip_grad
from afferent.util import rng_for


def make_mlp(sizes, rng, out_gain=1.0):
    net = MLP(sizes, np.empty(MLP.count(sizes)))
    net.init(rng, out_gain)
    return net


def test_mlp_shapes_and_param_count():
    net = make_mlp([3, 5, 2], rng_for(0))
    assert net.n_params == MLP.count([3, 5, 2]) == 3 * 5 + 5 + 5 * 2 + 2
    out, cache = net.forward(np.zeros((4, 3)))
    assert out.shape == (4, 2)
    assert len(cache) == 3
    with pytest.raises(ValidationError):
        MLP([3], np.empty(0))


def test_mlp_layers_are_views_of_the_flat_vector():
    flat = rng_for(1).normal(size=MLP.count([2, 4, 1]))
    net = MLP([2, 4, 1], flat)
    # W0 row-major, b0, W1, b1
    assert np.array_equal(net.weights[0].ravel(), flat[:8])
    assert np.array_equal(net.biases[0], flat[8:12])
    assert np.array_equal(net.weights[1].ravel(), flat[12:16])
    assert np.array_equal(net.biases[1], flat[16:])
    assert all(np.shares_memory(a, flat) for a in (*net.weights, *net.biases))
    flat[5] = 7.0
    assert net.weights[0][1, 1] == 7.0
    with pytest.raises(ValidationError):
        MLP([2, 4, 1], flat[:-1])


def test_mlp_forward_matches_manual():
    net = make_mlp([2, 3, 1], rng_for(4))
    x = np.array([0.3, -0.7])
    h = np.tanh(x @ net.weights[0] + net.biases[0])
    want = h @ net.weights[1] + net.biases[1]
    out, _ = net.forward(x)
    assert np.allclose(out[0], want, atol=1e-14)


def test_init_is_orthogonal_and_deterministic():
    flat, flat_b = np.empty(MLP.count([6, 6, 2])), np.empty(MLP.count([6, 6, 2]))
    net = MLP([6, 6, 2], flat)
    net.init(rng_for(5), 1.0)
    w = net.weights[0]
    assert np.allclose(w.T @ w / 2.0, np.eye(6), atol=1e-10)  # gain sqrt(2)
    assert np.all(net.biases[0] == 0.0) and np.all(net.biases[1] == 0.0)
    MLP([6, 6, 2], flat_b).init(rng_for(5), 1.0)
    assert np.array_equal(flat, flat_b)


def test_backward_matches_finite_differences():
    sizes = [3, 4, 4, 2]
    net = make_mlp(sizes, rng_for(6))
    X = rng_for(7).normal(size=(5, 3))
    G = rng_for(8).normal(size=(5, 2))

    def scalar(theta):
        out, _ = MLP(sizes, theta).forward(X)
        return float((G * out).sum())

    theta0 = np.concatenate([a.ravel() for wb in zip(net.weights, net.biases)
                             for a in wb])
    _, cache = net.forward(X)
    grad = np.full(net.n_params, np.nan)
    net.backward(cache, G, grad)
    eps = 1e-6
    fd = np.empty_like(theta0)
    for i in range(theta0.size):
        up = theta0.copy()
        up[i] += eps
        dn = theta0.copy()
        dn[i] -= eps
        fd[i] = (scalar(up) - scalar(dn)) / (2.0 * eps)
    denom = np.maximum(np.abs(fd), 1e-8)
    assert np.max(np.abs(grad - fd) / denom) < 1e-5


def test_adam_first_step_and_nonfinite_guard():
    opt = Adam(3, lr=0.1)
    params = np.zeros(3)
    grad = np.array([1.0, -2.0, 0.5])
    # bias correction makes the first update lr * sign(grad) up to eps
    opt.step(params, grad)
    assert np.allclose(params, -0.1 * np.sign(grad), atol=1e-7)
    before = (params.copy(), opt.m.copy(), opt.v.copy(), opt.t)
    # a non-finite gradient is a training failure and leaves every buffer as it was
    with pytest.raises(TrainingError):
        opt.step(params, np.array([1.0, np.nan, 0.0]))
    assert np.array_equal(params, before[0])
    assert np.array_equal(opt.m, before[1]) and np.array_equal(opt.v, before[2])
    assert opt.t == before[3]


def test_adam_in_place_matches_returned_vector_bits():
    # Oracle: the update written as a new vector, params - lr * m_hat / (...)
    rng = rng_for(12)
    n = 257
    params = rng.normal(size=n)
    want = params.copy()
    opt = Adam(n, lr=3e-4)
    m, v = np.zeros(n), np.zeros(n)
    for t in range(1, 51):
        grad = rng.normal(size=n) * (10.0 ** rng.uniform(-6, 1))
        opt.step(params, grad)
        m = Adam.beta1 * m + (1.0 - Adam.beta1) * grad
        v = Adam.beta2 * v + (1.0 - Adam.beta2) * grad**2
        m_hat = m / (1.0 - Adam.beta1**t)
        v_hat = v / (1.0 - Adam.beta2**t)
        want = want - 3e-4 * m_hat / (np.sqrt(v_hat) + Adam.eps)
        assert np.array_equal(params, want)


def test_adam_converges_on_quadratic():
    opt = Adam(2, lr=0.05)
    theta = np.array([3.0, -2.0])
    target = np.array([1.0, 1.0])
    for _ in range(2000):
        opt.step(theta, 2.0 * (theta - target))
    assert np.allclose(theta, target, atol=1e-3)


def test_clip_grad():
    g = np.array([3.0, 4.0])
    clipped = clip_grad(g, 1.0)
    assert np.linalg.norm(clipped) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(clipped, g / 5.0)
    assert np.array_equal(clip_grad(g, 10.0), g)
    assert np.array_equal(clip_grad(np.zeros(2), 1.0), np.zeros(2))
    rng = rng_for(9)
    for _ in range(200):
        g = rng.normal(size=int(rng.integers(1, 5000))) * 10.0 ** rng.integers(-6, 4)
        norm = float(np.linalg.norm(g))
        want = g * (0.5 / norm) if norm > 0.5 else g
        assert clip_grad(g, 0.5).tobytes() == want.tobytes()


def test_clip_grad_rescales_only_a_finite_gradient_whose_squares_overflow():
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert clip_grad(np.array([1e200, 1.0]), 0.5).tolist() == [0.5, 5e-201]
    huge = np.array([-1e300, 1e300, 3e299])
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert np.linalg.norm(clip_grad(huge, 2.0) / 2.0) == pytest.approx(1.0, rel=1e-15)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(TrainingError), pytest.warns(RuntimeWarning):
            Adam(2, lr=0.1).step(np.ones(2), clip_grad(np.array([1e200, bad]), 0.5))
    rng = rng_for(10)
    for _ in range(200):  # squares that stay finite keep the plain formula's bytes
        g = rng.normal(size=int(rng.integers(1, 500))) * 10.0 ** rng.integers(-150, 150)
        norm = math.sqrt(g @ g)
        want = g * (0.5 / norm) if norm > 0.5 else g
        assert clip_grad(g, 0.5).tobytes() == want.tobytes()


def _matmul_forward(net, X):
    """Oracle forward pass written with @, the form np.dot must reproduce."""
    hs, h = [X], X
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        h = np.tanh(h @ w + b)
        hs.append(h)
    return h @ net.weights[-1] + net.biases[-1], hs


def _matmul_backward(net, cache, grad_out):
    """Oracle gradient vector written with @, in the flat layout."""
    want = np.empty(net.n_params)
    oracle = MLP(net.sizes, want)
    delta = grad_out
    for i in range(len(net.weights) - 1, -1, -1):
        oracle.weights[i][...] = cache[i].T @ delta
        oracle.biases[i][...] = np.add.reduce(delta, axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * (1.0 - cache[i] ** 2)
    return want


@pytest.mark.parametrize("dim", [68, 70])
def test_forward_and_backward_equal_matmul_oracle_bits(dim):
    # The policy nets' shapes: a single row, PPO minibatches of 64 rows and a
    # 1024-row rollout batch; backward with rows of +0.0 and -0.0 in grad_out.
    rng = rng_for(13, dim)
    for out_gain in (0.01, 1.0):
        net = make_mlp([dim, 64, 64, 1], rng, out_gain)
        for rows in (None, 64, 1024):
            X = rng.normal(size=dim if rows is None else (rows, dim)) * 3.0
            out, cache = net.forward(X)
            want, want_cache = _matmul_forward(net, X)
            assert out.tobytes() == want.tobytes()
            assert all(a.tobytes() == b.tobytes() for a, b in zip(cache, want_cache))
            if rows is None:
                continue
            G = rng.normal(size=(rows, 1)) / rows
            G[::3] = 0.0
            G[1::3] = -0.0
            for grad_out in (G, np.full((rows, 1), -0.0)):
                grad = np.empty(net.n_params)
                net.backward(cache, grad_out, grad)
                want_grad = _matmul_backward(net, want_cache, grad_out)
                assert grad.tobytes() == want_grad.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_adam_rejects_nan_and_inf_entries(bad):
    opt = Adam(4, lr=0.1)
    params = np.ones(4)
    grad = np.array([0.5, bad, -0.25, 0.0])
    with pytest.raises(TrainingError):
        opt.step(params, grad)
    assert np.array_equal(params, np.ones(4)) and opt.t == 0


def test_adam_steps_on_a_finite_gradient_whose_squares_overflow():
    # grad @ grad overflows to inf, yet every entry is finite: Adam steps,
    # with the bits of the update written as new vectors.
    params = np.linspace(-1.0, 1.0, 5)
    want = params.copy()
    grad = np.array([1e200, -1e200, 3.0, 0.0, 1e-3])
    opt = Adam(5, lr=0.1)
    with np.errstate(over="ignore"):
        assert not np.isfinite(grad @ grad)
        opt.step(params, grad)
        m = (1.0 - Adam.beta1) * grad
        v = (1.0 - Adam.beta2) * grad**2
        want = want - 0.1 * (m / (1.0 - Adam.beta1)) / (
            np.sqrt(v / (1.0 - Adam.beta2)) + Adam.eps)
    assert opt.t == 1
    assert params.tobytes() == want.tobytes()
