import tracemalloc

import numpy as np
import pytest

from afferent.cmaes import _decompose, ask, init_evolution, tell
from afferent.errors import ConfigError, TrainingError, ValidationError


def sphere_best(seed, n=6, gens=300, popsize=9):
    state = init_evolution(n, mean0=np.full(n, 2.0), sigma0=0.5,
                           popsize=popsize, seed=seed)
    best = np.inf
    for _ in range(gens):
        cands = ask(state)
        costs = [float(np.sum(np.square(c))) for c in cands]
        best = min(best, min(costs))
        state = tell(state, cands, [-c for c in costs])
    return best


def test_init_validation():
    with pytest.raises(ConfigError):
        init_evolution(0, popsize=4)
    with pytest.raises(ConfigError):
        init_evolution(4, popsize=1)
    with pytest.raises(ConfigError):
        init_evolution(4, sigma0=0.0, popsize=4)
    with pytest.raises(ConfigError):
        init_evolution(4, mean0=np.zeros(3), popsize=4)


def test_init_strategy_parameters():
    state = init_evolution(5, popsize=8, seed=0)
    assert state.weights.shape == (4,)
    assert state.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.diff(state.weights) < 0)  # rank weights decrease
    assert state.mu_eff == pytest.approx(1.0 / np.sum(state.weights**2), abs=1e-12)
    assert np.array_equal(state.cov, np.eye(5))
    assert state.generation == 0 and state.flagged_nonfinite == 0


def test_ask_shapes_and_distribution():
    state = init_evolution(3, mean0=np.array([1.0, 2.0, 3.0]), sigma0=0.1, popsize=4000,
                           seed=1)
    cands = ask(state)
    X = np.stack(cands)
    assert X.shape == (4000, 3)
    assert np.allclose(X.mean(axis=0), [1.0, 2.0, 3.0], atol=0.02)
    assert np.allclose(X.std(axis=0), 0.1, atol=0.02)


def test_tell_moves_mean_toward_good_candidates():
    state = init_evolution(2, sigma0=1.0, popsize=6, seed=2)
    cands = ask(state)
    target = np.array([5.0, -5.0])
    fits = [-float(np.sum((c - target) ** 2)) for c in cands]
    new = tell(state, cands, fits)
    assert new.generation == 1
    d_old = float(np.linalg.norm(state.mean - target))
    d_new = float(np.linalg.norm(new.mean - target))
    assert d_new < d_old
    # tell does not mutate its argument
    assert np.all(state.mean == 0.0) and state.generation == 0


def test_tell_validation_and_flat_fitness():
    state = init_evolution(2, popsize=4, seed=3)
    cands = ask(state)
    with pytest.raises(ConfigError):
        tell(state, cands[:2], [0.0, 0.0])
    with pytest.raises(ValidationError):
        tell(state, cands, [0.0, 0.0])
    flat = tell(state, cands, [1.0, 1.0, 1.0, 1.0])
    assert flat.generation == 1
    assert np.array_equal(flat.mean, state.mean)
    assert np.array_equal(flat.cov, state.cov)
    assert flat.sigma == state.sigma


def test_tell_counts_nonfinite():
    state = init_evolution(2, popsize=4, seed=4)
    cands = ask(state)
    new = tell(state, cands, [1.0, np.nan, 2.0, np.inf])
    assert new.flagged_nonfinite == 2


def test_covariance_stays_positive_definite():
    state = init_evolution(4, popsize=6, seed=5)
    for _ in range(50):
        cands = ask(state)
        fits = [-float(np.sum(np.square(c))) for c in cands]
        state = tell(state, cands, fits)
        assert np.all(np.linalg.eigvalsh(state.cov) > 0)
        assert np.allclose(state.cov, state.cov.T, atol=1e-12)


def test_sphere_converges():
    assert sphere_best(seed=11) < 1e-8


def test_rank_based_invariance():
    """Identical draws ranked by f and by a monotone transform of f match."""
    a = init_evolution(4, popsize=8, seed=6)
    b = init_evolution(4, popsize=8, seed=6)
    for _ in range(5):
        ca = ask(a)
        cb = ask(b)
        fa = [-float(np.sum(np.square(c))) for c in ca]
        fb = [3.0 * f + 7.0 for f in fa]
        a = tell(a, ca, fa)
        b = tell(b, cb, fb)
    assert np.allclose(a.mean, b.mean, atol=1e-12)
    assert np.allclose(a.cov, b.cov, atol=1e-12)
    assert a.sigma == pytest.approx(b.sigma, abs=1e-12)


def test_fresh_state_is_the_identity_start_and_first_ask_draws_from_it():
    n = 448
    state = init_evolution(n, mean0=np.linspace(-1.0, 1.0, n), sigma0=0.3,
                           popsize=8, seed=4)
    assert state.cov.tobytes() == np.eye(n).tobytes()
    assert state.B.tobytes() == np.eye(n).tobytes()
    assert state.D.tobytes() == np.ones(n).tobytes()
    twin = np.random.default_rng(np.random.SeedSequence(4))
    z = twin.standard_normal((8, n))
    cands = ask(state)
    for c, zi in zip(cands, z):
        assert c.tobytes() == (state.mean + state.sigma * zi).tobytes()
    assert state.rng.standard_normal() == twin.standard_normal()


def _reference_decompose(cov):
    """The covariance decomposition as first written, allocating freely."""
    cov = 0.5 * (cov + cov.T)
    ev, B = np.linalg.eigh(cov)
    ev = np.maximum(ev, 1e-14)
    cov = (B * ev) @ B.T
    cov = 0.5 * (cov + cov.T)
    return cov, B, np.sqrt(ev)


def _reference_tell(s, candidates, fitnesses):
    """The rank-mu update as first written; returns its fields and h_sigma."""
    f = np.asarray(fitnesses, dtype=float)
    f = np.where(np.isfinite(f), f, -np.inf)
    X = np.stack([np.asarray(c, dtype=float) for c in candidates])
    order = np.argsort(-f, kind="stable")
    Y = (X[order[:s.weights.shape[0]]] - s.mean) / s.sigma
    y_w = s.weights @ Y
    mean = s.mean + s.sigma * y_w
    inv_sqrt = (s.B / s.D) @ s.B.T
    p_sigma = (1.0 - s.c_sigma) * s.p_sigma + np.sqrt(
        s.c_sigma * (2.0 - s.c_sigma) * s.mu_eff) * (inv_sqrt @ y_w)
    g1 = s.generation + 1
    ps_norm = float(np.linalg.norm(p_sigma))
    h_sigma = float(ps_norm / np.sqrt(1.0 - (1.0 - s.c_sigma) ** (2 * g1)) / s.chi_n
                    < 1.4 + 2.0 / (s.n + 1.0))
    p_c = (1.0 - s.c_c) * s.p_c + h_sigma * np.sqrt(s.c_c * (2.0 - s.c_c) * s.mu_eff) * y_w
    delta_h = (1.0 - h_sigma) * s.c_c * (2.0 - s.c_c)
    rank_mu = (Y.T * s.weights) @ Y
    cov = ((1.0 - s.c_1 - s.c_mu) * s.cov
           + s.c_1 * (np.outer(p_c, p_c) + delta_h * s.cov)
           + s.c_mu * rank_mu)
    sigma = s.sigma * float(np.exp((s.c_sigma / s.d_sigma) * (ps_norm / s.chi_n - 1.0)))
    cov, B, D = _reference_decompose(cov)
    return dict(mean=mean, cov=cov, B=B, D=D, p_c=p_c, p_sigma=p_sigma, sigma=sigma), h_sigma


_ARRAYS = ("mean", "cov", "B", "D", "p_c", "p_sigma")


@pytest.mark.parametrize("n", [56, 448])
def test_tell_keeps_the_bits_of_the_reference_update(n):
    state = init_evolution(n, mean0=np.linspace(-1.0, 1.0, n), sigma0=0.3, popsize=8,
                           seed=n)
    h_sigmas = []
    for gen in range(7):
        cands = ask(state)
        if gen == 2:  # steps far longer than sigma predicts stall p_c: h_sigma = 0
            cands = [state.mean + 6.0 * (c - state.mean) for c in cands]
        fits = [-float(np.sum(np.square(c))) for c in cands]
        if gen == 4:
            fits[1] = np.nan
        before = {k: getattr(state, k).copy() for k in _ARRAYS}
        want, h_sigma = _reference_tell(state, cands, fits)
        h_sigmas.append(h_sigma)
        new = tell(state, cands, fits)
        for k in _ARRAYS:
            assert getattr(new, k).tobytes() == want[k].tobytes(), (gen, k)
            assert getattr(state, k).tobytes() == before[k].tobytes(), (gen, k)
        assert new.sigma == want["sigma"]
        state = new
    assert 0.0 in h_sigmas and 1.0 in h_sigmas
    assert state.flagged_nonfinite == 1


def test_tell_holds_few_square_buffers():
    n = 448
    state = init_evolution(n, popsize=8, seed=7)
    state = tell(state, ask(state), np.arange(8.0))  # a B and D that are not the identity
    cands = ask(state)
    fits = [-float(np.sum(np.square(c))) for c in cands]
    tracemalloc.start()
    try:
        tell(state, cands, fits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * n * n * 8


def _spd(n, seed=8):
    a = np.random.default_rng(seed).standard_normal((n, n))
    return a @ a.T / n + np.eye(n)


def _eigh_failing(monkeypatch, times):
    real, calls = np.linalg.eigh, []

    def eigh(a):
        calls.append(a.copy())
        if len(calls) <= times:
            raise np.linalg.LinAlgError("injected")
        return real(a)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return calls


def test_decompose_retries_once_with_jitter(monkeypatch):
    cov = _spd(12)
    calls = _eigh_failing(monkeypatch, 1)
    out, B, D = _decompose(cov.copy())
    assert len(calls) == 2
    assert np.array_equal(calls[1], calls[0] + 1e-12 * np.eye(12))
    assert np.all(np.isfinite(out)) and np.array_equal(out, out.T)
    assert np.all(np.linalg.eigvalsh(out) > 0)
    assert np.allclose(out, cov, atol=1e-10)
    assert np.allclose((B * D**2) @ B.T, out, atol=1e-10)


def test_decompose_raises_when_the_retry_fails_too(monkeypatch):
    calls = _eigh_failing(monkeypatch, 2)
    with pytest.raises(TrainingError, match="covariance eigendecomposition failed twice"):
        _decompose(_spd(12))
    assert len(calls) == 2
