"""CMA-ES over genome space, written out from the standard update equations.

Maximization convention throughout: candidates are ranked by descending
fitness.  The state is value-like; tell returns a new state and never mutates
its argument (the sampling Generator itself is owned by the state and
advances as candidates are drawn).

A tell at n = 448 sets the evolve pipeline's peak memory, so tell and
_decompose hold at most three n x n buffers of their own at once: the new
covariance, a term buffer (the eigenvectors, in _decompose) and one temporary,
besides eigh's workspace and the argument state's cov and B.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, TrainingError, ValidationError

__all__ = ["EvolutionState", "init_evolution", "ask", "tell"]

_EIG_FLOOR = 1e-14


@dataclass
class EvolutionState:
    n: int
    mean: np.ndarray
    sigma: float
    cov: np.ndarray
    p_sigma: np.ndarray
    p_c: np.ndarray
    generation: int
    popsize: int
    weights: np.ndarray
    mu_eff: float
    c_sigma: float
    d_sigma: float
    c_c: float
    c_1: float
    c_mu: float
    chi_n: float
    B: np.ndarray
    D: np.ndarray  # sqrt eigenvalues of cov
    rng: np.random.Generator
    flagged_nonfinite: int = 0


def _decompose(cov: np.ndarray):
    """Eigendecomposition with a floor on eigenvalues; one jittered retry.

    Consumes cov: it is symmetrized in place and its buffer then holds the
    returned covariance, so the caller passes a matrix it owns and reads no more.
    """
    cov += cov.T
    cov *= 0.5
    try:
        ev, B = np.linalg.eigh(cov)
    except np.linalg.LinAlgError:
        try:
            ev, B = np.linalg.eigh(cov + 1e-12 * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise TrainingError("covariance eigendecomposition failed twice") from exc
    ev = np.maximum(ev, _EIG_FLOOR)
    full = np.multiply(B, ev, out=cov) @ B.T
    np.add(full, full.T, out=cov)
    cov *= 0.5
    return cov, B, np.sqrt(ev)


def init_evolution(n: int, mean0=None, sigma0: float = 0.5, *,
                   popsize: int, seed: int = 0) -> EvolutionState:
    """Fresh CMA-ES state with the standard strategy parameters for (n, λ)."""
    if n <= 0:
        raise ConfigError("dimension must be positive")
    if popsize < 2:
        raise ConfigError("popsize must be at least 2")
    if not sigma0 > 0:
        raise ConfigError("sigma0 must be positive")
    mean = np.zeros(n) if mean0 is None else np.asarray(mean0, dtype=float).copy()
    if mean.shape != (n,):
        raise ConfigError("mean0 length mismatch")
    mu = popsize // 2
    w = np.log((popsize + 1) / 2.0) - np.log(np.arange(1, mu + 1))
    w = w / w.sum()
    mu_eff = 1.0 / float(np.sum(w**2))
    c_sigma = (mu_eff + 2.0) / (n + mu_eff + 5.0)
    d_sigma = 1.0 + 2.0 * max(0.0, np.sqrt((mu_eff - 1.0) / (n + 1.0)) - 1.0) + c_sigma
    c_c = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n)
    c_1 = 2.0 / ((n + 1.3) ** 2 + mu_eff)
    c_mu = min(1.0 - c_1, 2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) ** 2 + mu_eff))
    chi_n = np.sqrt(n) * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n**2))
    cov = B = np.eye(n)  # the start state C = B = I, D = 1 needs no eigh
    return EvolutionState(
        n=n, mean=mean, sigma=float(sigma0), cov=cov, p_sigma=np.zeros(n),
        p_c=np.zeros(n), generation=0, popsize=int(popsize), weights=w,
        mu_eff=mu_eff, c_sigma=c_sigma, d_sigma=d_sigma, c_c=c_c, c_1=c_1,
        c_mu=c_mu, chi_n=chi_n, B=B, D=np.ones(n),
        rng=np.random.default_rng(np.random.SeedSequence(int(seed))),
    )


def ask(state: EvolutionState) -> list:
    """Sample popsize candidates mean + sigma * B (D z), z standard normal."""
    z = state.rng.standard_normal((state.popsize, state.n))
    y = (state.B * state.D) @ z.T
    return [state.mean + state.sigma * y[:, i] for i in range(state.popsize)]


def tell(state: EvolutionState, candidates, fitnesses) -> EvolutionState:
    """Standard rank-mu CMA-ES update; returns the successor state.

    Non-finite fitnesses are assigned the worst rank ( -inf) and counted on
    the returned state.  A fully tied generation carries the distribution
    forward unchanged, since ranking then holds no information.
    """
    lam = len(candidates)
    if lam != state.popsize:
        raise ConfigError("tell expects exactly popsize candidates")
    f = np.asarray(fitnesses, dtype=float)
    if f.shape != (lam,):
        raise ValidationError("fitness count mismatch")
    flagged = int(np.sum(~np.isfinite(f)))
    f = np.where(np.isfinite(f), f, -np.inf)
    if np.all(f == f[0]):
        return replace(state, generation=state.generation + 1,
                       flagged_nonfinite=state.flagged_nonfinite + flagged)
    X = np.stack([np.asarray(c, dtype=float) for c in candidates])
    if X.shape != (lam, state.n):
        raise ValidationError("candidate dimension mismatch")
    order = np.argsort(-f, kind="stable")
    mu = state.weights.shape[0]
    sel = X[order[:mu]]
    Y = (sel - state.mean) / state.sigma
    y_w = state.weights @ Y

    mean_new = state.mean + state.sigma * y_w
    p_sigma = (1.0 - state.c_sigma) * state.p_sigma + np.sqrt(
        state.c_sigma * (2.0 - state.c_sigma) * state.mu_eff
    ) * ((state.B / state.D) @ state.B.T @ y_w)
    g1 = state.generation + 1
    ps_norm = float(np.linalg.norm(p_sigma))
    h_sigma = float(
        ps_norm / np.sqrt(1.0 - (1.0 - state.c_sigma) ** (2 * g1)) / state.chi_n
        < 1.4 + 2.0 / (state.n + 1.0)
    )
    p_c = (1.0 - state.c_c) * state.p_c + h_sigma * np.sqrt(
        state.c_c * (2.0 - state.c_c) * state.mu_eff
    ) * y_w
    delta_h = (1.0 - h_sigma) * state.c_c * (2.0 - state.c_c)
    # C' = (1 - c1 - cmu) C + c1 (p_c p_c^T + delta_h C) + cmu rank_mu, built in
    # place with the same operations in the same order.
    cov = (1.0 - state.c_1 - state.c_mu) * state.cov
    term = np.outer(p_c, p_c)
    term += delta_h * state.cov
    term *= state.c_1
    cov += term
    np.matmul(Y.T * state.weights, Y, out=term)
    term *= state.c_mu
    cov += term
    del term
    sigma = state.sigma * float(
        np.exp((state.c_sigma / state.d_sigma) * (ps_norm / state.chi_n - 1.0))
    )
    cov, B, D = _decompose(cov)
    return replace(
        state, mean=mean_new, sigma=sigma, cov=cov, p_sigma=p_sigma, p_c=p_c,
        generation=g1, B=B, D=D,
        flagged_nonfinite=state.flagged_nonfinite + flagged,
    )
