"""The benchmark plant and the per-seed jobs that acceptance criteria 06 and 09 farm out.

Spawned pool workers import this module to unpickle a job, so it imports
numpy and ddsls only: no pytest, hypothesis or test module.
"""

import math
from functools import lru_cache

import numpy as np

from ddsls.analysis import (
    BoundInputs,
    bootstrap_epsilon,
    eps_precondition,
    hankel_norms_of_signals,
    sample_complexity,
    suboptimality_bound,
)
from ddsls.blockops import CostWeights, obs_stack, psd_sqrt, spectral_norm, toeplitz_stack
from ddsls.hankel import build_hankel
from ddsls.lqg import dare, optimal_responses, recover_gstar
from ddsls.lti import LtiSystem, generate_ensemble, simulate
from ddsls.sls import responses_from_controller, sls_cost
from ddsls.synth import DataHankels, synth_robust

N_STATE = 3
L = 10
T = 45
SIGMA2 = 0.1


@lru_cache(maxsize=1)
def bench():
    A = np.array([[1.01, 0.01, 0.00], [0.01, 1.01, 0.01], [0.00, 0.01, 1.01]])
    plant = LtiSystem(A=A, B=np.eye(3), noise_std=math.sqrt(SIGMA2))
    q = 1e-3 * np.eye(3)
    r = np.eye(3)
    weights = CostWeights(q_state=q, r_input=r, q_terminal=dare(plant, q, r), horizon=L)
    return plant, weights


@lru_cache(maxsize=1)
def bench_norms():
    plant, weights = bench()
    resp_star, jstar = optimal_responses(plant, weights)
    toep = spectral_norm(toeplitz_stack(plant.A, np.eye(3), T - L + 1))
    obsn = spectral_norm(obs_stack(plant.A, L))
    qhalf = float(np.linalg.norm(psd_sqrt(weights.q_state)))
    return resp_star, jstar, toep, obsn, qhalf


def certified_pipeline_run(seed: int):
    """Criterion 06 on one seed: (relative suboptimality, its bound), or None if uncertified."""
    plant, weights = bench()
    resp_star, jstar, toep, obsn, qhalf = bench_norms()
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((T, 3))
    clean = simulate(plant, np.zeros(3), u)
    gstar = recover_gstar(build_hankel(clean.x, L), build_hankel(clean.u, L), resp_star)
    eps_max = eps_precondition(gstar.norm, L, toep)
    N = sample_complexity(0.05, gstar.norm, L, toep, N_STATE, T, SIGMA2)
    wbar = math.sqrt(SIGMA2 / N) * rng.standard_normal((T - 1, 3))
    noisy = simulate(plant, np.zeros(3), u, noise=wbar)
    data = DataHankels.from_trajectory(noisy, L)
    eps_run = spectral_norm(data.hw)
    if eps_run > eps_max:
        return None
    res = synth_robust(data, weights, eps_run, grid_points=5, gamma_tol=1e-2, tol=1e-4, max_iter=1200)
    jhat = sls_cost(responses_from_controller(plant, res.controller), weights)
    rel = (jhat - jstar) / jstar
    bound = suboptimality_bound(
        BoundInputs(
            gstar_norm=gstar.norm,
            eps=eps_run,
            L=L,
            T=T,
            obsnorm=obsn,
            toepnorm=toep,
            qhalf_frob=qhalf,
            jstar=jstar,
        )
    ).value
    return rel, bound


def coverage_trial(seed: int) -> bool:
    """Criterion 09 on one seed: whether the bootstrap budget covers a fresh draw."""
    plant, _ = bench()
    rng = np.random.default_rng(seed)
    ens = generate_ensemble(plant, T, 64, int(rng.integers(0, 2**63)))
    eps_hat = bootstrap_epsilon(
        ens, L, resamples=1000, statistic="noise", seed=int(rng.integers(0, 2**63))
    )
    fresh = math.sqrt(SIGMA2 / 64) * rng.standard_normal((T - 1, 3))
    fresh = np.vstack([fresh, np.zeros((1, 3))])
    return float(hankel_norms_of_signals(fresh[None], L)[0]) <= eps_hat
