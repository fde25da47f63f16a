"""Receding-horizon evaluation of synthesized controllers.

Four controller families are compared: the model-based optimal gains, two
robust data-driven controllers (budgeted by the bootstrap estimate and by
the realized noise Hankel norm), and the naive data-driven controller that
drops the norm constraint.  Each controller's first-step gain is applied in
a receding-horizon loop against fresh process noise; trials share noise
realizations across controllers so comparisons are paired.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .analysis import BoundInputs, bootstrap_epsilon, suboptimality_bound
from .blockops import CostWeights, LtvOperator, obs_stack, psd_sqrt, spectral_norm, toeplitz_stack
from .hankel import NotPersistentlyExciting, build_hankel
from .lqg import optimal_responses, recover_gstar, riccati_finite
from .lti import LtiSystem, average, generate_ensemble, simulate
from .sls import responses_from_controller, sls_cost
from .solver import InfeasibleEpsilon
from .synth import DataHankels, synth_robust

__all__ = [
    "MpcConfig",
    "RunStats",
    "mpc_run",
    "TrialRecord",
    "ComparisonResults",
    "compare_controllers",
    "parallel_map",
]


def parallel_map(fn, items):
    """Map preserving order, fanned out over DDSLS_THREADS when > 1."""
    workers = int(os.environ.get("DDSLS_THREADS", "1"))
    if workers <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True)
class MpcConfig:
    """One receding-horizon run of a finite-horizon LTV controller."""

    horizon: int
    plant: LtiSystem
    controller: LtvOperator
    q_state: np.ndarray
    r_input: np.ndarray
    seed: int
    divergence_threshold: float = 1e6

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass(frozen=True)
class RunStats:
    """Accumulated quadratic cost and signal norms of one MPC run.

    Divergence substitutes +inf for the cost and norms.
    """

    cost: float
    state_norm: float
    input_norm: float
    diverged: bool


def mpc_run(cfg: MpcConfig) -> RunStats:
    """Receding-horizon loop applying the controller's first-step gain.

    At every step the current state is treated as the start of a fresh
    sub-horizon, so only the (0, 0) gain block of the synthesized LTV
    controller acts; fresh process noise is injected each step.  The noise
    of all steps is drawn up front (the same stream as one draw per step),
    and cost and norms are summed over the stored states after the loop.
    """
    sys = cfg.plant
    gain = cfg.controller.block(0, 0)
    H, n = cfg.horizon, sys.state_dim
    noise = sys.noise_std * np.random.default_rng(cfg.seed).standard_normal((H, n))
    limit = cfg.divergence_threshold**2
    xs = np.empty((H, n))
    x = np.zeros(n)
    for t in range(H):
        # The negated test also flags NaN and inf states.
        if not x @ x <= limit:
            return RunStats(cost=math.inf, state_norm=math.inf, input_norm=math.inf, diverged=True)
        xs[t] = x
        x = sys.A @ x + sys.B @ (gain @ x) + noise[t]
    us = xs @ gain.T
    return RunStats(
        cost=float(np.sum((xs @ cfg.q_state) * xs) + np.sum((us @ cfg.r_input) * us)),
        state_norm=float(np.linalg.norm(xs)),
        input_norm=float(np.linalg.norm(us)),
        diverged=False,
    )


@dataclass(frozen=True)
class TrialRecord:
    controller: str
    N: int
    trial: int
    feasible: bool
    diverged: bool
    cost: float
    state_norm: float
    input_norm: float
    gamma: float | None = None
    eps: float | None = None
    certified: bool | None = None
    rel_subopt: float | None = None
    subopt_bound: float | None = None


@dataclass
class ComparisonResults:
    records: list[TrialRecord]
    summary: dict = field(default_factory=dict)

    def aggregate(self) -> dict:
        """Median and quartiles per (controller, N), inf-aware."""
        out: dict = {}
        keys = sorted({(r.controller, r.N) for r in self.records})
        for ctrl, N in keys:
            rows = [r for r in self.records if r.controller == ctrl and r.N == N]
            costs = np.array([r.cost for r in rows])
            xs = np.array([r.state_norm for r in rows])
            us = np.array([r.input_norm for r in rows])
            # Order statistics ("nearest") keep quantiles well defined when
            # infeasible/diverged trials contribute +inf entries.
            q = lambda a, p: float(np.quantile(a, p, method="nearest"))
            out[f"{ctrl}@N={N}"] = {
                "controller": ctrl,
                "N": N,
                "trials": len(rows),
                "cost_median": q(costs, 0.5),
                "cost_q25": q(costs, 0.25),
                "cost_q75": q(costs, 0.75),
                "state_norm_median": q(xs, 0.5),
                "state_norm_q25": q(xs, 0.25),
                "state_norm_q75": q(xs, 0.75),
                "input_norm_median": q(us, 0.5),
                "input_norm_q25": q(us, 0.25),
                "input_norm_q75": q(us, 0.75),
                "diverged_fraction": float(np.mean([r.diverged for r in rows])),
                "feasible_fraction": float(np.mean([r.feasible for r in rows])),
            }
        self.summary = out
        return out


_INFEASIBLE = RunStats(cost=math.inf, state_norm=math.inf, input_norm=math.inf, diverged=True)


def compare_controllers(
    sys: LtiSystem,
    weights: CostWeights,
    N_list: list[int],
    trials_per_N: int,
    seed: int,
    T: int,
    mpc_horizon: int = 1000,
    bootstrap_resamples: int = 1000,
) -> ComparisonResults:
    """Batch comparison of the four controller families across sample sizes.

    Per trial: collect an ensemble of N noisy rollouts sharing one
    excitation input, average it, synthesize the robust controllers with
    the bootstrap and realized noise budgets plus the naive controller, and
    run all of them (and the model-based optimum) through the same MPC
    noise stream.  Synthesis infeasibility is recorded as an infinite-cost
    trial rather than raised.
    """
    L = weights.horizon
    responses_star, jstar = optimal_responses(sys, weights)
    k_star = riccati_finite(sys, weights).controller()
    obsn = spectral_norm(obs_stack(sys.A, L))
    toep = spectral_norm(toeplitz_stack(sys.A, np.eye(sys.state_dim), T - L + 1))
    qhalf = float(np.linalg.norm(psd_sqrt(weights.q_state)))

    ss = np.random.SeedSequence(seed)
    all_seeds = ss.generate_state(2 * len(N_list) * trials_per_N, dtype=np.uint64)
    records: list[TrialRecord] = []

    def run_trial(args) -> list[TrialRecord]:
        N, trial, data_seed, mpc_seed = args
        ens = generate_ensemble(sys, T, N, int(data_seed))
        avg = average(ens)
        data = DataHankels.from_trajectory(avg, L)
        eps_true = spectral_norm(data.hw)
        eps_boot = bootstrap_epsilon(
            ens, L, resamples=bootstrap_resamples, statistic="noise", seed=int(data_seed) + 1
        )

        # Certification inputs come from the noiseless twin of this record.
        noiseless = simulate(sys, np.zeros(sys.state_dim), avg.u)
        try:
            gstar_norm = recover_gstar(
                build_hankel(noiseless.x, L), build_hankel(noiseless.u, L), responses_star
            ).norm
        except NotPersistentlyExciting:
            gstar_norm = None  # no bound without the optimal parameter

        trial_records = []

        def evaluate(name, controller, feasible, gamma=None, eps=None, extra=None):
            if not feasible:
                stats = _INFEASIBLE
            else:
                stats = mpc_run(
                    MpcConfig(
                        horizon=mpc_horizon,
                        plant=sys,
                        controller=controller,
                        q_state=weights.q_state,
                        r_input=weights.r_input,
                        seed=int(mpc_seed),
                    )
                )
            rec = TrialRecord(
                controller=name,
                N=N,
                trial=trial,
                feasible=feasible,
                diverged=stats.diverged,
                cost=stats.cost,
                state_norm=stats.state_norm,
                input_norm=stats.input_norm,
                gamma=gamma,
                eps=eps,
                **(extra or {}),
            )
            trial_records.append(rec)

        evaluate("optimal", k_star, True)

        for name, eps_val in (("robust_bootstrap", eps_boot), ("robust_true", eps_true)):
            try:
                res = synth_robust(data, weights, eps_val)
            except (InfeasibleEpsilon, NotPersistentlyExciting):
                evaluate(name, None, False, eps=eps_val)
                continue
            extra = None
            if name == "robust_true":
                jhat = sls_cost(responses_from_controller(sys, res.controller), weights)
                certified, bound = False, math.nan
                if gstar_norm is not None:
                    b = suboptimality_bound(
                        BoundInputs(
                            gstar_norm=gstar_norm,
                            eps=eps_val,
                            L=L,
                            T=T,
                            obsnorm=obsn,
                            toepnorm=toep,
                            qhalf_frob=qhalf,
                            jstar=jstar,
                        )
                    )
                    certified, bound = b.certified, (b.value if b.certified else math.nan)
                extra = {
                    "certified": certified,
                    "rel_subopt": (jhat - jstar) / jstar,
                    "subopt_bound": bound,
                }
            evaluate(name, res.controller, True, gamma=res.gamma, eps=eps_val, extra=extra)

        try:
            res = synth_robust(data, weights, 0.0, mode="naive", structure="full")
            evaluate("naive", res.controller, True, gamma=None, eps=0.0)
        except (InfeasibleEpsilon, NotPersistentlyExciting):
            evaluate("naive", None, False, eps=0.0)

        return trial_records

    jobs = []
    i = 0
    for N in N_list:
        for trial in range(trials_per_N):
            jobs.append((N, trial, all_seeds[i], all_seeds[i + 1]))
            i += 2
    for recs in parallel_map(run_trial, jobs):
        records.extend(recs)
    results = ComparisonResults(records=records)
    results.aggregate()
    return results
