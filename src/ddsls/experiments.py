"""Receding-horizon evaluation of synthesized controllers.

Four controller families are compared: the model-based optimal gains, two
robust data-driven controllers (budgeted by the bootstrap estimate and by
the realized noise Hankel norm), and the naive data-driven controller that
drops the norm constraint.  Each controller's first-step gain is applied in
a receding-horizon loop against fresh process noise; trials share noise
realizations across controllers so comparisons are paired.  Trials run
one after another in the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .analysis import BoundInputs, _plant_terms, bootstrap_epsilon, suboptimality_bound
from .blockops import CostWeights, LtvOperator, spectral_norm
from .hankel import NotPersistentlyExciting
from .lqg import recover_gstar, riccati_finite
from .lti import Ensemble, LtiSystem, average, generate_ensemble, simulate
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
]


_DIVERGENCE_THRESHOLD = 1e6  # state norm beyond which an MPC run stops as diverged


@dataclass(frozen=True)
class MpcConfig:
    """One receding-horizon run of a finite-horizon LTV controller.

    A controller whose blocks are not (inputs x states) of the plant, or a
    ``q_state`` or ``r_input`` of another size than the plant's, raises ValueError.
    """

    horizon: int
    plant: LtiSystem
    controller: LtvOperator
    q_state: np.ndarray
    r_input: np.ndarray
    seed: int

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        n, m = self.plant.state_dim, self.plant.input_dim
        blocks = (self.controller.block_rows, self.controller.block_cols)
        if blocks != (m, n):
            raise ValueError(f"controller blocks must be {m} x {n} (inputs x states), got {blocks[0]} x {blocks[1]}")
        for name, M, k in (("q_state", self.q_state, n), ("r_input", self.r_input, m)):
            if np.shape(M) != (k, k):
                raise ValueError(f"{name} must be {k} x {k} to match the plant, got shape {np.shape(M)}")


@dataclass(frozen=True)
class RunStats:
    """Accumulated quadratic cost and signal norms of one MPC run.

    Divergence substitutes +inf for the cost and norms.
    """

    cost: float
    state_norm: float
    input_norm: float
    diverged: bool


_DIVERGED = RunStats(cost=math.inf, state_norm=math.inf, input_norm=math.inf, diverged=True)


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
    limit = _DIVERGENCE_THRESHOLD**2
    xs = np.empty((H, n))
    x = np.zeros(n)
    for t in range(H):
        # The negated test also flags NaN and inf states.
        if not x @ x <= limit:
            return _DIVERGED
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
    # The robust synthesis's final inner solve and its gamma search (None for
    # naive and optimal): solver certificates, apart from ``certified``,
    # which is the suboptimality bound's precondition on eps.
    solver_status: str | None = None
    solver_iterations: int | None = None
    solver_gap: float | None = None
    search_gap: float | None = None


def _summarize(records: list[TrialRecord]) -> dict:
    """Median and quartiles of cost and signal norms per (controller, N), inf-aware."""
    groups: dict[tuple, list[TrialRecord]] = {}
    for r in records:
        groups.setdefault((r.controller, r.N), []).append(r)
    out: dict = {}
    for ctrl, N in sorted(groups):
        rows = groups[ctrl, N]
        entry = {"controller": ctrl, "N": N, "trials": len(rows)}
        for stat in ("cost", "state_norm", "input_norm"):
            values = np.array([getattr(r, stat) for r in rows])
            # Order statistics ("nearest") keep quantiles well defined when
            # infeasible/diverged trials contribute +inf entries.
            for label, p in (("median", 0.5), ("q25", 0.25), ("q75", 0.75)):
                entry[f"{stat}_{label}"] = float(np.quantile(values, p, method="nearest"))
        entry["diverged_fraction"] = float(np.mean([r.diverged for r in rows]))
        entry["feasible_fraction"] = float(np.mean([r.feasible for r in rows]))
        out[f"{ctrl}@N={N}"] = entry
    return out


@dataclass
class ComparisonResults:
    """Trial records and their per-(controller, N) summary, computed once."""

    records: list[TrialRecord]
    summary: dict = field(init=False)

    def __post_init__(self):
        self.summary = _summarize(self.records)


def _record(sys: LtiSystem, T: int, N: int, seed: int, L: int) -> tuple[Ensemble, DataHankels]:
    """N rollouts under one shared input, and the order-L Hankels of their average."""
    ens = generate_ensemble(sys, T, N, seed)
    return ens, DataHankels.from_trajectory(average(ens), L)


def _noiseless_twin(sys: LtiSystem, u: np.ndarray, L: int) -> DataHankels:
    """The order-L Hankels of the noise-free rollout from the zero state under ``u``."""
    return DataHankels.from_trajectory(simulate(sys, np.zeros(sys.state_dim), u), L)


def _bootstrap_budget(ens: Ensemble, L: int, statistic: str = "noise", resamples: int = 1000) -> float:
    """``bootstrap_epsilon`` of a generated record, seeded by the record's seed + 1."""
    return bootstrap_epsilon(ens, L, resamples=resamples, statistic=statistic, seed=ens.seed + 1)


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
    noise stream.  Synthesis infeasibility is recorded as an infinite-cost,
    diverged trial rather than raised.  Records come in the order of
    ``N_list``, then trial, then optimal, robust_bootstrap, robust_true,
    naive.
    """
    if trials_per_N < 1:
        raise ValueError(f"trials_per_N must be >= 1, got {trials_per_N}")
    if not N_list:
        raise ValueError("N_list must hold at least one sample size")
    L = weights.horizon
    responses_star, plant_terms = _plant_terms(sys, weights, T)
    jstar = plant_terms["jstar"]
    k_star = riccati_finite(sys, weights).controller()

    jobs = [(N, trial) for N in N_list for trial in range(trials_per_N)]
    seeds = np.random.SeedSequence(seed).generate_state(2 * len(jobs), dtype=np.uint64)

    records: list[TrialRecord] = []
    for (N, trial), (data_seed, mpc_seed) in zip(jobs, seeds.reshape(-1, 2)):
        ens, data = _record(sys, T, N, int(data_seed), L)
        eps_true = spectral_norm(data.hw)
        eps_boot = _bootstrap_budget(ens, L, resamples=bootstrap_resamples)

        # Certification inputs come from the noiseless twin of this record.
        twin = _noiseless_twin(sys, ens.u, L)
        try:
            gstar_norm = recover_gstar(twin.hx, twin.hu, responses_star).norm
        except NotPersistentlyExciting:
            gstar_norm = None  # no bound without the optimal parameter

        # (family, controller or None for an infeasible synthesis, extra record fields)
        runs = [("optimal", k_star, {})]
        for name, eps, kwargs in (
            ("robust_bootstrap", eps_boot, {}),
            ("robust_true", eps_true, {}),
            ("naive", 0.0, {"mode": "naive", "structure": "full"}),
        ):
            try:
                res = synth_robust(data, weights, eps, **kwargs)
            except (InfeasibleEpsilon, NotPersistentlyExciting):
                runs.append((name, None, {"eps": eps}))
                continue
            extra = {"gamma": res.gamma, "eps": eps}
            if res.mode == "robust":
                search = res.search
                extra.update(
                    solver_status=search.status,
                    solver_iterations=search.iterations,
                    solver_gap=search.gap,
                    search_gap=search.search_gap,
                )
            if name == "robust_true":
                # Realized relative suboptimality, and the bound when it applies.
                jhat = sls_cost(responses_from_controller(sys, res.controller), weights)
                extra.update(certified=False, rel_subopt=(jhat - jstar) / jstar, subopt_bound=math.nan)
                if gstar_norm is not None:
                    b = suboptimality_bound(BoundInputs(gstar_norm=gstar_norm, eps=eps, **plant_terms))
                    extra.update(certified=b.certified, subopt_bound=b.value if b.certified else math.nan)
            runs.append((name, res.controller, extra))

        for name, controller, extra in runs:
            stats = _DIVERGED
            if controller is not None:
                cfg = MpcConfig(mpc_horizon, sys, controller, weights.q_state, weights.r_input, int(mpc_seed))
                stats = mpc_run(cfg)
            records.append(
                TrialRecord(
                    controller=name, N=N, trial=trial, feasible=controller is not None, **asdict(stats), **extra
                )
            )
    return ComparisonResults(records)
