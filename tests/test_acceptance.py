"""End-to-end acceptance gate.

One test per criterion, each pinned to its stated tolerance and printing a
single PASS/FAIL line (visible under ``pytest -s``).  Run order follows the
criterion numbering; the whole module is designed to finish on a laptop-class
machine in well under the stated per-criterion runtime budgets.
"""

import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest

from ddsls.analysis import (
    TailParams,
    eps_precondition,
    hankel_norms_of_signals,
    lipschitz_shift,
    sample_complexity,
    tail_bound_lipschitz,
    tail_bound_matrix,
)
from ddsls.blockops import spectral_norm
from ddsls.hankel import build_hankel
from ddsls.lqg import recover_gstar
from ddsls.lti import average, generate_ensemble, simulate
from ddsls.sls import (
    achievability_map,
    achievability_residual,
    closed_loop,
    recover_controller,
    responses_from_controller,
)
from ddsls.solver import BlockDiagonalProblem
from ddsls.synth import DataHankels, assemble_delta, assemble_responses, synth_robust
from tests.acceptance_jobs import (
    L,
    N_STATE,
    SIGMA2,
    T,
    bench,
    bench_norms,
    certified_pipeline_run,
    coverage_trial,
)
from tests.oracles import kkt_equality_ls, projected_gradient_spectral
from tests.test_sls import random_causal
from tests.test_solver import active_radius, oracle_friendly_instance
from tests.test_synth import random_feasible_ghat


def report(idx, name, ok, detail=""):
    line = f"[ACCEPTANCE {idx:02d}] {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_sls_exactness():
    plant, _ = bench()
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst_res = worst_rt = 0.0
    for _ in range(100):
        K = random_causal(rng, L, 3, 3, scale=0.4)
        resp = responses_from_controller(plant, K)
        worst_res = max(worst_res, achievability_residual(resp, plant))
        K_back = recover_controller(resp)
        worst_rt = max(worst_rt, float(np.abs(K_back.dense - K.dense).max()))
    elapsed = time.perf_counter() - start
    report(
        1,
        "closed-loop responses are exactly achievable and round-trip",
        worst_res < 1e-10 and worst_rt < 1e-9 and elapsed < 10,
        f"residual={worst_res:.2e} roundtrip={worst_rt:.2e} time={elapsed:.1f}s",
    )


def test_criterion_02_noiseless_equivalence():
    plant, weights = bench()
    _, jstar, *_ = bench_norms()
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(200 + seed)
        traj = simulate(plant, np.zeros(3), rng.standard_normal((T, 3)))
        res = synth_robust(DataHankels.from_trajectory(traj, L), weights, 0.0)
        worst = max(worst, abs(res.objective - jstar) / jstar)
    elapsed = time.perf_counter() - start
    report(
        2,
        "noise-free data synthesis reproduces the model-based optimum",
        worst < 1e-6 and elapsed < 30,
        f"max rel err={worst:.2e} time={elapsed:.1f}s",
    )


def test_criterion_03_noisy_identity_and_delta_bound():
    plant, _ = bench()
    ens = generate_ensemble(plant, T, 48, seed=303)
    data = DataHankels.from_trajectory(average(ens), L)
    amap = achievability_map(plant, L)
    eps_h = spectral_norm(data.hw)
    rng = np.random.default_rng(304)
    start = time.perf_counter()
    worst_res = 0.0
    bound_ok = True
    for _ in range(50):
        ghat = random_feasible_ghat(data, rng, spread=0.2)
        resp = assemble_responses(data, ghat)
        delta = assemble_delta(data, ghat)
        res = np.abs(amap @ resp.stacked() - np.eye(3 * L) - delta.delta.dense).max()
        worst_res = max(worst_res, float(res))
        bound = math.sqrt(L) * eps_h * spectral_norm(ghat)
        bound_ok = bound_ok and spectral_norm(delta.delta.dense) <= bound * (1 + 1e-12)
    elapsed = time.perf_counter() - start
    report(
        3,
        "noisy-data responses satisfy the perturbed achievability identity",
        worst_res < 1e-9 and bound_ok and elapsed < 30,
        f"max residual={worst_res:.2e} delta bound held={bound_ok} time={elapsed:.1f}s",
    )


def test_criterion_04_perturbed_closed_loop_equivalence():
    plant, _ = bench()
    ens = generate_ensemble(plant, T, 48, seed=404)
    data = DataHankels.from_trajectory(average(ens), L)
    rng = np.random.default_rng(405)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        ghat = random_feasible_ghat(data, rng, spread=0.15)
        resp = assemble_responses(data, ghat)
        delta = assemble_delta(data, ghat).delta.dense
        K = recover_controller(resp)
        wvec = rng.standard_normal(3 * L)
        x_sim, u_sim = closed_loop(plant, K, wvec)
        mapped = resp.stacked() @ np.linalg.solve(np.eye(3 * L) + delta, wvec)
        worst = max(worst, float(np.abs(np.concatenate([x_sim, u_sim]) - mapped).max()))
    elapsed = time.perf_counter() - start
    report(
        4,
        "realized closed loop equals the perturbation-corrected response map",
        worst < 1e-8 and elapsed < 30,
        f"max err={worst:.2e} time={elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_05_solver_against_oracles():
    start = time.perf_counter()
    worst_kkt = 0.0
    worst_pg = 0.0
    for seed in range(20):
        C, A = oracle_friendly_instance(seed + 500)
        solver = BlockDiagonalProblem(C, A)
        ref = solver.solve(1.5 * solver.unconstrained_norm, tol=1e-7, max_iter=50_000)  # ball inactive
        _, obj_kkt = kkt_equality_ls(C, A, np.eye(len(A)))
        worst_kkt = max(worst_kkt, abs(ref.objective - obj_kkt) / max(obj_kkt, 1e-12))

        tau = active_radius(solver)
        rep = solver.solve(tau, tol=1e-9, max_iter=50_000)
        _, obj_pg = projected_gradient_spectral(C, A, np.eye(len(A)), tau, iters=20_000)
        worst_pg = max(worst_pg, abs(rep.objective - obj_pg) / obj_pg)
    elapsed = time.perf_counter() - start
    report(
        5,
        "dual Newton solver agrees with KKT and first-order oracles",
        worst_kkt < 1e-8 and worst_pg < 1e-4 and elapsed < 120,
        f"kkt rel={worst_kkt:.2e} first-order rel={worst_pg:.2e} time={elapsed:.1f}s",
    )


def _pool_map(fn, items, chunksize: int) -> list:
    """``fn`` over ``items`` in order, on two spawned workers of one BLAS thread each.

    numpy fixes its BLAS thread count at import, so the limit is set in the
    environment the workers start from; this process keeps its own.  Two
    single-threaded workers fill two cores without oversubscribing them.
    """
    one_thread = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    with mock.patch.dict(os.environ, one_thread):
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
            return list(pool.map(fn, items, chunksize=chunksize))


def test_criterion_06_suboptimality_bound_dominance():
    start = time.perf_counter()
    seeds = [int(s) for s in np.random.SeedSequence(606).generate_state(200, dtype=np.uint64)]
    outcomes = _pool_map(certified_pipeline_run, seeds, chunksize=10)
    certified = [o for o in outcomes if o is not None]
    violations = sum(1 for rel, bound in certified if rel > bound)
    elapsed = time.perf_counter() - start
    report(
        6,
        "relative suboptimality never exceeds its certified bound",
        len(certified) >= 150 and violations == 0 and elapsed < 600,
        f"certified={len(certified)}/200 violations={violations} time={elapsed:.0f}s",
    )


def test_criterion_07_noise_hankel_tail_bounds():
    start = time.perf_counter()
    params = TailParams(n=N_STATE, T=T, N=100, sigma2=SIGMA2)
    rng = np.random.default_rng(707)
    draws = math.sqrt(SIGMA2 / params.N) * rng.standard_normal((2000, T, 3))
    draws[:, -1, :] = 0.0  # averaged records carry no noise beyond the last step
    norms = hankel_norms_of_signals(draws, L)
    tgrid = np.linspace(0.0, float(norms.max()) * 1.1, 10)
    matrix_ok = all(
        float(np.mean(norms >= t)) <= tail_bound_matrix(float(t), params) for t in tgrid
    )
    shift = lipschitz_shift(params)
    lipschitz_ok = all(
        float(np.mean(norms >= t + shift)) <= tail_bound_lipschitz(float(t), params)
        for t in tgrid
    )
    elapsed = time.perf_counter() - start
    report(
        7,
        "empirical noise-Hankel tails stay below both concentration bounds",
        matrix_ok and lipschitz_ok and elapsed < 120,
        f"matrix={matrix_ok} lipschitz={lipschitz_ok} time={elapsed:.1f}s",
    )


def test_criterion_08_averaging_law():
    plant, _ = bench()
    start = time.perf_counter()
    ok = True
    details = []
    for N in (10, 100, 400):
        samples = np.empty(1000)
        seeds = np.random.SeedSequence(808 + N).generate_state(1000, dtype=np.uint64)
        acc = []
        for s in seeds:
            ens = generate_ensemble(plant, 8, N, int(s))
            acc.append(average(ens).w_process[:-1])
        var = np.stack(acc).var(axis=0).mean()
        ok = ok and abs(var - SIGMA2 / N) <= 0.15 * SIGMA2 / N
        details.append(f"N={N}: var={var:.3e} target={SIGMA2 / N:.3e}")
    elapsed = time.perf_counter() - start
    report(
        8,
        "averaged noise variance follows the 1/N law",
        ok and elapsed < 60,
        "; ".join(details) + f" time={elapsed:.1f}s",
    )


@pytest.mark.slow
def test_criterion_09_bootstrap_coverage():
    start = time.perf_counter()
    seeds = [int(s) for s in np.random.SeedSequence(909).generate_state(1000, dtype=np.uint64)]
    hits = sum(_pool_map(coverage_trial, seeds, chunksize=25))
    coverage = hits / 1000.0
    elapsed = time.perf_counter() - start
    report(
        9,
        "bootstrap 95th-percentile budget covers fresh draws at nominal rate",
        0.92 <= coverage <= 0.98 and elapsed < 180,
        f"coverage={coverage:.3f} time={elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_10_mpc_qualitative_reproduction():
    from ddsls.experiments import compare_controllers

    plant, weights = bench()
    start = time.perf_counter()
    results = compare_controllers(
        plant,
        weights,
        N_list=[8, 32, 128],
        trials_per_N=10,
        seed=1010,
        T=T,
        mpc_horizon=1000,
        bootstrap_resamples=1000,
    )
    summary = results.summary
    naive_div = summary["naive@N=8"]["diverged_fraction"]
    ordinal_ok = True
    details = [f"naive divergence@N=8={naive_div:.2f}"]
    for N in (8, 32, 128):
        opt = summary[f"optimal@N={N}"]
        for ctrl in ("robust_bootstrap", "robust_true"):
            entry = summary[f"{ctrl}@N={N}"]
            if entry["feasible_fraction"] < 0.5:
                continue  # synthesis infeasible at this sample size
            ordinal_ok = ordinal_ok and entry["state_norm_median"] < opt["state_norm_median"]
            ordinal_ok = ordinal_ok and entry["input_norm_median"] > opt["input_norm_median"]
    elapsed = time.perf_counter() - start
    report(
        10,
        "MPC: naive diverges at small N; robust trades input effort for state rejection",
        naive_div >= 0.9 and ordinal_ok and elapsed < 900,
        "; ".join(details) + f" ordinal={ordinal_ok} time={elapsed:.0f}s",
    )


def test_criterion_11_sample_complexity_self_consistency():
    plant, weights = bench()
    resp_star, _, toep, *_ = bench_norms()
    start = time.perf_counter()
    hits = 0
    seeds = np.random.SeedSequence(1111).generate_state(500, dtype=np.uint64)
    for s in seeds:
        rng = np.random.default_rng(int(s))
        u = rng.standard_normal((T, 3))
        clean = simulate(plant, np.zeros(3), u)
        gstar = recover_gstar(build_hankel(clean.x, L), build_hankel(clean.u, L), resp_star)
        eps_max = eps_precondition(gstar.norm, L, toep)
        N = sample_complexity(0.05, gstar.norm, L, toep, N_STATE, T, SIGMA2)
        wbar = math.sqrt(SIGMA2 / N) * rng.standard_normal((T - 1, 3))
        wbar = np.vstack([wbar, np.zeros((1, 3))])
        hits += float(hankel_norms_of_signals(wbar[None], L)[0]) <= eps_max
    rate = hits / 500.0
    elapsed = time.perf_counter() - start
    report(
        11,
        "the prescribed sample size keeps the realized noise inside the certified budget",
        rate >= 0.95 and elapsed < 300,
        f"rate={rate:.3f} time={elapsed:.0f}s",
    )
