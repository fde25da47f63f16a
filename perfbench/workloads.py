"""The four benchmark workloads on the benchmark plant of the test suite.

Every workload is a closed loop of ops: one caller starts the next op when
the previous one returns.  An op's inputs are generated from the workload
seed and the op index before the op is timed, so the program receives only
generated inputs (plant, weights, records, epsilon, seeds).  ``check`` runs
after the op's timer stops; it returns the output-check failures, a
fingerprint of the outputs for repeat and transparency checks, and the
samples of the quality metrics.

Functions are looked up on their modules at call time (``synth.synth_robust``)
so the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import math
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from ddsls import analysis, experiments, hankel, lqg, lti, sls, synth
from ddsls.blockops import CostWeights, obs_stack, psd_sqrt, spectral_norm, toeplitz_stack
from ddsls.hankel import NotPersistentlyExciting
from ddsls.solver import InfeasibleEpsilon

# Benchmark plant: graph Laplacian + 1.01 I, B = I, sigma^2 = 0.1,
# Q = 1e-3 I, R = I, DARE terminal weight, L = 10, T = 45.
A_BENCH = np.array([[1.01, 0.01, 0.00], [0.01, 1.01, 0.01], [0.00, 0.01, 1.01]])
SIGMA2 = 0.1
N_STATE = 3
L = 10
T = 45
STRUCT_TOL = 1e-6
CONTROLLERS = ("naive", "optimal", "robust_bootstrap", "robust_true")
# Settings of the certified pipeline in acceptance criterion 06.
SCREENING = dict(grid_points=5, gamma_tol=1e-2, tol=1e-4)


@dataclass(frozen=True)
class Bench:
    plant: lti.LtiSystem
    weights: CostWeights
    resp_star: sls.SystemResponsePair
    jstar: float
    toep: float
    obsn: float
    qhalf: float
    k_star: object  # model-based optimal controller, the MPC reference


def mpc_cost(bench: Bench, controller, horizon: int, seed: int) -> float:
    cfg = experiments.MpcConfig(
        horizon=horizon,
        plant=bench.plant,
        controller=controller,
        q_state=bench.weights.q_state,
        r_input=bench.weights.r_input,
        seed=seed,
    )
    return experiments.mpc_run(cfg).cost


def make_bench() -> Bench:
    plant = lti.LtiSystem(A=A_BENCH, B=np.eye(N_STATE), noise_std=math.sqrt(SIGMA2))
    q, r = 1e-3 * np.eye(N_STATE), np.eye(N_STATE)
    weights = CostWeights(q_state=q, r_input=r, q_terminal=lqg.dare(plant, q, r), horizon=L)
    resp_star, jstar = lqg.optimal_responses(plant, weights)
    return Bench(
        plant=plant,
        weights=weights,
        resp_star=resp_star,
        jstar=jstar,
        toep=spectral_norm(toeplitz_stack(A_BENCH, np.eye(N_STATE), T - L + 1)),
        obsn=spectral_norm(obs_stack(A_BENCH, L)),
        qhalf=float(np.linalg.norm(psd_sqrt(q))),
        k_star=lqg.riccati_finite(plant, weights).controller(),
    )


@dataclass
class Outcome:
    failures: list = field(default_factory=list)
    fingerprint: str = ""
    quality: dict = field(default_factory=dict)  # metric name -> samples

    def add(self, name: str, value: float) -> None:
        self.quality.setdefault(name, []).append(float(value))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()[:16]


def op_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode()), index])


def certificate_quality(bench: Bench, res, out: Outcome) -> None:
    """Bound a user can rely on, and how far the returned G-hat leaves its ball."""
    radius_use = math.sqrt(L) * res.eps * spectral_norm(res.ghat)
    gamma_eff = max(res.gamma, radius_use)
    f = sls.sls_cost(res.responses, bench.weights)
    out.add("certified_bound_rel", f / (1.0 - gamma_eff) / bench.jstar if gamma_eff < 1 else math.inf)
    out.add("cert_violation_max", max(0.0, radius_use / res.gamma - 1.0) if res.gamma > 0 else 0.0)


def check_synthesis(bench: Bench, data: synth.DataHankels, res, out: Outcome) -> None:
    """Structure of G-hat, finiteness of responses and controller, causality."""
    G, cols, n = res.ghat, data.cols, data.n
    scale = max(1.0, float(np.abs(G).max(initial=0.0)))
    for i in range(L):
        for j in range(L):
            blk = G[i * cols : (i + 1) * cols, j * n : (j + 1) * n]
            if j > i:
                if np.abs(blk).max() > STRUCT_TOL * scale:
                    out.failures.append(f"ghat block ({i},{j}) above the diagonal is nonzero")
                continue
            target = np.eye(n) if i == j else np.zeros((n, n))
            err = float(np.abs(data.h1x @ blk - target).max())
            if not err <= STRUCT_TOL:
                out.failures.append(f"h1x ghat block ({i},{j}) misses its target by {err:.2e}")
    K = res.controller.dense
    if not (np.isfinite(res.responses.stacked()).all() and np.isfinite(K).all()):
        out.failures.append("responses or controller not finite")
    elif not res.controller.is_causal(STRUCT_TOL * max(1.0, float(np.abs(K).max(initial=0.0)))):
        out.failures.append("controller is not causal")
    jhat = sls.sls_cost(sls.responses_from_controller(bench.plant, res.controller), bench.weights)
    out.add("jhat_rel_median", (jhat - bench.jstar) / bench.jstar)
    certificate_quality(bench, res, out)


@dataclass(frozen=True)
class Compare:
    """One compare_controllers trial at each sample size N per op.

    A whole row of N values per op, not one N, because op time depends
    strongly on N; the median op time of a run is then not set by which N
    it happens to land on.
    """

    name = "compare"
    quality = ("jhat_rel_median", "mpc_cost_rel_median", "certified_bound_rel", "cert_violation_max")
    sizes: tuple = (8, 32, 128)
    mpc_horizon: int = 1000
    resamples: int = 1000
    count_ops: int = 1

    def make_input(self, bench: Bench, rng, index: int):
        return int(rng.integers(0, 2**63))

    def smoke(self) -> "Compare":
        return replace(self, sizes=(32,), mpc_horizon=100, resamples=100)

    def op(self, bench: Bench, seed):
        return experiments.compare_controllers(
            bench.plant,
            bench.weights,
            N_list=list(self.sizes),
            trials_per_N=1,
            seed=seed,
            T=T,
            mpc_horizon=self.mpc_horizon,
            bootstrap_resamples=self.resamples,
        )

    def check(self, bench: Bench, inp, result, synthesized) -> Outcome:
        out = Outcome()
        for N in self.sizes:
            recs = {r.controller: r for r in result.records if r.N == N}
            if sorted(r.controller for r in result.records if r.N == N) != list(CONTROLLERS):
                out.failures.append(f"trial at N={N} returned controllers {sorted(recs)}")
                continue
            opt = recs["optimal"]
            if opt.diverged or not math.isfinite(opt.cost) or opt.cost <= 0:
                out.failures.append(f"optimal controller at N={N} has no finite positive cost")
                continue
            for name in ("robust_bootstrap", "robust_true"):
                rec = recs[name]
                if rec.feasible and not rec.diverged:
                    out.add("mpc_cost_rel_median", (rec.cost - opt.cost) / opt.cost)
            true = recs["robust_true"]
            if true.feasible:
                if true.rel_subopt is None or not math.isfinite(true.rel_subopt):
                    out.failures.append(f"feasible robust_true trial at N={N} has no finite suboptimality")
                else:
                    out.add("jhat_rel_median", true.rel_subopt)
        for res in synthesized:
            if res.mode == "robust":
                certificate_quality(bench, res, out)
        out.fingerprint = _digest(
            [
                (r.controller, r.N, r.feasible, r.diverged, r.cost, r.state_norm, r.input_norm, r.gamma, r.eps, r.rel_subopt)
                for r in result.records
            ]
        )
        return out


@dataclass(frozen=True)
class Certify:
    """The certified pipeline of acceptance criterion 06, one seed per op."""

    name = "certify"
    quality = ("certified_bound_rel", "cert_violation_max", "jhat_rel_median")
    max_iter: int = 1200
    count_ops: int = 3

    def make_input(self, bench: Bench, rng, index: int):
        return rng.standard_normal((T, N_STATE)), rng.standard_normal((T - 1, N_STATE))

    def smoke(self) -> "Certify":
        return replace(self, max_iter=60, count_ops=1)

    def op(self, bench: Bench, inp):
        u, z = inp
        zero = np.zeros(N_STATE)
        clean = lti.simulate(bench.plant, zero, u)
        gstar = lqg.recover_gstar(
            hankel.build_hankel(clean.x, L), hankel.build_hankel(clean.u, L), bench.resp_star
        )
        N = analysis.sample_complexity(0.05, gstar.norm, L, bench.toep, N_STATE, T, SIGMA2)
        noisy = lti.simulate(bench.plant, zero, u, noise=math.sqrt(SIGMA2 / N) * z)
        data = synth.DataHankels.from_trajectory(noisy, L)
        eps = spectral_norm(data.hw)
        res = synth.synth_robust(data, bench.weights, eps, max_iter=self.max_iter, **SCREENING)
        jhat = sls.sls_cost(sls.responses_from_controller(bench.plant, res.controller), bench.weights)
        return gstar.norm, data, res, jhat

    def check(self, bench: Bench, inp, result, synthesized) -> Outcome:
        gnorm, data, res, jhat = result
        out = Outcome()
        check_synthesis(bench, data, res, out)
        rel = (jhat - bench.jstar) / bench.jstar
        bound = analysis.suboptimality_bound(
            analysis.BoundInputs(
                gstar_norm=gnorm,
                eps=res.eps,
                L=L,
                T=T,
                obsnorm=bench.obsn,
                toepnorm=bench.toep,
                qhalf_frob=bench.qhalf,
                jstar=bench.jstar,
            )
        )
        if bound.certified and rel > bound.value:
            out.failures.append(f"certified suboptimality {rel:.3e} exceeds its bound {bound.value:.3e}")
        out.fingerprint = _digest(res.ghat, res.gamma, res.objective, jhat)
        return out


@dataclass(frozen=True)
class SynthFull:
    """Coupled (full) robust synthesis on averaged records, cycling N.

    The solver cap is far below the library default so that one op takes
    seconds rather than a minute and a run holds about ten of them.  Nearly
    every solve stops at the cap, so op time is iterations times cost per
    iteration: a faster iteration shows as a shorter op, a faster
    convergence only where it reaches the tolerance within 150 iterations.
    The cap also sets the quality figures (``cert_violation_max``) of this
    workload.  Each synthesized controller then runs one MPC rollout, as
    ``ddsls mpc`` does, which keeps the MPC layer measured.
    """

    name = "synth-full"
    quality = ("certified_bound_rel", "cert_violation_max", "jhat_rel_median", "mpc_cost_rel_median")
    sizes: tuple = (8, 32, 128)
    max_iter: int = 150
    mpc_horizon: int = 1000
    count_ops: int = 3

    def make_input(self, bench: Bench, rng, index: int):
        N = self.sizes[index % len(self.sizes)]
        ens = lti.generate_ensemble(bench.plant, T, N, int(rng.integers(0, 2**63)))
        data = synth.DataHankels.from_trajectory(lti.average(ens), L)
        return data, spectral_norm(data.hw), int(rng.integers(0, 2**63))

    def smoke(self) -> "SynthFull":
        return replace(self, sizes=(32,), max_iter=20, mpc_horizon=100, count_ops=1)

    def op(self, bench: Bench, inp):
        data, eps, mpc_seed = inp
        res = synth.synth_robust(
            data, bench.weights, eps, structure="full", max_iter=self.max_iter, **SCREENING
        )
        return res, mpc_cost(bench, res.controller, self.mpc_horizon, mpc_seed)

    def check(self, bench: Bench, inp, result, synthesized) -> Outcome:
        res, cost = result
        out = Outcome()
        check_synthesis(bench, inp[0], res, out)
        if math.isfinite(cost):
            opt = mpc_cost(bench, bench.k_star, self.mpc_horizon, inp[2])
            out.add("mpc_cost_rel_median", (cost - opt) / opt)
        out.fingerprint = _digest(res.ghat, res.gamma, res.objective, cost)
        return out


@dataclass(frozen=True)
class Budget:
    """Bootstrap coverage trial of acceptance criterion 09."""

    name = "budget"
    quality = ("coverage_err",)
    members: int = 64
    resamples: int = 1000
    count_ops: int = 30

    def make_input(self, bench: Bench, rng, index: int):
        fresh = math.sqrt(SIGMA2 / self.members) * rng.standard_normal((T - 1, N_STATE))
        return (
            int(rng.integers(0, 2**63)),
            int(rng.integers(0, 2**63)),
            np.vstack([fresh, np.zeros((1, N_STATE))]),
        )

    def smoke(self) -> "Budget":
        return replace(self, resamples=100, count_ops=1)

    def op(self, bench: Bench, inp):
        ens_seed, boot_seed, fresh = inp
        ens = lti.generate_ensemble(bench.plant, T, self.members, ens_seed)
        eps_hat = analysis.bootstrap_epsilon(
            ens, L, resamples=self.resamples, statistic="noise", seed=boot_seed
        )
        return eps_hat, float(analysis.hankel_norms_of_signals(fresh[None], L)[0])

    def check(self, bench: Bench, inp, result, synthesized) -> Outcome:
        eps_hat, fresh_norm = result
        out = Outcome()
        if not (math.isfinite(eps_hat) and eps_hat > 0):
            out.failures.append(f"budget estimate {eps_hat!r} is not finite and positive")
        out.add("coverage_err", float(fresh_norm <= eps_hat))
        out.fingerprint = _digest(eps_hat, fresh_norm)
        return out


WORKLOADS = {w.name: w for w in (Compare(), Certify(), SynthFull(), Budget())}

# Valid outcomes of an op that are not failures: they are counted per layer.
EXPECTED_ERRORS = (InfeasibleEpsilon, NotPersistentlyExciting)


def aggregate_quality(samples: dict) -> dict:
    """Run-level quality metrics from per-op samples (absent ones read 0)."""

    def finite(xs):
        return [x for x in xs if math.isfinite(x)]

    out = {}
    for name in ("certified_bound_rel", "jhat_rel_median", "mpc_cost_rel_median"):
        xs = finite(samples.get(name, []))
        out[name] = float(np.median(xs)) if xs else 0.0
    out["cert_violation_max"] = max(samples.get("cert_violation_max", [0.0]))
    hits = samples.get("coverage_err", [])
    out["coverage_err"] = abs(float(np.mean(hits)) - 0.95) if hits else 0.0
    return out
