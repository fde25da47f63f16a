import math
from dataclasses import fields

import numpy as np
import pytest

from ddsls.blockops import LtvOperator
from ddsls.experiments import (
    _DIVERGENCE_THRESHOLD,
    ComparisonResults,
    MpcConfig,
    TrialRecord,
    compare_controllers,
    mpc_run,
)
from ddsls.lqg import dare, riccati_finite
from ddsls.lti import LtiSystem
from tests.conftest import L_BENCH, SIGMA2, T_BENCH


def stationary_controller(plant, weights):
    return riccati_finite(plant, weights).controller()


def reference_mpc_run(cfg):
    """Per-step loop: one noise draw per step, cost and norms summed as it goes."""
    sys = cfg.plant
    gain = cfg.controller.block(0, 0)
    rng = np.random.default_rng(cfg.seed)
    x = np.zeros(sys.state_dim)
    cost = sum_x2 = sum_u2 = 0.0
    for _ in range(cfg.horizon):
        u = gain @ x
        cost += float(x @ cfg.q_state @ x + u @ cfg.r_input @ u)
        sum_x2 += float(x @ x)
        sum_u2 += float(u @ u)
        if float(x @ x) > _DIVERGENCE_THRESHOLD**2 or not np.all(np.isfinite(x)):
            return math.inf, math.inf, math.inf, True
        x = sys.A @ x + sys.B @ u + sys.noise_std * rng.standard_normal(sys.state_dim)
    return cost, math.sqrt(sum_x2), math.sqrt(sum_u2), False


class TestMpcRun:
    @pytest.mark.parametrize("gain", ["stationary", "open-loop"])
    def test_matches_per_step_reference(self, plant, bench_weights, gain):
        # The open-loop case is the diverging run of the test below.
        controller = (
            stationary_controller(plant, bench_weights)
            if gain == "stationary"
            else LtvOperator(L_BENCH, 3, 3, np.zeros((30, 30)))
        )
        for seed in range(1, 4):
            cfg = MpcConfig(
                horizon=1000,
                plant=plant,
                controller=controller,
                q_state=bench_weights.q_state,
                r_input=bench_weights.r_input,
                seed=seed,
            )
            stats = mpc_run(cfg)
            cost, state_norm, input_norm, diverged = reference_mpc_run(cfg)
            assert stats.diverged == diverged == (gain == "open-loop")
            got = [stats.cost, stats.state_norm, stats.input_norm]
            np.testing.assert_allclose(got, [cost, state_norm, input_norm], rtol=1e-14, atol=0.0)

    def test_zero_noise_zero_start_is_free(self, plant, bench_weights):
        quiet = LtiSystem(A=plant.A, B=plant.B, noise_std=0.0)
        cfg = MpcConfig(
            horizon=200,
            plant=quiet,
            controller=stationary_controller(plant, bench_weights),
            q_state=bench_weights.q_state,
            r_input=bench_weights.r_input,
            seed=0,
        )
        stats = mpc_run(cfg)
        assert stats.cost == 0.0
        assert not stats.diverged

    def test_open_loop_diverges_on_unstable_plant(self, plant, bench_weights):
        cfg = MpcConfig(
            horizon=1000,
            plant=plant,
            controller=LtvOperator(L_BENCH, 3, 3, np.zeros((30, 30))),
            q_state=bench_weights.q_state,
            r_input=bench_weights.r_input,
            seed=1,
        )
        stats = mpc_run(cfg)
        assert stats.diverged
        assert math.isinf(stats.cost)

    def test_stationary_gain_average_cost(self, plant, bench_weights):
        # Long-run per-step cost of the stationary optimal gain equals the
        # noise variance times the trace of the fixed-point value matrix.
        P = dare(plant, bench_weights.q_state, bench_weights.r_input)
        cfg = MpcConfig(
            horizon=40_000,
            plant=plant,
            controller=stationary_controller(plant, bench_weights),
            q_state=bench_weights.q_state,
            r_input=bench_weights.r_input,
            seed=2,
        )
        stats = mpc_run(cfg)
        per_step = stats.cost / cfg.horizon
        assert per_step == pytest.approx(SIGMA2 * np.trace(P), rel=0.05)

    def test_deterministic_under_seed(self, plant, bench_weights):
        cfg = MpcConfig(
            horizon=300,
            plant=plant,
            controller=stationary_controller(plant, bench_weights),
            q_state=bench_weights.q_state,
            r_input=bench_weights.r_input,
            seed=3,
        )
        a, b = mpc_run(cfg), mpc_run(cfg)
        assert a.cost == b.cost
        assert a.state_norm == b.state_norm

    @pytest.mark.parametrize(
        "name, override",
        [
            ("controller", {"controller": LtvOperator(L_BENCH, 3, 2, np.zeros((30, 20)))}),
            ("q_state", {"q_state": np.eye(2)}),
            ("r_input", {"r_input": np.eye(4)}),
        ],
    )
    def test_shapes_that_miss_the_plant_rejected_by_name(self, plant, bench_weights, name, override):
        args = dict(
            horizon=10,
            plant=plant,
            controller=stationary_controller(plant, bench_weights),
            q_state=bench_weights.q_state,
            r_input=bench_weights.r_input,
            seed=0,
        )
        with pytest.raises(ValueError, match=f"^{name} "):
            MpcConfig(**{**args, **override})


class TestCompareControllers:
    @pytest.mark.parametrize("name, N_list, trials", [("trials_per_N", [8], 0), ("N_list", [], 1)])
    def test_empty_comparison_rejected_by_name(self, plant, bench_weights, name, N_list, trials):
        with pytest.raises(ValueError, match=f"^{name} "):
            compare_controllers(plant, bench_weights, N_list=N_list, trials_per_N=trials, seed=0, T=T_BENCH)

    def test_desk_scale_structure(self, plant, bench_weights):
        results = compare_controllers(
            plant,
            bench_weights,
            N_list=[32],
            trials_per_N=2,
            seed=0,
            T=T_BENCH,
            mpc_horizon=200,
            bootstrap_resamples=100,
        )
        names = {r.controller for r in results.records}
        assert names == {"optimal", "robust_bootstrap", "robust_true", "naive"}
        assert len(results.records) == 8
        summary = results.summary
        assert "optimal@N=32" in summary
        entry = summary["optimal@N=32"]
        assert entry["trials"] == 2
        assert not math.isinf(entry["cost_median"])
        # Solver certificates belong to the robust syntheses only.
        assert any(r.controller.startswith("robust") and r.feasible for r in results.records)
        for r in results.records:
            solver_fields = (r.solver_status, r.solver_iterations, r.solver_gap, r.search_gap)
            if r.controller.startswith("robust") and r.feasible:
                assert r.solver_status in ("optimal", "max-iter") and r.solver_iterations >= 0
                assert 0.0 <= r.solver_gap < 1.0 and 0.0 <= r.search_gap < 1.0
            else:
                assert solver_fields == (None, None, None, None), r

    def test_zero_noise_all_families_match_optimal(self, bench_weights, plant):
        quiet = LtiSystem(A=plant.A, B=plant.B, noise_std=0.0)
        results = compare_controllers(
            quiet,
            bench_weights,
            N_list=[4],
            trials_per_N=2,
            seed=1,
            T=T_BENCH,
            mpc_horizon=120,
            bootstrap_resamples=50,
        )
        summary = results.summary
        medians = {
            name: summary[f"{name}@N=4"]["cost_median"]
            for name in ("optimal", "robust_bootstrap", "robust_true", "naive")
        }
        for name, value in medians.items():
            assert value == pytest.approx(medians["optimal"], abs=1e-6), name

    def test_certified_records_respect_bound(self, plant, bench_weights):
        results = compare_controllers(
            plant,
            bench_weights,
            N_list=[256],
            trials_per_N=2,
            seed=2,
            T=T_BENCH,
            mpc_horizon=100,
            bootstrap_resamples=50,
        )
        for r in results.records:
            if r.controller == "robust_true" and r.certified:
                assert r.rel_subopt <= r.subopt_bound

    def test_repeated_runs_give_equal_records(self, plant, bench_weights):
        first, second = [
            compare_controllers(
                plant,
                bench_weights,
                N_list=[8, 32],
                trials_per_N=2,
                seed=3,
                T=T_BENCH,
                mpc_horizon=50,
                bootstrap_resamples=50,
            )
            for _ in range(2)
        ]
        assert len(first.records) == len(second.records) == 16
        for a, b in zip(first.records, second.records):
            for f in fields(TrialRecord):
                x, y = getattr(a, f.name), getattr(b, f.name)
                assert x == y or (isinstance(x, float) and math.isnan(x) and math.isnan(y)), (a, f.name)
        assert first.summary == second.summary


def test_summary_layout_and_quantiles():
    # An infinite cost stands for an infeasible synthesis, recorded as diverged.
    groups = {
        ("robust_true", 8): [math.inf, 7.0],
        ("naive", 32): [5.0],
        ("naive", 8): [4.0, 1.0, math.inf, 2.0, 3.0],
    }
    records = [
        TrialRecord(
            controller=ctrl,
            N=N,
            trial=k,
            feasible=c < math.inf,
            diverged=c == math.inf,
            cost=c,
            state_norm=2.0 * c,
            input_norm=3.0 * c,
        )
        for (ctrl, N), costs in groups.items()
        for k, c in enumerate(costs)
    ]
    summary = ComparisonResults(records).summary

    assert list(summary) == ["naive@N=8", "naive@N=32", "robust_true@N=8"]
    stats = ("cost", "state_norm", "input_norm")
    quantiles = (("median", 0.5), ("q25", 0.25), ("q75", 0.75))
    layout = ["controller", "N", "trials"] + [f"{stat}_{label}" for stat in stats for label, _ in quantiles]
    for (ctrl, N), costs in groups.items():
        entry = summary[f"{ctrl}@N={N}"]
        assert list(entry) == layout + ["diverged_fraction", "feasible_fraction"]
        assert (entry["controller"], entry["N"], entry["trials"]) == (ctrl, N, len(costs))
        for stat, scale in zip(stats, (1.0, 2.0, 3.0)):
            values = scale * np.array(costs)
            for label, p in quantiles:
                assert entry[f"{stat}_{label}"] == float(np.quantile(values, p, method="nearest"))
    naive, robust = summary["naive@N=8"], summary["robust_true@N=8"]
    assert (naive["cost_q25"], naive["cost_median"], naive["cost_q75"]) == (2.0, 3.0, 4.0)
    assert (naive["diverged_fraction"], naive["feasible_fraction"]) == (0.2, 0.8)
    assert (robust["cost_median"], robust["cost_q75"]) == (7.0, math.inf)
    assert (robust["diverged_fraction"], robust["feasible_fraction"]) == (0.5, 0.5)
