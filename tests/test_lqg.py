import numpy as np
import pytest
import scipy.linalg

from ddsls.blockops import CostWeights, block_diag
from ddsls.hankel import NotPersistentlyExciting, build_hankel
from ddsls.lqg import dare, optimal_responses, recover_gstar, riccati_finite
from ddsls.lti import LtiSystem, simulate
from ddsls.sls import responses_from_controller, sls_cost
from ddsls.synth import DataHankels, assemble_responses
from tests.conftest import L_BENCH, T_BENCH

GOLDEN_P = (1.0 + np.sqrt(5.0)) / 2.0


class TestRiccatiFinite:
    def test_static_system(self):
        sys = LtiSystem(A=np.zeros((2, 2)), B=np.eye(2))
        w = CostWeights(np.eye(2), np.eye(2), 3.0 * np.eye(2), horizon=4)
        sol = riccati_finite(sys, w)
        for K in sol.gains:
            np.testing.assert_array_equal(K, np.zeros((2, 2)))
        for P in sol.value_mats[:-1]:
            np.testing.assert_array_equal(P, np.eye(2))
        np.testing.assert_array_equal(sol.value_mats[-1], 3.0 * np.eye(2))

    def test_value_matrices_symmetric_psd(self, plant, bench_weights):
        sol = riccati_finite(plant, bench_weights)
        for P in sol.value_mats:
            assert np.abs(P - P.T).max() < 1e-12
            assert np.linalg.eigvalsh(P).min() >= -1e-10

    def test_terminal_gain_is_zero(self, plant, bench_weights):
        sol = riccati_finite(plant, bench_weights)
        np.testing.assert_array_equal(sol.gains[-1], np.zeros((3, 3)))

    def test_cost_matches_value_trace(self, plant, bench_weights):
        # Exact finite-horizon stochastic cost: sum of value-matrix traces
        # at unit noise variance, which must equal the squared response cost.
        sol = riccati_finite(plant, bench_weights)
        resp = responses_from_controller(plant, sol.controller())
        cost_sq = sls_cost(resp, bench_weights) ** 2
        trace_sum = sum(np.trace(P) for P in sol.value_mats)
        assert cost_sq == pytest.approx(trace_sum, rel=1e-8)


class TestDare:
    def test_static_system_returns_state_weight(self):
        sys = LtiSystem(A=np.zeros((3, 3)), B=np.eye(3))
        Q = np.diag([1.0, 2.0, 3.0])
        np.testing.assert_allclose(dare(sys, Q, np.eye(3)), Q, atol=1e-12)

    def test_scalar_golden_ratio(self):
        sys = LtiSystem(A=np.eye(1), B=np.eye(1))
        P = dare(sys, np.eye(1), np.eye(1))
        assert P[0, 0] == pytest.approx(GOLDEN_P, abs=1e-10)

    def test_against_scipy(self, plant):
        Q = 1e-3 * np.eye(3)
        R = np.eye(3)
        ours = dare(plant, Q, R)
        reference = scipy.linalg.solve_discrete_are(plant.A, plant.B, Q, R)
        np.testing.assert_allclose(ours, reference, atol=1e-9)

    def test_terminal_weight_makes_first_gain_stationary(self, plant, bench_weights):
        sol = riccati_finite(plant, bench_weights)
        P = bench_weights.q_terminal
        S = np.eye(3) + P  # R + B' P B with B = I, R = I
        K_stationary = -np.linalg.solve(S, P @ plant.A)
        assert np.abs(sol.gains[0] - K_stationary).max() < 1e-8


class TestOptimalResponses:
    def test_zero_state_weight_zero_cost(self):
        sys = LtiSystem(A=np.zeros((2, 2)), B=np.eye(2))
        w = CostWeights(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)), horizon=3)
        _, jstar = optimal_responses(sys, w)
        assert jstar == pytest.approx(0.0, abs=1e-12)

    def test_static_closed_form(self):
        sys = LtiSystem(A=np.zeros((2, 2)), B=np.eye(2))
        w = CostWeights(2.0 * np.eye(2), np.eye(2), 5.0 * np.eye(2), horizon=4)
        _, jstar = optimal_responses(sys, w)
        lifted_state_weight = block_diag([w.q_state] * 3 + [w.q_terminal])
        assert jstar == pytest.approx(np.sqrt(np.trace(lifted_state_weight)))

    def test_lower_bounds_random_controllers(self, plant, bench_weights):
        from tests.test_sls import random_causal

        _, jstar = optimal_responses(plant, bench_weights)
        rng = np.random.default_rng(0)
        for _ in range(100):
            K = random_causal(rng, L_BENCH, 3, 3, scale=0.3)
            resp = responses_from_controller(plant, K)
            assert sls_cost(resp, bench_weights) >= jstar - 1e-9


@pytest.fixture(scope="module")
def noiseless_data(plant):
    rng = np.random.default_rng(12)
    u = rng.standard_normal((T_BENCH, 3))
    return simulate(plant, np.zeros(3), u)


class TestRecoverGstar:
    def test_reassembly_reproduces_optimum(self, plant, bench_weights, noiseless_data):
        resp_star, _ = optimal_responses(plant, bench_weights)
        hx = build_hankel(noiseless_data.x, L_BENCH)
        hu = build_hankel(noiseless_data.u, L_BENCH)
        gstar = recover_gstar(hx, hu, resp_star)
        data = DataHankels.from_trajectory(noiseless_data, L_BENCH)
        rebuilt = assemble_responses(data, block_diag(gstar.blocks))
        assert np.abs(rebuilt.stacked() - resp_star.stacked()).max() < 1e-8

    def test_blocks_lie_in_constraint_set(self, plant, bench_weights, noiseless_data):
        resp_star, _ = optimal_responses(plant, bench_weights)
        hx = build_hankel(noiseless_data.x, L_BENCH)
        hu = build_hankel(noiseless_data.u, L_BENCH)
        h1x = hx[:3]
        gstar = recover_gstar(hx, hu, resp_star)
        for blk in gstar.blocks:
            np.testing.assert_allclose(h1x @ blk, np.eye(3), atol=1e-9)

    def test_norm_finite_positive(self, plant, bench_weights, noiseless_data):
        resp_star, _ = optimal_responses(plant, bench_weights)
        gstar = recover_gstar(
            build_hankel(noiseless_data.x, L_BENCH),
            build_hankel(noiseless_data.u, L_BENCH),
            resp_star,
        )
        assert np.isfinite(gstar.norm) and gstar.norm > 0

    def test_single_step_horizon(self, plant):
        w = CostWeights(1e-3 * np.eye(3), np.eye(3), np.eye(3), horizon=1)
        resp_star, _ = optimal_responses(plant, w)
        rng = np.random.default_rng(13)
        u = rng.standard_normal((6, 3))
        traj = simulate(plant, np.zeros(3), u)
        gstar = recover_gstar(build_hankel(traj.x, 1), build_hankel(traj.u, 1), resp_star)
        h1 = build_hankel(traj.x, 1)
        np.testing.assert_allclose(h1 @ gstar.blocks[0], np.eye(3), atol=1e-9)

    def test_rank_deficient_data_raises(self, plant, bench_weights):
        resp_star, _ = optimal_responses(plant, bench_weights)
        traj = simulate(plant, np.ones(3), np.zeros((T_BENCH, 3)))
        with pytest.raises(NotPersistentlyExciting):
            recover_gstar(
                build_hankel(traj.x, L_BENCH), build_hankel(traj.u, L_BENCH), resp_star
            )

    def test_blocks_are_the_pinv_solutions(self, plant, bench_weights, noiseless_data):
        resp_star, _ = optimal_responses(plant, bench_weights)
        hx = build_hankel(noiseless_data.x, L_BENCH)
        hu = build_hankel(noiseless_data.u, L_BENCH)
        gstar = recover_gstar(hx, hu, resp_star)
        n = m = 3
        for k, blk in enumerate(gstar.blocks):
            keep = L_BENCH - k
            stack = np.vstack([hx[: n * keep], hu[: m * keep]])
            target_x = resp_star.phi_x.dense[k * n :, k * n : (k + 1) * n]
            target_u = resp_star.phi_u.dense[k * m :, k * n : (k + 1) * n]
            target = np.vstack([target_x, target_u])
            np.testing.assert_array_equal(blk, np.linalg.pinv(stack) @ target)

    def test_repeated_input_channel_raises(self, plant, bench_weights):
        # Two equal input channels: every stack loses rank, though no row is zero.
        resp_star, _ = optimal_responses(plant, bench_weights)
        u = np.random.default_rng(14).standard_normal((T_BENCH, 3))
        u[:, 2] = u[:, 1]
        traj = simulate(plant, np.zeros(3), u)
        with pytest.raises(NotPersistentlyExciting, match="block 0"):
            recover_gstar(build_hankel(traj.x, L_BENCH), build_hankel(traj.u, L_BENCH), resp_star)
