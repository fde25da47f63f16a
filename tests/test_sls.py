import numpy as np
import pytest

from ddsls.blockops import CostWeights, LtvOperator, block_downshift, toeplitz_stack
from ddsls.lti import LtiSystem, simulate
from ddsls.sls import (
    SystemResponsePair,
    achievability_map,
    achievability_residual,
    closed_loop,
    expected_cost,
    hankel_decomposition_residual,
    noise_accumulation,
    recover_controller,
    responses_from_controller,
    sls_cost,
)
from tests.conftest import L_BENCH, T_BENCH


def random_causal(rng, L, p, q, scale=1.0):
    dense = np.zeros((p * L, q * L))
    for i in range(L):
        for j in range(i + 1):
            dense[i * p : (i + 1) * p, j * q : (j + 1) * q] = scale * rng.standard_normal((p, q))
    return LtvOperator(L, p, q, dense)


class TestResponses:
    def test_static_system_no_feedback(self):
        sys = LtiSystem(A=np.zeros((2, 2)), B=np.eye(2))
        resp = responses_from_controller(sys, LtvOperator(3, 2, 2, np.zeros((6, 6))))
        np.testing.assert_array_equal(resp.phi_x.dense, np.eye(6))
        np.testing.assert_array_equal(resp.phi_u.dense, np.zeros((6, 6)))

    def test_open_loop_is_truncated_power_series(self, plant):
        L, n = 3, 3
        resp = responses_from_controller(plant, LtvOperator(L, 3, 3, np.zeros((3 * L, 3 * L))))
        Z = block_downshift(L, n)
        ZA = Z @ np.kron(np.eye(L), plant.A)
        series = np.eye(n * L) + ZA + ZA @ ZA
        np.testing.assert_allclose(resp.phi_x.dense, series, atol=1e-12)

    def test_random_controllers_achieve_exactly(self, plant):
        rng = np.random.default_rng(0)
        for _ in range(20):
            K = random_causal(rng, L_BENCH, 3, 3, scale=0.5)
            resp = responses_from_controller(plant, K)
            assert achievability_residual(resp, plant) < 1e-10

    def test_controller_blocks_must_match_the_plant(self, plant):
        # The benchmark plant has 3 states and 3 inputs; 2 x 3 gains do not fit it.
        with pytest.raises(ValueError, match="controller must be"):
            responses_from_controller(plant, LtvOperator(4, 2, 3, np.zeros((8, 12))))

    def test_residual_of_identity_guess(self, plant):
        L = 4
        resp = responses_from_controller(plant, LtvOperator(L, 3, 3, np.zeros((12, 12))))
        # Replacing phi_x by the identity leaves exactly the shifted dynamics.
        fake = type(resp)(
            phi_x=LtvOperator(L, 3, 3, np.eye(12)),
            phi_u=LtvOperator(L, 3, 3, np.zeros((12, 12))),
        )
        Z = block_downshift(L, 3)
        expected = np.abs(Z @ np.kron(np.eye(L), plant.A)).max()
        assert achievability_residual(fake, plant) == pytest.approx(expected)


class TestRecoverController:
    def test_zero_input_map(self, plant):
        resp = responses_from_controller(plant, LtvOperator(3, 3, 3, np.zeros((9, 9))))
        K = recover_controller(resp)
        assert np.abs(K.dense).max() < 1e-12

    def test_round_trip(self, plant):
        rng = np.random.default_rng(1)
        for _ in range(20):
            K = random_causal(rng, L_BENCH, 3, 3, scale=0.4)
            resp = responses_from_controller(plant, K)
            K_back = recover_controller(resp)
            assert np.abs(K_back.dense - K.dense).max() < 1e-9


class TestSlsCost:
    def test_identity_weights_static_plant(self):
        sys = LtiSystem(A=np.zeros((2, 2)), B=np.eye(2))
        L = 5
        w = CostWeights(np.eye(2), np.eye(2), np.eye(2), horizon=L)
        resp = responses_from_controller(sys, LtvOperator(L, 2, 2, np.zeros((10, 10))))
        assert sls_cost(resp, w) == pytest.approx(np.sqrt(2 * L))

    def test_vanishing_weights_vanishing_cost(self):
        sys = LtiSystem(A=np.zeros((2, 2)), B=np.eye(2))
        L = 4
        w = CostWeights(np.zeros((2, 2)), 1e-30 * np.eye(2), np.zeros((2, 2)), horizon=L)
        resp = responses_from_controller(sys, LtvOperator(L, 2, 2, np.zeros((8, 8))))
        assert sls_cost(resp, w) < 1e-10

    def test_monte_carlo_expected_cost(self, plant, bench_weights):
        from ddsls.lqg import riccati_finite

        K = riccati_finite(plant, bench_weights).controller()
        resp = responses_from_controller(plant, K)
        cost = sls_cost(resp, bench_weights)

        rng = np.random.default_rng(2)
        M = bench_weights.weight_sqrt() @ resp.stacked()
        draws = rng.standard_normal((M.shape[1], 100_000))
        mc = np.mean(np.sum((M @ draws) ** 2, axis=0))
        assert mc == pytest.approx(cost**2, rel=0.02)

    def test_expected_cost_units(self):
        assert expected_cost(2.0, 0.5) == pytest.approx(1.0)


class TestHankelDecomposition:
    def test_zero_noise_zero_residual(self, plant):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((20, 3))
        clean = simulate(plant, np.zeros(3), u)
        assert hankel_decomposition_residual(plant, clean, clean, 5) == 0.0

    def test_static_A_reduces_to_toeplitz_convolution(self):
        sys = LtiSystem(A=np.zeros((2, 2)), B=np.eye(2), noise_std=1.0)
        rng = np.random.default_rng(4)
        u = rng.standard_normal((15, 2))
        noise = rng.standard_normal((14, 2))
        clean = simulate(sys, np.zeros(2), u)
        noisy = simulate(sys, np.zeros(2), u, noise=noise)
        assert hankel_decomposition_residual(sys, clean, noisy, 4) < 1e-12
        # With A = 0 every row below the first block is the pure shifted
        # noise; the first block row carries the one-step-old noise alone.
        from ddsls.hankel import build_hankel

        lhs = build_hankel(noisy.x, 4) - build_hankel(clean.x, 4)
        rhs = toeplitz_stack(np.zeros((2, 2)), np.eye(2), 4) @ build_hankel(noisy.w_process, 4)
        np.testing.assert_allclose(lhs[2:], rhs[2:], atol=1e-12)
        np.testing.assert_allclose(lhs[:2, 1:], noise[:11].T, atol=1e-12)
        np.testing.assert_allclose(lhs[:2, 0], np.zeros(2), atol=1e-12)

    def test_bench_system_identity(self, plant):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((T_BENCH, 3))
        noise = plant.noise_std * rng.standard_normal((T_BENCH - 1, 3))
        clean = simulate(plant, np.zeros(3), u)
        noisy = simulate(plant, np.zeros(3), u, noise=noise)
        assert hankel_decomposition_residual(plant, clean, noisy, L_BENCH) < 1e-9

    def test_mismatched_inputs_rejected(self, plant):
        rng = np.random.default_rng(6)
        a = simulate(plant, np.zeros(3), rng.standard_normal((10, 3)))
        b = simulate(plant, np.zeros(3), rng.standard_normal((10, 3)))
        with pytest.raises(ValueError):
            hankel_decomposition_residual(plant, a, b, 3)

    def test_vec_identity_for_accumulated_noise(self, plant):
        rng = np.random.default_rng(7)
        count = T_BENCH - L_BENCH + 1
        w = rng.standard_normal((count, 3))
        acc = noise_accumulation(plant.A, w, count)
        toep = toeplitz_stack(plant.A, np.eye(3), count)
        np.testing.assert_allclose(
            acc.T.reshape(-1), toep @ w[:count].reshape(-1), atol=1e-10
        )


class TestRobustClosedLoop:
    def test_simulation_matches_perturbed_responses(self, plant):
        # Build response pairs satisfying the perturbed achievability
        # identity for random strictly causal perturbations, then check the
        # realized closed loop reproduces the perturbed disturbance map.
        import scipy.linalg

        rng = np.random.default_rng(8)
        L, n, m = 6, 3, 3
        Z = block_downshift(L, n)
        I_ZA = np.eye(n * L) - Z @ np.kron(np.eye(L), plant.A)
        ZB = Z @ np.kron(np.eye(L), plant.B)
        for _ in range(10):
            delta = random_causal(rng, L, n, n, scale=0.2).dense
            for i in range(L):
                delta[i * n : (i + 1) * n, i * n : (i + 1) * n] = 0.0
            norm = np.linalg.svd(delta, compute_uv=False)[0]
            if norm >= 0.9:
                delta *= 0.85 / norm
            phi_u = random_causal(rng, L, m, n, scale=0.3).dense
            phi_x = scipy.linalg.solve_triangular(
                I_ZA, np.eye(n * L) + delta + ZB @ phi_u, lower=True
            )
            pair = SystemResponsePair(
                phi_x=LtvOperator(L, n, n, phi_x), phi_u=LtvOperator(L, m, n, phi_u)
            )
            K = recover_controller(pair)
            # The numpy solve reproduces the triangular solve bit for bit.
            reference = scipy.linalg.solve_triangular(phi_x.T, phi_u.T, lower=False).T
            np.testing.assert_array_equal(K.dense, reference)
            # The closed loop of K is exactly causal with identity diagonal blocks.
            realized = responses_from_controller(plant, K).phi_x
            for i in range(L):
                np.testing.assert_array_equal(realized.block(i, i), np.eye(n))
                for j in range(i + 1, L):
                    assert not realized.block(i, j).any()
            wvec = rng.standard_normal(n * L)
            x_sim, u_sim = closed_loop(plant, K, wvec)
            mapped = pair.stacked() @ np.linalg.solve(np.eye(n * L) + delta, wvec)
            assert np.abs(np.concatenate([x_sim, u_sim]) - mapped).max() < 1e-8


def test_achievability_map_shape(plant):
    M = achievability_map(plant, 4)
    assert M.shape == (12, 24)
