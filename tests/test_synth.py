import numpy as np
import pytest

from ddsls.analysis import bootstrap_epsilon
from ddsls.blockops import CostWeights, block_diag, block_downshift, spectral_norm
from ddsls.hankel import NotPersistentlyExciting
from ddsls.lqg import optimal_responses, recover_gstar
from ddsls.lti import LtiSystem, average, generate_ensemble, simulate
from ddsls.sls import achievability_map, achievability_residual, responses_from_controller, sls_cost
from ddsls.solver import gamma_search
from ddsls.synth import (
    DataHankels,
    _build_problem,
    _shift_stack,
    assemble_delta,
    assemble_responses,
    synth_robust,
)
from tests.conftest import L_BENCH, SIGMA2, T_BENCH


@pytest.fixture(scope="module")
def clean_data(plant):
    rng = np.random.default_rng(21)
    u = rng.standard_normal((T_BENCH, 3))
    traj = simulate(plant, np.zeros(3), u)
    return DataHankels.from_trajectory(traj, L_BENCH)


@pytest.fixture(scope="module")
def noisy_data(plant):
    ens = generate_ensemble(plant, T_BENCH, 32, seed=22)
    return DataHankels.from_trajectory(average(ens), L_BENCH)


def random_feasible_ghat(data, rng, spread=0.1):
    """Random parameter matrix satisfying the block structure exactly."""
    U, s, Vt = np.linalg.svd(data.h1x, full_matrices=True)
    pinv = (Vt[: data.n].T / s) @ U.T
    null = Vt[data.n :].T
    ghat = np.zeros((data.cols * data.L, data.n * data.L))
    for i in range(data.L):
        for j in range(i + 1):
            block = null @ rng.standard_normal((null.shape[1], data.n)) * spread
            if i == j:
                block = block + pinv
            ghat[i * data.cols : (i + 1) * data.cols, j * data.n : (j + 1) * data.n] = block
    return ghat


class TestShiftStack:
    # The shift stack of the identity is the downshift-power stack
    # [I Z ... Z^(L-1)] that every assembly applies to I_L (x) H.
    def test_order_one_is_identity(self):
        assert np.array_equal(_shift_stack(np.eye(4), 1, 4), np.eye(4))

    def test_scalar_order_two(self):
        expected = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]])
        assert np.array_equal(_shift_stack(np.eye(2), 2, 1), expected)

    def test_block_column_groups_are_powers(self):
        L, n = 4, 2
        S = _shift_stack(np.eye(n * L), L, n)
        Z = block_downshift(L, n)
        for k in range(L):
            np.testing.assert_array_equal(S[:, k * n * L : (k + 1) * n * L], np.linalg.matrix_power(Z, k))

    @pytest.mark.parametrize("L,n", [(2, 1), (3, 2), (4, 3), (6, 2)])
    def test_norm_at_most_sqrt_L(self, L, n):
        assert spectral_norm(_shift_stack(np.eye(n * L), L, n)) <= np.sqrt(L) + 1e-12


class TestSynthNoiseless:
    # Noise-free synthesis is the eps = 0 case of the robust program.
    def test_matches_model_based_optimum(self, plant, bench_weights, clean_data):
        _, jstar = optimal_responses(plant, bench_weights)
        res = synth_robust(clean_data, bench_weights, 0.0)
        assert res.objective == pytest.approx(jstar, rel=1e-6)
        assert achievability_residual(res.responses, plant) < 1e-8

    def test_multiple_excitation_seeds(self, plant, bench_weights):
        _, jstar = optimal_responses(plant, bench_weights)
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            traj = simulate(plant, np.zeros(3), rng.standard_normal((T_BENCH, 3)))
            res = synth_robust(DataHankels.from_trajectory(traj, L_BENCH), bench_weights, 0.0)
            assert res.objective == pytest.approx(jstar, rel=1e-6)

    def test_zero_weights_minimum_norm(self, plant, clean_data):
        w = CostWeights(
            np.zeros((3, 3)), 1e-30 * np.eye(3), np.zeros((3, 3)), horizon=L_BENCH
        )
        res = synth_robust(clean_data, w, 0.0)
        assert res.objective < 1e-10

    def test_controller_closed_loop_matches_optimal_responses(
        self, plant, bench_weights, clean_data
    ):
        from ddsls.sls import closed_loop

        resp_star, _ = optimal_responses(plant, bench_weights)
        res = synth_robust(clean_data, bench_weights, 0.0)
        rng = np.random.default_rng(23)
        for _ in range(5):
            wvec = rng.standard_normal(3 * L_BENCH)
            x_sim, u_sim = closed_loop(plant, res.controller, wvec)
            predicted = resp_star.stacked() @ wvec
            assert np.abs(np.concatenate([x_sim, u_sim]) - predicted).max() < 1e-8

    def test_rank_deficient_data_rejected(self, plant, bench_weights):
        traj = simulate(plant, np.ones(3), np.zeros((T_BENCH, 3)))
        with pytest.raises(NotPersistentlyExciting):
            synth_robust(DataHankels.from_trajectory(traj, L_BENCH), bench_weights, 0.0)


class TestAssembleResponses:
    def test_single_step_horizon(self, plant):
        rng = np.random.default_rng(24)
        traj = simulate(plant, np.zeros(3), rng.standard_normal((8, 3)))
        data = DataHankels.from_trajectory(traj, 1)
        ghat = np.linalg.pinv(data.h1x)
        resp = assemble_responses(data, ghat)
        np.testing.assert_allclose(resp.phi_x.dense, np.eye(3), atol=1e-10)

    def test_gstar_reassembly(self, plant, bench_weights, clean_data):
        resp_star, _ = optimal_responses(plant, bench_weights)
        gstar = recover_gstar(clean_data.hx, clean_data.hu, resp_star)
        rebuilt = assemble_responses(clean_data, block_diag(gstar.blocks))
        assert np.abs(rebuilt.stacked() - resp_star.stacked()).max() < 1e-8

    def test_structure_violation_raises(self, noisy_data):
        rng = np.random.default_rng(25)
        bad = rng.standard_normal((noisy_data.cols * noisy_data.L, 3 * noisy_data.L))
        with pytest.raises(ValueError):
            assemble_responses(noisy_data, bad)

    @pytest.mark.parametrize(
        "blocks, message",
        [
            ([(1, 3), (2, 0)], r"parameter block \(1,3\) above the diagonal is nonzero"),
            ([(2, 1), (3, 5)], r"parameter block \(2,1\) violates its data constraint"),
        ],
        ids=["upper-first", "lower-first"],
    )
    def test_first_violating_block_in_row_major_order_is_reported(self, noisy_data, blocks, message):
        cols, n = noisy_data.cols, noisy_data.n
        ghat = random_feasible_ghat(noisy_data, np.random.default_rng(25))
        for i, j in blocks:
            # Above the diagonal any nonzero block violates; below it, adding
            # the pseudo-inverse moves h1x G(i, j) from 0 to I.
            ghat[i * cols : (i + 1) * cols, j * n : (j + 1) * n] += np.linalg.pinv(noisy_data.h1x)
        with pytest.raises(ValueError, match=message):
            assemble_responses(noisy_data, ghat)

    def test_matches_the_shift_stack_formula(self, noisy_data):
        # phi = [I Z ... Z^{L-1}] (I_L (x) H) G for H = hx, hu and, for delta,
        # the once-downshifted noise Hankel, with every lower block of G in use.
        d = noisy_data
        ghat = random_feasible_ghat(d, np.random.default_rng(34))
        assert np.abs(ghat[d.cols :, : d.n]).min() > 0

        def formula(H, block):
            Z = block_downshift(d.L, block)
            powers = np.hstack([np.linalg.matrix_power(Z, k) for k in range(d.L)])
            return powers @ np.kron(np.eye(d.L), H) @ ghat

        resp = assemble_responses(d, ghat)
        delta = assemble_delta(d, ghat).delta
        np.testing.assert_allclose(resp.phi_x.dense, formula(d.hx, d.n), rtol=0, atol=1e-12)
        np.testing.assert_allclose(resp.phi_u.dense, formula(d.hu, d.m), rtol=0, atol=1e-12)
        shifted = block_downshift(d.L, d.n) @ d.hw
        np.testing.assert_allclose(delta.dense, formula(shifted, d.n), rtol=0, atol=1e-12)

    def test_residual_equals_delta(self, plant, noisy_data):
        rng = np.random.default_rng(26)
        for _ in range(10):
            ghat = random_feasible_ghat(noisy_data, rng)
            resp = assemble_responses(noisy_data, ghat)
            delta = assemble_delta(noisy_data, ghat)
            lhs = achievability_map(plant, L_BENCH) @ resp.stacked()
            residual = np.abs(lhs - np.eye(3 * L_BENCH) - delta.delta.dense).max()
            assert residual < 1e-9
            assert achievability_residual(resp, plant) == pytest.approx(
                np.abs(delta.delta.dense).max(), abs=1e-9
            )


class TestAssembleDelta:
    def test_zero_noise_zero_delta(self, plant, clean_data):
        rng = np.random.default_rng(27)
        ghat = random_feasible_ghat(clean_data, rng)
        delta = assemble_delta(clean_data, ghat)
        assert np.abs(delta.delta.dense).max() < 1e-12

    def test_norm_bound(self, noisy_data):
        rng = np.random.default_rng(28)
        for _ in range(10):
            ghat = random_feasible_ghat(noisy_data, rng)
            delta = assemble_delta(noisy_data, ghat)
            bound = (
                np.sqrt(L_BENCH) * spectral_norm(noisy_data.hw) * spectral_norm(ghat)
            )
            assert spectral_norm(delta.delta.dense) <= bound * (1 + 1e-12)

    def test_linearity_in_parameter(self, noisy_data):
        rng = np.random.default_rng(29)
        ghat = random_feasible_ghat(noisy_data, rng)
        d1 = assemble_delta(noisy_data, ghat).delta.dense
        d2 = assemble_delta(noisy_data, 2.0 * ghat).delta.dense
        np.testing.assert_allclose(d2, 2.0 * d1, atol=1e-12)


class TestSynthRobust:
    def test_eps_zero_equals_noiseless(self, bench_weights, clean_data):
        # Naive synthesis ignores its budget: it is the eps = 0 program.
        a = synth_robust(clean_data, bench_weights, 1.0, mode="naive")
        b = synth_robust(clean_data, bench_weights, 0.0)
        assert b.gamma == 0.0
        assert b.objective == pytest.approx(a.objective, rel=1e-12)
        np.testing.assert_array_equal(b.ghat, a.ghat)

    def test_noisy_budget_gives_interior_gamma(self, plant, bench_weights, noisy_data):
        eps = spectral_norm(noisy_data.hw)
        res = synth_robust(noisy_data, bench_weights, eps)
        assert 0.0 < res.gamma < 1.0
        _, jstar = optimal_responses(plant, bench_weights)
        assert res.objective >= jstar

    def test_true_cost_certificate(self, plant, bench_weights, noisy_data):
        eps = spectral_norm(noisy_data.hw)
        res = synth_robust(noisy_data, bench_weights, eps)
        jhat = sls_cost(responses_from_controller(plant, res.controller), bench_weights)
        assert jhat <= res.objective * (1 + 1e-9)

    def test_naive_mode_gamma_none(self, bench_weights, noisy_data):
        res = synth_robust(noisy_data, bench_weights, 0.0, mode="naive")
        assert res.gamma is None
        assert res.mode == "naive"

    def test_ghat_norm_within_budget(self, bench_weights, noisy_data):
        eps = spectral_norm(noisy_data.hw)
        res = synth_robust(noisy_data, bench_weights, eps)
        tau = res.gamma / (np.sqrt(L_BENCH) * eps)
        assert res.ghat_norm <= tau * (1 + 1e-6)

    def test_full_structure_noiseless_matches_optimum(self, plant):
        # Small instance keeps the coupled solve cheap.
        rng = np.random.default_rng(30)
        A = np.array([[0.9, 0.2], [0.0, 0.8]])
        sys = LtiSystem(A=A, B=np.eye(2))
        w = CostWeights(np.eye(2), np.eye(2), q_terminal=np.eye(2), horizon=3)
        traj = simulate(sys, np.zeros(2), rng.standard_normal((15, 2)))
        data = DataHankels.from_trajectory(traj, 3)
        _, jstar = optimal_responses(sys, w)
        res = synth_robust(data, w, 0.0, structure="full")
        assert res.objective == pytest.approx(jstar, rel=1e-8)

    def test_full_structure_robust_small(self):
        rng = np.random.default_rng(31)
        A = np.array([[0.9, 0.2], [0.0, 0.8]])
        sys = LtiSystem(A=A, B=np.eye(2), noise_std=0.1)
        w = CostWeights(np.eye(2), np.eye(2), q_terminal=np.eye(2), horizon=3)
        ens = generate_ensemble(sys, 15, 8, seed=32)
        data = DataHankels.from_trajectory(average(ens), 3)
        eps = spectral_norm(data.hw)
        full = synth_robust(data, w, eps, structure="full")
        block = synth_robust(data, w, eps, structure="blockdiag")
        # The coupled parameterization can only improve on block-diagonal.
        assert full.objective <= block.objective * (1 + 1e-6)

    @pytest.mark.parametrize("structure", ["blockdiag", "full"])
    def test_f_value_is_the_cost_of_the_assembled_responses(self, structure):
        # The solver's objective and the responses are read off the same
        # shift stacks, so they agree to rounding.
        sys = LtiSystem(A=np.array([[0.9, 0.2], [0.0, 0.8]]), B=np.eye(2), noise_std=0.1)
        w = CostWeights(np.eye(2), np.eye(2), q_terminal=np.eye(2), horizon=3)
        data = DataHankels.from_trajectory(average(generate_ensemble(sys, 15, 8, seed=32)), 3)
        res = synth_robust(data, w, spectral_norm(data.hw), structure=structure)
        assert res.f_value == pytest.approx(sls_cost(res.responses, w), rel=1e-12)

    def test_full_structure_capped_is_certified_and_reported(self):
        rng = np.random.default_rng(31)
        A = np.array([[0.9, 0.2], [0.0, 0.8]])
        sys = LtiSystem(A=A, B=np.eye(2), noise_std=0.1)
        w = CostWeights(np.eye(2), np.eye(2), q_terminal=np.eye(2), horizon=3)
        data = DataHankels.from_trajectory(average(generate_ensemble(sys, 15, 8, seed=32)), 3)
        eps = spectral_norm(data.hw)
        res = synth_robust(data, w, eps, structure="full", max_iter=3)
        summary = res.summary()
        assert (summary["status"], summary["iterations"]) == ("max-iter", 3)
        # A capped solve still carries the gap of its dual certificate.
        assert np.isfinite(summary["gap"]) and summary["gap"] >= 0.0
        assert np.isfinite(summary["search_gap"]) and summary["search_gap"] >= 0.0
        # The robust objective bounds the returned controller only if its
        # parameter matrix lies in the ball of radius gamma / (sqrt(L) eps).
        assert np.sqrt(3) * eps * res.ghat_norm <= res.gamma * (1.0 + 1e-12)
        assert synth_robust(data, w, 0.0, structure="full").summary()["status"] == "optimal"

    def test_certify_settings_blockdiag_is_certified(self, plant, bench_weights):
        # The certified pipeline's settings on one near-noiseless record
        # (seed 6, N = 1e6).  The iteration-capped ADMM that blockdiag used
        # before returned a G-hat 5.5e-10 (relative) outside its ball here.
        rng = np.random.default_rng(6)
        u = rng.standard_normal((T_BENCH, 3))
        noise = np.sqrt(SIGMA2 / 1e6) * rng.standard_normal((T_BENCH - 1, 3))
        data = DataHankels.from_trajectory(simulate(plant, np.zeros(3), u, noise=noise), L_BENCH)
        eps = spectral_norm(data.hw)
        res = synth_robust(data, bench_weights, eps, grid_points=5, gamma_tol=1e-2, tol=1e-4, max_iter=1200)
        assert np.sqrt(L_BENCH) * eps * spectral_norm(res.ghat) <= res.gamma * (1.0 + 1e-12)
        summary = res.summary()
        assert summary["status"] == "optimal" and 0.0 <= summary["gap"] <= 1e-4

    def test_negative_eps_rejected(self, bench_weights, noisy_data):
        with pytest.raises(ValueError):
            synth_robust(noisy_data, bench_weights, -1.0)

    @pytest.mark.parametrize(
        "horizon, state, inp, message",
        [
            (5, 3, 3, "weights horizon 5 does not match the data's 10"),
            (L_BENCH, 2, 3, "weights state_dim 2 does not match the data's 3"),
            (L_BENCH, 3, 2, "weights input_dim 2 does not match the data's 3"),
        ],
        ids=["horizon", "state_dim", "input_dim"],
    )
    def test_weights_that_do_not_fit_the_data_are_rejected(self, noisy_data, horizon, state, inp, message):
        w = CostWeights(np.eye(state), np.eye(inp), q_terminal=np.eye(state), horizon=horizon)
        with pytest.raises(ValueError, match=message):
            synth_robust(noisy_data, w, 0.1)


def _bootstrap_without_resamples(*_):
    ens = generate_ensemble(LtiSystem(A=np.eye(3), B=np.eye(3), noise_std=0.1), 12, 4, seed=1)
    return bootstrap_epsilon(ens, 3, resamples=0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d, w: synth_robust(d, w, np.nan), "eps must be nonnegative, got nan"),
        (lambda d, w: gamma_search(_build_problem(d, w, "blockdiag"), np.nan), "eps must be nonnegative, got nan"),
        (lambda d, w: synth_robust(d, w, spectral_norm(d.hw), grid_points=0), "grid_points must be >= 1, got 0"),
        (_bootstrap_without_resamples, "resamples must be >= 1, got 0"),
    ],
    ids=["nan-eps-synth", "nan-eps-search", "no-grid-points", "no-resamples"],
)
def test_bad_inputs_raise_a_typed_error(noisy_data, bench_weights, call, message):
    # A NaN budget would otherwise end the search as InfeasibleEpsilon, an
    # empty grid in min() of nothing, and an empty bootstrap in IndexError.
    with pytest.raises(ValueError, match=message):
        call(noisy_data, bench_weights)
