import logging
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ddsls import solver
from ddsls.analysis import sample_complexity
from ddsls.blockops import CostWeights, spectral_norm, toeplitz_stack
from ddsls.hankel import build_hankel
from ddsls.lqg import optimal_responses, recover_gstar
from ddsls.lti import LtiSystem, average, generate_ensemble, simulate
from ddsls.solver import (
    BlockDiagonalProblem,
    CoupledCausalProblem,
    InfeasibleEpsilon,
    _ball_projection,
    gamma_search,
)
from ddsls.synth import DataHankels, _build_problem, stacked_cost_map
from tests.conftest import L_BENCH, SIGMA2, T_BENCH
from tests.oracles import (
    barrier_spectral,
    coupled_admm,
    coupled_quad_step,
    kkt_equality_ls,
    projected_gradient_spectral,
)


def active_radius(solver):
    """A ball radius that binds without hugging the feasibility floor."""
    floor, norm = solver.floor, solver.unconstrained_norm
    return max(0.6 * norm, np.sqrt(floor * norm))


def oracle_friendly_instance(seed, slack=1.6):
    """Random instance whose feasible set has room between floor and optimum.

    First-order reference methods cannot track razor-thin feasible sets;
    those degenerate geometries are exercised separately against an
    interior-point reference.
    """
    for j in range(64):
        C, A = small_instance(seed + 7919 * j)
        probe = BlockDiagonalProblem(C, A)
        if probe.unconstrained_norm >= slack * probe.floor:
            return C, A
    raise RuntimeError("no well-separated instance found")


def small_instance(seed, n=2, m=1, L=3, T=15):
    """One random inner problem (one cost-map block and h1x) from a small noisy data record."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) * 0.4 + 0.5 * np.eye(n)
    sys = LtiSystem(A=A, B=rng.standard_normal((n, m)), noise_std=0.2)
    ens = generate_ensemble(sys, T, 4, seed=seed)
    data = DataHankels.from_trajectory(average(ens), L)
    w = CostWeights(np.eye(n), np.eye(m), q_terminal=np.eye(n), horizon=L)
    from ddsls.synth import stacked_cost_map

    k = int(rng.integers(0, L))
    cmap = stacked_cost_map(data, w)
    C = cmap[:, k * data.cols : (k + 1) * data.cols]
    return C, data.h1x


def closed_form(C, A):
    """Equality-constrained least squares A G = I without the ball (one block)."""
    return BlockDiagonalProblem(C, A).unconstrained


class TestEqLs:
    def test_zero_objective_returns_min_norm_point(self, plant):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((2, 8))
        rep = closed_form(np.zeros((3, 8)), A)
        np.testing.assert_allclose(rep.solution, np.linalg.pinv(A), atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_kkt_oracle(self, seed):
        C, A = small_instance(seed)
        rep = closed_form(C, A)
        _, obj_kkt = kkt_equality_ls(C, A, np.eye(len(A)))
        assert rep.objective == pytest.approx(obj_kkt, abs=1e-8, rel=1e-8)
        assert np.abs(A @ rep.solution - np.eye(len(A))).max() < 1e-9

    def test_stationarity_residual(self):
        C, A = small_instance(99)
        rep = closed_form(C, A)
        solver = BlockDiagonalProblem(C, A)
        grad = C.T @ (C @ rep.solution)
        assert np.abs(solver.null_basis.T @ grad).max() < 1e-9


class TestBallProjection:
    # Each test projects several matrices, one at a time.
    def test_idempotent(self):
        for M in np.random.default_rng(2).standard_normal((10, 7, 3)):
            P = _ball_projection(M, 1.0)
            np.testing.assert_allclose(_ball_projection(P, 1.0), P, atol=1e-12)

    def test_nonexpansive(self):
        rng = np.random.default_rng(3)
        for X, Y in zip(rng.standard_normal((10, 6, 4)), rng.standard_normal((10, 6, 4))):
            dist = np.linalg.norm(_ball_projection(X, 0.7) - _ball_projection(Y, 0.7))
            assert dist <= np.linalg.norm(X - Y) + 1e-12

    def test_interior_untouched(self):
        for M in (0.1 * np.eye(3), 0.5 * np.eye(3), np.diag([0.9, 0.2, 0.0])):
            np.testing.assert_array_equal(_ball_projection(M, 1.0), M)

    def test_norm_clipped(self):
        for M in 5.0 * np.random.default_rng(4).standard_normal((6, 8, 2)):
            assert spectral_norm(_ball_projection(M, 0.3)) <= 0.3 + 1e-12


class TestSpectralAdmm:
    def test_inactive_ball_iterative_agrees_with_closed_form(self):
        C, A = small_instance(6)
        solver = BlockDiagonalProblem(C, A)
        ref = solver.unconstrained
        inactive = solver.solve(1.2 * solver.unconstrained_norm, tol=1e-9, max_iter=50_000)
        assert (inactive.status, inactive.iterations, inactive.gap) == ("optimal", 0, 0.0)
        np.testing.assert_array_equal(inactive.solution, ref.solution)
        # Just inside the closed-form norm the ball binds: the dual Newton
        # iterates and lands on (nearly) the closed-form point.
        rep = solver.solve((1.0 - 1e-6) * solver.unconstrained_norm, tol=1e-9, max_iter=50_000)
        assert rep.status == "optimal" and rep.iterations > 0 and rep.gap <= 1e-9
        assert rep.objective == pytest.approx(ref.objective, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("seed", range(5))
    def test_active_ball_matches_projected_gradient(self, seed):
        C, A = oracle_friendly_instance(seed + 20)
        solver = BlockDiagonalProblem(C, A)
        tau = active_radius(solver)
        rep = solver.solve(tau, tol=1e-9, max_iter=50_000)
        assert rep.status == "optimal"
        _, obj_ref = projected_gradient_spectral(
            C, A, np.eye(len(A)), tau, iters=20_000
        )
        assert rep.objective == pytest.approx(obj_ref, rel=1e-4)

    def test_solution_satisfies_both_constraint_families(self):
        C, A = small_instance(7)
        solver = BlockDiagonalProblem(C, A)
        tau = active_radius(solver)
        rep = solver.solve(tau, tol=1e-8, max_iter=50_000)
        assert np.abs(A @ rep.solution - np.eye(len(A))).max() < 1e-10
        assert spectral_norm(rep.solution) <= tau * (1.0 + 1e-6)

    def test_matches_interior_point_on_thin_feasible_sets(self):
        cp = pytest.importorskip("cvxpy")
        for seed in (506, 510, 41):
            C, A = small_instance(seed)
            solver = BlockDiagonalProblem(C, A)
            tau = active_radius(solver)
            rep = solver.solve(tau, tol=1e-9, max_iter=50_000)
            G = cp.Variable((C.shape[1], len(A)))
            prob = cp.Problem(
                cp.Minimize(cp.norm(C @ G, "fro")),
                [A @ G == np.eye(len(A)), cp.sigma_max(G) <= tau],
            )
            prob.solve(solver=cp.SCS, eps=1e-9, max_iters=200_000)
            assert rep.objective == pytest.approx(prob.value, rel=1e-6, abs=1e-8)

    def test_below_floor_infeasible(self):
        C, A = small_instance(8)
        for solver in (BlockDiagonalProblem(C, A), CoupledCausalProblem(np.hstack([C, C]), A)):
            with pytest.raises(InfeasibleEpsilon, match="below the feasibility floor"):
                solver.solve(0.5 * solver.floor, tol=1e-7, max_iter=50_000)

    def test_floor_equals_min_norm_solution_norm(self):
        C, A = small_instance(9)
        solver = BlockDiagonalProblem(C, A)
        assert solver.floor == pytest.approx(
            spectral_norm(np.linalg.pinv(A)), rel=1e-12
        )


class TestGammaSearch:
    def build_problem(self, seed, n=2, m=1, L=3, T=15, noise=0.2, structure="blockdiag"):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((n, n)) * 0.4 + 0.5 * np.eye(n)
        sys = LtiSystem(A=A, B=rng.standard_normal((n, m)), noise_std=noise)
        ens = generate_ensemble(sys, T, 4, seed=seed)
        data = DataHankels.from_trajectory(average(ens), L)
        w = CostWeights(np.eye(n), np.eye(m), q_terminal=np.eye(n), horizon=L)
        return _build_problem(data, w, structure), data

    def test_eps_zero_returns_closed_form(self):
        prob, _ = self.build_problem(0)
        res = gamma_search(prob, 0.0)
        assert res.gamma == 0.0
        assert res.objective == pytest.approx(prob.unconstrained.objective)

    def test_huge_eps_infeasible(self):
        prob, _ = self.build_problem(1)
        with pytest.raises(InfeasibleEpsilon):
            gamma_search(prob, 1e9)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"gamma_tol": np.nan}, "gamma_tol must be nonnegative, got nan"),
            ({"gamma_tol": -1e-4}, "gamma_tol must be nonnegative, got -0.0001"),
            ({"tol": np.nan}, "tol must be nonnegative, got nan"),
            ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
        ],
        ids=["nan-gamma_tol", "negative-gamma_tol", "nan-tol", "zero-max_iter"],
    )
    def test_bad_settings_rejected_before_the_first_solve(self, setting, message):
        recording = RecordingProblem(self.build_problem(2)[0])
        with pytest.raises(ValueError, match=message):
            gamma_search(recording, 0.1, **setting)
        assert recording.calls == []

    @pytest.mark.parametrize("structure", ["blockdiag", "full"])
    @settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 3),
        m=st.integers(1, 2),
        L=st.integers(2, 4),
        frac=st.floats(0.01, 0.9999),
    )
    # gamma_min = 0.9995: the search's least gamma, 1.001 gamma_min, lies beyond 1.
    @example(seed=3, n=2, m=1, L=3, frac=0.9995)
    def test_every_solve_is_above_the_floor_on_random_plants(self, structure, seed, n, m, L, frac):
        w = CostWeights(np.eye(n), np.eye(m), q_terminal=np.eye(n), horizon=L)
        ens = generate_ensemble(random_plant(seed, n, m, 1.05), L + n + m * L + 8, 4, seed=seed)
        prob = _build_problem(DataHankels.from_trajectory(average(ens), L), w, structure)
        # eps puts the floor at gamma_min = frac.
        eps = frac / (np.sqrt(L) * prob.floor)
        recording = RecordingProblem(prob)
        try:
            res = gamma_search(recording, eps, max_iter=300)
        except InfeasibleEpsilon:
            assert frac * (1.0 + 1e-3) >= 1.0 - 1e-9 - 1e-12
            return
        assert recording.calls and all(tau > prob.floor for tau, _, _ in recording.calls)
        assert frac < res.gamma < 1.0 and res.objective > 0.0

    def test_f_monotone_on_grid(self):
        prob, data = self.build_problem(2)
        eps = min(spectral_norm(data.hw), 0.5 / (np.sqrt(3) * prob.floor))
        res = gamma_search(prob, eps)
        gammas = [p.gamma for p in res.grid]
        fs = [p.f_value for p in res.grid]
        order = np.argsort(gammas)
        sorted_f = np.asarray(fs)[order]
        assert np.all(np.diff(sorted_f) <= 1e-4 * np.maximum(1.0, sorted_f[:-1]))

    # The coupled ADMM needs up to 50 000 iterations at radii next to the
    # floor; a coarser, capped scan keeps its case to a few seconds.  A
    # capped solve still returns a point in the ball, so its h stays an
    # upper bound on the minimum.
    @pytest.mark.parametrize(
        "structure, points, scan_iters",
        [("blockdiag", 200, 50_000), ("full", 50, 2000)],
        ids=["blockdiag", "full"],
    )
    def test_refined_minimum_matches_dense_scan(self, structure, points, scan_iters):
        prob, data = self.build_problem(3, structure=structure)
        # A budget that leaves the program feasible with margin.
        eps = min(spectral_norm(data.hw), 0.5 / (np.sqrt(3) * prob.floor))
        res = gamma_search(prob, eps)
        scale = np.sqrt(3) * eps
        lo = scale * prob.floor * 1.001 + 1e-12
        best = np.inf
        for g in np.linspace(lo, 0.999, points):
            rep = prob.solve(g / scale, tol=1e-7, max_iter=scan_iters)
            best = min(best, rep.objective / (1.0 - g))
        assert res.objective <= best * (1.0 + 1e-3)

    def test_zero_gamma_tol_stops_at_float_resolution(self):
        prob, data = self.build_problem(3)
        eps = min(spectral_norm(data.hw), 0.5 / (np.sqrt(3) * prob.floor))
        coarse = gamma_search(prob, eps)
        res = gamma_search(self.build_problem(3)[0], eps, gamma_tol=0.0)
        assert len(res.grid) < len(coarse.grid) + 60
        assert res.objective <= coarse.objective * (1.0 + 1e-6)

    def test_solution_respects_radius(self):
        prob, data = self.build_problem(4)
        eps = min(spectral_norm(data.hw), 0.5 / (np.sqrt(3) * prob.floor))
        res = gamma_search(prob, eps)
        tau = res.gamma / (np.sqrt(3) * eps)
        # Every diagonal block of the solution lies in the ball.
        assert np.linalg.svd(res.solution, compute_uv=False).max() <= tau * (1.0 + 1e-6)

    @pytest.mark.parametrize("structure", ["blockdiag", "full"])
    def test_each_solve_starts_from_the_nearest_solved_radius(self, structure):
        prob, data = self.build_problem(3, structure=structure)
        eps = min(spectral_norm(data.hw), 0.5 / (np.sqrt(3) * prob.floor))
        recording = RecordingProblem(prob)
        res = gamma_search(recording, eps)
        *explore, (tau_final, start_final, _) = recording.calls
        assert len(explore) > 3 and explore[0][1] is None
        for i, (tau, start, _) in enumerate(explore[1:], 1):
            earlier = explore[:i]
            # A bisection midpoint ties its bracket ends up to rounding.
            assert abs(start.tau - tau) <= min(abs(t - tau) for t, _, _ in earlier) * (1.0 + 1e-9)
            # The search keeps the iterate it resumes, not the report.
            assert any(start.tau == rep.tau and start.state is rep.state for _, _, rep in earlier)
        # The final solve resumes the returned gamma's own exploration report.
        assert tau_final == res.gamma / (np.sqrt(3) * eps)
        own = [rep for tau, _, rep in explore if tau == tau_final]
        assert len(own) == 1 and own[0].tau == start_final.tau and own[0].state is start_final.state

    def test_status_is_worst_final_inner_status(self):
        prob, data = self.build_problem(4)
        eps = min(spectral_norm(data.hw), 0.5 / (np.sqrt(3) * prob.floor))
        capped = gamma_search(prob, eps, max_iter=2)
        assert (capped.status, capped.iterations) == ("max-iter", 2)
        prob, _ = self.build_problem(4)
        converged = gamma_search(prob, eps)
        assert converged.status == "optimal" and 2 < converged.iterations < 50_000

    @pytest.mark.parametrize("structure", ["blockdiag", "full"])
    def test_search_gap_bounds_the_dense_scan(self, structure):
        prob, data = self.build_problem(3, structure=structure)
        eps = min(spectral_norm(data.hw), 0.5 / (np.sqrt(3) * prob.floor))
        res = gamma_search(prob, eps)
        assert 0.0 <= res.search_gap < 1.0
        scale = np.sqrt(3) * eps
        lo = scale * prob.floor * 1.001 + 1e-12
        # Every scanned point is feasible, so the least scanned h bounds min h from above.
        best = min(
            prob.solve(g / scale, tol=1e-7, max_iter=2000).objective / (1.0 - g)
            for g in np.linspace(lo, 0.999, 50)
        )
        assert res.objective * (1.0 - res.search_gap) <= best * (1.0 + 1e-9)

    def test_negative_search_gap_ends_only_a_positive_gamma_tol(self, monkeypatch):
        prob, data = self.build_problem(3)
        eps = min(spectral_norm(data.hw), 0.5 / (np.sqrt(3) * prob.floor))
        scale = np.sqrt(3) * eps
        plain = gamma_search(self.build_problem(3)[0], eps, gamma_tol=0.0)
        recording = RecordingProblem(prob)
        real_minimum = solver._CutModel.minimum

        def overshoot(model, a, b):
            # The scan's pruning queries single gammas: those see the real bound.
            if a == b:
                return real_minimum(model, a, b)
            # A bound a rounding error above the best h solved so far, at the
            # real minimizer, so that the model places the same steps.
            best = min(rep.objective / (1.0 - tau * scale) for tau, _, rep in recording.calls)
            return best * (1.0 + 1e-15), real_minimum(model, a, b)[1]

        monkeypatch.setattr(solver._CutModel, "minimum", overshoot)
        res = gamma_search(recording, eps, gamma_tol=0.0)
        assert res.grid == plain.grid and res.gamma == plain.gamma
        # With a positive tolerance the same gap ends the search right after
        # the scan, as a bracket already narrower than gamma_tol does.
        scan_only = gamma_search(RecordingProblem(prob), eps, gamma_tol=1.0)
        recording.calls.clear()
        stopped = gamma_search(recording, eps, gamma_tol=1e-3)
        assert len(recording.calls) == len(scan_only.grid) and stopped.search_gap == 0.0

    @pytest.mark.parametrize("structure", ["blockdiag", "full"])
    def test_search_keeps_no_exploration_solution_and_few_states(self, structure):
        prob, data = self.build_problem(3, structure=structure)
        eps = min(spectral_norm(data.hw), 0.5 / (np.sqrt(3) * prob.floor))
        scale = np.sqrt(3) * eps
        recording = WeakRecordingProblem(prob)
        res = gamma_search(recording, eps, grid_points=16)
        lo = scale * prob.floor * (1.0 + 1e-3) + 1e-12
        grid = np.linspace(lo, min(1.0 - 1e-9, max(scale * prob.unconstrained_norm, lo)), 16)
        *explore, final = recording.live
        assert final[0] == res.gamma / scale and len(recording.solutions) == len(res.grid)
        # Every exploration solution is gone by the next solve.
        assert all(solutions == 0 for _, solutions, _ in recording.live)
        # Once the bracket is set, the search keeps only the states a later
        # solve can resume: the nearest outside each bracket end and the best.
        bisection = [states for tau, _, states in explore if not np.isclose(grid, tau * scale, rtol=1e-12).any()]
        assert len(bisection) >= 2 and max(bisection) <= 3

    @pytest.mark.parametrize("structure", ["blockdiag", "full"])
    def test_search_scalars_are_builtin_floats(self, structure):
        prob, data = self.build_problem(3, structure=structure)
        eps = min(spectral_norm(data.hw), 0.5 / (np.sqrt(3) * prob.floor))
        for res in (gamma_search(prob, eps), gamma_search(prob, 0.0)):
            scalars = [res.search_gap]
            for p in (res, *res.grid):
                scalars += [p.gamma, p.objective, p.f_value, p.gap, *p.cut]
            assert [type(x) for x in scalars] == [float] * len(scalars)
            assert all(type(p.iterations) is int for p in res.grid)

    @pytest.mark.parametrize("structure", ["blockdiag", "full"])
    def test_scan_solves_only_gammas_the_cuts_leave_open(self, structure):
        prob, data = self.build_problem(3, structure=structure)
        eps = min(spectral_norm(data.hw), 0.5 / (np.sqrt(3) * prob.floor))
        scale = np.sqrt(3) * eps
        recording = RecordingProblem(prob)
        gamma_search(recording, eps, grid_points=16)
        # The scan's grid, as gamma_search lays it out; bisection midpoints lie off it.
        lo = scale * prob.floor * (1.0 + 1e-3) + 1e-12
        grid = np.linspace(lo, min(1.0 - 1e-9, max(scale * prob.unconstrained_norm, lo)), 16)
        gammas = [tau * scale for tau, _, _ in recording.calls]
        scanned = 0
        while scanned < len(gammas) and np.isclose(grid, gammas[scanned], rtol=1e-12, atol=0).any():
            scanned += 1
        assert 1 < scanned < 16
        for i in range(1, scanned):
            before = [rep for _, _, rep in recording.calls[:i]]
            incumbent = min(rep.objective / (1.0 - rep.tau * scale) for rep in before)
            tau = recording.calls[i][0]
            # h(gamma) >= sqrt(F(tau)) / (1 - gamma), F bounded below by every cut.
            F = max(cut_value(rep, tau) for rep in [prob.unconstrained, *before])
            assert np.sqrt(max(F, 0.0)) / (1.0 - gammas[i]) < incumbent, (i, gammas[i])

    @pytest.mark.parametrize("seed", range(5))
    def test_certify_searches_stop_on_their_certificate(self, seed, plant, bench_weights):
        # The certified pipeline of acceptance criterion 06 on the bench plant.
        resp_star, _ = optimal_responses(plant, bench_weights)
        toep = spectral_norm(toeplitz_stack(plant.A, np.eye(3), T_BENCH - L_BENCH + 1))
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((T_BENCH, 3))
        clean = simulate(plant, np.zeros(3), u)
        gstar = recover_gstar(build_hankel(clean.x, L_BENCH), build_hankel(clean.u, L_BENCH), resp_star)
        N = sample_complexity(0.05, gstar.norm, L_BENCH, toep, 3, T_BENCH, SIGMA2)
        noise = np.sqrt(SIGMA2 / N) * rng.standard_normal((T_BENCH - 1, 3))
        data = DataHankels.from_trajectory(simulate(plant, np.zeros(3), u, noise=noise), L_BENCH)
        prob = _build_problem(data, bench_weights, "blockdiag")
        res = gamma_search(prob, spectral_norm(data.hw), grid_points=5, gamma_tol=1e-2, tol=1e-4, max_iter=1200)
        # Every solve is certified, so the model places the steps and its bound ends the search.
        assert all(p.status == "optimal" for p in res.grid)
        assert res.search_gap <= 1e-2 and len(res.grid) <= 6

    @pytest.mark.parametrize(
        "structure, forced", [("blockdiag", None), ("blockdiag", 3), ("full", None)], ids=["model", "forced", "full"]
    )
    def test_steps_leave_the_model_once_a_solve_is_capped(self, structure, forced):
        prob, data = self.build_problem(3, structure=structure)
        eps = min(spectral_norm(data.hw), 0.5 / (np.sqrt(3) * prob.floor))
        scale = np.sqrt(3) * eps
        recording = CappingProblem(prob, forced)
        res = gamma_search(recording, eps, grid_points=16)
        lo = scale * prob.floor * (1.0 + 1e-3) + 1e-12
        grid = np.linspace(lo, min(1.0 - 1e-9, max(scale * prob.unconstrained_norm, lo)), 16)
        known, capped, steps = set(grid.tolist()), False, 0
        for p in res.grid[:-1]:
            if p.gamma not in known:
                # No solved or grid gamma lies inside the bracket: its ends are the nearest known gammas.
                lo_b, hi_b = max(g for g in known if g < p.gamma), min(g for g in known if g > p.gamma)
                margin = solver._MODEL_CLIP * (hi_b - lo_b)
                if capped:
                    assert p.gamma == 0.5 * (lo_b + hi_b)
                else:
                    assert lo_b + margin * (1.0 - 1e-9) <= p.gamma <= hi_b - margin * (1.0 - 1e-9)
                    assert p.gamma != 0.5 * (lo_b + hi_b)  # placed by the model, not bisected
                steps += 1
            known.add(p.gamma)
            capped = capped or p.status != "optimal"
        assert steps >= 3
        assert capped == (structure == "full" or forced is not None)

    def test_debug_log_has_one_line_per_solve(self, caplog):
        prob, data = self.build_problem(3)
        eps = min(spectral_norm(data.hw), 0.5 / (np.sqrt(3) * prob.floor))
        with caplog.at_level(logging.DEBUG, logger="ddsls"):
            res = gamma_search(prob, eps)
        lines = [r for r in caplog.records if r.name == "ddsls.solver"]
        assert len(lines) == len(res.grid)
        steps = [r.getMessage().split()[0] for r in lines]
        assert steps[0] == "scan" and steps[-1] == "final" and "model" in steps
        for r, p in zip(lines, res.grid):
            assert r.levelno == logging.DEBUG
            message = r.getMessage()
            assert f"gamma {p.gamma:.9g} " in message and f"{p.status}, {p.iterations} iterations" in message
        # The package's own handler discards every record: logging stays the application's choice.
        assert any(isinstance(h, logging.NullHandler) for h in logging.getLogger("ddsls").handlers)


def search_bound_32(cuts, knots, scale):
    """The bound the exact one replaced, over 32 pieces between consecutive knots.

    F = f^2 is nonincreasing, so on each piece [a, b] h >= sqrt(max cut at b) / (1 - a).
    """
    if knots.size == 1:
        knots = np.repeat(knots, 2)
    grid = knots[:-1, None] + np.diff(knots)[:, None] * np.linspace(0.0, 1.0, 33)
    powers = (grid[:, 1:] / scale) ** np.arange(3)[:, None, None]
    model = np.max(cuts @ powers.reshape(3, -1), axis=0).reshape(grid.shape[0], -1)
    return float(np.sqrt(max(np.min(model * (1.0 - grid[:, :-1]) ** -2), 0.0)))


class TestCutModel:
    @settings(max_examples=200, deadline=None)
    @given(
        # Each cut is c0 + c1 tau + c2 tau^2 with c1, c2 <= 0, blockdiag's (c1 = 0) and full's (c2 = 0)
        # among them.  h = sqrt(M) / (1 - gamma) turns M's rounding near 0 into a large
        # relative error in h, so entries are 0 or at least 1e-3 in size, as f^2-sized cuts are.
        cuts=st.lists(
            st.tuples(
                st.floats(1e-3, 10.0) | st.floats(-1.0, -1e-3),
                st.just(0.0) | st.floats(-5.0, -1e-3),
                st.just(0.0) | st.floats(-5.0, -1e-3),
            ),
            min_size=1,
            max_size=12,
        ),
        knots=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=8, unique=True),
        scale=st.floats(0.05, 20.0),
    )
    def test_exact_bound_lies_between_the_32_pieces_and_a_dense_scan(self, cuts, knots, scale):
        knots = np.sort(knots)
        model = solver._CutModel(cuts[0], scale, knots)
        for cut in cuts[1:]:
            model.add(cut, ())
        exact, at = model.minimum(knots[0], knots[-1])
        C = np.array(cuts)
        assert exact >= search_bound_32(C, knots, scale) * (1.0 - 1e-12)
        dense = np.linspace(knots[0], knots[-1], 4096)
        h = np.sqrt(np.maximum(np.max(C @ (dense / scale) ** np.arange(3)[:, None], axis=0), 0.0)) / (1.0 - dense)
        assert exact <= h.min() * (1.0 + 1e-12)
        # The minimizer is in range and attains the bound, up to the rounding of M there.
        assert knots[0] <= at <= knots[-1]
        rounding = 1e-14 * np.abs(C).max() / (1.0 - at) ** 2
        assert model.minimum(at, at)[0] ** 2 == pytest.approx(exact**2, rel=1e-12, abs=rounding)


class RecordingProblem:
    """An inner problem that records the radius, start and report of every solve."""

    def __init__(self, problem):
        self.problem, self.calls = problem, []

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def solve(self, tau, tol, max_iter, start=None):
        rep = self.problem.solve(tau, tol=tol, max_iter=max_iter, start=start)
        self.calls.append((tau, start, rep))
        return rep


class CappingProblem(RecordingProblem):
    """A recording problem whose solve number ``forced`` (from 0) reports "max-iter", its point unchanged."""

    def __init__(self, problem, forced=None):
        super().__init__(problem)
        self.forced = forced

    def solve(self, tau, tol, max_iter, start=None):
        rep = super().solve(tau, tol, max_iter, start)
        return replace(rep, status="max-iter") if len(self.calls) - 1 == self.forced else rep


class WeakRecordingProblem:
    """An inner problem that counts, at every solve, the earlier solutions and states still alive.

    It holds weak references only, so it keeps nothing alive itself; the
    closed form's solution, which the problem keeps and inactive reports
    share, is not counted.
    """

    def __init__(self, problem):
        self.problem, self.solutions, self.states, self.live = problem, [], [], []

    def __getattr__(self, name):
        return getattr(self.problem, name)

    def solve(self, tau, tol, max_iter, start=None):
        alive = [sum(ref() is not None for ref in refs) for refs in (self.solutions, self.states)]
        self.live.append((tau, *alive))
        rep = self.problem.solve(tau, tol=tol, max_iter=max_iter, start=start)
        if rep.solution is not self.problem.unconstrained.solution:
            self.solutions.append(weakref.ref(rep.solution))
        if rep.state is not None:
            # A full report's state is (Y, Uv, rho), each array its own.
            self.states.append(weakref.ref(rep.state if isinstance(rep.state, np.ndarray) else rep.state[0]))
        return rep


def assert_same_report(a, b):
    """Bit-identical reports, solution and state included."""
    np.testing.assert_equal(vars(a), vars(b))


def blockdiag_instance(sys, weights, T, N, seed):
    """Block-diagonal problem and data from an averaged record of ``sys``."""
    data = DataHankels.from_trajectory(average(generate_ensemble(sys, T, N, seed=seed)), weights.horizon)
    return _build_problem(data, weights, "blockdiag"), data


def diagonal_blocks(G, L):
    """The L diagonal blocks of a block-diagonal G, each (cols x n)."""
    cols, n = G.shape[0] // L, G.shape[1] // L
    return [G[k * cols : (k + 1) * cols, k * n : (k + 1) * n] for k in range(L)]


def assert_blocks_certified(rep, prob, data, tau, tol):
    """Every block affine-feasible, in the ball and within tol of its dual bound."""
    assert rep.status == "optimal" and 0.0 <= rep.gap <= tol
    assert np.isfinite(rep.solution).all()
    for G in diagonal_blocks(rep.solution, prob.L):
        assert np.abs(data.h1x @ G - np.eye(data.n)).max() < 1e-10
        assert spectral_norm(G) <= tau * (1.0 + 1e-12)


def squared_objective_slope(prob, tau, tol, step=1e-4):
    """Central finite difference of objective**2 in the radius, at solves to ``tol``."""
    up = prob.solve(tau * (1.0 + step), tol=tol, max_iter=50_000).objective ** 2
    down = prob.solve(tau * (1.0 - step), tol=tol, max_iter=50_000).objective ** 2
    return (up - down) / (2.0 * tau * step)


def cut_slope(rep):
    """The derivative of the report's cut at its own radius, its d(objective^2)/d tau."""
    _, c1, c2 = rep.cut
    return c1 + 2.0 * c2 * rep.tau


def cut_value(rep, tau):
    """The report's lower bound on the squared optimal value at radius tau."""
    c0, c1, c2 = rep.cut
    return c0 + c1 * tau + c2 * tau**2


def assert_cuts_below_tight_values(prob, fracs, caps, rel=1e-9):
    """Cuts of capped solves at every radius lie below the squared optimum there.

    A tight solve's objective is attained by a feasible point, so its square
    bounds the optimum from above: a valid cut stays below it up to rounding.
    """
    floor, top = prob.floor, prob.unconstrained_norm
    taus = floor + np.asarray(fracs) * (top - floor)
    tight = [prob.solve(tau, tol=1e-11, max_iter=50_000) for tau in taus]
    assert all(rep.status == "optimal" and rep.gap <= 1e-6 for rep in tight)
    F = np.array([rep.objective**2 for rep in tight])
    for cap in caps:
        for tau in taus:
            rep = prob.solve(tau, tol=1e-12, max_iter=cap)
            assert np.isfinite(rep.gap) and rep.gap >= 0.0
            bounds = np.array([cut_value(rep, t) for t in taus])
            assert np.all(bounds <= F * (1.0 + rel)), (cap, tau, bounds / F - 1.0)


class TestBlockDiagonalProblem:
    @pytest.fixture
    def bench_problem(self, plant, bench_weights):
        # One near-noiseless record, as in the certified pipeline: the ball
        # sits close to its feasibility floor.
        rng = np.random.default_rng(6)
        u = rng.standard_normal((T_BENCH, 3))
        noise = np.sqrt(SIGMA2 / 1e6) * rng.standard_normal((T_BENCH - 1, 3))
        data = DataHankels.from_trajectory(simulate(plant, np.zeros(3), u, noise=noise), bench_weights.horizon)
        return _build_problem(data, bench_weights, "blockdiag"), data

    def test_singular_late_blocks_stay_bounded(self, bench_problem):
        prob, data = bench_problem
        d = prob.null_basis.shape[1]
        ranks = [np.linalg.matrix_rank(C @ prob.null_basis) for C in prob.C]
        assert ranks[-1] < d and ranks[0] == d
        tau = np.sqrt(prob.floor * prob.unconstrained_norm)
        rep = prob.solve(tau, tol=1e-9, max_iter=50_000)
        assert_blocks_certified(rep, prob, data, tau, 1e-9)
        # The singular blocks bind too: their closed-form points leave the ball.
        singular = [k for k, r in enumerate(ranks) if r < d]
        assert (prob.unconstrained_norms[singular] > tau).any()

    def test_near_floor_converges_within_default_cap(self, bench_problem):
        prob, data = bench_problem
        tau = prob.floor * (1.0 + 1e-3)
        rep = prob.solve(tau, tol=1e-7, max_iter=50_000)
        assert_blocks_certified(rep, prob, data, tau, 1e-7)
        assert 0 < rep.iterations < 100

    def test_capped_solve_is_feasible_and_reported(self, bench_problem):
        prob, data = bench_problem
        tau = prob.floor * (1.0 + 1e-3)
        rep = prob.solve(tau, tol=1e-12, max_iter=1)
        assert (rep.status, rep.iterations) == ("max-iter", 1) and rep.gap > 1e-12
        for G in diagonal_blocks(rep.solution, prob.L):
            assert np.abs(data.h1x @ G - np.eye(data.n)).max() < 1e-10
            assert spectral_norm(G) <= tau * (1.0 + 1e-12)

    def test_identical_calls_give_identical_reports(self, bench_problem):
        prob, _ = bench_problem
        tau = 2.0 * prob.floor
        first = prob.solve(tau, tol=1e-5, max_iter=50_000)
        assert first.iterations > 0
        assert_same_report(prob.solve(tau, tol=1e-5, max_iter=50_000), first)

    def test_repeated_radius_reuses_multipliers(self, bench_problem):
        prob, _ = bench_problem
        tau = 2.0 * prob.floor
        first = prob.solve(tau, tol=1e-5, max_iter=50_000)
        again = prob.solve(tau, tol=1e-5, max_iter=50_000, start=first)
        assert first.iterations > 0 and again.iterations == 0
        np.testing.assert_array_equal(again.solution, first.solution)
        tighter = prob.solve(tau, tol=1e-10, max_iter=50_000, start=first)
        assert tighter.status == "optimal" and tighter.gap <= 1e-10
        assert tighter.objective <= first.objective * (1.0 + 1e-12)

    @pytest.mark.parametrize("source", ["bench", 0, 1, 2, 3])
    def test_slope_matches_finite_difference(self, source, bench_problem):
        if source == "bench":
            prob, _ = bench_problem
        else:
            n, m, L = 2 + source % 2, 1 + source % 2, 3
            w = CostWeights(np.eye(n), np.eye(m), q_terminal=np.eye(n), horizon=L)
            plant = random_plant(source, n, m, 1.1)
            prob, _ = blockdiag_instance(plant, w, L + n + m * L + 8, 4, seed=source)
        floor, top = prob.floor, prob.unconstrained_norm
        for frac in (0.2, 0.5, 0.9):
            tau = floor * (top / floor) ** frac
            rep = prob.solve(tau, tol=1e-10, max_iter=50_000)
            assert rep.status == "optimal"
            assert cut_slope(rep) == pytest.approx(squared_objective_slope(prob, tau, 1e-10), rel=1e-5)
        assert cut_slope(prob.solve(1.1 * top, tol=1e-10, max_iter=50_000)) == 0.0

    @pytest.mark.slow
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 3),
        m=st.integers(1, 2),
        L=st.integers(2, 4),
        radius=st.sampled_from([0.5, 0.95, 1.05, 1.3]),
        frac=st.floats(0.0, 1.0),
    )
    @example(seed=235, n=2, m=1, L=3, radius=1.3, frac=0.5)
    @example(seed=7721, n=3, m=1, L=4, radius=1.3, frac=0.5)
    def test_certified_on_random_plants(self, seed, n, m, L, radius, frac):
        w = CostWeights(np.eye(n), np.eye(m), q_terminal=np.eye(n), horizon=L)
        T = L + n + m * L + 8
        prob, data = blockdiag_instance(random_plant(seed, n, m, radius), w, T, 4, seed=seed)
        floor, top = prob.floor, prob.unconstrained_norm
        assume(top > 1.001 * floor)
        tau = 1.001 * floor * (top / (1.001 * floor)) ** frac
        rep = prob.solve(tau, tol=1e-8, max_iter=50_000)
        assert_blocks_certified(rep, prob, data, tau, 1e-8)
        # The interior-point oracle starts from the minimum-norm point, so it
        # needs room between the floor and the radius; check the most
        # strongly bound block (a block the ball does not bind is the closed
        # form, checked against KKT by TestEqLs).  The first-order oracle
        # stalled 2.7% above the certified optimum on the second pinned draw.
        k = int(np.argmax(prob.unconstrained_norms))
        if tau >= 1.6 * floor and prob.unconstrained_norms[k] > tau:
            _, obj_ref = barrier_spectral(prob.C[k], data.h1x, np.eye(n), tau)
            obj = np.linalg.norm(prob.C[k] @ diagonal_blocks(rep.solution, L)[k])
            assert obj == pytest.approx(obj_ref, rel=1e-4)
            # The oracle's point is feasible: it cannot beat a certified optimum.
            assert obj <= obj_ref * (1.0 + 1e-8)

    def test_dual_cut_bounds_the_tight_optimum(self, bench_problem):
        prob, _ = bench_problem
        assert_cuts_below_tight_values(prob, [0.05, 0.3, 0.7], caps=[1, 3, 50])

    def test_matches_per_block_closed_form(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((2, 9))
        Cs = [rng.standard_normal((5, 9)) for _ in range(4)]
        batch = BlockDiagonalProblem(np.hstack(Cs), A)
        rep = batch.unconstrained
        total = 0.0
        for k, C in enumerate(Cs):
            ref = closed_form(C, A)
            np.testing.assert_allclose(diagonal_blocks(rep.solution, batch.L)[k], ref.solution, atol=1e-9)
            total += ref.objective**2
        assert rep.objective == pytest.approx(np.sqrt(total), rel=1e-10)

    def test_ball_constrained_matches_single_solver(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((2, 9))
        Cs = [rng.standard_normal((5, 9)) for _ in range(3)]
        batch = BlockDiagonalProblem(np.hstack(Cs), A)
        tau = max(1.05 * batch.floor, 0.5 * batch.unconstrained_norm)
        rep = batch.solve(tau, tol=1e-9, max_iter=50_000)
        for k, C in enumerate(Cs):
            single = BlockDiagonalProblem(C, A).solve(tau, tol=1e-9, max_iter=50_000)
            obj_k = float(np.linalg.norm(C @ diagonal_blocks(rep.solution, batch.L)[k]))
            assert obj_k == pytest.approx(single.objective, rel=1e-5, abs=1e-7)


def structured_problem(cls):
    """An inner problem of class ``cls`` (L = 3) and its data."""
    n, m, L = 2, 1, 3
    w = CostWeights(np.eye(n), np.eye(m), q_terminal=np.eye(n), horizon=L)
    data = DataHankels.from_trajectory(average(generate_ensemble(random_plant(17, n, m, 1.1), 15, 4, seed=17)), L)
    return cls(stacked_cost_map(data, w), data.h1x), data


@pytest.mark.parametrize("cls", [BlockDiagonalProblem, CoupledCausalProblem], ids=["blockdiag", "full"])
def test_both_classes_return_the_structured_parameter(cls):
    # One layout for both: G is (L cols x L n), and blockdiag's G is zero off its diagonal blocks.
    prob, data = structured_problem(cls)
    L, n = data.L, data.n
    for rep in (prob.unconstrained, prob.solve(active_radius(prob), tol=1e-7, max_iter=50)):
        assert rep.solution.shape == (L * data.cols, L * n)
        assert_causal_and_feasible(rep.solution, data, 1e-10)
        if cls is BlockDiagonalProblem:
            off = rep.solution.copy()
            for G in diagonal_blocks(off, L):
                G[...] = 0.0
            assert not off.any()


@pytest.mark.parametrize("cls", [BlockDiagonalProblem, CoupledCausalProblem], ids=["blockdiag", "full"])
@pytest.mark.parametrize(
    "tol, max_iter, message",
    [
        (np.nan, 10, "tol must be nonnegative, got nan"),
        (-1e-7, 10, "tol must be nonnegative, got -1e-07"),
        (1e-7, 0, "max_iter must be >= 1, got 0"),
    ],
    ids=["nan-tol", "negative-tol", "zero-max_iter"],
)
def test_bad_solve_settings_rejected(cls, tol, max_iter, message):
    prob, _ = structured_problem(cls)
    with pytest.raises(ValueError, match=message):
        prob.solve(active_radius(prob), tol=tol, max_iter=max_iter)


def test_rank_deficient_constraint_is_infeasible_in_both_classes():
    # Both classes share one affine-set construction: neither is built on an empty set.
    rng = np.random.default_rng(12)
    n, cols, L = 2, 9, 3
    row = rng.standard_normal((1, cols))
    A = np.vstack([row, 2.0 * row])  # rank 1: A G = I has no solution
    C = rng.standard_normal((5 * L, cols * L))
    for cls in (BlockDiagonalProblem, CoupledCausalProblem):
        with pytest.raises(InfeasibleEpsilon, match="affine constraints are infeasible"):
            cls(C, A)


@pytest.mark.parametrize("cls", [BlockDiagonalProblem, CoupledCausalProblem], ids=["blockdiag", "full"])
def test_cost_map_width_must_be_a_multiple_of_h1x_width(cls):
    # L is read off the cost map as its width over h1x's width.
    rng = np.random.default_rng(13)
    with pytest.raises(ValueError, match="not a multiple"):
        cls(rng.standard_normal((5, 3 * 9 + 1)), rng.standard_normal((2, 9)))


def coupled_instance(sys, weights, T, N, seed):
    """Coupled problem, cost map and data from an averaged record of ``sys``."""
    data = DataHankels.from_trajectory(average(generate_ensemble(sys, T, N, seed=seed)), weights.horizon)
    cmap = stacked_cost_map(data, weights)
    return CoupledCausalProblem(cmap, data.h1x), cmap, data


def random_plant(seed, n, m, radius):
    """Random plant whose state matrix has spectral radius ``radius``."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A *= radius / max(np.abs(np.linalg.eigvals(A)).max(), 1e-12)
    return LtiSystem(A=A, B=rng.standard_normal((n, m)), noise_std=0.2)


def assert_causal_and_feasible(G, data, atol):
    """Zero blocks above the diagonal, h1x G(i, j) = delta_ij I below it."""
    L, cols, n = data.L, data.cols, data.n
    for i in range(L):
        for j in range(L):
            blk = G[i * cols : (i + 1) * cols, j * n : (j + 1) * n]
            if j > i:
                assert not blk.any()
            else:
                target = np.eye(n) if i == j else np.zeros((n, n))
                assert np.abs(data.h1x @ blk - target).max() < atol


class TestCoupledCausalProblem:
    @pytest.fixture(scope="class")
    def bench_instance(self, plant, bench_weights):
        return coupled_instance(plant, bench_weights, T_BENCH, 8, seed=3)

    @pytest.fixture(scope="class")
    def small(self):
        n, m, L = 2, 1, 3
        w = CostWeights(np.eye(n), np.eye(m), q_terminal=np.eye(n), horizon=L)
        return coupled_instance(random_plant(17, n, m, 1.1), w, 15, 4, seed=17)

    @pytest.fixture(scope="class")
    def horizon3(self):
        # The plant and record of test_synth's robust full-structure check.
        sys = LtiSystem(A=np.array([[0.9, 0.2], [0.0, 0.8]]), B=np.eye(2), noise_std=0.1)
        w = CostWeights(np.eye(2), np.eye(2), q_terminal=np.eye(2), horizon=3)
        return coupled_instance(sys, w, 15, 8, seed=32)

    def test_inactive_ball_is_the_closed_form(self, horizon3):
        prob, _, _ = horizon3
        ref = prob.unconstrained
        for tau in (prob.unconstrained_norm, 1.2 * prob.unconstrained_norm):
            rep = prob.solve(tau, tol=1e-9, max_iter=50_000)
            # The cut's derivative is exactly zero at every radius.
            assert (rep.status, rep.iterations, rep.gap, rep.cut[1:]) == ("optimal", 0, 0.0, (0.0, 0.0))
            np.testing.assert_array_equal(rep.solution, ref.solution)

    def test_identical_calls_give_identical_reports(self, horizon3):
        prob, _, _ = horizon3
        tau = prob.floor + 0.2 * (prob.unconstrained_norm - prob.floor)
        first = prob.solve(tau, tol=1e-7, max_iter=200)
        assert first.iterations > 0
        assert_same_report(prob.solve(tau, tol=1e-7, max_iter=200), first)

    def test_resumed_solve_continues_exactly(self, horizon3):
        prob, _, _ = horizon3
        tau = prob.floor + 0.2 * (prob.unconstrained_norm - prob.floor)
        # A tol out of reach: every solve stops at its cap, and the straight
        # one checks its gap at 50, 100 and 150.  A cold start moves rho 64x
        # at 50, so the resumed solve starts from a moved rho, and at 150 it
        # reads its gap against the one its start reported at 100.
        half = prob.solve(tau, tol=1e-15, max_iter=100)
        assert (half.status, half.iterations, half.state[2]) == ("max-iter", 100, 64.0 * prob._rho0)
        resumed = prob.solve(tau, tol=1e-15, max_iter=100, start=half)
        straight = prob.solve(tau, tol=1e-15, max_iter=200)
        assert (resumed.iterations, straight.iterations) == (100, 200)
        assert_same_report(replace(resumed, iterations=200), straight)

    @pytest.mark.parametrize("frac", [0.05, 0.2, 0.8])
    def test_slope_matches_finite_difference(self, frac, horizon3):
        prob, _, _ = horizon3
        tau = prob.floor + frac * (prob.unconstrained_norm - prob.floor)
        rep = prob.solve(tau, tol=1e-10, max_iter=50_000)
        assert rep.status == "optimal"
        # The dual cut's derivative matched to 2.4e-8 on these radii.
        assert cut_slope(rep) == pytest.approx(squared_objective_slope(prob, tau, 1e-10), rel=1e-6)

    @pytest.mark.parametrize("frac", [0.5, 0.8])
    def test_optimal_means_the_gap_is_within_tol(self, frac, bench_instance):
        # The residual rule alone stopped these solves at gaps of 2.5e-4 and 1.3e-3.
        prob, _, _ = bench_instance
        tau = prob.floor + frac * (prob.unconstrained_norm - prob.floor)
        rep = prob.solve(tau, tol=1e-4, max_iter=50_000)
        assert rep.status == "optimal" and 0.0 <= rep.gap <= 1e-4
        # Walk the gap check points: a solve resumed for ``every`` iterations
        # continues the loop exactly, so it reports what a solve capped at
        # the same check point would.  Each one before the stop is capped
        # uncertified, and the uncapped solve stops at the first certified one.
        every = prob._GAP_EVERY
        k, step = every, prob.solve(tau, tol=1e-4, max_iter=every)
        while step.status != "optimal" and k < rep.iterations:
            assert step.status == "max-iter" and step.gap > 1e-4
            k, step = k + every, prob.solve(tau, tol=1e-4, max_iter=every, start=step)
        assert rep.iterations == k
        assert_same_report(prob.solve(tau, tol=1e-4, max_iter=k), rep)
        assert_same_report(replace(step, iterations=k), rep)

    @pytest.mark.parametrize("which", ["bench_instance", "small"])
    def test_unconstrained_matches_kkt_per_block_column(self, which, request):
        prob, cmap, data = request.getfixturevalue(which)
        G = prob.unconstrained.solution
        L, cols, n = data.L, data.cols, data.n
        assert_causal_and_feasible(G, data, 1e-10)
        total = 0.0
        for j in range(L):
            Cj = cmap[:, j * cols :]
            k = L - j
            rhs = np.zeros((k * n, n))
            rhs[:n] = np.eye(n)
            G_ref, obj_ref = kkt_equality_ls(Cj, np.kron(np.eye(k), data.h1x), rhs)
            Gj = G[j * cols :, j * n : (j + 1) * n]
            # Minimizers differ along the nullspace of C_j; the residual is unique.
            np.testing.assert_allclose(Cj @ Gj, Cj @ G_ref, rtol=0, atol=1e-9 * max(1.0, obj_ref))
            total += obj_ref**2
        assert prob.unconstrained.objective == pytest.approx(np.sqrt(total), rel=1e-9)

    @pytest.mark.parametrize("which", ["bench_instance", "small"])
    @pytest.mark.parametrize("factor", [1e-3, 1.0, 1e3])
    def test_step_matches_reduced_basis_reference(self, which, factor, request):
        prob, cmap, data = request.getfixturevalue(which)
        rho = factor * prob._rho0
        # V = G_part + (I (x) N) Z: its nullspace coordinates are Z.
        Z = np.random.default_rng(5).standard_normal(prob._causal.shape)
        ref = coupled_quad_step(cmap, data.h1x, data.L, data.cols, data.n, prob._original(Z), rho)
        inv = prob._resolvent(rho)
        got = prob._original(prob._step(inv, Z * prob._causal, prob._CG)[0])
        # Both solve the same shifted system, whose condition number bounds
        # how far two backward-stable evaluations may drift apart.
        cond = (prob._eigvals.max() + 0.5 * rho) / (0.5 * rho)
        atol = 64 * np.finfo(float).eps * cond * np.abs(ref).max()
        np.testing.assert_allclose(got, ref, rtol=0, atol=atol)

    @pytest.mark.parametrize("which", ["horizon3", "bench_instance"])
    @pytest.mark.parametrize("factor", [1e-3, 1e3])
    def test_admm_matches_the_reference_loop(self, which, factor, request):
        # 150 iterations, three check points, of the same ADMM in the original
        # coordinates, built from the reduced-basis step, an SVD ball
        # projection and a gap of its own certificate.  From 1e-3 (1e3) times
        # the cold start's rho the residuals are far apart at the first check,
        # so rho rises (falls) there, and the gap gates the later checks.
        prob, cmap, data = request.getfixturevalue(which)
        tau = prob.floor + 0.3 * (prob.unconstrained_norm - prob.floor)
        rho = factor * prob._rho0
        # The cold start, in nullspace coordinates: a full solve resumes only a report's state.
        Y = _ball_projection(prob._closed, tau)
        start = replace(prob.unconstrained, state=(Y, np.zeros_like(Y), rho))
        rep = prob.solve(tau, tol=1e-15, max_iter=150, start=start)
        ref, rhos = coupled_admm(cmap, data.h1x, data.L, data.cols, data.n, tau, rho, 150)
        assert (rep.status, rep.iterations, rep.state[2]) == ("max-iter", 150, rhos[-1])
        assert rhos[-1] > rho if factor < 1.0 else rhos[-1] < rho
        # The loops drift apart by the rounding of their shifted solves, which
        # the condition number at the least rho scales (as in the step test
        # above), over a floor of 1e-9 from the ball projections.
        low = min(rhos)
        rel = 1e-9 + 64 * np.finfo(float).eps * (prob._eigvals.max() + 0.5 * low) / (0.5 * low)
        np.testing.assert_allclose(rep.solution, ref, rtol=0, atol=rel * np.abs(ref).max())
        assert rep.objective == pytest.approx(np.linalg.norm(cmap @ ref), rel=rel)

    @pytest.mark.parametrize(
        "scale, expected", [(1e-6, 64.0), (1.0, 4.0), (2.0, 2.0), (3.0, 1.0), (1e2, 1 / 16), (1e6, 1 / 64)]
    )
    def test_rho_moves_only_where_the_gap_stalls(self, scale, expected, bench_instance):
        # From ``scale`` times the cold start's rho, r / s at the first check
        # point is about 2^38, 2^2.5, 2^1.5, 2^0.9, 2^-4.2 and 2^-17.  Two
        # solves from that start differ only in the gap their start reports at
        # this radius: the check at 50 reads its gap against it, held where it
        # at least halved, else moved by the power of two nearest r / s,
        # capped at 2^6, if r and s are more than 2x apart (not at 2^0.9).
        prob, _, _ = bench_instance
        tau = prob.floor + 0.3 * (prob.unconstrained_norm - prob.floor)
        rho, every = scale * prob._rho0, prob._GAP_EVERY
        Y = _ball_projection(prob._closed, tau)
        start = replace(prob.unconstrained, tau=tau, state=(Y, np.zeros_like(Y), rho))
        before = prob.solve(tau, tol=1e-15, max_iter=every - 1, start=replace(start, gap=np.inf))
        gap = prob.solve(tau, tol=1e-15, max_iter=every, start=replace(start, gap=np.inf)).gap
        held = prob.solve(tau, tol=1e-15, max_iter=every, start=replace(start, gap=2.0 * gap))
        moved = prob.solve(tau, tol=1e-15, max_iter=every, start=replace(start, gap=1.999 * gap))
        assert held.gap == moved.gap == gap
        assert held.state[2] == rho
        # The residuals at the check, from one more step of the iterate before it.
        Y_prev, Uv_prev, _ = before.state
        free = prob._free
        step = prob._step(prob._resolvent(rho), (Y_prev[:free] - Uv_prev[:free]) * prob._causal, prob._CG)[0]
        G = np.vstack([step, prob._fixed])
        Y, Uv = held.state[:2]
        r, s = np.linalg.norm(G - Y), rho * np.linalg.norm(Y - Y_prev)
        factor = 2.0 ** np.clip(np.rint(np.log2(r / s)), -6, 6) if max(r / s, s / r) > 2.0 else 1.0
        assert factor == expected
        np.testing.assert_array_equal(moved.state[0], Y)
        assert moved.state[2] == factor * rho
        # The multiplier rho U is unchanged: a power of two scales exactly.
        np.testing.assert_array_equal(moved.state[1] * factor, Uv)

    @pytest.mark.parametrize(
        "seed, n, m, L, radius, frac",
        [
            pytest.param(0, 2, 1, 3, 0.5, 0.3, marks=pytest.mark.slow),
            pytest.param(11, 2, 2, 3, 1.05, 0.6, marks=pytest.mark.slow),
            (5, 1, 1, 2, 1.3, 0.4),
        ],
    )
    def test_optimal_solve_agrees_with_the_barrier_oracle(self, seed, n, m, L, radius, frac):
        w = CostWeights(np.eye(n), np.eye(m), q_terminal=np.eye(n), horizon=L)
        T = L + n + m * L + 8
        prob, cmap, data = coupled_instance(random_plant(seed, n, m, radius), w, T, 4, seed=seed)
        tau = prob.floor + frac * (prob.unconstrained_norm - prob.floor)
        tol = 1e-7
        rep = prob.solve(tau, tol=tol, max_iter=50_000)
        assert rep.status == "optimal"
        # The oracle's point is feasible and within 1e-12 of the optimum.
        F = barrier_spectral(cmap, data.h1x, np.eye(n), tau, L=L)[1] ** 2
        f2 = rep.objective**2
        assert -1e-9 * F <= f2 - F <= tol * f2
        assert cut_value(rep, tau) <= F * (1.0 + 1e-12)

    def test_a_cap_off_the_check_points_is_a_check_point(self, horizon3):
        # A solve capped at 49 checks there, as at 50.  Two solves from one
        # start differ only in the gap their start reports: the one against
        # which the cap's gap stalls moves rho by the residual rule (r / s is
        # past 2^6 from this start) and returns the moved state.
        prob, _, _ = horizon3
        tau = prob.floor + 0.2 * (prob.unconstrained_norm - prob.floor)
        rho, cap = prob._rho0, prob._GAP_EVERY - 1
        Y = _ball_projection(prob._closed, tau)
        start = replace(prob.unconstrained, tau=tau, state=(Y, np.zeros_like(Y), rho))
        held = prob.solve(tau, tol=1e-15, max_iter=cap, start=replace(start, gap=np.inf))
        moved = prob.solve(tau, tol=1e-15, max_iter=cap, start=replace(start, gap=held.gap))
        assert (held.status, held.iterations, held.state[2]) == ("max-iter", cap, rho)
        assert_same_report(replace(moved, state=None), replace(held, state=None))
        np.testing.assert_array_equal(moved.state[0], held.state[0])
        np.testing.assert_array_equal(moved.state[1] * 64.0, held.state[1])
        assert moved.state[2] == 64.0 * rho

    def test_capped_solve_returns_feasible_point(self, bench_instance):
        prob, _, data = bench_instance
        tau = active_radius(prob)
        rep = prob.solve(tau, tol=1e-12, max_iter=20)
        assert rep.status == "max-iter" and rep.iterations == 20
        assert_causal_and_feasible(rep.solution, data, 1e-10)
        assert spectral_norm(rep.solution) <= tau * (1.0 + 1e-12)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 3),
        m=st.integers(1, 2),
        L=st.integers(2, 4),
        radius=st.sampled_from([0.5, 0.95, 1.05, 1.3]),
        frac=st.floats(0.05, 0.95),
    )
    def test_capped_solve_feasible_on_random_plants(self, seed, n, m, L, radius, frac):
        w = CostWeights(np.eye(n), np.eye(m), q_terminal=np.eye(n), horizon=L)
        T = L + n + m * L + 8
        prob, _, data = coupled_instance(random_plant(seed, n, m, radius), w, T, 4, seed=seed)
        floor, top = prob.floor, prob.unconstrained_norm
        tau = floor + frac * (top - floor)
        rep = prob.solve(tau, tol=1e-12, max_iter=20)
        assert rep.status in ("optimal", "max-iter")
        assert_causal_and_feasible(rep.solution, data, 1e-10)
        assert spectral_norm(rep.solution) <= tau * (1.0 + 1e-12)

    @pytest.mark.parametrize(
        "seed, n, m, L, radius", [(0, 2, 1, 3, 0.5), (3, 3, 2, 4, 1.3), (11, 2, 2, 3, 1.05)]
    )
    def test_dual_cut_bounds_the_tight_optimum_on_random_plants(self, seed, n, m, L, radius):
        w = CostWeights(np.eye(n), np.eye(m), q_terminal=np.eye(n), horizon=L)
        T = L + n + m * L + 8
        prob, _, _ = coupled_instance(random_plant(seed, n, m, radius), w, T, 4, seed=seed)
        assert_cuts_below_tight_values(prob, [0.05, 0.3, 0.7], caps=[10, 150, 1000])

    def test_dual_cut_bounds_the_tight_optimum(self, horizon3):
        prob, _, _ = horizon3
        assert_cuts_below_tight_values(prob, [0.05, 0.2, 0.5, 0.8], caps=[10, 150, 1000])

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 3),
        m=st.integers(1, 2),
        L=st.integers(2, 4),
        radius=st.sampled_from([0.5, 0.95, 1.05, 1.3]),
        frac=st.floats(0.0, 1.0),
        cap=st.sampled_from([1, 10, 150]),
    )
    def test_dual_bound_never_exceeds_the_returned_objective(self, seed, n, m, L, radius, frac, cap):
        w = CostWeights(np.eye(n), np.eye(m), q_terminal=np.eye(n), horizon=L)
        T = L + n + m * L + 8
        prob, _, _ = coupled_instance(random_plant(seed, n, m, radius), w, T, 4, seed=seed)
        floor, top = prob.floor, prob.unconstrained_norm
        tau = floor + frac * (top - floor)
        rep = prob.solve(tau, tol=1e-12, max_iter=cap)
        f2 = rep.objective**2
        # Weak duality: the returned point is feasible, the cut is a dual
        # value.  The point meets h1x G = I up to rounding, which moved the
        # objective of the closed form by up to 1.2e-10 relative on 1000
        # draws of these plants.
        assert f2 - cut_value(rep, tau) >= -1e-9 * f2
        assert np.isfinite(rep.gap) and rep.gap >= 0.0
