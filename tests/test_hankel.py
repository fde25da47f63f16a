import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddsls.blockops import matrix_rank
from ddsls.hankel import (
    NotPersistentlyExciting,
    build_hankel,
    first_block_row,
    is_pe,
    reconstruct,
    stacked_rank,
)
from ddsls.lti import average, generate_ensemble, simulate
from ddsls.synth import DataHankels
from tests.conftest import L_BENCH, T_BENCH


def test_build_hankel_scalar_example():
    H = build_hankel(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    np.testing.assert_array_equal(H, np.array([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]]))


def test_build_hankel_zero_signal_shape():
    H = build_hankel(np.zeros((7, 2)), 3)
    assert H.shape == (6, 5)
    assert np.all(H == 0)


def test_build_hankel_bench_shape():
    H = build_hankel(np.zeros((T_BENCH, 3)), L_BENCH)
    assert H.shape == (30, 36)


def test_build_hankel_columns_are_windows():
    rng = np.random.default_rng(0)
    sig = rng.standard_normal((12, 3))
    L = 4
    H = build_hankel(sig, L)
    for t in range(12 - L + 1):
        np.testing.assert_array_equal(H[:, t], sig[t : t + L].reshape(-1))


def test_build_hankel_batch_equals_stacked_hankels():
    sigs = np.random.default_rng(3).standard_normal((5, 12, 3))
    L, cols = 4, 9
    H = build_hankel(sigs, L)
    loop = np.empty((5, 3 * L, cols))
    for i in range(L):
        loop[:, 3 * i : 3 * (i + 1), :] = sigs[:, i : i + cols, :].transpose(0, 2, 1)
    np.testing.assert_array_equal(H, loop)
    np.testing.assert_array_equal(H, np.stack([build_hankel(s, L) for s in sigs]))
    assert H.flags.c_contiguous
    assert build_hankel(sigs[None], L).shape == (1, 5, 3 * L, cols)


def test_build_hankel_is_a_fresh_copy():
    sig = np.arange(6.0)[:, None]
    for L in (1, 6):
        H = build_hankel(sig, L)
        H[...] = -1.0
        np.testing.assert_array_equal(sig[:, 0], np.arange(6.0))


def test_build_hankel_rejects_long_order():
    with pytest.raises(ValueError):
        build_hankel(np.zeros((3, 1)), 4)


def test_first_block_row_matches_top_of_hankel():
    rng = np.random.default_rng(1)
    sig = rng.standard_normal((10, 2))
    H = build_hankel(sig, 4)
    np.testing.assert_array_equal(first_block_row(sig, 4), H[:2])


def test_data_hankels_h1x_is_the_top_block_row_of_hx(plant):
    traj = average(generate_ensemble(plant, T_BENCH, 8, seed=2))
    data = DataHankels.from_trajectory(traj, L_BENCH)
    np.testing.assert_array_equal(data.h1x, first_block_row(traj.x, L_BENCH))
    assert np.shares_memory(data.h1x, data.hx) and data.h1x.flags.c_contiguous


class TestIsPe:
    @settings(max_examples=150, deadline=None)
    @given(
        T=st.integers(1, 14),
        p=st.integers(1, 3),
        order=st.integers(1, 16),
        rank=st.integers(0, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_agrees_with_the_rank_of_the_hankel(self, T, p, order, rank, seed):
        # Signals of at most ``rank`` independent coordinates make rank-deficient Hankels too.
        rng = np.random.default_rng(seed)
        sig = rng.standard_normal((T, rank)) @ rng.standard_normal((rank, p))
        report = is_pe(sig, order)
        want = matrix_rank(build_hankel(sig, order)) if order <= T else 0
        assert report.rank == want
        assert report.required_rank == p * order
        assert report.horizon_feasible == (order <= T and T >= (p + 1) * order - 1)
        # Full row rank alone decides: a horizon too short for the order leaves
        # fewer columns than rows, so it never reaches full rank.
        assert report.excited == (want == p * order)
        assert not report.excited or report.horizon_feasible

    def test_constant_signal_not_pe_order_two(self):
        report = is_pe(np.ones((10, 1)), 2)
        assert not report
        assert report.rank == 1

    def test_zero_signal_not_pe(self):
        assert not is_pe(np.zeros((10, 2)), 1)

    def test_random_inputs_are_pe(self, plant):
        # Order n + L = 13 requires T >= (m+1)(n+L) - 1 = 51 for m = 3.
        order = 13
        T = 4 * order - 1
        hits = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            if is_pe(rng.standard_normal((T, 3)), order):
                hits += 1
        assert hits == 200

    def test_short_horizon_reports_infeasible(self):
        report = is_pe(np.random.default_rng(0).standard_normal((5, 2)), 4)
        assert not report.horizon_feasible
        assert not report.excited

    def test_monotone_in_order(self):
        rng = np.random.default_rng(7)
        sig = rng.standard_normal((30, 1))
        orders = [k for k in range(1, 10)]
        flags = [bool(is_pe(sig, k)) for k in orders]
        # Once PE fails at some order it fails for all larger orders.
        for lower, higher in zip(flags, flags[1:]):
            assert lower or not higher


class TestStackedRank:
    def test_bench_noiseless_data_full_rank(self, plant):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((T_BENCH, 3))
        traj = simulate(plant, np.zeros(3), u)
        rank, full = stacked_rank(traj.x, traj.u, L_BENCH)
        assert full
        assert rank == 3 + 3 * L_BENCH
        assert rank <= T_BENCH - L_BENCH + 1

    def test_zero_input_rank_capped_by_state(self, plant):
        traj = simulate(plant, np.array([1.0, -1.0, 0.5]), np.zeros((20, 3)))
        rank, full = stacked_rank(traj.x, traj.u, 4)
        assert not full
        assert rank <= 3

    def test_narrow_data_cannot_be_full(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((8, 2))
        u = rng.standard_normal((8, 1))
        L = 6  # width 3 < 2 + 6
        rank, full = stacked_rank(x, u, L)
        assert not full

    def test_horizon_mismatch_raises(self):
        with pytest.raises(ValueError):
            stacked_rank(np.zeros((5, 1)), np.zeros((6, 1)), 2)


class TestReconstruct:
    def test_unit_coordinate_returns_data_window(self, plant):
        rng = np.random.default_rng(5)
        u = rng.standard_normal((T_BENCH, 3))
        traj = simulate(plant, np.zeros(3), u)
        L = 5
        j = 7
        g, x_traj, u_traj = reconstruct(
            traj.x[j], traj.u[j : j + L], traj.x, traj.u, L
        )
        np.testing.assert_allclose(x_traj, traj.x[j : j + L], atol=1e-8)
        np.testing.assert_allclose(u_traj, traj.u[j : j + L], atol=1e-8)

    def test_zero_target_gives_zero(self, plant):
        rng = np.random.default_rng(6)
        u = rng.standard_normal((30, 3))
        traj = simulate(plant, np.zeros(3), u)
        g, x_traj, u_traj = reconstruct(np.zeros(3), np.zeros((4, 3)), traj.x, traj.u, 4)
        assert np.abs(g).max() < 1e-10
        assert np.abs(x_traj).max() < 1e-9

    def test_matches_forward_simulation(self, plant):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((T_BENCH, 3))
        traj = simulate(plant, np.zeros(3), u)
        L = L_BENCH
        for seed in range(5):
            r = np.random.default_rng(100 + seed)
            x0 = r.standard_normal(3)
            u_new = r.standard_normal((L, 3))
            _, x_traj, u_traj = reconstruct(x0, u_new, traj.x, traj.u, L)
            oracle = simulate(plant, x0, u_new)
            scale = max(1.0, np.abs(oracle.x).max())
            assert np.abs(x_traj - oracle.x).max() / scale < 1e-8
            np.testing.assert_allclose(u_traj, u_new, atol=1e-8)

    def test_not_pe_raises(self, plant):
        traj = simulate(plant, np.ones(3), np.zeros((20, 3)))
        with pytest.raises(NotPersistentlyExciting):
            reconstruct(np.ones(3), np.ones((4, 3)), traj.x, traj.u, 4)


def test_span_equivalence_between_data_and_simulation(plant):
    """Every combination of Hankel columns is a trajectory and vice versa."""
    rng = np.random.default_rng(8)
    u = rng.standard_normal((T_BENCH, 3))
    traj = simulate(plant, np.zeros(3), u)
    L = L_BENCH
    hx = build_hankel(traj.x, L)
    hu = build_hankel(traj.u, L)

    for seed in range(50):
        r = np.random.default_rng(seed)
        g = r.standard_normal(hx.shape[1])
        x_traj = (hx @ g).reshape(L, 3)
        u_traj = (hu @ g).reshape(L, 3)
        oracle = simulate(plant, x_traj[0], u_traj)
        scale = max(1.0, np.abs(oracle.x).max())
        assert np.abs(x_traj - oracle.x).max() / scale < 1e-8

    for seed in range(50):
        r = np.random.default_rng(1000 + seed)
        sim = simulate(plant, r.standard_normal(3), r.standard_normal((L, 3)))
        _, x_rec, _ = reconstruct(sim.x[0], sim.u, traj.x, traj.u, L)
        scale = max(1.0, np.abs(sim.x).max())
        assert np.abs(x_rec - sim.x).max() / scale < 1e-8
