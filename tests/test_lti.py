import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddsls.lti import (
    Ensemble,
    LtiSystem,
    Trajectory,
    average,
    generate_ensemble,
    load_ensemble,
    load_trajectory_csv,
    save_ensemble,
    save_trajectory_csv,
    simulate,
)
from tests.conftest import SIGMA2, T_BENCH


def transition_error(traj, sys):
    """Max-norm violation of x(t+1) = A x(t) + B u(t) + w(t+1) over a record."""
    pred = traj.x[:-1] @ sys.A.T + traj.u[:-1] @ sys.B.T + traj.w[1:]
    return float(np.abs(traj.x[1:] - pred).max(initial=0.0))


@pytest.mark.parametrize("noise_std", [np.nan, np.inf])
def test_noise_std_must_be_finite_and_nonnegative(noise_std):
    with pytest.raises(ValueError, match="^noise_std "):
        LtiSystem(A=np.eye(2), B=np.eye(2), noise_std=noise_std)


class TestSimulate:
    def test_integrator_copies_input(self):
        sys = LtiSystem(A=np.zeros((2, 2)), B=np.eye(2))
        u = np.arange(10.0).reshape(5, 2)
        traj = simulate(sys, np.zeros(2), u)
        np.testing.assert_array_equal(traj.x[1:], u[:-1])

    def test_all_zero_gives_zero(self, plant):
        traj = simulate(plant, np.zeros(3), np.zeros((12, 3)))
        assert np.abs(traj.x).max() == 0.0

    def test_residual_invariant_with_noise(self, plant):
        rng = np.random.default_rng(42)
        u = rng.standard_normal((T_BENCH, 3))
        noise = plant.noise_std * rng.standard_normal((T_BENCH - 1, 3))
        traj = simulate(plant, np.zeros(3), u, noise=noise)
        assert transition_error(traj, plant) < 1e-12

    def test_initial_condition_embedding(self, plant):
        x0 = np.array([1.0, 2.0, 3.0])
        traj = simulate(plant, x0, np.zeros((5, 3)))
        np.testing.assert_array_equal(traj.w[0], x0)
        np.testing.assert_array_equal(traj.x[0], x0)

    def test_w_process_alignment(self, plant):
        rng = np.random.default_rng(1)
        noise = rng.standard_normal((7, 3))
        traj = simulate(plant, np.zeros(3), np.zeros((8, 3)), noise=noise)
        np.testing.assert_array_equal(traj.w_process[:-1], noise)
        np.testing.assert_array_equal(traj.w_process[-1], np.zeros(3))

    def test_dimension_mismatch(self, plant):
        with pytest.raises(ValueError):
            simulate(plant, np.zeros(3), np.zeros((5, 2)))

    def test_empty_horizon_rejected(self, plant):
        with pytest.raises(ValueError, match="horizon"):
            simulate(plant, np.zeros(3), np.zeros((0, 3)))

    @pytest.mark.parametrize(
        "name, x0, noise", [("x0", np.zeros(2), None), ("noise", np.zeros(3), np.zeros((5, 3)))]
    )
    def test_wrong_size_arguments_rejected_by_name(self, plant, name, x0, noise):
        with pytest.raises(ValueError, match=f"^{name} must hold"):
            simulate(plant, x0, np.zeros((5, 3)), noise=noise)


class TestEnsemble:
    def test_singleton(self, plant):
        ens = generate_ensemble(plant, 10, 1, seed=0)
        assert len(ens) == 1

    def test_shared_input(self, plant):
        ens = generate_ensemble(plant, 15, 5, seed=1)
        assert ens.x.shape == ens.w.shape == (5, 15, 3)
        assert ens.u.shape == (15, 3)

    def test_zero_noise_members_identical(self):
        sys = LtiSystem(A=0.5 * np.eye(2), B=np.eye(2), noise_std=0.0)
        ens = generate_ensemble(sys, 12, 4, seed=2)
        for x in ens.x[1:]:
            np.testing.assert_array_equal(x, ens.x[0])

    def test_seeded_determinism(self, plant):
        a = generate_ensemble(plant, 20, 6, seed=33)
        b = generate_ensemble(plant, 20, 6, seed=33)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.w, b.w)
        np.testing.assert_array_equal(a.u, b.u)

    def test_noise_moments(self, plant):
        # Per-time sample variance of the recorded noise across members.
        ens = generate_ensemble(plant, 30, 400, seed=3)
        W = ens.w_process[:, :-1]
        var = W.var(axis=0).mean()
        assert var == pytest.approx(SIGMA2, rel=0.15)

    def test_every_member_satisfies_dynamics(self, plant):
        ens = generate_ensemble(plant, 25, 8, seed=4)
        for x, w in zip(ens.x, ens.w):
            assert transition_error(Trajectory(x=x, u=ens.u, w=w), plant) < 1e-10


    @pytest.mark.parametrize("field", ["x", "w"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, plant, field, bad):
        ens = generate_ensemble(plant, 6, 2, seed=9)
        arrays = {"x": ens.x.copy(), "w": ens.w.copy()}
        arrays[field][1, 3, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Ensemble(u=ens.u, **arrays)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 5),
        m=st.integers(1, 3),
        T=st.integers(2, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_single_member_is_the_simulated_rollout(self, n, m, T, seed):
        # Both rollouts run one loop: a one-member ensemble replays under
        # simulate bit for bit.
        rng = np.random.default_rng(seed)
        sys = LtiSystem(A=rng.standard_normal((n, n)) / n, B=rng.standard_normal((n, m)), noise_std=0.3)
        ens = generate_ensemble(sys, T, 1, seed)
        traj = simulate(sys, np.zeros(n), ens.u, noise=ens.w[0, 1:])
        np.testing.assert_array_equal(traj.x, ens.x[0])
        np.testing.assert_array_equal(traj.w, ens.w[0])


class TestAverage:
    def test_identity_on_singleton(self, plant):
        ens = generate_ensemble(plant, 10, 1, seed=6)
        avg = average(ens)
        np.testing.assert_array_equal(avg.x, ens.x[0])

    @pytest.mark.parametrize("N", [1, 8, 128])
    def test_average_input_is_the_shared_input(self, plant, N):
        ens = generate_ensemble(plant, T_BENCH, N, seed=12)
        assert np.array_equal(average(ens).u, ens.u)

    def test_average_satisfies_dynamics(self, plant):
        ens = generate_ensemble(plant, 40, 32, seed=7)
        avg = average(ens)
        assert transition_error(avg, plant) < 1e-10

    def test_average_commutes_with_simulation(self, plant):
        ens = generate_ensemble(plant, 30, 16, seed=8)
        avg = average(ens)
        resim = simulate(plant, avg.x[0], avg.u, noise=avg.w[1:])
        assert np.abs(resim.x - avg.x).max() < 1e-10

    def test_variance_shrinks_as_one_over_N(self, plant):
        # Var of each averaged-noise coordinate is sigma^2 / N.
        N = 100
        samples = []
        for seed in range(300):
            ens = generate_ensemble(plant, 6, N, seed=seed)
            samples.append(average(ens).w_process[:-1])
        var = np.stack(samples).var(axis=0).mean()
        assert var == pytest.approx(SIGMA2 / N, rel=0.15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Ensemble(x=np.zeros((0, 5, 2)), w=np.zeros((0, 5, 2)), u=np.zeros((5, 1)))

    def test_empty_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            Ensemble(x=np.zeros((3, 0, 2)), w=np.zeros((3, 0, 2)), u=np.zeros((0, 1)))

    def test_generate_empty_horizon_rejected(self, plant):
        with pytest.raises(ValueError, match="horizon"):
            generate_ensemble(plant, 0, 4, seed=0)


class TestSerialization:
    def test_trajectory_roundtrip(self, plant, tmp_path):
        rng = np.random.default_rng(9)
        traj = simulate(
            plant,
            rng.standard_normal(3),
            rng.standard_normal((12, 3)),
            noise=rng.standard_normal((11, 3)),
        )
        path = tmp_path / "traj.csv"
        save_trajectory_csv(traj, str(path))
        back = load_trajectory_csv(str(path))
        np.testing.assert_allclose(back.x, traj.x, rtol=0, atol=0)
        np.testing.assert_allclose(back.u, traj.u, rtol=0, atol=0)
        np.testing.assert_allclose(back.w, traj.w, rtol=0, atol=0)

    def test_ensemble_roundtrip_with_manifest(self, plant, tmp_path):
        ens = generate_ensemble(plant, 10, 3, seed=11)
        out = tmp_path / "ens"
        save_ensemble(ens, str(out), sigma2=SIGMA2)
        back, manifest = load_ensemble(str(out))
        assert manifest == {"n": 3, "m": 3, "T": 10, "N": 3, "sigma2": SIGMA2, "seed": 11}
        np.testing.assert_array_equal(back.x, ens.x)
        np.testing.assert_array_equal(back.w, ens.w)
        np.testing.assert_array_equal(back.u, ens.u)

    def test_load_rejects_members_with_different_inputs(self, plant, tmp_path):
        ens = generate_ensemble(plant, 10, 3, seed=11)
        out = tmp_path / "ens"
        save_ensemble(ens, str(out), sigma2=SIGMA2)
        other = simulate(plant, np.zeros(3), ens.u + 1.0)
        save_trajectory_csv(other, str(out / "trajectory_0002.csv"))
        with pytest.raises(ValueError, match="share the input"):
            load_ensemble(str(out))

    def test_trajectory_csv_bytes(self, tmp_path):
        traj = Trajectory(
            x=np.array([[0.1, 2.0], [1.0 / 3.0, -4e-20]]),
            u=np.array([[5.0], [-0.5]]),
            w=np.array([[0.1, 2.0], [1e300, 7.0]]),
        )
        path = tmp_path / "traj.csv"
        save_trajectory_csv(traj, str(path))
        assert path.read_bytes() == (
            b"t,x0,x1,u0,w0,w1\n"
            b"0,0.10000000000000001,2,5,0.10000000000000001,2\n"
            b"1,0.33333333333333331,-3.9999999999999998e-20,-0.5,1.0000000000000001e+300,7\n"
        )

    def test_csv_cells_render_none_as_nan_and_bools_as_digits(self, tmp_path):
        from ddsls.lti import _write_csv

        path = tmp_path / "cells.csv"
        rows = [[None, True, False, np.True_, 0.1], [3, np.False_, 2.5, "x", None]]
        _write_csv(str(path), ["a", "b", "c", "d", "e"], rows)
        assert path.read_bytes() == b"a,b,c,d,e\nnan,1,0,1,0.10000000000000001\n3,0,2.5,x,nan\n"

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory(x=np.zeros((5, 2)), u=np.zeros((5, 1)), w=np.ones((5, 2)))

    def test_trajectory_empty_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            Trajectory(x=np.zeros((0, 2)), u=np.zeros((0, 2)), w=np.zeros((0, 2)))

    def test_concurrent_writers_leave_a_complete_file(self, tmp_path):
        import sys
        import threading

        from ddsls.lti import _atomic_write

        path = str(tmp_path / "out.csv")
        texts = ["a" * 200_000 + "\n", "b" * 300_000 + "\n"]
        errors: list[BaseException] = []
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(40):
                barrier = threading.Barrier(len(texts))

                def write(text):
                    try:
                        barrier.wait(timeout=10)
                        _atomic_write(path, text)
                    except BaseException as exc:  # reported through the list below
                        errors.append(exc)

                threads = [threading.Thread(target=write, args=(t,)) for t in texts]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert not errors
                with open(path) as fh:
                    assert fh.read() in texts
        finally:
            sys.setswitchinterval(old_interval)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]
