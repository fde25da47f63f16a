import numpy as np
import pytest

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
        assert traj.dynamics_residual(plant) < 1e-12

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


class TestEnsemble:
    def test_singleton(self, plant):
        ens = generate_ensemble(plant, 10, 1, seed=0)
        assert len(ens) == 1

    def test_shared_input(self, plant):
        ens = generate_ensemble(plant, 15, 5, seed=1)
        u0 = ens.trajectories[0].u
        for tr in ens.trajectories[1:]:
            np.testing.assert_array_equal(tr.u, u0)

    def test_zero_noise_members_identical(self):
        sys = LtiSystem(A=0.5 * np.eye(2), B=np.eye(2), noise_std=0.0)
        ens = generate_ensemble(sys, 12, 4, seed=2)
        for tr in ens.trajectories[1:]:
            np.testing.assert_array_equal(tr.x, ens.trajectories[0].x)

    def test_seeded_determinism(self, plant):
        a = generate_ensemble(plant, 20, 6, seed=33)
        b = generate_ensemble(plant, 20, 6, seed=33)
        for ta, tb in zip(a.trajectories, b.trajectories):
            np.testing.assert_array_equal(ta.x, tb.x)
            np.testing.assert_array_equal(ta.w, tb.w)

    def test_noise_moments(self, plant):
        # Per-time sample variance of the recorded noise across members.
        ens = generate_ensemble(plant, 30, 400, seed=3)
        W = np.stack([tr.w_process[:-1] for tr in ens.trajectories])
        var = W.var(axis=0).mean()
        assert var == pytest.approx(SIGMA2, rel=0.15)

    def test_every_member_satisfies_dynamics(self, plant):
        ens = generate_ensemble(plant, 25, 8, seed=4)
        for tr in ens.trajectories:
            assert tr.dynamics_residual(plant) < 1e-10

    def test_independent_inputs_flagged(self, plant):
        ens = generate_ensemble(plant, 12, 3, seed=5, replay_input=False)
        assert not ens.shared_input
        with pytest.raises(ValueError):
            average(ens)


class TestAverage:
    def test_identity_on_singleton(self, plant):
        ens = generate_ensemble(plant, 10, 1, seed=6)
        avg = average(ens)
        np.testing.assert_array_equal(avg.x, ens.trajectories[0].x)

    def test_average_satisfies_dynamics(self, plant):
        ens = generate_ensemble(plant, 40, 32, seed=7)
        avg = average(ens)
        assert avg.dynamics_residual(plant) < 1e-10

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
            Ensemble(trajectories=[])


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
        for ta, tb in zip(ens.trajectories, back.trajectories):
            np.testing.assert_array_equal(ta.x, tb.x)

    def test_trajectory_validation(self):
        with pytest.raises(ValueError):
            Trajectory(x=np.zeros((5, 2)), u=np.zeros((5, 1)), w=np.ones((5, 2)))

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
