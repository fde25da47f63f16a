import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddsls import analysis
from ddsls.analysis import (
    BoundInputs,
    TailParams,
    bootstrap_epsilon,
    eps_precondition,
    hankel_norms_of_signals,
    lipschitz_shift,
    sample_complexity,
    suboptimality_bound,
    tail_bound_lipschitz,
    tail_bound_lipschitz_at,
    tail_bound_matrix,
)
from ddsls.blockops import spectral_norm
from ddsls.hankel import build_hankel
from ddsls.lti import LtiSystem, generate_ensemble
from tests.conftest import L_BENCH, T_BENCH


class TestEpsPrecondition:
    def test_unit_inputs(self):
        assert eps_precondition(1.0, 1, 1.0) == pytest.approx(1.0 / 3.0)

    def test_homogeneity_in_parameter_norm(self):
        assert eps_precondition(2.0, 4, 3.0) == pytest.approx(
            0.5 * eps_precondition(1.0, 4, 3.0)
        )

    def test_zero_norm_unbounded(self):
        with pytest.warns(UserWarning):
            assert eps_precondition(0.0, 5, 2.0) == math.inf

    @pytest.mark.parametrize(
        "name, args",
        [("L", (1.0, 0, 1.0)), ("gstar_norm", (-1.0, 5, 1.0)), ("gstar_norm", (math.nan, 5, 1.0))],
    )
    def test_invalid_arguments_rejected_by_name(self, name, args):
        with pytest.raises(ValueError, match=f"^{name} "):
            eps_precondition(*args)

    def test_bench_values_finite(self, plant, bench_weights):
        from ddsls.blockops import toeplitz_stack
        from ddsls.lqg import optimal_responses, recover_gstar
        from ddsls.lti import simulate

        rng = np.random.default_rng(0)
        traj = simulate(plant, np.zeros(3), rng.standard_normal((T_BENCH, 3)))
        resp_star, _ = optimal_responses(plant, bench_weights)
        gstar = recover_gstar(
            build_hankel(traj.x, L_BENCH), build_hankel(traj.u, L_BENCH), resp_star
        )
        toep = spectral_norm(toeplitz_stack(plant.A, np.eye(3), T_BENCH - L_BENCH + 1))
        eps_max = eps_precondition(gstar.norm, L_BENCH, toep)
        assert 0 < eps_max < 1


def _inputs(eps, g=2.0, L=10, T=45, obs=3.0, toep=40.0, q=0.1, jstar=1.2):
    return BoundInputs(
        gstar_norm=g, eps=eps, L=L, T=T, obsnorm=obs, toepnorm=toep, qhalf_frob=q, jstar=jstar
    )


class TestSuboptimalityBound:
    def test_zero_eps_zero_bound(self):
        b = suboptimality_bound(_inputs(0.0))
        assert b.value == 0.0
        assert b.certified

    def test_linear_in_eps(self):
        eps = 1e-4
        b1 = suboptimality_bound(_inputs(eps))
        b2 = suboptimality_bound(_inputs(2 * eps))
        assert b2.value == pytest.approx(2 * b1.value, rel=1e-12)

    def test_monotone_in_norm_inputs(self):
        base = suboptimality_bound(_inputs(1e-4)).value
        assert suboptimality_bound(_inputs(1e-4, g=3.0)).value > base
        assert suboptimality_bound(_inputs(1e-4, obs=5.0)).value > base
        assert suboptimality_bound(_inputs(1e-4, toep=50.0)).value > base

    def test_uncertified_when_eps_too_large(self):
        eps_max = eps_precondition(2.0, 10, 40.0)
        assert suboptimality_bound(_inputs(eps_max * 1.01)).certified is False
        assert suboptimality_bound(_inputs(eps_max * 0.99)).certified is True

    def test_uncertified_for_short_horizon(self):
        b = suboptimality_bound(_inputs(1e-6, T=15, L=10))
        assert not b.certified

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError, match="^eps "):
            suboptimality_bound(BoundInputs(1.0, -1.0, 3, 10, 1.0, 1.0, 1.0, 1.0))

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("eps", {"eps": math.nan}),
            ("gstar_norm", {"eps": 1e-4, "g": math.nan}),
            ("jstar", {"eps": 1e-4, "jstar": math.nan}),
            ("obsnorm", {"eps": 1e-4, "obs": math.nan}),
            ("qhalf_frob", {"eps": 1e-4, "q": math.nan}),
        ],
    )
    def test_nan_input_rejected_by_name(self, name, kwargs):
        with pytest.raises(ValueError, match=f"^{name} "):
            suboptimality_bound(_inputs(**kwargs))


class TestTailBounds:
    P = TailParams(n=3, T=45, N=100, sigma2=0.1)

    def test_matrix_bound_at_zero(self):
        assert tail_bound_matrix(0.0, self.P) == 1.0

    def test_matrix_bound_boundary_threshold(self):
        # Threshold making the exponent cancel the 2nT prefactor exactly.
        p = self.P
        t = math.sqrt(2 * p.sigma2 * p.n * p.T * math.log(2 * p.n * p.T) / p.N)
        assert tail_bound_matrix(t, p) == pytest.approx(1.0)
        assert tail_bound_matrix(t * 1.01, p) < 1.0

    def test_matrix_bound_monotone(self):
        ts = np.linspace(0, 3, 30)
        vals = [tail_bound_matrix(t, self.P) for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_lipschitz_bound_at_zero(self):
        assert tail_bound_lipschitz(0.0, self.P) == 1.0

    def test_lipschitz_threshold_shrinks_with_N(self):
        small = TailParams(n=3, T=45, N=10, sigma2=0.1)
        large = TailParams(n=3, T=45, N=100_000, sigma2=0.1)
        assert lipschitz_shift(large) < lipschitz_shift(small)
        assert tail_bound_lipschitz_at(0.5, large) < 1e-10

    def test_zero_noise_degenerate(self):
        p = TailParams(n=3, T=45, N=10, sigma2=0.0)
        assert tail_bound_matrix(0.0, p) == 1.0
        assert tail_bound_matrix(0.1, p) == 0.0

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("n", {"n": 0}),
            ("T", {"T": 0}),
            ("N", {"N": 0}),
            ("sigma2", {"sigma2": -0.1}),
            ("sigma2", {"sigma2": math.nan}),
        ],
    )
    def test_invalid_params_rejected_by_name(self, name, kwargs):
        with pytest.raises(ValueError, match=f"^{name} "):
            TailParams(**{"n": 3, "T": 45, "N": 100, "sigma2": 0.1, **kwargs})

    def test_monte_carlo_dominance_desk_scale(self):
        # Small pilot of the full acceptance check.
        p = self.P
        rng = np.random.default_rng(1)
        wbars = math.sqrt(p.sigma2 / p.N) * rng.standard_normal((400, p.T, p.n))
        norms = hankel_norms_of_signals(wbars, L_BENCH)
        for t in np.linspace(0.0, norms.max() * 1.2, 10):
            empirical = float(np.mean(norms >= t))
            assert empirical <= tail_bound_matrix(float(t), p) + 1e-12
            assert empirical <= tail_bound_lipschitz_at(float(t), p) + 1e-12


class TestSampleComplexity:
    def test_monotone_decreasing_in_delta(self):
        lo = sample_complexity(0.01, 2.0, 10, 40.0, 3, 45, 0.1)
        hi = sample_complexity(0.5, 2.0, 10, 40.0, 3, 45, 0.1)
        assert lo >= hi

    def test_zero_noise_single_sample(self):
        assert sample_complexity(0.05, 2.0, 10, 40.0, 3, 45, 0.0) == 1

    def test_self_consistency_with_precondition(self):
        N = sample_complexity(0.05, 2.0, 10, 40.0, 3, 45, 0.1)
        implied = math.sqrt(2 * 0.1 * 3 * 45 * math.log(2 * 3 * 45 / 0.05) / N)
        assert implied <= eps_precondition(2.0, 10, 40.0) * (1 + 1e-12)

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            sample_complexity(1.5, 1.0, 5, 1.0, 2, 20, 0.1)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("gstar_norm", -2.0),
            ("L", 0),
            ("toepnorm", -40.0),
            ("n", 0),
            ("T", 0),
            ("sigma2", -0.1),
            ("gstar_norm", math.nan),
            ("sigma2", math.nan),
            ("gstar_norm", math.inf),
            ("toepnorm", math.inf),
            ("sigma2", math.inf),
        ],
    )
    def test_invalid_arguments_rejected_by_name(self, name, value):
        args = {"gstar_norm": 2.0, "L": 10, "toepnorm": 40.0, "n": 3, "T": 45, "sigma2": 0.1}
        with pytest.raises(ValueError, match=f"^{name} "):
            sample_complexity(0.05, **{**args, name: value})

    def test_inconsistent_precondition_raises(self, monkeypatch):
        # The check survives python -O, which strips asserts.
        monkeypatch.setattr(analysis, "eps_precondition", lambda *args: 1e-12)
        with pytest.raises(RuntimeError, match="above the precondition"):
            sample_complexity(0.05, 2.0, 10, 40.0, 3, 45, 0.1)


class TestBootstrapEpsilon:
    def test_zero_noise_zero_estimate(self):
        sys = LtiSystem(A=0.3 * np.eye(2), B=np.eye(2), noise_std=0.0)
        ens = generate_ensemble(sys, 20, 8, seed=0)
        assert bootstrap_epsilon(ens, 4, resamples=50, seed=1) < 1e-12

    def test_requires_two_members(self, plant):
        ens = generate_ensemble(plant, 20, 1, seed=2)
        with pytest.raises(ValueError):
            bootstrap_epsilon(ens, 4)

    def test_deterministic_under_seed(self, plant):
        ens = generate_ensemble(plant, T_BENCH, 16, seed=3)
        a = bootstrap_epsilon(ens, L_BENCH, resamples=200, seed=7)
        b = bootstrap_epsilon(ens, L_BENCH, resamples=200, seed=7)
        assert a == b

    def test_median_estimate_shrinks_with_N(self, plant):
        medians = []
        for N in (4, 16, 64):
            vals = [
                bootstrap_epsilon(
                    generate_ensemble(plant, T_BENCH, N, seed=100 + N + k),
                    L_BENCH,
                    resamples=200,
                    statistic="noise",
                    seed=k,
                )
                for k in range(10)
            ]
            medians.append(np.median(vals))
        assert medians[0] > medians[1] > medians[2]

    def test_noise_statistic_tracks_realized_norm_scale(self, plant):
        ens = generate_ensemble(plant, T_BENCH, 64, seed=4)
        from ddsls.lti import average

        avg = average(ens)
        realized = spectral_norm(build_hankel(avg.w_process, L_BENCH))
        est = bootstrap_epsilon(ens, L_BENCH, resamples=400, statistic="noise", seed=5)
        assert 0.3 * realized < est < 3.0 * realized

    def test_unknown_statistic_rejected(self, plant):
        ens = generate_ensemble(plant, 20, 4, seed=6)
        with pytest.raises(ValueError):
            bootstrap_epsilon(ens, 4, statistic="bogus")


def test_hankel_norms_match_direct_construction():
    rng = np.random.default_rng(8)
    sigs = rng.standard_normal((5, 12, 2))
    norms = hankel_norms_of_signals(sigs, 3)
    for b in range(5):
        direct = spectral_norm(build_hankel(sigs[b], 3))
        assert norms[b] == pytest.approx(direct, rel=1e-12)


def _member_batches(B, T, p, seed, zero_share, tie_share, repeat_share, scaled_share):
    """A (B, T, p) signal batch mixing Gaussian members with all-zero members,
    members whose top two Gram eigenvalues tie exactly, repeats of the
    previous member and members scaled by 1e-100 or 1e100."""
    rng = np.random.default_rng(seed)
    signals = rng.standard_normal((B, T, p))
    kind = rng.random(B)
    zero = kind < zero_share
    tie = (kind >= zero_share) & (kind < zero_share + tie_share)
    signals[zero] = 0.0
    # An impulse at t = 1 fills block rows 0 and 1 of columns 1 and 0 with
    # one value, so the Gram is diagonal with two equal top entries.
    signals[tie] = 0.0
    signals[tie, 1, 0] = rng.uniform(0.5, 2.0, size=int(tie.sum()))
    repeat = rng.random(B) < repeat_share
    repeat[0] = False
    for i in np.flatnonzero(repeat):
        signals[i] = signals[i - 1]
    scaled = rng.random(B) < scaled_share
    signals[scaled] *= rng.choice([1e-100, 1e100], size=int(scaled.sum()))[:, None, None]
    return signals


class TestHankelNormPercentile:
    batches = dict(
        B=st.sampled_from([1, 2, 21, 101, 1000]),
        T=st.integers(3, 30),
        p=st.integers(1, 3),
        L=st.integers(2, 10),
        seed=st.integers(0, 2**32 - 1),
        zero_share=st.sampled_from([0.0, 0.05, 0.5, 1.0]),
        tie_share=st.sampled_from([0.0, 0.1, 0.5]),
        repeat_share=st.sampled_from([0.0, 0.2]),
        scaled_share=st.sampled_from([0.0, 0.1, 0.5]),
    )

    @settings(max_examples=100, deadline=None)
    @given(**batches)
    def test_brackets_hold_the_exact_top_eigenvalue(self, B, T, p, L, **kinds):
        L = min(L, T - 1)
        signals = _member_batches(B, T, p, **kinds)
        lower, upper = analysis._top_eigenvalue_brackets(signals, L)
        exact = np.linalg.eigvalsh(analysis._grams(signals, L))[:, -1]
        assert np.all(lower <= exact) and np.all(exact <= upper)
        assert np.all(lower >= 0.0)
        zero = ~signals.any(axis=(1, 2))
        assert np.all(upper[zero] == 0.0)

    @settings(max_examples=100, deadline=None)
    @given(**batches)
    def test_percentile_equals_the_exact_one_bit_for_bit(self, B, T, p, L, **kinds):
        L = min(L, T - 1)
        signals = _member_batches(B, T, p, **kinds)
        exact = float(np.percentile(hankel_norms_of_signals(signals, L), 95.0))
        assert analysis._hankel_norm_percentile(signals, L, 95.0) == exact

    def test_bootstrap_uses_few_exact_norms(self, plant, monkeypatch):
        ens = generate_ensemble(plant, T_BENCH, 64, seed=9)
        exact_counts = []
        norms = analysis.hankel_norms_of_signals

        def counting(signals, L):
            exact_counts.append(len(signals))
            return norms(signals, L)

        monkeypatch.setattr(analysis, "hankel_norms_of_signals", counting)
        bootstrap_epsilon(ens, L_BENCH, resamples=1000, statistic="noise", seed=3)
        assert exact_counts and exact_counts[0] < 100
