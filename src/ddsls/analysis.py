"""Closed-form performance/concentration bounds and bootstrap estimation.

The noise budget eps enters the robust synthesis program as a spectral-norm
bound on the (unmeasured) order-L noise Hankel.  This module evaluates the
admissible-eps precondition, the end-to-end relative suboptimality bound,
two Gaussian tail bounds on the averaged noise Hankel norm, the sample-size
rule they imply, and a bootstrap percentile estimator of eps from an
ensemble.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .blockops import (
    CostWeights,
    _require_count,
    _require_finite,
    _require_nonnegative,
    obs_stack,
    psd_sqrt,
    spectral_norm,
    toeplitz_stack,
)
from .hankel import build_hankel
from .lqg import optimal_responses
from .lti import Ensemble, LtiSystem
from .sls import SystemResponsePair

__all__ = [
    "BoundInputs",
    "BoundValue",
    "eps_precondition",
    "suboptimality_bound",
    "TailParams",
    "tail_bound_matrix",
    "tail_bound_lipschitz",
    "lipschitz_shift",
    "tail_bound_lipschitz_at",
    "sample_complexity",
    "bootstrap_epsilon",
    "hankel_norms_of_signals",
]


def eps_precondition(gstar_norm: float, L: int, toepnorm: float) -> float:
    """Largest noise budget for which the suboptimality bound is certified.

    Returns min{ 1 / (3 sqrt(L) g), 1 / (2 g t) } for g the optimal
    parameter norm and t the strictly-lower Toeplitz stack norm.  A zero g
    (degenerate cost) makes the budget unbounded; L < 1 or a negative norm
    raises ValueError.
    """
    _require_count(L=L)
    _require_nonnegative(gstar_norm=gstar_norm, toepnorm=toepnorm)
    if gstar_norm == 0:
        warnings.warn("zero parameter norm: eps precondition is unbounded")
        return math.inf
    first = 1.0 / (3.0 * math.sqrt(L) * gstar_norm)
    second = math.inf if toepnorm == 0 else 1.0 / (2.0 * gstar_norm * toepnorm)
    return min(first, second)


@dataclass(frozen=True)
class BoundInputs:
    """Norm and cost data entering the relative suboptimality bound."""

    gstar_norm: float
    eps: float
    L: int
    T: int
    obsnorm: float
    toepnorm: float
    qhalf_frob: float
    jstar: float


@dataclass(frozen=True)
class BoundValue:
    value: float
    certified: bool


def suboptimality_bound(b: BoundInputs) -> BoundValue:
    """Relative suboptimality bound (J_hat - J_star) / J_star.

    6 g eps ( 2 sqrt(L) + t + L (1 + o) q t / J_star )

    with g the optimal parameter norm, t the Toeplitz stack norm, o the
    observability stack norm, and q the Frobenius norm of the square-root
    state weight.  The value is certified only when eps passes
    :func:`eps_precondition` and the data horizon satisfies T >= 2L + 1.
    A jstar that is not positive, or a negative or NaN eps, obsnorm or
    qhalf_frob, raises ValueError.
    """
    if not b.jstar > 0:
        raise ValueError(f"jstar must be positive for the relative bound, got {b.jstar}")
    _require_nonnegative(eps=b.eps, obsnorm=b.obsnorm, qhalf_frob=b.qhalf_frob)
    value = (
        6.0
        * b.gstar_norm
        * b.eps
        * (
            2.0 * math.sqrt(b.L)
            + b.toepnorm
            + b.L * (1.0 + b.obsnorm) * b.qhalf_frob * b.toepnorm / b.jstar
        )
    )
    certified = b.eps <= eps_precondition(b.gstar_norm, b.L, b.toepnorm) and b.T >= 2 * b.L + 1
    return BoundValue(value=value, certified=certified)


def _plant_terms(sys: LtiSystem, weights: CostWeights, T: int) -> tuple[SystemResponsePair, dict]:
    """The optimal responses and the bound's inputs that the data do not change.

    The dict holds every :class:`BoundInputs` field but ``gstar_norm`` and
    ``eps``, so ``BoundInputs(gstar_norm=g, eps=e, **terms)`` completes it;
    the Toeplitz stack spans the T - L + 1 columns of an order-L Hankel.
    """
    L = weights.horizon
    responses, jstar = optimal_responses(sys, weights)
    return responses, {
        "L": L,
        "T": T,
        "obsnorm": spectral_norm(obs_stack(sys.A, L)),
        "toepnorm": spectral_norm(toeplitz_stack(sys.A, np.eye(sys.state_dim), T - L + 1)),
        "qhalf_frob": float(np.linalg.norm(psd_sqrt(weights.q_state))),
        "jstar": jstar,
    }


@dataclass(frozen=True)
class TailParams:
    """Parameters of the averaged-noise Hankel norm tail."""

    n: int
    T: int
    N: int
    sigma2: float

    def __post_init__(self):
        _require_count(n=self.n, T=self.T, N=self.N)
        _require_nonnegative(sigma2=self.sigma2)


def tail_bound_matrix(t: float, p: TailParams) -> float:
    """Matrix-series tail: P[ ||H_L(w_bar)||_2 >= t ] <= 2nT exp(-t^2 N / (2 sigma^2 n T))."""
    _require_nonnegative(t=t)
    if p.sigma2 == 0:
        return 1.0 if t == 0 else 0.0
    exponent = -(t * t) * p.N / (2.0 * p.sigma2 * p.n * p.T)
    return min(1.0, 2.0 * p.n * p.T * math.exp(exponent))


def lipschitz_shift(p: TailParams) -> float:
    """Mean-level offset sigma T / sqrt(N) of the Lipschitz tail bound."""
    return math.sqrt(p.sigma2) * p.T / math.sqrt(p.N)


def tail_bound_lipschitz(t: float, p: TailParams) -> float:
    """Lipschitz-concentration tail at the shifted threshold.

    Bounds P[ ||H_L(w_bar)||_2 >= t + sigma T / sqrt(N) ] by
    exp(-t^2 N / (sigma^2 T)).
    """
    _require_nonnegative(t=t)
    if p.sigma2 == 0:
        return 1.0 if t == 0 else 0.0
    return min(1.0, math.exp(-(t * t) * p.N / (p.sigma2 * p.T)))


def tail_bound_lipschitz_at(threshold: float, p: TailParams) -> float:
    """Lipschitz tail re-expressed on the absolute threshold axis."""
    _require_nonnegative(threshold=threshold)
    shift = lipschitz_shift(p)
    if threshold <= shift:
        return 1.0
    return tail_bound_lipschitz(threshold - shift, p)


def sample_complexity(
    delta: float,
    gstar_norm: float,
    L: int,
    toepnorm: float,
    n: int,
    T: int,
    sigma2: float,
) -> int:
    """Trajectory count ensuring the certified-eps event with probability 1 - delta.

    N >= 2 sigma^2 n T log(2nT/delta) max{ 9 L g^2, 4 g^2 t^2 }.

    Inverting the matrix tail bound at this N produces a noise budget that
    meets the eps precondition; a miss of that self-consistency raises ``RuntimeError``.
    Dimensions below 1 and negative, NaN or infinite norms or noise variance
    raise ValueError.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    _require_count(L=L, n=n, T=T)
    _require_nonnegative(gstar_norm=gstar_norm, toepnorm=toepnorm, sigma2=sigma2)
    _require_finite(gstar_norm=gstar_norm, toepnorm=toepnorm, sigma2=sigma2)
    # By the matrix tail bound, the noise Hankel norm exceeds sqrt(quantile / N) with probability <= delta.
    quantile = 2.0 * sigma2 * n * T * math.log(2.0 * n * T / delta)
    N = max(1, math.ceil(quantile * max(9.0 * L * gstar_norm**2, 4.0 * (gstar_norm * toepnorm) ** 2)))
    if sigma2 > 0 and gstar_norm > 0:
        implied_eps = math.sqrt(quantile / N)
        if implied_eps > eps_precondition(gstar_norm, L, toepnorm) * (1 + 1e-12):
            raise RuntimeError(f"sample size {N} implies eps {implied_eps:.6g} above the precondition")
    return N


def _grams(signals: np.ndarray, L: int) -> np.ndarray:
    """Grams H H^T of the order-L Hankels of a (B, T, p) signal batch.

    Each Gram is its own BLAS product, so a member's Gram does not depend on
    the batch it is built in; the bootstrap's exact percentile rests on that.
    """
    H = build_hankel(signals, L)
    return np.matmul(H, H.transpose(0, 2, 1))


def hankel_norms_of_signals(signals: np.ndarray, L: int) -> np.ndarray:
    """Spectral norms of the order-L Hankels of a (B, T, p) signal batch, through H H^T."""
    # Chunks of 250 keep the Hankels and their Grams small beside the batch;
    # the clip keeps a zero Hankel's rounding-level negative eigenvalue at 0.
    chunks = np.split(signals, np.arange(250, len(signals), 250))
    top = np.concatenate([np.linalg.eigvalsh(_grams(c, L))[:, -1] for c in chunks])
    return np.sqrt(np.maximum(top, 0.0))


# Relative widening of both bounds of a top-eigenvalue bracket.  It covers
# the rounding of the bounds and of eigvalsh, both near 1e-13 of the top
# eigenvalue for Grams of order up to a few hundred.
_BRACKET_MARGIN = 1e-6


def _top_eigenvalue_brackets(signals: np.ndarray, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the top Gram eigenvalue of each order-L Hankel of a signal batch.

    With s = tr G and A = G / s, the top eigenvalue l of G satisfies
    s v'Av / v'v <= l <= s (tr A^16)^(1/16), for v the column of A^8 with the
    largest diagonal entry (a Rayleigh quotient, and tr A^16 = ||A^8||_F^2 >= (l/s)^16).
    Both bounds are widened by ``_BRACKET_MARGIN`` relative, so they hold the
    value that eigvalsh returns; a zero Gram gets the bracket [0, 0].
    """
    lower, upper = [], []
    for chunk in np.split(signals, np.arange(100, len(signals), 100)):
        G = _grams(chunk, L)
        s = np.trace(G, axis1=1, axis2=2)
        A = np.divide(G, s[:, None, None], out=G, where=s[:, None, None] > 0)
        A8 = A @ A
        A8 = A8 @ A8
        A8 = A8 @ A8
        upper.append(s * np.einsum("bij,bij->b", A8, A8) ** 0.0625 * (1 + _BRACKET_MARGIN))
        j = np.argmax(np.diagonal(A8, axis1=1, axis2=2), axis=1)
        v = np.take_along_axis(A8, j[:, None, None], axis=2)[..., 0]
        vv = np.einsum("bi,bi->b", v, v)
        vav = np.einsum("bi,bij,bj->b", v, A, v)
        rayleigh = np.divide(vav, vv, out=np.zeros_like(vv), where=vv > 0)
        lower.append(s * rayleigh * (1 - _BRACKET_MARGIN))
    return np.concatenate(lower), np.concatenate(upper)


def _hankel_norm_percentile(signals: np.ndarray, L: int, q: float) -> float:
    """``np.percentile(hankel_norms_of_signals(signals, L), q)``, bit for bit, from few eigvalsh calls.

    The percentile interpolates the order statistics of ranks k and k + 1
    (ranks count from 0), k = floor((B - 1) q / 100).  The window runs from the (k - 1)-th smallest
    lower bound to the (k + 2)-th smallest upper bound (one rank of slack on
    each side, so no rounding of k matters) and holds both.  A member whose
    bracket meets the window gets its exact norm; any other lies wholly below
    or above it and stands in with the bound on its own side.  The count of
    values below each point of the window is then the exact one, and so are
    the order statistics inside it.
    """
    lower, upper = _top_eigenvalue_brackets(signals, L)
    B = len(lower)
    k = math.floor((B - 1) * (q / 100))
    window_lo = np.partition(lower, max(k - 1, 0))[max(k - 1, 0)]
    window_hi = np.partition(upper, min(k + 2, B - 1))[min(k + 2, B - 1)]
    below = upper < window_lo
    norms = np.sqrt(np.maximum(np.where(below, upper, lower), 0.0))
    exact = np.flatnonzero(~below & (lower <= window_hi))
    norms[exact] = hankel_norms_of_signals(signals[exact], L)
    return float(np.percentile(norms, q))


def bootstrap_epsilon(
    ens: Ensemble,
    L: int,
    resamples: int = 1000,
    statistic: str = "deviation",
    seed: int | None = None,
) -> float:
    """Bootstrap 95th-percentile estimate of the averaged-noise Hankel norm.

    Each resample averages member deviations from the ensemble mean and
    records the spectral norm of the order-L Hankel of that averaged
    deviation; the 95th percentile over all resamples is returned.

    ``statistic="deviation"`` uses state deviations from the mean
    trajectory, which are exactly the responses to the member noise
    deviations because the input is shared; this needs no noise record.
    ``statistic="noise"`` resamples the recorded noise signals themselves
    and estimates the sampling variability of the averaged noise Hankel
    norm directly (used to validate coverage and to budget the robust
    synthesis in experiments where the noise is logged).

    Resamples are half-size subsets drawn without replacement, rescaled to
    the variance of a full-size mean.  A spectral norm is a supremum
    statistic, and plain with-replacement resampling is known to inflate its
    quantiles through the anisotropy of the shared empirical covariance;
    subsampling avoids that and keeps the percentile close to nominal.

    The percentile is exact: it equals ``np.percentile`` of every resample's
    norm from :func:`hankel_norms_of_signals`, bit for bit.  Cheap bounds on
    each resample's top Gram eigenvalue (three batched matrix squarings)
    pick the few resamples that can sit at the two order statistics the
    percentile interpolates; only those get an exact eigvalsh.  The bounds
    are widened by a relative margin of 1e-6 against rounding.
    """
    N = len(ens)
    if N < 2:
        raise ValueError(f"bootstrap requires at least two trajectories, got {N}")
    _require_count(resamples=resamples)
    if statistic == "deviation":
        members = ens.x
    elif statistic == "noise":
        members = ens.w_process
    else:
        raise ValueError(f"unknown statistic {statistic!r}")
    deviations = members - members.mean(axis=0, keepdims=True)
    flat = deviations.reshape(N, -1)

    rng = np.random.default_rng(seed)
    m = max(1, N // 2)
    keys = rng.random((resamples, N))
    take = np.argpartition(keys, m - 1, axis=1)[:, :m]
    sel = np.zeros((resamples, N))
    np.put_along_axis(sel, take, 1.0, axis=1)
    # Finite-population rescale so a mean of m distinct members matches
    # the sampling variance of a fresh mean of N members.
    means = (sel @ flat) * (np.sqrt(m * (N - 1) / (N - m)) / (m * np.sqrt(N)))
    means = means.reshape(resamples, *deviations.shape[1:])
    return _hankel_norm_percentile(means, L, 95.0)
