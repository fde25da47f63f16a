"""Closed-loop system-response algebra over a finite horizon.

A causal state-feedback controller K (an mL x nL block-lower-triangular
operator) induces the responses

    phi_x = (I - Z (A_lift + B_lift K))^{-1},    phi_u = K phi_x,

mapping the stacked disturbance (initial state followed by process noise)
to the stacked state and input trajectories.  Everything here works with
those dense response matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockops import CostWeights, LtvOperator, _block_max, block_downshift, obs_stack, toeplitz_stack
from .hankel import build_hankel
from .lti import LtiSystem, Trajectory

__all__ = [
    "SystemResponsePair",
    "Perturbation",
    "achievability_map",
    "responses_from_controller",
    "achievability_residual",
    "recover_controller",
    "sls_cost",
    "expected_cost",
    "closed_loop",
    "noise_accumulation",
    "hankel_decomposition_residual",
]

_STRUCT_TOL = 1e-6


@dataclass(frozen=True)
class SystemResponsePair:
    """Responses (phi_x, phi_u): disturbance-to-state and disturbance-to-input."""

    phi_x: LtvOperator
    phi_u: LtvOperator

    def __post_init__(self):
        px, pu = self.phi_x, self.phi_u
        if px.block_rows != px.block_cols:
            raise ValueError("phi_x must have square blocks")
        if px.horizon != pu.horizon or pu.block_cols != px.block_cols:
            raise ValueError("phi_x and phi_u must share horizon and block columns")
        if not px.is_causal(_STRUCT_TOL) or not pu.is_causal(_STRUCT_TOL):
            raise ValueError("responses must be causal (block lower triangular)")
        diagonal = np.diagonal(_block_max(px.dense - np.eye(px.dense.shape[0]), px.horizon))
        if (diagonal > _STRUCT_TOL).any():
            raise ValueError("phi_x must have identity diagonal blocks")

    @property
    def horizon(self) -> int:
        return self.phi_x.horizon

    @property
    def state_dim(self) -> int:
        return self.phi_x.block_rows

    @property
    def input_dim(self) -> int:
        return self.phi_u.block_rows

    def stacked(self) -> np.ndarray:
        return np.vstack([self.phi_x.dense, self.phi_u.dense])


@dataclass(frozen=True)
class Perturbation:
    """Strictly causal achievability error of approximate responses."""

    delta: LtvOperator

    def __post_init__(self):
        if self.delta.block_rows != self.delta.block_cols:
            raise ValueError("delta must have square blocks")
        if not self.delta.is_strictly_causal(_STRUCT_TOL):
            raise ValueError("delta must be strictly causal (zero diagonal blocks)")


def achievability_map(sys: LtiSystem, L: int) -> np.ndarray:
    """The constraint operator [(I - Z A_lift)  -Z B_lift] of size nL x (n+m)L."""
    n = sys.state_dim
    Z = block_downshift(L, n)
    left = np.eye(n * L) - Z @ np.kron(np.eye(L), sys.A)
    right = -(Z @ np.kron(np.eye(L), sys.B))
    return np.hstack([left, right])


def responses_from_controller(sys: LtiSystem, K: LtvOperator) -> SystemResponsePair:
    """Exact closed-loop responses of a causal controller over its horizon.

    The matrix I - Z (A_lift + B_lift K) is unit lower triangular, so LU of
    its transpose picks no pivot and the inverse comes from plain back
    substitution: its blocks above the diagonal are exactly zero and its
    diagonal blocks exactly the identity.
    """
    n, m, L, Kd = sys.state_dim, sys.input_dim, K.horizon, K.dense
    if Kd.shape != (m * L, n * L):
        raise ValueError(f"controller must be {m * L} x {n * L}, got {Kd.shape}")
    Z = block_downshift(L, n)
    closed = np.eye(n * L) - Z @ (np.kron(np.eye(L), sys.A) + np.kron(np.eye(L), sys.B) @ Kd)
    phi_x = np.linalg.solve(closed.T, np.eye(n * L)).T
    phi_u = Kd @ phi_x
    return SystemResponsePair(
        phi_x=LtvOperator(L, n, n, phi_x),
        phi_u=LtvOperator(L, m, n, phi_u),
    )


def achievability_residual(responses: SystemResponsePair, sys: LtiSystem) -> float:
    """Max-norm of [(I - Z A_lift)  -Z B_lift] [phi_x; phi_u] - I."""
    L = responses.horizon
    n = sys.state_dim
    res = achievability_map(sys, L) @ responses.stacked() - np.eye(n * L)
    return float(np.abs(res).max())


def recover_controller(responses: SystemResponsePair) -> LtvOperator:
    """Controller K = phi_u phi_x^{-1} realizing the given responses."""
    L, n, m = responses.horizon, responses.state_dim, responses.input_dim
    # Solve K phi_x = phi_u through the transposed upper triangular system;
    # only that triangle of phi_x^T is read, and LU on it picks no pivot.
    Kd = np.linalg.solve(np.triu(responses.phi_x.dense.T), responses.phi_u.dense.T).T
    return LtvOperator(L, m, n, Kd)


def sls_cost(responses: SystemResponsePair, weights: CostWeights) -> float:
    """Frobenius norm of the weighted stacked responses.

    The squaring and the noise-variance scaling of the expected quadratic
    cost are dropped; use :func:`expected_cost` to convert back.
    """
    if weights.horizon != responses.horizon:
        raise ValueError("weights horizon must match responses")
    return float(np.linalg.norm(weights.weight_sqrt() @ responses.stacked()))


def expected_cost(cost: float, noise_std: float) -> float:
    """Expected quadratic cost of a response with the given disturbance level."""
    return (noise_std * cost) ** 2


def closed_loop(sys: LtiSystem, K: LtvOperator, w_stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Simulate u = K x feedback against a disturbance realization.

    ``w_stacked`` is the nL vector [x(0); w(0); ...; w(L-2)].  Returns the
    stacked state and input trajectories actually realized on the system.
    """
    n, m, L = sys.state_dim, sys.input_dim, K.horizon
    w = np.asarray(w_stacked, dtype=float).reshape(L, n)
    x = np.empty((L, n))
    u = np.empty((L, m))
    x[0] = w[0]
    for t in range(L):
        u[t] = sum(K.block(t, s) @ x[s] for s in range(t + 1))
        if t + 1 < L:
            x[t + 1] = sys.A @ x[t] + sys.B @ u[t] + w[t + 1]
    return x.reshape(-1), u.reshape(-1)


def noise_accumulation(A: np.ndarray, w_process: np.ndarray, count: int) -> np.ndarray:
    """Accumulated free noise responses W(t) = sum_{k<t} A^{t-1-k} w(k).

    Returns the n x count matrix [W(0) ... W(count-1)] with W(0) = 0.
    """
    A = np.asarray(A, dtype=float)
    w = np.asarray(w_process, dtype=float)
    n = A.shape[0]
    out = np.zeros((n, count))
    for t in range(count - 1):
        out[:, t + 1] = A @ out[:, t] + w[t]
    return out


def hankel_decomposition_residual(
    sys: LtiSystem, noiseless: Trajectory, noisy: Trajectory, L: int
) -> float:
    """Residual of the noisy/noiseless Hankel decomposition.

    For two rollouts of the same system sharing the input and initial
    state, the order-L state Hankels differ by a strictly-lower Toeplitz
    convolution of the noise Hankel plus the observability stack applied to
    the accumulated noise:

        H_L(x_noisy) - H_L(x) - T_L(I) H_L(w) - O_L(A) [W(0) ... W(T-L)]

    This should vanish identically; the max-norm of the expression is
    returned as a verification statistic.
    """
    if noiseless.horizon != noisy.horizon:
        raise ValueError("trajectories must share the horizon")
    if np.abs(noiseless.u - noisy.u).max(initial=0.0) > 0:
        raise ValueError("trajectories must share the input signal")
    if np.abs(noiseless.x[0] - noisy.x[0]).max(initial=0.0) > 0:
        raise ValueError("trajectories must share the initial state")
    T = noisy.horizon
    n = noisy.state_dim
    w = noisy.w_process
    hx_noisy = build_hankel(noisy.x, L)
    hx = build_hankel(noiseless.x, L)
    hw = build_hankel(w, L)
    acc = noise_accumulation(sys.A, w, T - L + 1)
    res = hx_noisy - hx - toeplitz_stack(sys.A, np.eye(n), L) @ hw - obs_stack(sys.A, L) @ acc
    return float(np.abs(res).max())
