"""Model-based optimal-control oracle.

Finite-horizon Riccati recursion, the discrete algebraic Riccati fixed
point used as a terminal weight, the optimal system responses and their
cost, and recovery of the block-diagonal data parameterization of those
optimal responses from noiseless trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .blockops import CostWeights, LtvOperator, spectral_norm
from .hankel import _min_norm_solve
from .lti import LtiSystem
from .sls import SystemResponsePair, responses_from_controller, sls_cost

__all__ = [
    "RiccatiSolution",
    "riccati_finite",
    "dare",
    "optimal_responses",
    "GStar",
    "recover_gstar",
]


@dataclass(frozen=True)
class RiccatiSolution:
    """Backward-recursion gains K_t and value matrices P_t, t = 0..L-1."""

    gains: list
    value_mats: list

    def controller(self) -> LtvOperator:
        """The gains as a block-diagonal causal operator u(t) = K_t x(t)."""
        return LtvOperator.from_block_diagonal(self.gains)


def riccati_finite(sys: LtiSystem, weights: CostWeights) -> RiccatiSolution:
    """Finite-horizon LQR backward recursion.

    The stage cost applies the state weight at t = 0..L-2, the terminal
    weight at t = L-1, and the input weight at every t.  The input at the
    final step influences nothing inside the horizon, so its optimal gain
    is zero and P_{L-1} equals the terminal weight.
    """
    A, B = sys.A, sys.B
    Q, R, QF, L = weights.q_state, weights.r_input, weights.q_terminal, weights.horizon
    n, m = sys.state_dim, sys.input_dim
    if Q.shape[0] != n or R.shape[0] != m:
        raise ValueError("weights do not match system dimensions")
    gains = [np.zeros((m, n))] * L
    values = [None] * L
    values[L - 1] = QF.copy()
    gains[L - 1] = np.zeros((m, n))
    for t in range(L - 2, -1, -1):
        P_next = values[t + 1]
        S = R + B.T @ P_next @ B
        K = -np.linalg.solve(S, B.T @ P_next @ A)
        P = Q + A.T @ P_next @ A + A.T @ P_next @ B @ K
        values[t] = 0.5 * (P + P.T)
        gains[t] = K
    return RiccatiSolution(gains=gains, value_mats=values)


def dare(sys: LtiSystem, Q: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Fixed point of the Riccati map by iteration from P = Q.

    Stops when no entry moves by more than 1e-12 times max(1, largest
    entry).  Converges for stabilizable dynamics with detectable state
    weight; raises with the residual attached if 100 000 iterations pass
    first.
    """
    A, B = sys.A, sys.B
    Q = np.asarray(Q, dtype=float)
    R = np.asarray(R, dtype=float)
    P = Q.copy()
    for _ in range(100_000):
        S = R + B.T @ P @ B
        APB = A.T @ P @ B
        P_next = Q + A.T @ P @ A - APB @ np.linalg.solve(S, APB.T)
        P_next = 0.5 * (P_next + P_next.T)
        if np.abs(P_next - P).max() <= 1e-12 * max(1.0, np.abs(P_next).max()):
            return P_next
        P = P_next
    residual = float(np.abs(P_next - P).max())
    raise RuntimeError(f"Riccati iteration did not converge; last residual {residual:.3e}")


def optimal_responses(sys: LtiSystem, weights: CostWeights) -> tuple[SystemResponsePair, float]:
    """Optimal system responses and their cost under the given weights."""
    sol = riccati_finite(sys, weights)
    responses = responses_from_controller(sys, sol.controller())
    return responses, sls_cost(responses, weights)


@dataclass(frozen=True)
class GStar:
    """Block-diagonal data parameterization of the optimal responses.

    Block k maps the data columns to the optimal impulse response entering
    at step k; reassembling through the downshift stack applied to the data
    Hankels reproduces the optimal responses exactly.
    """

    blocks: list

    @cached_property
    def norm(self) -> float:
        """Spectral norm, computed once; equals the largest block norm by block-diagonality."""
        return max(spectral_norm(b) for b in self.blocks)


def recover_gstar(hx: np.ndarray, hu: np.ndarray, responses: SystemResponsePair) -> GStar:
    """Recover the minimum-norm block-diagonal parameterization from data.

    ``hx`` and ``hu`` are the order-L Hankels of a noiseless, persistently
    exciting record.  Block k solves the shift-truncated system: only the
    leading L-k window blocks of a response column survive the k-step
    downshift of the assembly, so block k is the minimum-norm solution of
    the correspondingly truncated stacked-Hankel equation, from one SVD
    that also checks its rank.  Raises NotPersistentlyExciting, naming the
    block, when that rank is below n + m(L - k).
    """
    L, n, m = responses.horizon, responses.state_dim, responses.input_dim
    cols = hx.shape[1]
    if hu.shape[1] != cols:
        raise ValueError("state and input Hankels must share column count")
    blocks = []
    for k in range(L):
        keep = L - k
        target_x = responses.phi_x.dense[k * n :, k * n : (k + 1) * n]
        target_u = responses.phi_u.dense[k * m :, k * n : (k + 1) * n]
        stack = np.vstack([hx[: n * keep], hu[: m * keep]])
        rhs = np.vstack([target_x, target_u])
        blocks.append(_min_norm_solve(stack, rhs, n + m * keep, f"the data of block {k}"))
    return GStar(blocks=blocks)
