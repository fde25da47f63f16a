"""Hankel matrices, persistence of excitation, and trajectory reconstruction.

A signal is a (T, p) array: one row per time step, p coordinates per sample.
The order-L Hankel matrix of a signal stacks the L-step sliding windows as
columns, giving a pL x (T - L + 1) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blockops import matrix_rank, rank_tolerance

__all__ = [
    "build_hankel",
    "first_block_row",
    "PeReport",
    "is_pe",
    "stacked_rank",
    "reconstruct",
    "NotPersistentlyExciting",
]


class NotPersistentlyExciting(RuntimeError):
    """Raised when data lacks the rank needed for reconstruction/synthesis."""


def _as_signal(sig, name: str = "signal", batch: bool = False) -> np.ndarray:
    """``sig`` as a float (T, p) array, a 1-D signal as one column; with ``batch``, (..., T, p) too."""
    s = np.asarray(sig, dtype=float)
    if s.ndim == 1:
        s = s[:, None]
    if s.ndim < 2 or (s.ndim > 2 and not batch):
        raise ValueError(f"{name} must be (T, p), got shape {s.shape}")
    return s


def build_hankel(signal: np.ndarray, L: int) -> np.ndarray:
    """Order-L block Hankel matrix of a (T, p) signal, or of each in a (..., T, p) batch.

    Column t is the stacked window signal[t : t + L]; a batch gives a
    (..., pL, T - L + 1) stack.  Raises ValueError when L exceeds the
    signal horizon.
    """
    s = _as_signal(signal, batch=True)
    *batch, T, p = s.shape
    if L < 1:
        raise ValueError("L must be >= 1")
    if L > T:
        raise ValueError(f"Hankel order {L} exceeds signal horizon {T}")
    windows = np.lib.stride_tricks.sliding_window_view(s, L, axis=-2)  # (..., cols, p, L)
    return np.swapaxes(windows, -1, -3).copy().reshape(*batch, p * L, T - L + 1)


def first_block_row(signal: np.ndarray, L: int) -> np.ndarray:
    """The top block row of the order-L Hankel: the signal's first T - L + 1 samples as columns.

    Identity constraints on it align column-for-column with the order-L matrix.
    """
    s = _as_signal(signal)
    return build_hankel(s, L)[: s.shape[1]]


@dataclass(frozen=True)
class PeReport:
    """Rank report for a persistence-of-excitation check."""

    excited: bool
    rank: int
    required_rank: int
    horizon_feasible: bool

    def __bool__(self) -> bool:
        return self.excited


def is_pe(signal: np.ndarray, order: int) -> PeReport:
    """Check persistence of excitation of the given order.

    The signal is PE of order ``order`` when its order-``order`` Hankel
    matrix has full row rank p * order.  A horizon shorter than
    (p + 1) * order - 1 cannot satisfy this; such inputs are reported with
    ``horizon_feasible=False`` rather than raising.
    """
    s = _as_signal(signal)
    T, p = s.shape
    if order < 1:
        raise ValueError("order must be >= 1")
    required = p * order
    rank = matrix_rank(build_hankel(s, order)) if order <= T else 0
    feasible = order <= T and T >= (p + 1) * order - 1
    # An infeasible horizon leaves fewer columns than rows; only a signal of no coordinates is full rank there.
    return PeReport(
        excited=feasible and rank == required, rank=rank, required_rank=required, horizon_feasible=feasible
    )


def stacked_rank(x: np.ndarray, u: np.ndarray, L: int) -> tuple[int, bool]:
    """Rank of the stacked [first_block_row(x); build_hankel(u, L)] matrix.

    Full rank n + mL is the operative richness condition for reconstructing
    arbitrary initial states and input sequences from the data.
    """
    xs = _as_signal(x, "x")
    us = _as_signal(u, "u")
    if xs.shape[0] != us.shape[0]:
        raise ValueError("x and u must share the same horizon")
    return _data_rank(first_block_row(xs, L), build_hankel(us, L))


def _data_rank(h1x: np.ndarray, hu: np.ndarray) -> tuple[int, bool]:
    """Rank of [h1x; hu] and whether it is full row rank n + mL."""
    stack = np.vstack([h1x, hu])
    r = matrix_rank(stack)
    return r, r == stack.shape[0]


def reconstruct(
    x0: np.ndarray,
    u_target: np.ndarray,
    x_data: np.ndarray,
    u_data: np.ndarray,
    L: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reconstruct the L-step trajectory from data that starts at ``x0``
    under the input sequence ``u_target``.

    Solves the minimum-norm g with [H_1(x); H_L(u)] g = [x0; vec(u_target)]
    and returns (g, x_traj, u_traj) where the trajectories are read off the
    order-L Hankel matrices of the data.  One SVD of the stacked data matrix
    gives both its rank and its pseudo-inverse; a rank below n + mL raises
    NotPersistentlyExciting.
    """
    xs = _as_signal(x_data, "x_data")
    us = _as_signal(u_data, "u_data")
    n, m = xs.shape[1], us.shape[1]
    u_target = np.asarray(u_target, dtype=float).reshape(L, m)
    x0 = np.asarray(x0, dtype=float).reshape(n)

    hx, hu = build_hankel(xs, L), build_hankel(us, L)
    rhs = np.concatenate([x0, u_target.reshape(-1)])
    g = _min_norm_solve(np.vstack([hx[:n], hu]), rhs, n + m * L, "stacked data matrix")
    x_traj = (hx @ g).reshape(L, n)
    u_traj = (hu @ g).reshape(L, m)
    return g, x_traj, u_traj


def _min_norm_solve(stack: np.ndarray, rhs: np.ndarray, required: int, label: str) -> np.ndarray:
    """Minimum-norm solution of ``stack @ g = rhs`` from one SVD of ``stack``.

    Raises NotPersistentlyExciting, naming ``label``, when the rank under the
    shared relative threshold is below ``required``.  The pseudo-inverse
    uses np.linalg.pinv's 1e-15 cutoff and arithmetic.
    """
    u, s, vt = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s > rank_tolerance(s, stack.shape)))
    if rank < required:
        raise NotPersistentlyExciting(
            f"{label} has rank {rank} < {required}; data is not persistently exciting to the required order"
        )
    inv = np.divide(1.0, s, where=s > 1e-15 * s[0], out=np.zeros_like(s))
    return np.matmul(vt.T, inv[:, None] * u.T) @ rhs
