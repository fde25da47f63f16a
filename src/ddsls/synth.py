"""Data-driven synthesis of finite-horizon controllers from Hankel data.

The parameter matrix G is an L x L grid of (cols x n) blocks, zero above
the diagonal, with every diagonal block mapped to the identity and every
lower block to zero by the top block row of the state Hankel.  Responses
are assembled by applying the downshift-power stack to copies of the data
Hankels:

    phi_x = [I Z ... Z^{L-1}] (I_L (x) H_L(x)) G,   similarly for phi_u,

and [I Z ... Z^{L-1}] (I_L (x) H) is the shift stack [H, Z H, ..., Z^{L-1} H]
of ``_shift_stack``.  Every use of the layout reads that one stack: the
weighted cost map the solver minimizes over is W times the stacked state
and input shift stacks, the responses are the shift stacks times G, and the
achievability perturbation is the shift stack of the once-downshifted noise
Hankel times G.  Blocks of G above the diagonal, which the structure check
lets through up to its tolerance, are set to zero before any product.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .blockops import CostWeights, LtvOperator, block_diag, spectral_norm
from .hankel import NotPersistentlyExciting, _data_rank, build_hankel
from .lti import Trajectory
from .sls import _STRUCT_TOL, Perturbation, SystemResponsePair, recover_controller
from .solver import (
    BlockDiagonalProblem,
    CoupledCausalProblem,
    GammaSearchResult,
    gamma_search,
)

__all__ = [
    "DataHankels",
    "SynthesisResult",
    "synth_robust",
    "assemble_responses",
    "assemble_delta",
    "stacked_cost_map",
    "structure_residual",
]


@dataclass(frozen=True)
class DataHankels:
    """Order-L Hankel views of one trajectory record.

    ``h1x``, the top block row of ``hx``, is a view of it, not a second
    build.  ``hw`` is the Hankel of the process-noise signal aligned to
    injection time; it exists for verification and for oracle noise bounds,
    never as a synthesis input.
    """

    hx: np.ndarray
    hu: np.ndarray
    L: int
    n: int
    m: int
    hw: np.ndarray

    def __post_init__(self):
        if self.hx.shape[0] != self.n * self.L or self.hu.shape[0] != self.m * self.L:
            raise ValueError("Hankel heights disagree with (n, m, L)")
        if self.hx.shape[1] != self.hu.shape[1]:
            raise ValueError("state and input Hankels must share column count")

    @classmethod
    def from_trajectory(cls, traj: Trajectory, L: int) -> "DataHankels":
        return cls(
            hx=build_hankel(traj.x, L),
            hu=build_hankel(traj.u, L),
            L=L,
            n=traj.state_dim,
            m=traj.input_dim,
            hw=build_hankel(traj.w_process, L),
        )

    @property
    def h1x(self) -> np.ndarray:
        return self.hx[: self.n]

    @property
    def cols(self) -> int:
        return self.hx.shape[1]


@dataclass(frozen=True)
class SynthesisResult:
    """Synthesized parameter matrix with its responses and controller."""

    ghat: np.ndarray
    gamma: float | None
    responses: SystemResponsePair
    controller: LtvOperator
    objective: float
    eps: float
    mode: str
    structure: str
    f_value: float
    search: GammaSearchResult
    timings: dict = field(default_factory=dict)

    @property
    def ghat_norm(self) -> float:
        return spectral_norm(self.ghat)

    def summary(self) -> dict:
        return {
            "mode": self.mode,
            "structure": self.structure,
            "gamma": self.gamma,
            "objective": self.objective,
            "f_value": self.f_value,
            "eps": self.eps,
            "ghat_norm": self.ghat_norm,
            "status": self.search.status,
            "iterations": self.search.iterations,
            "gap": self.search.gap,
            "search_gap": self.search.search_gap,
            "search": [asdict(p) for p in self.search.grid],  # every inner solve, the final one last
            "timings": self.timings,
        }


def _shift_stack(H: np.ndarray, L: int, block: int) -> np.ndarray:
    """[H, Z H, ..., Z^{L-1} H], Z the downshift by one block of ``block`` rows."""
    rows, cols = H.shape
    out = np.zeros((rows, L * cols))
    for k in range(L):
        out[k * block :, k * cols : (k + 1) * cols] = H[: rows - k * block]
    return out


def stacked_cost_map(data: DataHankels, weights: CostWeights) -> np.ndarray:
    """Weighted stacked assembly map W [shift(hx); shift(hu)] of size (n+m)L x cols*L.

    Multiplying it by a parameter matrix yields the weighted stacked
    responses.
    """
    L, cols = data.L, data.cols
    S = np.vstack([_shift_stack(data.hx, L, data.n), _shift_stack(data.hu, L, data.m)])
    W = weights.weight_sqrt()
    # One product per column block: each block of the map is W times that
    # block alone, so its rounding does not depend on L.
    return np.hstack([W @ S[:, k * cols : (k + 1) * cols] for k in range(L)])


def _block_grid(data: DataHankels, ghat: np.ndarray) -> np.ndarray:
    """The (L, L, cols, n) view of ghat whose entry [i, j] is the block G(i, j)."""
    L, cols, n = data.L, data.cols, data.n
    if ghat.shape != (cols * L, n * L):
        raise ValueError(f"ghat must be {cols * L} x {n * L}, got {ghat.shape}")
    return ghat.reshape(L, cols, L, n).transpose(0, 2, 1, 3)


def _causal_part(data: DataHankels, ghat: np.ndarray) -> np.ndarray:
    """Gc: ghat with its blocks above the diagonal set to zero."""
    lower = np.tri(data.L, dtype=bool)[:, :, None, None]
    return np.where(lower, _block_grid(data, ghat), 0.0).transpose(0, 2, 1, 3).reshape(ghat.shape)


def _structure_residuals(data: DataHankels, ghat: np.ndarray) -> np.ndarray:
    """(L, L) array of the residual of every parameter block.

    On and below the diagonal the residual is max |h1x G(i, j) - target|,
    target I on the diagonal and 0 below it; above the diagonal it is
    max |G(i, j)|.
    """
    L, n = data.L, data.n
    blocks = _block_grid(data, ghat)
    target = np.eye(L)[:, :, None, None] * np.eye(n)
    return np.where(
        np.triu(np.ones((L, L), dtype=bool), 1),
        np.abs(blocks).max(axis=(2, 3)),
        np.abs(np.matmul(data.h1x, blocks) - target).max(axis=(2, 3)),
    )


def structure_residual(data: DataHankels, ghat: np.ndarray) -> float:
    """Largest residual of the block structure over every block of ghat."""
    return float(_structure_residuals(data, ghat).max())


def _validate_structure(data: DataHankels, ghat: np.ndarray) -> None:
    err = _structure_residuals(data, ghat)
    upper = np.triu(np.ones(err.shape, dtype=bool), 1)
    scale = max(1.0, np.abs(ghat).max(initial=0.0))
    bad = np.argwhere(err > np.where(upper, _STRUCT_TOL * scale, _STRUCT_TOL))
    if bad.size:
        i, j = bad[0]  # the first in row-major order
        if upper[i, j]:
            raise ValueError(f"parameter block ({i},{j}) above the diagonal is nonzero")
        raise ValueError(f"parameter block ({i},{j}) violates its data constraint by {err[i, j]:.3e}")


def assemble_responses(data: DataHankels, ghat: np.ndarray) -> SystemResponsePair:
    """Approximate system responses shift(hx) Gc and shift(hu) Gc of a structured parameter."""
    _validate_structure(data, ghat)
    Gc = _causal_part(data, ghat)
    L, n, m = data.L, data.n, data.m
    return SystemResponsePair(
        phi_x=LtvOperator(L, n, n, _shift_stack(data.hx, L, n) @ Gc),
        phi_u=LtvOperator(L, m, n, _shift_stack(data.hu, L, m) @ Gc),
    )


def assemble_delta(data: DataHankels, ghat: np.ndarray) -> Perturbation:
    """Achievability perturbation induced by the recorded noise Hankel ``data.hw``.

    Applies the same assembly as the responses to the once-downshifted
    noise Hankel; the result is strictly causal and obeys
    ||delta||_2 <= sqrt(L) * ||hw||_2 * ||ghat||_2.
    """
    L, n, hw = data.L, data.n, data.hw
    shifted = np.vstack([np.zeros((n, hw.shape[1])), hw[:-n]])
    delta = _shift_stack(shifted, L, n) @ _causal_part(data, ghat)
    return Perturbation(delta=LtvOperator(L, n, n, delta))


def _build_problem(data: DataHankels, weights: CostWeights, structure: str):
    cmap = stacked_cost_map(data, weights)
    if structure == "blockdiag":
        return BlockDiagonalProblem(cmap, data.h1x)
    if structure == "full":
        return CoupledCausalProblem(cmap, data.h1x)
    raise ValueError(f"unknown structure {structure!r}")


def _require_excitation(data: DataHankels) -> None:
    if not _data_rank(data.h1x, data.hu)[1]:
        raise NotPersistentlyExciting(
            "stacked data matrix is rank deficient; input is not persistently exciting"
        )


def synth_robust(
    data: DataHankels,
    weights: CostWeights,
    eps: float,
    mode: str = "robust",
    structure: str = "blockdiag",
    grid_points: int = 16,
    gamma_tol: float = 1e-4,
    tol: float = 1e-7,
    max_iter: int = 10_000,
) -> SynthesisResult:
    """Robust synthesis from noisy data under a noise-Hankel norm budget.

    ``mode="robust"`` solves the quasi-convex program whose objective
    f(gamma)/(1-gamma) upper-bounds the cost achieved on the true system
    whenever the realized noise Hankel norm stays within ``eps``.  With
    ``eps = 0`` the ball is vacuous and the closed form at gamma = 0 is
    returned: noise-free synthesis, which on noise-free data reproduces the
    model-based optimum.  ``mode="naive"`` drops the norm constraint
    entirely, i.e. solves at eps = 0 whatever ``eps`` is (gamma is reported
    as None); this reproduces the unregularized fit.

    gamma comes from ``solver.gamma_search`` over the inner problem of the
    chosen ``structure``, the same search for both; its docstring holds the
    scan, step and stopping rules, and ``grid_points``, ``gamma_tol``,
    ``tol`` and ``max_iter`` are passed to it unchanged.  Its record is
    ``search``; its certificate is ``search.search_gap``, not ``gamma_tol``.

    Before the search, data that are not persistently exciting raise
    ``NotPersistentlyExciting``, and weights that do not fit the data, a
    NaN or negative ``eps``, or an unknown ``mode`` or ``structure`` raise
    ``ValueError``.
    After it, ``ghat`` is the search's solution, for blockdiag the block
    diagonal of its blocks, and the responses and the controller are
    assembled from it.
    """
    _require_excitation(data)
    for name, have, want in (
        ("horizon", weights.horizon, data.L),
        ("state_dim", weights.state_dim, data.n),
        ("input_dim", weights.input_dim, data.m),
    ):
        if have != want:
            raise ValueError(f"weights {name} {have} does not match the data's {want}")
    if not eps >= 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    if mode not in ("robust", "naive"):
        raise ValueError(f"unknown mode {mode!r}")
    start = time.perf_counter()
    search = gamma_search(
        _build_problem(data, weights, structure),
        eps if mode == "robust" else 0.0,
        grid_points=grid_points,
        gamma_tol=gamma_tol,
        tol=tol,
        max_iter=max_iter,
    )
    # Blockdiag solutions are the stack of the diagonal blocks.
    ghat = block_diag(search.solution) if structure == "blockdiag" else search.solution
    responses = assemble_responses(data, ghat)
    return SynthesisResult(
        ghat=ghat,
        gamma=search.gamma if mode == "robust" else None,
        responses=responses,
        controller=recover_controller(responses),
        objective=search.objective,
        eps=eps,
        mode=mode,
        structure=structure,
        f_value=search.f_value,
        search=search,
        timings={"solve_s": time.perf_counter() - start},
    )
