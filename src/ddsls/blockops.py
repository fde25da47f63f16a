"""Dense block-matrix operators shared by every other module.

All matrices are plain float64 ``numpy`` arrays in row-major order.  The
horizons handled here are small (a few hundred rows at most), so everything
is built densely.  ``spectral_norm`` and ``matrix_rank`` go through the SVD,
which keeps rank decisions reproducible; the batched Hankel norms of
``analysis`` and the spectral-ball projection of ``solver`` go through the
eigenvalues of small Gram matrices instead.

The package's argument checks live here too: ``as_matrix`` for matrix
inputs, and ``_require_count``, ``_require_nonnegative`` and
``_require_finite`` for scalars.  Each names the offending argument and its
value, and NaN fails every range check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "block_diag",
    "block_downshift",
    "obs_stack",
    "toeplitz_stack",
    "spectral_norm",
    "matrix_rank",
    "rank_tolerance",
    "psd_sqrt",
    "LtvOperator",
    "CostWeights",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array and require finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def _require_count(**values: int) -> None:
    """Raise ValueError naming the first argument below 1 or NaN."""
    for name, value in values.items():
        if not value >= 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _require_nonnegative(**values: float) -> None:
    """Raise ValueError naming the first argument that is negative or NaN."""
    for name, value in values.items():
        if not value >= 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")


def _require_finite(**values: float) -> None:
    """Raise ValueError naming the first argument that is infinite or NaN."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def block_diag(blocks) -> np.ndarray:
    """Block-diagonal matrix of 2-D blocks, which need not be square; zero elsewhere."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    out = np.zeros((sum(b.shape[0] for b in blocks), sum(b.shape[1] for b in blocks)))
    r = c = 0
    for b in blocks:
        p, q = b.shape
        out[r : r + p, c : c + q] = b
        r, c = r + p, c + q
    return out


def block_downshift(L: int, n: int) -> np.ndarray:
    """Block-downshift operator: identities on the first block subdiagonal.

    The result is nL x nL, nilpotent of index L (its L-th power vanishes).
    """
    _require_count(L=L, n=n)
    return _downshift(np.eye(n * L), n)


def _downshift(M: np.ndarray, block: int, k: int = 1) -> np.ndarray:
    """Z^k M, Z the downshift by one block of ``block`` rows: M's rows moved down k blocks, zeros above.

    Row slicing, so the entries are M's own; k * block must not exceed M's row count.
    """
    out = np.zeros(M.shape)
    out[k * block :] = M[: M.shape[0] - k * block]
    return out


def obs_stack(A: np.ndarray, L: int) -> np.ndarray:
    """Vertical stack [I; A; A^2; ...; A^(L-1)] of powers of a square matrix."""
    A = as_matrix(A, "A")
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    _require_count(L=L)
    rows = [np.eye(n)]
    for _ in range(L - 1):
        rows.append(A @ rows[-1])
    return np.vstack(rows)


def toeplitz_stack(A: np.ndarray, X: np.ndarray, L: int) -> np.ndarray:
    """Strictly-lower block Toeplitz with block (i, j) = A^(i-j-1) X for i > j.

    A is n x n and X is n x q; the result is nL x qL with zero blocks on and
    above the diagonal.
    """
    A = as_matrix(A, "A")
    X = as_matrix(X, "X")
    n = A.shape[0]
    if A.shape != (n, n) or X.shape[0] != n:
        raise ValueError("A must be square and X must have matching row count")
    _require_count(L=L)
    q = X.shape[1]
    out = np.zeros((n * L, q * L))
    # A^d X for d = 0..L-2; diagonal offset i-j determines the power.
    power = X.copy()
    for d in range(L - 1):
        for j in range(L - 1 - d):
            i = j + d + 1
            out[i * n : (i + 1) * n, j * q : (j + 1) * q] = power
        power = A @ power
    return out


def spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of one matrix."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[0])


def rank_tolerance(singular_values: np.ndarray, shape: tuple[int, int]) -> float:
    """Relative rank threshold max(rows, cols) * eps * sigma_max."""
    if len(singular_values) == 0:
        return 0.0
    return max(shape) * np.finfo(float).eps * float(singular_values[0])


def matrix_rank(M: np.ndarray) -> int:
    """Numerical rank under the shared relative SVD threshold."""
    M = as_matrix(M, "M")
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > rank_tolerance(s, M.shape)))


def psd_sqrt(M: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Symmetric PSD square root via eigendecomposition.

    An eigenvalue below -1e-10 times the largest |eigenvalue| is a negative
    direction and raises ValueError; one above it is rounding, rooted as 0.
    """
    M = as_matrix(M, name)
    if not np.allclose(M, M.T, atol=1e-12, rtol=0.0):
        raise ValueError(f"{name} must be symmetric to 1e-12")
    vals, vecs = np.linalg.eigh(M)
    if vals.min(initial=0.0) < -1e-10 * abs(vals).max(initial=0.0):
        raise ValueError(f"{name} must be positive semidefinite")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _block_max(M: np.ndarray, L: int) -> np.ndarray:
    """(L, L) array of the largest absolute entry of each block of an L x L block grid."""
    return np.abs(M.reshape(L, M.shape[0] // L, L, M.shape[1] // L)).max(axis=(1, 3), initial=0.0)


@dataclass(frozen=True)
class LtvOperator:
    """Causal linear operator over a finite horizon, stored densely.

    The dense matrix is pL x qL, partitioned into L x L blocks of size
    p x q.  Causal operators have zero blocks above the diagonal; strictly
    causal ones are zero on the diagonal as well.
    """

    horizon: int
    block_rows: int
    block_cols: int
    dense: np.ndarray

    def __post_init__(self):
        d = as_matrix(self.dense, "dense")
        expected = (self.block_rows * self.horizon, self.block_cols * self.horizon)
        if d.shape != expected:
            raise ValueError(f"dense has shape {d.shape}, expected {expected}")
        object.__setattr__(self, "dense", d)

    @classmethod
    def from_block_diagonal(cls, blocks: list[np.ndarray]) -> "LtvOperator":
        """Block-diagonal operator from per-step gains (time-varying static map)."""
        if len(blocks) == 0:
            raise ValueError("blocks must hold at least one per-step gain")
        p, q = as_matrix(blocks[0], "block").shape
        return cls(horizon=len(blocks), block_rows=p, block_cols=q, dense=block_diag(blocks))

    def block(self, i: int, j: int) -> np.ndarray:
        p, q = self.block_rows, self.block_cols
        return self.dense[i * p : (i + 1) * p, j * q : (j + 1) * q]

    def is_causal(self, tol: float = 0.0) -> bool:
        """Every block above the diagonal is at most tol in absolute value."""
        return not (_block_max(self.dense, self.horizon)[np.triu_indices(self.horizon, 1)] > tol).any()

    def is_strictly_causal(self, tol: float = 0.0) -> bool:
        """Every block on and above the diagonal is at most tol in absolute value."""
        return not (_block_max(self.dense, self.horizon)[np.triu_indices(self.horizon)] > tol).any()


@dataclass(frozen=True)
class CostWeights:
    """Quadratic state/input weights lifted over a horizon.

    The lifted state weight repeats ``q_state`` on the block diagonal with
    ``q_terminal`` installed in the last block; the lifted input weight
    repeats ``r_input`` on every block.  ``weight_sqrt`` is the one lifted
    form the package builds.
    """

    q_state: np.ndarray
    r_input: np.ndarray
    q_terminal: np.ndarray
    horizon: int

    def __post_init__(self):
        Q = as_matrix(self.q_state, "q_state")
        R = as_matrix(self.r_input, "r_input")
        QF = as_matrix(self.q_terminal, "q_terminal")
        for name, M in (("q_state", Q), ("r_input", R), ("q_terminal", QF)):
            if M.shape[0] != M.shape[1]:
                raise ValueError(f"{name} must be square")
        if QF.shape != Q.shape:
            raise ValueError("q_terminal must match q_state in shape")
        _require_count(horizon=self.horizon)
        # psd_sqrt holds the symmetry and semidefiniteness checks.
        qh, qfh = psd_sqrt(Q, "q_state"), psd_sqrt(QF, "q_terminal")
        if np.linalg.eigvalsh(R).min() <= 0.0:
            raise ValueError("r_input must be positive definite")
        rh = psd_sqrt(R, "r_input")
        L, n, m = self.horizon, Q.shape[0], R.shape[0]
        W = np.zeros(((n + m) * L, (n + m) * L))
        W[: n * L, : n * L] = np.kron(np.eye(L), qh)
        W[(L - 1) * n : n * L, (L - 1) * n : n * L] = qfh
        W[n * L :, n * L :] = np.kron(np.eye(L), rh)
        W.flags.writeable = False
        object.__setattr__(self, "q_state", Q)
        object.__setattr__(self, "r_input", R)
        object.__setattr__(self, "q_terminal", QF)
        object.__setattr__(self, "_root", W)

    @property
    def state_dim(self) -> int:
        return self.q_state.shape[0]

    @property
    def input_dim(self) -> int:
        return self.r_input.shape[0]

    def weight_sqrt(self) -> np.ndarray:
        """blkdiag of the PSD square roots of the lifted state/input weights (read-only, built once)."""
        return self._root
