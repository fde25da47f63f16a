"""Optimization engine for the data-driven synthesis programs.

Three layers:

* ``eq_ls`` — equality-constrained Frobenius least squares in closed form
  (nullspace method on top of an SVD of the constraint matrix).
* ``spectral_admm`` — the same problem with an additional spectral-norm
  ball on the variable, solved by operator splitting: the quadratic step
  stays closed-form on the constraint nullspace, the ball projection clips
  singular values.
* ``gamma_search`` — the outer scalar search for the quasi-convex program
  min f(gamma) / (1 - gamma), where f(gamma) is the inner optimal value
  with ball radius gamma / (sqrt(L) * eps): a coarse grid followed by
  golden-section refinement of the bracketing interval.  Its status is the
  worst status of the inner solves at the returned gamma.

The same splitting runs in three shapes: ``ConstrainedLeastSquares`` (one
dense block), ``BlockDiagonalProblem`` (independent diagonal blocks in
lockstep) and ``CoupledCausalProblem`` (the full causal block-triangular
variable).  The coupled one never forms the Kronecker basis of its free
blocks: the affine projection applies the nullspace projector P = N N^T to
each block row, and the quadratic step of block column j uses the Woodbury
identity on K_j = C_j (I (x) P) C_j^T, one small (rows x rows)
eigendecomposition per block column made once at build.  Its ball
projection goes through the eigendecomposition of the small right Gram
matrix (``ball_projection_batch``), and its returned point is blended
toward the minimum-norm feasible point so that it lies in the ball exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EqualityConstraint",
    "InnerProblem",
    "SolveReport",
    "ball_projection",
    "eq_ls",
    "spectral_admm",
    "ConstrainedLeastSquares",
    "BlockDiagonalProblem",
    "CoupledCausalProblem",
    "ball_projection_batch",
    "GammaSearchResult",
    "gamma_search",
    "InfeasibleEpsilon",
    "golden_section",
]

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
# Inner solve statuses from best to worst.
_STATUS_RANK = ("optimal", "max-iter", "infeasible")


class InfeasibleEpsilon(RuntimeError):
    """No gamma in [0, 1) admits a feasible inner problem."""


@dataclass(frozen=True)
class EqualityConstraint:
    """Affine constraint A @ G = rhs."""

    A: np.ndarray
    rhs: np.ndarray


@dataclass(frozen=True)
class InnerProblem:
    """min ||C G||_F subject to the affine constraint and ||G||_2 <= tau."""

    C: np.ndarray
    constraint: EqualityConstraint | None
    tau: float | None = None

    def __post_init__(self):
        if self.tau is not None and not (self.tau > 0 or self.tau == 0):
            raise ValueError("tau must be nonnegative or None for unbounded")


@dataclass
class SolveReport:
    solution: np.ndarray
    objective: float
    status: str  # "optimal" | "max-iter" | "infeasible"
    iterations: int = 0
    primal_residuals: list[float] = field(default_factory=list)
    dual_residuals: list[float] = field(default_factory=list)


def ball_projection(M: np.ndarray, tau: float) -> np.ndarray:
    """Projection onto the spectral-norm ball: clip singular values at tau."""
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    if s.size == 0 or s[0] <= tau:
        return M.copy()
    return (U * np.minimum(s, tau)) @ Vt


class ConstrainedLeastSquares:
    """One dense instance of min ||C G||_F s.t. A G = rhs (and a spectral ball).

    Precomputes the constraint SVD, nullspace basis, and the Gram
    eigendecomposition of C restricted to the nullspace so repeated solves
    at different ball radii are cheap.  Solves are warm-started from the
    previous call.
    """

    def __init__(self, C: np.ndarray, constraint: EqualityConstraint | None):
        self.C = np.asarray(C, dtype=float)
        self.constraint = constraint
        self._infeasible_constraint = False
        ncols = self.C.shape[1]
        if constraint is None:
            self.G_part = np.zeros((ncols, 1))
            self.null_basis = np.eye(ncols)
            self.floor = 0.0
        else:
            A = np.asarray(constraint.A, dtype=float)
            rhs = np.asarray(constraint.rhs, dtype=float)
            U, s, Vt = np.linalg.svd(A, full_matrices=True)
            tol = max(A.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
            rank = int(np.sum(s > tol))
            pinv = (Vt[:rank].T / s[:rank]) @ U[:, :rank].T
            self.G_part = pinv @ rhs
            if np.abs(A @ self.G_part - rhs).max(initial=0.0) > 1e-8 * max(
                1.0, np.abs(rhs).max(initial=0.0)
            ):
                self._infeasible_constraint = True
            self.null_basis = Vt[rank:].T
            # The minimum-norm feasible point has the least spectral norm on
            # the affine set, so its norm is the exact feasibility floor.
            self.floor = float(np.linalg.svd(self.G_part, compute_uv=False)[0]) if self.G_part.size else 0.0
        CN = self.C @ self.null_basis
        gram = CN.T @ CN
        self._gram_eigvals, self._gram_eigvecs = np.linalg.eigh(gram)
        self._lin = self.null_basis.T @ (self.C.T @ (self.C @ self.G_part))
        self._unconstrained: SolveReport | None = None
        self._warm: tuple[np.ndarray, np.ndarray, float] | None = None

    @property
    def feasibility_floor(self) -> float:
        return self.floor

    def _objective(self, G: np.ndarray) -> float:
        return float(np.linalg.norm(self.C @ G))

    def unconstrained(self) -> SolveReport:
        """KKT solution without the ball: exact stationarity on the nullspace."""
        if self._unconstrained is None:
            if self._infeasible_constraint:
                self._unconstrained = SolveReport(
                    solution=self.G_part, objective=np.inf, status="infeasible"
                )
            else:
                lam = self._gram_eigvals
                cutoff = max(lam.size, 1) * np.finfo(float).eps * max(lam.max(initial=0.0), 0.0)
                inv = np.where(lam > cutoff, 1.0 / np.maximum(lam, 1e-300), 0.0)
                z = -self._gram_eigvecs @ (inv[:, None] * (self._gram_eigvecs.T @ self._lin))
                G = self.G_part + self.null_basis @ z
                self._unconstrained = SolveReport(
                    solution=G, objective=self._objective(G), status="optimal"
                )
        return self._unconstrained

    def unconstrained_norm(self) -> float:
        G = self.unconstrained().solution
        return float(np.linalg.svd(G, compute_uv=False)[0]) if G.size else 0.0

    def solve(
        self,
        tau: float | None,
        tol: float = 1e-7,
        max_iter: int = 50_000,
        rho: float = 1.0,
        force_iterative: bool = False,
    ) -> SolveReport:
        """Solve with ball radius tau (None or inf means unconstrained)."""
        if self._infeasible_constraint:
            return SolveReport(solution=self.G_part, objective=np.inf, status="infeasible")
        if tau is None or np.isinf(tau):
            return self.unconstrained()
        if tau < self.floor * (1.0 - 1e-9):
            return SolveReport(
                solution=self.G_part, objective=np.inf, status="infeasible"
            )
        base = self.unconstrained()
        if not force_iterative and self.unconstrained_norm() <= tau * (1.0 + 1e-12):
            return base

        G = base.solution.copy()
        if self._warm is not None and self._warm[0].shape == G.shape:
            Y, Uv, rho = self._warm
            Y, Uv = Y.copy(), Uv.copy()
        else:
            Y = ball_projection(G, tau)
            Uv = np.zeros_like(G)
            # Penalty matched to the curvature spread of the quadratic term.
            lam = self._gram_eigvals
            if lam.size and lam[-1] > 0:
                rho = float(np.sqrt(max(lam[0], 1e-8 * lam[-1]) * lam[-1]))

        eigvals, eigvecs = self._gram_eigvals, self._gram_eigvecs
        relax = 1.7
        primal_hist: list[float] = []
        dual_hist: list[float] = []
        status = "max-iter"
        it = 0
        for it in range(1, max_iter + 1):
            rhs = -self._lin + 0.5 * rho * (self.null_basis.T @ (Y - Uv))
            z = eigvecs @ ((eigvecs.T @ rhs) / (eigvals + 0.5 * rho)[:, None])
            G = self.G_part + self.null_basis @ z
            G_rel = relax * G + (1.0 - relax) * Y
            Y_prev = Y
            Y = ball_projection(G_rel + Uv, tau)
            Uv = Uv + G_rel - Y
            r = float(np.linalg.norm(G - Y))
            s = rho * float(np.linalg.norm(Y - Y_prev))
            primal_hist.append(r)
            dual_hist.append(s)
            scale = max(1.0, float(np.linalg.norm(G)), float(np.linalg.norm(Y)))
            if r <= tol * scale and s <= tol * scale:
                status = "optimal"
                break
            if it % 10 == 0:
                if r > 10.0 * s:
                    rho *= 2.0
                    Uv /= 2.0
                elif s > 10.0 * r:
                    rho /= 2.0
                    Uv *= 2.0
        self._warm = (Y, Uv, rho)
        # Ball-feasible iterate, tightened to satisfy the affine set exactly.
        G_out = self.G_part + self.null_basis @ (self.null_basis.T @ Y)
        return SolveReport(
            solution=G_out,
            objective=self._objective(G_out),
            status=status,
            iterations=it,
            primal_residuals=primal_hist,
            dual_residuals=dual_hist,
        )


class BlockDiagonalProblem:
    """All diagonal blocks of the structured program, advanced in lockstep.

    Every block shares the constraint matrix (top block row of the state
    Hankel, mapped to the identity) but has its own objective map.  The
    blocks are independent given the ball radius, so one vectorized ADMM
    iterates all of them together; a block whose unconstrained solution
    already fits in the ball is finished in closed form.
    """

    def __init__(self, C_list: list[np.ndarray], constraint: EqualityConstraint):
        A = np.asarray(constraint.A, dtype=float)
        rhs = np.asarray(constraint.rhs, dtype=float)
        self.L = len(C_list)
        self.C = np.stack([np.asarray(c, dtype=float) for c in C_list])
        U, s, Vt = np.linalg.svd(A, full_matrices=True)
        tol = max(A.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0)
        rank = int(np.sum(s > tol))
        self._infeasible_constraint = rank < A.shape[0]
        pinv = (Vt[:rank].T / s[:rank]) @ U[:, :rank].T
        self.G_part = pinv @ rhs  # shared by every block
        self.null_basis = Vt[rank:].T
        self.floor = float(np.linalg.svd(self.G_part, compute_uv=False)[0])

        CN = np.matmul(self.C, self.null_basis)  # (L, c, d)
        gram = np.matmul(CN.transpose(0, 2, 1), CN)
        self._eigvals, self._eigvecs = np.linalg.eigh(gram)
        CG = np.matmul(self.C, np.broadcast_to(self.G_part, (self.L, *self.G_part.shape)))
        self._lin = np.matmul(CN.transpose(0, 2, 1), CG)  # (L, d, n)
        self._unconstrained: SolveReport | None = None
        self._warm = None

    @property
    def feasibility_floor(self) -> float:
        return self.floor

    def _objectives(self, G: np.ndarray) -> np.ndarray:
        return np.linalg.norm(np.matmul(self.C, G), axis=(1, 2))

    def _combined(self, G: np.ndarray) -> float:
        return float(np.sqrt(np.sum(self._objectives(G) ** 2)))

    def unconstrained(self) -> SolveReport:
        if self._unconstrained is None:
            if self._infeasible_constraint:
                sol = np.broadcast_to(self.G_part, (self.L, *self.G_part.shape)).copy()
                self._unconstrained = SolveReport(solution=sol, objective=np.inf, status="infeasible")
            else:
                lam, V = self._eigvals, self._eigvecs
                cutoff = lam.shape[1] * np.finfo(float).eps * np.maximum(lam[:, -1:], 0.0)
                inv = np.where(lam > cutoff, 1.0 / np.maximum(lam, 1e-300), 0.0)
                z = -np.matmul(V, inv[:, :, None] * np.matmul(V.transpose(0, 2, 1), self._lin))
                G = self.G_part[None] + np.matmul(self.null_basis[None], z)
                self._unconstrained = SolveReport(
                    solution=G, objective=self._combined(G), status="optimal"
                )
        return self._unconstrained

    def unconstrained_norms(self) -> np.ndarray:
        return np.linalg.svd(self.unconstrained().solution, compute_uv=False)[:, 0]

    def unconstrained_norm(self) -> float:
        return float(self.unconstrained_norms().max())

    def solve(
        self,
        tau: float | None,
        tol: float = 1e-7,
        max_iter: int = 50_000,
        rho: float | None = None,
        force_iterative: bool = False,
    ) -> SolveReport:
        if self._infeasible_constraint:
            return self.unconstrained()
        if tau is None or np.isinf(tau):
            return self.unconstrained()
        if tau < self.floor * (1.0 - 1e-9):
            sol = np.broadcast_to(self.G_part, (self.L, *self.G_part.shape)).copy()
            return SolveReport(solution=sol, objective=np.inf, status="infeasible")
        base = self.unconstrained()
        norms = self.unconstrained_norms()
        inactive = norms <= tau * (1.0 + 1e-12)
        if not force_iterative and bool(inactive.all()):
            return base

        L, M, n = self.L, self.G_part.shape[0], self.G_part.shape[1]
        G = base.solution.copy()
        if self._warm is not None and self._warm[0].shape == G.shape:
            Y, Uv, rho_vec = self._warm
            Y, Uv, rho_vec = Y.copy(), Uv.copy(), rho_vec.copy()
        else:
            Y = ball_projection_batch(G, tau)
            Uv = np.zeros_like(G)
            lam = self._eigvals
            rho0 = np.sqrt(np.maximum(lam[:, 0], 1e-8 * lam[:, -1]) * lam[:, -1])
            rho_vec = np.where(rho0 > 0, rho0, 1.0) if rho is None else np.full(L, rho)

        lam, V = self._eigvals, self._eigvecs
        Nb = self.null_basis
        relax = 1.7
        primal_hist: list[float] = []
        dual_hist: list[float] = []
        status = "max-iter"
        it = 0
        for it in range(1, max_iter + 1):
            half_rho = 0.5 * rho_vec
            rhs = -self._lin + half_rho[:, None, None] * np.matmul(Nb.T[None], Y - Uv)
            z = np.matmul(
                V, np.matmul(V.transpose(0, 2, 1), rhs) / (lam + half_rho[:, None])[:, :, None]
            )
            G = self.G_part[None] + np.matmul(Nb[None], z)
            G_rel = relax * G + (1.0 - relax) * Y
            Y_prev = Y
            Y = ball_projection_batch(G_rel + Uv, tau)
            Uv = Uv + G_rel - Y
            diff = G - Y
            r = np.sqrt(np.einsum("ijk,ijk->i", diff, diff))
            dY = Y - Y_prev
            s = rho_vec * np.sqrt(np.einsum("ijk,ijk->i", dY, dY))
            primal_hist.append(float(r.max()))
            dual_hist.append(float(s.max()))
            scale = np.maximum(
                1.0,
                np.sqrt(
                    np.maximum(
                        np.einsum("ijk,ijk->i", G, G), np.einsum("ijk,ijk->i", Y, Y)
                    )
                ),
            )
            if bool(np.all(r <= tol * scale) and np.all(s <= tol * scale)):
                status = "optimal"
                break
            if it % 10 == 0:
                grow = r > 10.0 * s
                shrink = s > 10.0 * r
                if grow.any():
                    rho_vec = np.where(grow, rho_vec * 2.0, rho_vec)
                    Uv[grow] /= 2.0
                if shrink.any():
                    rho_vec = np.where(shrink, rho_vec / 2.0, rho_vec)
                    Uv[shrink] *= 2.0
        self._warm = (Y, Uv, rho_vec)
        G_out = self.G_part[None] + np.matmul(Nb[None], np.matmul(Nb.T[None], Y))
        # Blocks the ball never binds keep their exact closed-form solution.
        G_out[inactive] = base.solution[inactive]
        return SolveReport(
            solution=G_out,
            objective=self._combined(G_out),
            status=status,
            iterations=it,
            primal_residuals=primal_hist,
            dual_residuals=dual_hist,
        )


def ball_projection_batch(M: np.ndarray, tau: float) -> np.ndarray:
    """Spectral-ball projection applied across the leading batch axis.

    Works through the eigendecomposition of the small right Gram matrix:
    only singular values above tau are shrunk, and those are where the
    squared spectrum is numerically reliable.
    """
    gram = np.matmul(M.transpose(0, 2, 1), M)
    lam, V = np.linalg.eigh(gram)
    s = np.sqrt(np.clip(lam, 0.0, None))
    if bool(np.all(s[:, -1] <= tau)):
        return M.copy()
    shrink = np.where(s > tau, tau / np.maximum(s, 1e-300), 1.0)
    factor = np.matmul(V * shrink[:, None, :], V.transpose(0, 2, 1))
    return np.matmul(M, factor)


def eq_ls(C: np.ndarray, constraint: EqualityConstraint | None) -> SolveReport:
    """Closed-form equality-constrained least squares (no ball)."""
    return ConstrainedLeastSquares(C, constraint).unconstrained()


def spectral_admm(problem: InnerProblem, tol: float = 1e-7, max_iter: int = 50_000) -> SolveReport:
    """Operator-splitting solve of one ball-constrained instance."""
    return ConstrainedLeastSquares(problem.C, problem.constraint).solve(
        problem.tau, tol=tol, max_iter=max_iter
    )


class CoupledCausalProblem:
    """Ball-constrained least squares over a causal block-triangular variable.

    The variable is an L x L grid of (cols x n) blocks, zero above the
    diagonal, every block constrained through the same thin matrix A
    (diagonal blocks to the identity, lower blocks to zero).  The objective
    couples blocks within a block column; the spectral ball couples all of
    them, handled by splitting exactly as in the single-block case.

    The free part of every block lies in the nullspace of A, so the affine
    projection is ``G_part + mask * (P V)`` with P = N N^T applied to each
    block row.  For block column j with cost columns C_j (block rows j..L-1)
    the quadratic step solves its reduced normal equations through the
    Woodbury identity on K_j = C_j (I (x) P) C_j^T, a (rows x rows) matrix
    eigendecomposed once at build; the step never forms the reduced basis.
    """

    def __init__(self, C: np.ndarray, A: np.ndarray, L: int, cols: int, n: int):
        self.C = np.asarray(C, dtype=float)
        self.L, self.cols, self.n = L, cols, n
        A = np.asarray(A, dtype=float)
        U, s, Vt = np.linalg.svd(A, full_matrices=True)
        tol = max(A.shape) * np.finfo(float).eps * s[0]
        rank = int(np.sum(s > tol))
        self._infeasible_constraint = rank < A.shape[0]
        self._pinv = (Vt[:rank].T / s[:rank]) @ U[:, :rank].T
        self._null = Vt[rank:].T  # cols x d, orthonormal
        self.floor = float(np.linalg.svd(self._pinv, compute_uv=False)[0])
        self._P = self._null @ self._null.T
        # Block (i, j) of the variable is free iff i >= j.
        self._mask = np.kron(np.tril(np.ones((L, L))), np.ones((cols, n)))

        self.G_part = np.kron(np.eye(L), self._pinv)

        rows = self.C.shape[0]
        CP = np.matmul(self.C.reshape(rows, L, cols), self._P).reshape(rows, L * cols)
        self._CP, self._CG = CP, self.C @ self.G_part
        # K_j = F_j F_j^T with F_j = CP[:, j*cols:]; accumulate the block terms
        # C_i P C_i^T from the last block row up.
        F3 = CP.reshape(rows, L, cols).transpose(1, 0, 2)
        terms = np.matmul(F3, F3.transpose(0, 2, 1))
        _, self._eigvecs = np.linalg.eigh(np.cumsum(terms[::-1], axis=0)[::-1])
        # Eigenvalues as ||F_j^T u||^2: structurally zero ones then come out at
        # squared rounding level, far below the pseudo-inverse cutoff, where
        # eigh of K_j leaves them at rounding level, next to it.
        self._eigvals = np.stack(
            [np.sum((CP[:, j * cols :].T @ self._eigvecs[j]) ** 2, axis=0) for j in range(L)]
        )
        self._unconstrained: SolveReport | None = None
        self._warm = None

    @property
    def feasibility_floor(self) -> float:
        return self.floor

    def _objective(self, G: np.ndarray) -> float:
        return float(np.linalg.norm(self.C @ G))

    def _apply_P(self, V: np.ndarray) -> np.ndarray:
        """P applied to every block row of V (a new array)."""
        L, cols, n = self.L, self.cols, self.n
        return np.matmul(self._P, V.reshape(L, cols, L * n)).reshape(L * cols, L * n)

    def _project_affine(self, Y: np.ndarray) -> np.ndarray:
        W = self._apply_P(Y)
        W *= self._mask
        W += self.G_part
        return W

    def _solve_columns(self, V: np.ndarray, inv: np.ndarray) -> np.ndarray:
        """Y - mask * P C_j^T f(K_j) C_j Y per block column j, Y the affine projection of V.

        f(K_j) = U_j diag(inv_j) U_j^T.  The mask commutes with P and
        P C_i^T = (C_i P)^T, so C Y = C G_part + CP (mask * V) and the
        correction is mask * (CP^T X): P is applied once.
        """
        L, n = self.L, self.n
        rows = self.C.shape[0]
        U = self._eigvecs
        rhs = (self._CG + self._CP @ (V * self._mask)).reshape(rows, L, n).transpose(1, 0, 2)
        X = np.matmul(U, inv[:, :, None] * np.matmul(U.transpose(0, 2, 1), rhs))
        W = self._apply_P(V)
        W -= self._CP.T @ X.transpose(1, 0, 2).reshape(rows, L * n)
        W *= self._mask
        W += self.G_part
        return W

    def _initial_rho(self, rho: float) -> float:
        """Penalty matched to the curvature spread of block column 0 (else rho).

        Its reduced Gram (C_0 B)^T (C_0 B), B = I_L (x) N, shares the nonzero
        spectrum of K_0 and is singular when it is wider than K_0.
        """
        lam = self._eigvals[0]
        reduced = self.L * self._null.shape[1]
        if lam[-1] <= 0:
            return rho
        low = lam[lam.size - reduced] if reduced <= lam.size else 0.0
        return float(np.sqrt(max(low, 1e-8 * lam[-1]) * lam[-1]))

    def _prox(self, V: np.ndarray, rho: float) -> np.ndarray:
        """argmin ||C G||^2 + (rho/2)||G - V||^2 over the causal affine set.

        With Y the affine projection of V, Woodbury on the reduced normal
        equations of block column j gives Y - P C_j^T (K_j + rho/2 I)^{-1} C_j Y.
        """
        return self._solve_columns(V, 1.0 / (self._eigvals + 0.5 * rho))

    def unconstrained(self) -> SolveReport:
        if self._unconstrained is None:
            if self._infeasible_constraint:
                self._unconstrained = SolveReport(
                    solution=self.G_part, objective=np.inf, status="infeasible"
                )
            else:
                lam = self._eigvals
                cutoff = lam.shape[1] * np.finfo(float).eps * np.maximum(lam[:, -1:], 0.0)
                inv = np.where(lam > cutoff, 1.0 / np.maximum(lam, 1e-300), 0.0)
                G = self._solve_columns(np.zeros_like(self.G_part), inv)
                self._unconstrained = SolveReport(
                    solution=G, objective=self._objective(G), status="optimal"
                )
        return self._unconstrained

    def unconstrained_norm(self) -> float:
        return float(np.linalg.svd(self.unconstrained().solution, compute_uv=False)[0])

    def solve(
        self,
        tau: float | None,
        tol: float = 1e-7,
        max_iter: int = 50_000,
        rho: float = 1.0,
        force_iterative: bool = False,
    ) -> SolveReport:
        if self._infeasible_constraint:
            return SolveReport(solution=self.G_part, objective=np.inf, status="infeasible")
        if tau is None or np.isinf(tau):
            return self.unconstrained()
        if tau < self.floor * (1.0 - 1e-9):
            return SolveReport(solution=self.G_part, objective=np.inf, status="infeasible")
        base = self.unconstrained()
        if not force_iterative and self.unconstrained_norm() <= tau * (1.0 + 1e-12):
            return base

        G = base.solution.copy()
        if self._warm is not None and self._warm[0].shape == G.shape:
            Y, Uv, rho = self._warm
            Y, Uv = Y.copy(), Uv.copy()
        else:
            Y = ball_projection_batch(G[None], tau)[0]
            Uv = np.zeros_like(G)
            rho = self._initial_rho(rho)
        relax = 1.7
        primal_hist: list[float] = []
        dual_hist: list[float] = []
        status = "max-iter"
        it = 0
        for it in range(1, max_iter + 1):
            G = self._prox(Y - Uv, rho)
            G_rel = relax * G + (1.0 - relax) * Y
            Y_prev = Y
            Y = ball_projection_batch((G_rel + Uv)[None], tau)[0]
            Uv = Uv + G_rel - Y
            r = float(np.linalg.norm(G - Y))
            s = rho * float(np.linalg.norm(Y - Y_prev))
            primal_hist.append(r)
            dual_hist.append(s)
            scale = max(1.0, float(np.linalg.norm(G)), float(np.linalg.norm(Y)))
            if r <= tol * scale and s <= tol * scale:
                status = "optimal"
                break
            if it % 10 == 0:
                if r > 10.0 * s:
                    rho *= 2.0
                    Uv /= 2.0
                elif s > 10.0 * r:
                    rho /= 2.0
                    Uv *= 2.0
        self._warm = (Y, Uv, rho)
        G_out = self._project_affine(Y)
        # The affine projection can leave the ball by the ADMM residual; blend
        # toward G_part (the minimum-norm feasible point, of norm floor) so the
        # returned point is in the ball exactly: its norm is at most
        # theta * norm + (1 - theta) * floor = tau.
        norm = float(np.linalg.svd(G_out, compute_uv=False)[0])
        if norm > tau:
            theta = (tau - self.floor) / (norm - self.floor) if tau > self.floor else 0.0
            G_out = theta * G_out + (1.0 - theta) * self.G_part
        return SolveReport(
            solution=G_out,
            objective=self._objective(G_out),
            status=status,
            iterations=it,
            primal_residuals=primal_hist,
            dual_residuals=dual_hist,
        )


@dataclass
class GammaSearchResult:
    gamma: float
    objective: float  # f(gamma) / (1 - gamma)
    f_value: float
    solutions: list[np.ndarray]
    grid: list[tuple[float, float, float]]  # (gamma, f, h) at evaluated points
    status: str  # worst inner status at the returned gamma
    iterations: int = 0  # inner iterations of the final solve at the returned gamma


def golden_section(fun, lo: float, hi: float, tol: float = 1e-4, max_iter: int = 200):
    """Golden-section minimization of a scalar function on [lo, hi]."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fun(x1), fun(x2)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fun(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def gamma_search(
    solvers: list,
    eps: float,
    L: int,
    grid_points: int = 16,
    gamma_tol: float = 1e-3,
    tol: float = 1e-7,
    max_iter: int = 50_000,
) -> GammaSearchResult:
    """Minimize f(gamma)/(1 - gamma) over gamma in [0, 1).

    ``solvers`` carry the inner problems (independent diagonal blocks, or a
    single coupled problem); the ball radius at gamma is
    gamma / (sqrt(L) * eps).  f is nonincreasing in gamma because larger
    radii only relax the ball.  With eps = 0 the ball is vacuous and the
    closed-form solution is returned at gamma = 0.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    scale = np.sqrt(L) * eps

    if eps == 0.0:
        reports = [s.unconstrained() for s in solvers]
        if any(r.status == "infeasible" for r in reports):
            raise InfeasibleEpsilon("affine constraints are infeasible")
        f = float(np.sqrt(sum(r.objective**2 for r in reports)))
        return GammaSearchResult(
            gamma=0.0,
            objective=f,
            f_value=f,
            solutions=[r.solution for r in reports],
            grid=[(0.0, f, f)],
            status="optimal",
        )

    floor = max(s.feasibility_floor for s in solvers)
    gamma_min = scale * floor
    gamma_hi = 1.0 - 1e-9
    if gamma_min >= gamma_hi:
        raise InfeasibleEpsilon(
            f"epsilon too large for data: feasibility needs gamma >= {gamma_min:.6g}"
        )
    gamma_lo = gamma_min * (1.0 + 1e-3) + 1e-12
    # The ball stops binding once it contains every unconstrained solution;
    # beyond that point h(gamma) only grows.
    gamma_relax = scale * max(s.unconstrained_norm() for s in solvers)
    hi = min(gamma_hi, max(gamma_relax, gamma_lo))

    evaluated: list[tuple[float, float, float]] = []
    cache: dict[float, float] = {}
    # Tolerances and iteration budgets are staged: coarse on the grid,
    # tighter while refining, strict only for the winning gamma.  Radii near
    # the feasibility floor converge very slowly and never win, so the
    # exploration stages are capped hard.
    grid_tol, grid_iters = max(tol, 1e-4), min(max_iter, 1200)
    refine_tol, refine_iters = max(tol, 1e-5), min(max_iter, 2500)

    def evaluate(gamma: float, solve_tol: float, iters: int) -> tuple[float, list[SolveReport]]:
        tau = gamma / scale
        reports = [s.solve(tau, tol=solve_tol, max_iter=iters) for s in solvers]
        if any(r.status == "infeasible" for r in reports):
            val = np.inf
        else:
            val = float(np.sqrt(sum(r.objective**2 for r in reports)))
        evaluated.append((gamma, val, val / (1.0 - gamma) if np.isfinite(val) else np.inf))
        return val, reports

    def f_of(gamma: float, solve_tol: float, iters: int) -> float:
        if gamma not in cache:
            cache[gamma] = evaluate(gamma, solve_tol, iters)[0]
        return cache[gamma]

    def h_grid_of(gamma: float) -> float:
        val = f_of(gamma, grid_tol, grid_iters)
        return val / (1.0 - gamma) if np.isfinite(val) else np.inf

    def h_of(gamma: float) -> float:
        val = f_of(gamma, refine_tol, refine_iters)
        return val / (1.0 - gamma) if np.isfinite(val) else np.inf

    # f never drops below the unconstrained optimum, so any gamma whose
    # h lower bound already exceeds the incumbent cannot win.
    f_floor = float(np.sqrt(sum(s.unconstrained().objective ** 2 for s in solvers)))

    grid = np.linspace(gamma_lo, hi, grid_points)
    h_grid = np.full(len(grid), np.inf)
    best_h = np.inf
    for idx, g in enumerate(grid):
        if np.isfinite(f_floor) and f_floor / (1.0 - g) >= best_h:
            continue
        h_grid[idx] = h_grid_of(g)
        best_h = min(best_h, h_grid[idx])
    if not np.any(np.isfinite(h_grid)):
        raise InfeasibleEpsilon("epsilon too large for data: no feasible gamma found")
    best = int(np.argmin(h_grid))
    lo_b = grid[max(best - 1, 0)]
    hi_b = grid[min(best + 1, len(grid) - 1)]
    g_star, h_star = golden_section(h_of, lo_b, hi_b, tol=gamma_tol)
    if h_grid[best] < h_star:
        g_star = float(grid[best])
    f_star, reports = evaluate(g_star, tol, min(max_iter, 10_000))
    h_star = f_star / (1.0 - g_star) if np.isfinite(f_star) else np.inf
    return GammaSearchResult(
        gamma=float(g_star),
        objective=float(h_star),
        f_value=float(f_star),
        solutions=[r.solution for r in reports],
        grid=sorted(evaluated),
        status=max((r.status for r in reports), key=_STATUS_RANK.index),
        iterations=max(r.iterations for r in reports),
    )
