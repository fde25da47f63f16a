"""Optimization engine for the data-driven synthesis programs.

The inner problem is equality-constrained Frobenius least squares over the
structured parameter G, an L x L grid of (cols x n) blocks:
min ||C G||_F s.t. h1x G(i, i) = I and h1x G(i, j) = 0 for i > j, with a
spectral-norm ball ||G||_2 <= tau on the variable.  Both inner problem
classes are built from the same two inputs, the (rows x L cols) cost map C
and the (n x cols) top block row h1x of the state Hankel: n and cols are
h1x's shape and L is the number of column blocks of C.  They share one
construction of the affine set {G_k : h1x G_k = I} (SVD of h1x: minimum-norm
point, orthonormal nullspace basis, feasibility floor; an empty set raises
``InfeasibleEpsilon``, as a radius below the floor does), and each is solved
without the ball, in closed form on the nullspace, when it is built.

Every solve carries one certificate: the relative duality gap of its
squared objective ("optimal" means gap <= ``tol``, for both classes) and
the cut of its dual point, a lower bound on the squared optimal value at
every radius.  The cut's derivative at the solve's radius stands in for
d(objective^2)/d tau, which at an optimal dual point is the ball's Lagrange
multiplier (Boyd & Vandenberghe, Convex Optimization, sec. 5.6).
Independent blocks (``BlockDiagonalProblem``) are solved exactly through
the Lagrange dual of the ball by a primal-dual Newton method.  The coupled
causal variable (``CoupledCausalProblem``) is solved by ADMM in nullspace
coordinates, certified by the Fenchel dual of the splitting at its multiplier.
Both stop on that gap alone, once it is at most ``tol``: the Newton method
checks it at every step, the ADMM every ``_GAP_EVERY`` iterations.  Those
check points are also the only places where the ADMM's penalty rho moves,
and only where the gap stalls: when it did not at least halve since the
previous check, rho moves by the power of two nearest the ratio of the
primal to the dual residual (residual balancing, Wohlberg,
arXiv:1704.06209, 2017), capped at 2^6 either way.

``gamma_search`` minimizes h(gamma) = f(gamma) / (1 - gamma) over one inner
problem, where f(gamma) is the inner optimal value at radius
gamma / (sqrt(L) eps), with the same code for both classes.  It reads the
cuts alone: a grid scan skips the gammas they rule out, bisection follows
the sign of h' from each solve's cut, and the cuts of all solves bound
min h from below, exactly for the cuts (``_CutModel``), which stops the
bisection and gives ``search_gap``.  While every solve is certified the
bisection steps go to the minimizer of that bound inside the bracket
(Kelley's cutting-plane rule, J. SIAM 1960), else to the midpoint.  One
debug line per solve goes to the ``ddsls.solver`` logger.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .blockops import rank_tolerance

__all__ = [
    "SolveReport",
    "SearchPoint",
    "BlockDiagonalProblem",
    "CoupledCausalProblem",
    "GammaSearchResult",
    "gamma_search",
    "InfeasibleEpsilon",
]

_log = logging.getLogger(__name__)


class InfeasibleEpsilon(RuntimeError):
    """No feasible inner problem: an empty affine set, a radius below the floor, or too large an eps."""


@dataclass
class SolveReport:
    """One inner solve and its certificate.

    ``gap`` is the relative duality gap of the returned point's squared
    objective; the status is "optimal" iff gap <= the solve's ``tol``.
    ``cut`` = (c0, c1, c2) bounds the squared optimal value at every radius
    t from below by c0 + c1 t + c2 t^2, however capped the solve; its
    derivative c1 + 2 c2 ``tau`` is the d(objective^2)/d tau the gamma
    search reads.  ``state`` is the iterate a ``start`` resumes (full: in
    its ADMM's nullspace coordinates).
    """

    solution: np.ndarray
    objective: float
    status: str  # "optimal" | "max-iter"
    gap: float
    cut: tuple[float, float, float]
    iterations: int = 0
    tau: float | None = None  # the ball radius solved at (None: no ball)
    state: object = None  # blockdiag's Lam (L, n, n), full's rotated (Y, Uv, rho)


def _closed_form_report(G: np.ndarray, objective: float, least: float) -> SolveReport:
    """The optimum without the ball; ``least``, its squared value, bounds every radius."""
    return SolveReport(solution=G, objective=objective, status="optimal", gap=0.0, cut=(least, 0.0, 0.0))


_BINDS = 1.0 + 1e-12  # the ball binds a closed form of norm above tau times this


def _closed_form_at(problem, tau: float) -> SolveReport | None:
    """The closed form at radius tau if the ball leaves it feasible, else None; below the floor, raise."""
    if tau < problem.floor * (1.0 - 1e-9):
        raise InfeasibleEpsilon(f"ball radius {tau:.6g} is below the feasibility floor {problem.floor:.6g}")
    return replace(problem.unconstrained, tau=tau) if problem.unconstrained_norm <= tau * _BINDS else None


def _layout(cmap: np.ndarray, h1x: np.ndarray) -> tuple[int, int, int]:
    """(L, cols, n) of a cost map over L column blocks of h1x's width."""
    n, cols = h1x.shape
    L, rest = divmod(cmap.shape[1], cols)
    if rest:
        raise ValueError(f"cost map width {cmap.shape[1]} is not a multiple of h1x's {cols} columns")
    return L, cols, n


def _affine_set(A: np.ndarray):
    """The affine set {G : A G = I} through one SVD of A.

    Returns the minimum-norm point G_part, orthonormal bases N and R of the
    nullspace and row space of A (every feasible G is G_part + N Z, and
    G_part = R R^T G_part) and the feasibility floor.  G_part has the least
    spectral norm on the set, so its norm is the exact floor of any ball
    that meets it.  The set is empty, which raises ``InfeasibleEpsilon``,
    when G_part misses I by more than rounding.
    """
    A = np.asarray(A, dtype=float)
    U, s, Vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > rank_tolerance(s, A.shape)))
    G_part = (Vt[:rank].T / s[:rank]) @ U[:, :rank].T
    if np.abs(A @ G_part - np.eye(A.shape[0])).max(initial=0.0) > 1e-8:
        raise InfeasibleEpsilon("affine constraints are infeasible")
    floor = float(np.linalg.svd(G_part, compute_uv=False)[0]) if G_part.size else 0.0
    return G_part, Vt[rank:].T, Vt[:rank].T, floor


def _sym_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the symmetric n x n matrices, shape (n(n+1)/2, n, n)."""
    basis = []
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0 if i == j else np.sqrt(0.5)
            basis.append(E)
    return np.stack(basis)


def _symmetrize(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.transpose(0, 2, 1))


class BlockDiagonalProblem:
    """Independent blocks min ||C_k G_k||_F s.t. h1x G_k = I, ||G_k||_2 <= tau.

    ``BlockDiagonalProblem(cmap, h1x)`` solves for the diagonal blocks G_k
    (cols x n) of the structured parameter; block k has the objective map
    C_k, column block k of the cost map, and the blocks share the
    constraint.  Every feasible block is G_part + N Z_k, with G_part the
    minimum-norm solution and N an orthonormal nullspace basis of h1x;
    G_part is orthogonal to N, so the ball reads Z_k^T Z_k <= S with
    S = tau^2 I - G_part^T G_part.

    A block whose closed-form solution fits in the ball is finished.  The
    others are matrix trust-region subproblems (Moré & Sorensen, SIAM J. Sci.
    Stat. Comput. 1983, for the vector case), solved through their Lagrange
    dual (Boyd & Vandenberghe, Convex Optimization, ch. 5): for a multiplier
    Lam >= 0 (n x n) the Lagrangian minimizer solves the Sylvester equation
    H Z + Z Lam = -B, with H = (C_k N)^T (C_k N) and B = (C_k N)^T C_k G_part.
    In the eigenbases of H (precomputed) and Lam = V diag(d) V^T it is
    z_ij = -b_ij / (sigma_i + d_j); directions where H is singular, which the
    last blocks of the structured program have, get the pseudo-inverse's
    zero.  The dual g(Lam) = ||C_k G_part||^2 + <Z, B> - <Lam, S> is concave
    with gradient Z^T Z - S, and its Hessian comes from one more Sylvester
    solve per direction.  All blocks are advanced together by a primal-dual
    interior-point Newton method on g, with the slack X = S - Z^T Z >= 0 as
    the primal variable.  Each step recovers a primal point that is in the
    ball exactly (the singular values of Z S^{-1/2} clipped at one) and
    stops once the relative duality gap of that point is at most ``tol``.
    """

    _CENTERING = (0.1, 0.9)  # bounds of the centering parameter sigma
    _TO_BOUNDARY = 0.95  # fraction of the step to the edge of the cone
    _SECULAR_STEPS = 8
    _SECULAR_TARGET = 0.5  # start inside the ball, at half of S along each eigenvector

    def __init__(self, cmap: np.ndarray, h1x: np.ndarray):
        cmap = np.asarray(cmap, dtype=float)
        self.L = _layout(cmap, h1x)[0]
        self.C = np.stack(np.hsplit(cmap, self.L))  # (L, rows, cols)
        # G_part is shared by every block.
        self.G_part, self.null_basis, _, self.floor = _affine_set(h1x)
        CN = np.matmul(self.C, self.null_basis)  # (L, rows, d)
        CG = np.matmul(self.C, self.G_part)
        # The Gram eigenbasis from the SVD of C_k N: orthonormal at rounding
        # level, which the returned point's exact feasibility rests on (eigh
        # of the Gram lost up to 1e-10 of it on the benchmark plant, inside
        # its rounding-level cluster), and squared singular values put flat
        # directions at squared rounding level.
        _, s, Vt = np.linalg.svd(CN, full_matrices=True)
        self._eigvecs = Vt.transpose(0, 2, 1)
        sig = np.zeros(Vt.shape[:2])
        sig[:, : s.shape[1]] = s**2
        lin = np.matmul(Vt, np.matmul(CN.transpose(0, 2, 1), CG))
        # Gram eigenvalues at rounding level are flat directions (the
        # pseudo-inverse's zeros); the linear term lies in the Gram's range,
        # so what it shows there is rounding too.
        cutoff = sig.shape[1] * np.finfo(float).eps * sig[:, :1]
        self._flat = sig <= cutoff
        self._sig = np.where(self._flat, 0.0, sig)
        lin[self._flat] = 0.0
        self._lin = lin  # B in the Gram eigenbasis, (L, d, n)
        self._c0 = np.einsum("kij,kij->k", CG, CG)  # ||C_k G_part||^2
        n = self.G_part.shape[1]
        self._basis = _sym_basis(n).reshape(-1, n * n)
        E = self._basis.reshape(-1, n, n)
        # <E_a, sym(E_b X)> for the Newton system's slack term, as a map of vec(X).
        products = np.einsum("aij,bjk->abik", E, E).reshape(-1, n, n)
        self._basis_products = _symmetrize(products).reshape(-1, n * n)
        # The closed form: exact stationarity on the nullspace, without the ball.
        inv = np.divide(1.0, self._sig, out=np.zeros_like(self._sig), where=~self._flat)
        G = self._to_blocks(-inv[:, :, None] * self._lin, slice(None))
        objective = self._combined(G)
        self.unconstrained = _closed_form_report(G, objective, objective**2)
        self.unconstrained_norms = np.linalg.svd(G, compute_uv=False)[:, 0]  # of each block
        self.unconstrained_norm = float(self.unconstrained_norms.max())

    def _combined(self, G: np.ndarray) -> float:
        return float(np.sqrt(np.sum(np.linalg.norm(np.matmul(self.C, G), axis=(1, 2)) ** 2)))

    def _to_blocks(self, Z: np.ndarray, k) -> np.ndarray:
        """G_part + N U_k Z for Z in the Gram eigenbasis of blocks k."""
        return self.G_part[None] + np.matmul(self.null_basis[None], np.matmul(self._eigvecs[k], Z))

    def solve(self, tau: float, tol: float = 1e-7, max_iter: int = 50_000, start=None) -> SolveReport:
        """Solve with ball radius tau.

        The result depends on the arguments only: the Newton iteration
        resumes from the multipliers ``start.state`` of an earlier report at
        the same radius (``start.tau == tau``), else from ``_secular_start``.

        ``iterations`` counts Newton steps, ``gap`` is the largest relative
        duality gap over the blocks (of the squared objective, hence a bound
        on the combined one too) and the status is "max-iter" when some
        block is not certified within ``tol``: its ``max_iter`` steps ran
        out, or a tol below rounding level left nothing to gain.  ``cut`` is
        the dual bound at the multipliers the gap was measured at, as a
        function of the radius t:
        objective^2 (1 - gap) - (t^2 - tau^2) sum_k tr Lam_k,
        whose derivative at tau is -2 tau sum_k tr Lam_k.
        """
        if (closed := _closed_form_at(self, tau)) is not None:
            return closed
        k = np.flatnonzero(self.unconstrained_norms > tau * _BINDS)
        Z, gap, iterations, Lam = self._dual_newton(k, tau, tol, max_iter, start)
        G = self.unconstrained.solution.copy()
        G[k] = self._to_blocks(Z, k)
        state = np.zeros((self.L, *Lam.shape[1:]))
        state[k] = Lam
        objective, gap, trace = self._combined(G), float(gap.max()), float(np.einsum("kii->", Lam))
        return SolveReport(
            solution=G,
            objective=objective,
            status="optimal" if gap <= tol else "max-iter",
            iterations=iterations,
            gap=gap,
            tau=tau,
            state=state,
            # The dual bound at radius t moves by -<Lam, S(t) - S(tau)> = -(t^2 - tau^2) tr Lam.
            cut=(objective**2 * (1.0 - gap) + trace * tau**2, 0.0, -trace),
        )

    def _response(self, k: np.ndarray, Lam: np.ndarray):
        """Lagrangian minimizer of blocks k at multipliers Lam (a Sylvester solve).

        Returns the eigenpairs (d, V) of Lam, the weights 1/(sigma_i + d_j)
        and Z V, all in the Gram eigenbasis.
        """
        d, V = np.linalg.eigh(Lam)
        den = self._sig[k][:, :, None] + d[:, None, :]
        w = np.divide(1.0, den, out=np.zeros_like(den), where=~self._flat[k][:, :, None])
        return d, V, w, -w * np.matmul(self._lin[k], V)

    def _certificate(self, k, Lam, V, ZV, S, S_isqrt, S_sqrt):
        """A primal point of blocks k in the ball, and its relative duality gap.

        Z is the Lagrangian minimizer at Lam; clipping the singular values of
        Z S^{-1/2} at one gives Z_f with Z_f^T Z_f <= S, changed only along
        violated directions.  The gap f(Z_f) - g(Lam) is
        f(Z_f) - f(Z) + <Lam, S - Z^T Z>, free of the cancellation in f - g.
        """
        Z = np.matmul(ZV, V.transpose(0, 2, 1))
        W = np.matmul(Z, S_isqrt)
        s2, P = np.linalg.eigh(np.matmul(W.transpose(0, 2, 1), W))
        shrink = np.where(s2 > 1.0, 1.0 / np.sqrt(np.maximum(s2, 1.0)), 1.0)
        Zf = Z.copy()
        clip = np.flatnonzero((s2 > 1.0).any(axis=1))
        if clip.size:
            fix = np.matmul(P[clip] * shrink[clip, None, :], P[clip].transpose(0, 2, 1))
            Zf[clip] = np.matmul(np.matmul(W[clip], fix), S_sqrt)
        lin, sig = self._lin[k], self._sig[k][:, :, None]
        dZ = Zf - Z
        f = self._c0[k] + np.einsum("kij,kij->k", Zf, 2.0 * lin + sig * Zf)
        gap = np.einsum("kij,kij->k", dZ, 2.0 * lin + sig * (Zf + Z)) + np.einsum(
            "kij,kij->k", Lam, S - np.matmul(Z.transpose(0, 2, 1), Z)
        )
        rel = np.divide(np.maximum(gap, 0.0), f, out=np.zeros_like(f), where=f > 0)
        return Zf, rel

    def _secular_start(self, k, s, Q) -> np.ndarray:
        """Multipliers diagonal in the eigenbasis Q of S, strictly inside the cone.

        If Lam = Q diag(c) Q^T, column j of Z Q is -(H + c_j)^+ B q_j, so each
        c_j is a scalar trust-region multiplier: the Moré–Sorensen Newton
        iteration on 1/||z(c)|| puts ||z_j||^2 at a fixed share of s_j.
        """
        b2 = np.matmul(self._lin[k], Q) ** 2
        sig, live = self._sig[k][:, :, None], ~self._flat[k][:, :, None]
        target = self._SECULAR_TARGET * s
        c = np.zeros((k.size, s.size))
        for _ in range(self._SECULAR_STEPS):
            inv = np.divide(1.0, sig + c[:, None, :], out=np.zeros_like(b2), where=live)
            q2 = np.sum(b2 * inv**2, axis=1)
            # A start needs no precision: stop once every direction is near its target.
            outside = q2 > 1.01 * target
            if not outside.any():
                break
            q3 = np.sum(b2 * inv**3, axis=1)
            step = (1.0 / np.sqrt(target) - 1.0 / np.sqrt(np.maximum(q2, target))) * q2**1.5
            c = np.where(outside, c + step / np.where(outside, q3, 1.0), c)
        # Directions the ball does not bind still need a positive multiplier.
        scale = c.max(axis=1)
        scale = np.where(scale > 0, scale, self._sig[k].max(axis=1, initial=0.0))
        c = np.maximum(c, 1e-3 * np.maximum(scale, np.finfo(float).tiny)[:, None])
        return np.matmul(Q[None] * c[:, None, :], Q.T[None])

    def _dual_newton(self, k, tau, tol, max_iter, start):
        """Primal-dual Newton iteration on the duals of blocks k.

        Starts from the multipliers of the report ``start`` when it was
        solved at radius tau, else from the secular start.  Returns the
        ball-feasible Z of each block (Gram eigenbasis), the relative gaps,
        the number of Newton steps and the multipliers the gaps were
        measured at.
        """
        n = self.G_part.shape[1]
        eps = np.finfo(float).eps
        s, Q = np.linalg.eigh(tau**2 * np.eye(n) - self.G_part.T @ self.G_part)
        # Within the 1e-9 band below the floor S loses definiteness; keep it
        # positive at rounding level.
        s = np.maximum(s, eps * tau**2)
        S = (Q * s) @ Q.T
        S_sqrt, S_isqrt = (Q * np.sqrt(s)) @ Q.T, (Q / np.sqrt(s)) @ Q.T

        # Indexing by k copies the resumed multipliers.
        Lam = start.state[k] if start is not None and start.tau == tau else self._secular_start(k, s, Q)
        Z = np.zeros((k.size, *self._lin.shape[1:]))
        gap = np.full(k.size, np.inf)
        open_ = np.arange(k.size)
        X = np.zeros_like(Lam)
        sigma = np.full(k.size, self._CENTERING[0])
        iterations = 0
        while open_.size:
            d, V, w, ZV = self._response(k[open_], Lam[open_])
            Z[open_], gap[open_] = self._certificate(k[open_], Lam[open_], V, ZV, S, S_isqrt, S_sqrt)
            if iterations == 0:
                # The starting slack S - Z^T Z, kept a share of S's smallest
                # eigenvalue inside the cone.
                ZZ = np.matmul(np.matmul(V, np.matmul(ZV.transpose(0, 2, 1), ZV)), V.transpose(0, 2, 1))
                x, Wx = np.linalg.eigh(S - ZZ)
                X[open_] = np.matmul(Wx * np.maximum(x, 0.1 * s[0])[:, None, :], Wx.transpose(0, 2, 1))
            # A complementarity at rounding level leaves no gap to close.
            stalled = np.einsum("kij,kij->k", Lam[open_], X[open_]) <= eps * np.einsum(
                "kij,ij->k", Lam[open_], S
            )
            keep = (gap[open_] > tol) & ~stalled
            if iterations == max_iter or not keep.any():
                break
            open_, d, V, w, ZV = open_[keep], d[keep], V[keep], w[keep], ZV[keep]
            Lam[open_], X[open_], step = self._newton_step(d, V, w, ZV, X[open_], S, sigma[open_])
            sigma[open_] = np.clip((1.0 - step) ** 2, *self._CENTERING)
            iterations += 1
        return Z, gap, iterations, Lam

    def _newton_step(self, d, V, w, ZV, X, S, sigma):
        """One damped primal-dual Newton step on (Lam, X) for a batch of blocks.

        Solves for dLam in the scaled coordinates Lam^{1/2} Delta Lam^{1/2}:
        (2 sum_ij w_ij P_a P_b + <E_a, sym(E_b Xh)>) delta = grad of the
        barrier dual at mu, with P_a = Z V sqrt(D) E_a sqrt(D) and
        Xh = sqrt(D) V^T X V sqrt(D) the scaled slack.  The slack moves along
        the linearization of S - Z^T Z.  The step keeps a fraction of the
        distance to the edge of both cones.
        """
        b, n = d.shape
        E = self._basis
        m = E.shape[0]
        Vt = V.transpose(0, 2, 1)
        Sv = np.matmul(Vt, np.matmul(S, V))
        Xv = np.matmul(Vt, np.matmul(X, V))
        ZtZ = np.matmul(ZV.transpose(0, 2, 1), ZV)
        mu = sigma * np.einsum("ki,kii->k", d, Xv) / n
        root = np.sqrt(d)
        outer = root[:, :, None] * root[:, None, :]
        grad = outer * (ZtZ - Sv) + mu[:, None, None] * np.eye(n)
        scaled = E.reshape(1, m, n, n) * outer[:, None]
        P = np.matmul(ZV[:, None], scaled).reshape(b, m, -1)
        Pw = (P.reshape(b, m, -1, n) * w[:, None]).reshape(b, m, -1)
        H = 2.0 * np.matmul(Pw, P.transpose(0, 2, 1))
        H += ((outer * Xv).reshape(b, n * n) @ self._basis_products.T).reshape(b, m, m)
        rhs = grad.reshape(b, n * n) @ E.T
        # Jacobi scaling keeps the solve accurate when Lam has tiny eigenvalues.
        jac = 1.0 / np.sqrt(np.diagonal(H, axis1=1, axis2=2))
        delta = jac * np.linalg.solve(H * jac[:, :, None] * jac[:, None, :], (rhs * jac)[:, :, None])[:, :, 0]
        Delta = (delta @ E).reshape(b, n, n)
        dLam = outer * Delta
        dZ = -w * np.matmul(ZV, dLam)
        J = np.matmul(dZ.transpose(0, 2, 1), ZV)
        dX = Sv - Xv - ZtZ - J - J.transpose(0, 2, 1)
        x, Wx = np.linalg.eigh(Xv)
        X_isqrt = np.matmul(Wx / np.sqrt(x)[:, None, :], Wx.transpose(0, 2, 1))
        lowest = np.minimum(
            np.linalg.eigvalsh(Delta)[:, 0],
            np.linalg.eigvalsh(np.matmul(X_isqrt, np.matmul(dX, X_isqrt)))[:, 0],
        )
        step = np.where(lowest < 0, np.minimum(1.0, -self._TO_BOUNDARY / np.minimum(lowest, -1e-300)), 1.0)
        step_ = step[:, None, None]
        Lam = np.matmul(V, np.matmul(d[:, :, None] * np.eye(n) + step_ * dLam, Vt))
        X = np.matmul(V, np.matmul(Xv + step_ * dX, Vt))
        return _symmetrize(Lam), _symmetrize(X), step


def _ball_projection(M: np.ndarray, tau: float) -> np.ndarray:
    """Projection of M onto the spectral ball of radius tau.

    Works through the eigendecomposition of the small right Gram matrix:
    only singular values above tau are shrunk, and those are where the
    squared spectrum is numerically reliable.
    """
    lam, V = np.linalg.eigh(M.T @ M)
    s = np.sqrt(np.clip(lam, 0.0, None))
    if s[-1] <= tau:
        return M.copy()
    shrink = np.where(s > tau, tau / np.maximum(s, 1e-300), 1.0)
    return M @ ((V * shrink) @ V.T)


def _rho_factor(r: float, s: float) -> float:
    """The power of two nearest r / s, capped at 2^6 either way; 1 unless r and s are more than 2x apart."""
    if not (r > 2.0 * s or s > 2.0 * r):
        return 1.0
    ratio = min(max(r / s, 2.0**-6), 2.0**6) if s > 0 else 2.0**6
    return 2.0 ** round(math.log2(ratio))


class CoupledCausalProblem:
    """Ball-constrained least squares over a causal block-triangular variable.

    ``CoupledCausalProblem(cmap, h1x)`` solves for the whole structured
    parameter: an L x L grid of (cols x n) blocks, zero above the diagonal,
    every block constrained through h1x (diagonal blocks to the identity,
    lower blocks to zero), with objective ||cmap G||_F.  The objective
    couples blocks within a block column; the spectral ball couples all of
    them, handled by ADMM: a quadratic step on the affine set alternating
    with a projection onto the ball.

    The ADMM runs in nullspace coordinates: each block row G_i becomes
    [N | R]^T G_i (N, R orthonormal bases of the nullspace and row space of
    h1x; both norms are kept), the L d rows Z_i = N^T G_i first.  The affine
    set is then free leading rows times the causal mask over fixed trailing
    rows R^T G_part, a row slice.  With F_j = C (I (x) N) over block rows
    j..L-1 and b = C G_part, block column j's quadratic step is Woodbury's
    z_j = v_j - F_j^T (K_j + rho/2 I)^{-1} (b_j + F_j v_j), K_j = F_j F_j^T
    (rows x rows); the inverse is formed once per rho from K_j's eigenbasis.
    """

    _GAP_EVERY = 50  # iterations between check points, where the gap (~3 iterations' work) is checked and rho moves

    def __init__(self, cmap: np.ndarray, h1x: np.ndarray):
        self.C = np.asarray(cmap, dtype=float)
        L, cols, n = _layout(self.C, h1x)
        self.L, self.n = L, n
        # Diagonal blocks map to the identity: the block-diagonal stack of the
        # minimum-norm block is the minimum-norm point, with the same norm.
        part, self._null, row_basis, self.floor = _affine_set(h1x)
        self.G_part = np.kron(np.eye(L), part)
        d = self._null.shape[1]
        self._free = L * d  # the leading (nullspace) rows of a rotated point
        # Block (i, j) of the free rows is free iff i >= j.
        self._causal = np.kron(np.tril(np.ones((L, L))), np.ones((d, n)))
        # The trailing rows of every rotated point of the affine set.
        self._fixed = np.kron(np.eye(L), row_basis.T @ part)

        rows = self.C.shape[0]
        self._CN = np.matmul(self.C.reshape(rows, L, cols), self._null).reshape(rows, L * d)
        self._CG = self.C @ self.G_part
        # K_j = F_j F_j^T with F_j = CN[:, j*d:]; accumulate the block terms
        # C_i N N^T C_i^T from the last block row up.
        F3 = self._CN.reshape(rows, L, d).transpose(1, 0, 2)
        terms = np.matmul(F3, F3.transpose(0, 2, 1))
        _, self._eigvecs = np.linalg.eigh(np.cumsum(terms[::-1], axis=0)[::-1])
        # Eigenvalues as ||F_j^T u||^2: structurally zero ones then come out at
        # squared rounding level, far below the pseudo-inverse cutoff, where
        # eigh of K_j leaves them at rounding level, next to it.
        self._eigvals = np.stack(
            [np.sum((self._CN[:, j * d :].T @ self._eigvecs[j]) ** 2, axis=0) for j in range(L)]
        )
        # The pseudo-inverse of each K_j in its eigenbasis.
        lam = self._eigvals
        cutoff = lam.shape[1] * np.finfo(float).eps * np.maximum(lam[:, -1:], 0.0)
        self._pinv = np.where(lam > cutoff, 1.0 / np.maximum(lam, 1e-300), 0.0)
        # The least squared objective, ||b - Pi_j b||^2 summed over block
        # columns, b = C G_part and Pi_j the projector onto the range of K_j
        # that the pseudo-inverse keeps.  The closed form's own objective
        # can miss it by its solve error, which an ill-conditioned K_j
        # amplifies far beyond rounding.
        projected = self._step(self._pinv > 0, np.zeros(self._causal.shape), self._CG)[1]
        self._least = float(np.sum((self._CG - projected) ** 2))
        # The closed form in rotated coordinates, which a cold start projects onto the ball.
        self._closed = np.vstack([self._step(self._pinv, np.zeros(self._causal.shape), self._CG)[0], self._fixed])
        G = self._original(self._closed[: self._free])
        self.unconstrained = _closed_form_report(G, self._objective(G), self._least)
        self.unconstrained_norm = float(np.linalg.svd(G, compute_uv=False)[0])
        # A cold start's penalty, far below the top curvature of block column 0.
        self._rho0 = float(1e-4 * lam[0, -1]) if lam[0, -1] > 0 else 1.0

    def _objective(self, G: np.ndarray) -> float:
        return float(np.linalg.norm(self.C @ G))

    def _by_column(self, M: np.ndarray) -> np.ndarray:
        """A (rows x L n) matrix as its L block columns, shape (L, rows, n)."""
        return M.reshape(M.shape[0], self.L, self.n).transpose(1, 0, 2)

    def _resolvent(self, rho: float, out: np.ndarray | None = None) -> np.ndarray:
        """(K_j + rho/2 I)^{-1} for every block column j, (L, rows, rows), written into ``out``."""
        U, w = self._eigvecs, 1.0 / (self._eigvals + 0.5 * rho)
        out = np.empty_like(U) if out is None else out
        for j in range(self.L):  # one block column at a time: no (L, rows, rows) temporary
            np.matmul(U[j] * w[j], U[j].T, out=out[j])
        return out

    def _step(self, f: np.ndarray, Z: np.ndarray, b: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
        """Z - mask * (CN^T X) with X_j = f(K_j) (b + CN Z)_j, and X (rows x L n).

        Z is a causal free part (L d x L n).  With f(K) = (K + rho/2 I)^{-1}
        and b = C G_part this is the free part of argmin ||C G||^2 +
        (rho/2) ||G - V||^2 over the causal affine set, Z the masked free
        rows of V; with f(K) = K^+ and Z = 0 it is the closed form's.  f is
        the matrices f(K_j) (``_resolvent``) or their eigenvalues (L, rows).
        """
        X, U = self._by_column(b + self._CN @ Z), self._eigvecs
        X = np.matmul(f, X) if f.ndim == 3 else np.matmul(U, f[:, :, None] * np.matmul(U.transpose(0, 2, 1), X))
        X = X.transpose(1, 0, 2).reshape(self.C.shape[0], -1)
        step = self._CN.T @ X
        step *= self._causal
        return np.subtract(Z, step, out=step), X

    def _original(self, Z: np.ndarray) -> np.ndarray:
        """The point G_part + (I (x) N) Z of free part Z, in the original coordinates."""
        return self.G_part + np.matmul(self._null, Z.reshape(self.L, -1, Z.shape[1])).reshape(self.G_part.shape)

    def solve(self, tau: float, tol: float = 1e-7, max_iter: int = 50_000, start=None) -> SolveReport:
        """Solve with ball radius tau.

        The result depends on the arguments only: the ADMM resumes from the
        (Y, Uv, rho) ``start.state`` (nullspace coordinates) of an earlier
        report at any radius, else from the ball projection of the closed form
        with U = 0 and rho 1e-4 times the top eigenvalue of K_0.

        Every ``_GAP_EVERY`` iterations the report of the current iterate is
        built, and the ADMM stops once its gap is at most ``tol``.  Otherwise,
        and only there, rho may move: if the gap did not at least halve since
        the previous check (the start's, when it is a report at this radius),
        and the primal residual r = ||G - Y|| and the dual one
        s = rho ||Y - Y_prev|| are more than 2x apart, rho is multiplied by
        the power of two nearest r / s, capped at 2^6 either way, and Uv
        divided by it, so the multiplier rho U is unchanged.  A solve capped
        at a check point makes that move too and returns the moved state, so
        a solve resumed from it continues the uncapped one exactly; at any
        other cap one report is built.  ``gap`` and ``cut`` come from
        ``_dual_bound`` at the multiplier rho U, capped solves included, and
        "optimal" means gap <= tol.
        """
        if (closed := _closed_form_at(self, tau)) is not None:
            return closed
        resumed = start is not None and start.state is not None
        if resumed:
            Y, Uv, rho = start.state
        else:
            Y = _ball_projection(self._closed, tau)
            Uv, rho = np.zeros_like(Y), self._rho0
        last_gap = start.gap if resumed and start.tau == tau else None
        free, relax, inv = self._free, 1.7, self._resolvent(rho)
        G = np.vstack([np.zeros_like(self._causal), self._fixed])  # its trailing rows never change
        it = 0
        for it in range(1, max_iter + 1):
            G[:free] = self._step(inv, (Y[:free] - Uv[:free]) * self._causal, self._CG)[0]
            # Over-relaxed ball step: Q = relax G + (1 - relax) Y + Uv.
            Q = relax * G
            Q -= (relax - 1.0) * Y
            Q += Uv
            Y_prev, Y = Y, _ball_projection(Q, tau)
            Uv = np.subtract(Q, Y, out=Q)
            if it % self._GAP_EVERY == 0:
                rep = self._report(Y, Uv, rho, tau, tol, it)
                if rep.status == "optimal":
                    return rep
                if last_gap is None or rep.gap > 0.5 * last_gap:  # the gap stalled: balance the residuals
                    factor = _rho_factor(float(np.linalg.norm(G - Y)), rho * float(np.linalg.norm(Y - Y_prev)))
                    if factor != 1.0:
                        rho, Uv = rho * factor, Uv / factor
                        inv = self._resolvent(rho, inv)
                last_gap = rep.gap
                if it == max_iter:
                    return replace(rep, state=(Y, Uv, rho))
        G = Y_prev = inv = None  # the loop's arrays: freed before the report makes its own
        return self._report(Y, Uv, rho, tau, tol, it)

    def _report(self, Y: np.ndarray, Uv: np.ndarray, rho: float, tau: float, tol: float, it: int) -> SolveReport:
        """The feasible point of ADMM iterate (Y, Uv, rho) and its certificate."""
        Z = Y[: self._free] * self._causal  # the affine projection of Y
        # It can leave the ball by the ADMM residual; blend it toward G_part
        # (the minimum-norm feasible point, of norm floor, free part zero) so
        # the returned point is in the ball exactly: its norm is at most
        # theta * norm + (1 - theta) * floor = tau.
        norm = float(np.linalg.svd(np.vstack([Z, self._fixed]), compute_uv=False)[0])
        if norm > tau:
            Z *= (tau - self.floor) / (norm - self.floor) if tau > self.floor else 0.0
        G_out = self._original(Z)
        objective = self._objective(G_out)
        bound, cut = self._dual_bound(rho * Uv, tau)
        gap = float(max(objective**2 - bound, 0.0) / objective**2) if objective > 0 else 0.0
        return SolveReport(
            solution=G_out,
            objective=objective,
            status="optimal" if gap <= tol else "max-iter",
            iterations=it,
            gap=gap,
            tau=tau,
            state=(Y, Uv, rho),
            cut=cut,
        )

    def _dual_bound(self, lam: np.ndarray, tau: float) -> tuple[float, tuple[float, float, float]]:
        """Lower bound on the squared optimal value from a multiplier of G = Y.

        The Fenchel dual of the splitting (G on the causal affine set, Y in
        the ball) is g(lam) = min_G ||C G||^2 + <lam, G> - tau ||lam||_*,
        finite when the free part of lam lies in the range of (C_j B_j)^T
        on every block column j.  That free part, mask * lam_free on the
        leading rows, is replaced by its projection mask * (CN^T y),
        y_j = K_j^+ (CN (mask * lam_free))_j; with b = C G_part, the dual at s lam' is
        g(s) = least + s (<lam', G_part> - <y, b> - tau ||lam'||_*) - s^2 ||y||^2 / 4,
        maximized in s >= 0.  Returns that g and the cut
        g - (t - tau) s ||lam'||_* on the squared value at radius t.
        """
        free = self._free
        step, y = self._step(self._pinv, lam[:free] * self._causal, 0.0)
        lam = np.vstack([lam[:free] - step, lam[free:]])  # lam'
        nuclear = float(np.linalg.svd(lam, compute_uv=False).sum())
        lin = float(np.vdot(lam[free:], self._fixed) - np.vdot(y, self._CG)) - tau * nuclear
        quad = 0.25 * float(np.vdot(y, y))
        s = max(lin, 0.0) / (2.0 * quad) if quad > 0 else 0.0
        bound = self._least + s * lin - s * s * quad
        return bound, (bound + tau * s * nuclear, -s * nuclear, 0.0)


@dataclass(frozen=True)
class SearchPoint:
    """One solve of the gamma search."""

    gamma: float
    objective: float  # h = f(gamma) / (1 - gamma)
    f_value: float
    status: str
    iterations: int  # inner steps this solve added to the report it resumed
    gap: float  # the relative duality gap of its squared objective
    cut: tuple[float, float, float]  # SolveReport.cut


@dataclass(frozen=True)
class GammaSearchResult(SearchPoint):
    """The final solve at the returned gamma, its solution and the search's trace."""

    solution: np.ndarray
    grid: tuple[SearchPoint, ...]  # every solve in evaluation order, the final one last
    search_gap: float  # (objective - a lower bound on min h) / objective, at least 0


def _point(gamma: float, rep: SolveReport) -> SearchPoint:
    cut = tuple(map(float, rep.cut))
    h = float(rep.objective / (1.0 - gamma))
    return SearchPoint(float(gamma), h, float(rep.objective), rep.status, rep.iterations, rep.gap, cut)


_POWERS = np.arange(3)[:, None]
_MODEL_CLIP = 0.2  # a model-placed step keeps this share of the bracket's width from either end


class _CutModel:
    """The cuts' model of f^2 and the exact least lower bound it puts on h.

    Every cut (c0, c1, c2) bounds F = f^2 from below at every radius, so
    M(tau) = max_k cut_k(tau) does too, and h_LB(gamma) =
    sqrt(max(M(gamma / scale), 0)) / (1 - gamma) bounds h pointwise: its
    minimum over [a, b] bounds min h there.  Where cut k is the max,
    cut_k(tau) / (1 - scale tau)^2 has the one stationary point
    tau* = -(c1 + 2 scale c0) / (2 c2 + scale c1), so the minimum lies at an
    end of [a, b], at a crossing of two cuts or at some cut's tau*.  Every
    cut is nonincreasing in tau >= 0 (c1, c2 <= 0), so M is too, and a
    stretch where M < 0 reaches the right end.

    The model keeps candidates in the knots' range, as gammas, with h_LB at
    each: the knots, every gamma a cut is added at, the crossings of every
    two cuts and every cut's tau*.  Cuts are only ever added: each new one
    adds its candidates and lifts M at the earlier ones where it is higher.
    """

    def __init__(self, cut: tuple[float, float, float], scale: float, knots: np.ndarray):
        self.scale, self.lo, self.hi = scale, float(knots.min()), float(knots.max())
        self.cuts = np.empty((0, 3))
        self.gammas = np.empty(0)
        self._powers = np.empty((3, 0))  # 1, tau, tau^2 at the gammas
        self._values = np.empty(0)  # M at the gammas
        self.add(cut, knots)

    def add(self, cut: tuple[float, float, float], gammas) -> None:
        """Fold in a cut, and the gammas (those of its solve) as candidates."""
        c, s = np.asarray(cut, dtype=float), self.scale
        d0, d1, d2 = (self.cuts - c).T  # d0 + d1 tau + d2 tau^2 = 0 where cut k crosses c
        with np.errstate(all="ignore"):  # no crossing or no stationary point: nan or inf, dropped below
            # The two roots as q / d2 and d0 / q, free of cancellation.
            q = -0.5 * (d1 + np.copysign(np.sqrt(d1 * d1 - 4.0 * d2 * d0), d1))
            stationary = -(c[1] + 2.0 * s * c[0]) / (2.0 * c[2] + s * c[1])
            new = np.concatenate([q / d2 * s, d0 / q * s, [stationary * s], np.atleast_1d(gammas)])
        new = new[(new >= self.lo) & (new <= self.hi)]
        powers = (new / s) ** _POWERS
        self._values = np.maximum(self._values, c @ self._powers)
        self.cuts = np.concatenate([self.cuts, c[None]])
        self._values = np.concatenate([self._values, (self.cuts @ powers).max(axis=0)])
        self._powers = np.concatenate([self._powers, powers], axis=1)
        self.gammas = np.concatenate([self.gammas, new])
        self._h = np.sqrt(np.maximum(self._values, 0.0)) / (1.0 - self.gammas)

    def minimum(self, a: float, b: float) -> tuple[float, float]:
        """The least h_LB over [a, b], a lower bound on min h there, and a gamma attaining it.

        a and b must be candidates: knots or gammas cuts were added at.
        """
        h = np.where((self.gammas >= a) & (self.gammas <= b), self._h, np.inf)
        i = h.argmin()
        return float(h[i]), float(self.gammas[i])


def gamma_search(
    problem,
    eps: float,
    grid_points: int = 16,
    gamma_tol: float = 1e-4,
    tol: float = 1e-7,
    max_iter: int = 10_000,
) -> GammaSearchResult:
    """Minimize h(gamma) = f(gamma)/(1 - gamma) over gamma in [0, 1).

    ``problem`` is the inner problem (``BlockDiagonalProblem`` or
    ``CoupledCausalProblem``); the ball radius at gamma is
    tau = gamma / (sqrt(L) * eps), with L = ``problem.L``.  f is convex and
    nonincreasing in gamma because larger radii only relax the ball, so h is
    quasi-convex.  With eps = 0 the closed form is returned at gamma = 0.
    Every radius solved is above the floor: the least gamma searched is
    1.001 sqrt(L) eps floor + 1e-12, and one not below 1 raises ``InfeasibleEpsilon``.

    The search scans ``grid_points`` radii between the feasibility floor and
    the radius where the ball stops binding, skipping those whose h the cuts
    (below) already bound at or above the incumbent, and brackets the
    minimum between the grid neighbours of the best scanned point.  It then
    bisects the bracket down to ``gamma_tol`` on the sign of h', that of
    F' (1 - gamma) + 2 sqrt(L) eps f^2 with F' = c1 + 2 c2 tau the derivative
    of the solve's cut at its radius.  While every solve so far is
    "optimal", each step goes to the minimizer of h_LB (below) over the
    bracket, kept ``_MODEL_CLIP`` of the bracket's width inside either end;
    once any is "max-iter", whose cut can sit far below f^2, to the midpoint.
    These exploration solves run at (max(tol, 1e-4), min(max_iter, 1200)):
    radii near the floor converge very slowly and never win.  The evaluated
    gamma with the least h, values within the exploration tolerance of it
    tying and the final bracket's ends winning ties, is solved again at
    ``(tol, max_iter)`` and returned.
    Each solve resumes the report of the nearest gamma solved so far (the
    latest on ties); once the bracket is set, only reports a later solve
    can resume are kept, and none keeps its solution.  Each solve writes one
    debug line to the ``ddsls.solver`` logger.

    Every cut, the closed form's too, bounds f^2 from below at every radius,
    however capped its solve, and so does their max M.  Hence
    h_LB(gamma) = sqrt(max(M(tau), 0)) / (1 - gamma) <= h(gamma) at its radius tau,
    and LB, the least h_LB over [gamma_lo, hi], bounds min h; ``_CutModel``
    finds it exactly among finitely many candidates.  Bisection also stops
    once (h - LB) / h <= ``gamma_tol`` > 0 for the best h so far.
    ``search_gap`` is that gap at the returned objective, clipped at zero:
    the search's certificate, which a stop on bracket width can leave above
    ``gamma_tol``.
    """
    if not eps >= 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    if grid_points < 1:
        raise ValueError(f"grid_points must be >= 1, got {grid_points}")
    scale = np.sqrt(problem.L) * eps
    closed = problem.unconstrained
    if eps == 0.0:
        point = _point(0.0, closed)
        return GammaSearchResult(**vars(point), solution=closed.solution, grid=(point,), search_gap=0.0)

    gamma_min, gamma_hi = scale * problem.floor, 1.0 - 1e-9
    gamma_lo = gamma_min * (1.0 + 1e-3) + 1e-12  # the least gamma searched
    if gamma_lo >= gamma_hi:
        raise InfeasibleEpsilon(f"epsilon too large for data: feasibility needs gamma >= {gamma_min:.6g}")
    # Beyond the radius where the ball contains the closed form, h only grows.
    hi = min(gamma_hi, max(scale * problem.unconstrained_norm, gamma_lo))

    points: list[SearchPoint] = []
    reports: dict[float, SolveReport] = {}  # the solved gammas a later solve may resume, without solutions

    def evaluate(gamma: float, solve_tol: float, iters: int, kind: str) -> np.ndarray:
        start = min(reversed(reports.items()), key=lambda e: abs(e[0] - gamma))[1] if reports else None
        rep = problem.solve(gamma / scale, tol=solve_tol, max_iter=iters, start=start)
        _log.debug(
            "%s solve at gamma %.9g (tau %.9g): %s, %d iterations, gap %.3g",
            kind, gamma, gamma / scale, rep.status, rep.iterations, rep.gap,
        )
        reports[float(gamma)] = replace(rep, solution=None)
        points.append(_point(gamma, rep))
        model.add(points[-1].cut, points[-1].gamma)
        return rep.solution

    def least() -> SearchPoint:  # the first with the least h
        return min(points, key=lambda p: p.objective)

    def prune() -> None:
        """Keep the nearest report outside each bracket end (none lies inside) and the least h's."""
        keep = {max((g for g in reports if g <= lo_b), default=None), least().gamma}
        keep.add(min((g for g in reports if g >= hi_b), default=None))
        for g in [g for g in reports if g not in keep]:
            del reports[g]

    def rises(p: SearchPoint) -> bool:
        """Whether h'(gamma) >= 0."""
        slope = p.cut[1] + 2.0 * p.cut[2] * (p.gamma / scale)  # F' at its radius
        return slope * (1.0 - p.gamma) + 2.0 * scale * p.f_value**2 >= 0.0

    def search_gap(h_best: float) -> float:
        """(h_best - LB) / h_best, LB the least h_LB over [gamma_lo, hi]."""
        return 1.0 - model.minimum(gamma_lo, hi)[0] / h_best if h_best > 0 else 0.0

    def certified() -> bool:
        """Whether the cuts put the incumbent within gamma_tol > 0 of min h (0 bisects to float resolution)."""
        return gamma_tol > 0 and search_gap(least().objective) <= gamma_tol

    explore = (max(tol, 1e-4), min(max_iter, 1200))
    grid = np.linspace(gamma_lo, hi, grid_points)
    model = _CutModel(closed.cut, scale, np.append(grid, hi))
    for g in grid:
        # A gamma whose h the cuts bound at or above the incumbent cannot win.
        if points and model.minimum(g, g)[0] >= least().objective:
            continue
        evaluate(g, *explore, "scan")
    best = least()
    # The minimum lies between the best point's grid neighbours, on the side its h' points to.
    i = int(np.searchsorted(grid, best.gamma))
    lo_b, hi_b = grid[np.clip([i - 1, i] if rises(best) else [i, i + 1], 0, len(grid) - 1)]
    prune()
    while hi_b - lo_b > gamma_tol and not certified():
        # A capped solve's cut can sit far below f^2: only certified cuts place the step.
        if all(p.status == "optimal" for p in points):
            margin = _MODEL_CLIP * (hi_b - lo_b)
            step, kind = min(max(model.minimum(lo_b, hi_b)[1], lo_b + margin), hi_b - margin), "model"
        else:
            step, kind = 0.5 * (lo_b + hi_b), "midpoint"
        if step in (lo_b, hi_b):  # the bracket is down to adjacent floats
            break
        evaluate(step, *explore, kind)
        if rises(points[-1]):
            hi_b = step
        else:
            lo_b = step
        prune()
    # Exploration values of h are only as exact as their tolerance: values within it of the
    # least count as ties, won by the ends of the bracket the signs of h' narrowed down.
    near = [p for p in points if p.objective <= least().objective * (1.0 + explore[0])]
    inside = [p for p in near if lo_b <= p.gamma <= hi_b]
    solution = evaluate(min(inside or near, key=lambda p: p.objective).gamma, tol, max_iter, "final")
    gap = max(search_gap(points[-1].objective), 0.0)
    return GammaSearchResult(**vars(points[-1]), solution=solution, grid=tuple(points), search_gap=gap)
