"""Independent reference solvers used only to cross-check the package."""

import numpy as np


def kkt_equality_ls(C: np.ndarray, A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, float]:
    """Dense KKT solve of min ||C G||_F s.t. A G = B, column by column."""
    ncols = B.shape[1]
    M = C.shape[1]
    a = A.shape[0]
    kkt = np.zeros((M + a, M + a))
    kkt[:M, :M] = 2.0 * C.T @ C
    kkt[:M, M:] = A.T
    kkt[M:, :M] = A
    G = np.empty((M, ncols))
    for j in range(ncols):
        rhs = np.concatenate([np.zeros(M), B[:, j]])
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        G[:, j] = sol[:M]
    return G, float(np.linalg.norm(C @ G))


def _project_ball(G: np.ndarray, tau: float) -> np.ndarray:
    U, s, Vt = np.linalg.svd(G, full_matrices=False)
    if s[0] <= tau:
        return G
    return (U * np.minimum(s, tau)) @ Vt


def _project_intersection(G, pinv, A, B, tau, max_rounds=60, tol=1e-12):
    """Dykstra alternation between the affine set and the spectral ball."""
    x = G.copy()
    p = np.zeros_like(G)
    q = np.zeros_like(G)
    for _ in range(max_rounds):
        y = (x + p) - pinv @ (A @ (x + p) - B)
        p = x + p - y
        x_new = _project_ball(y + q, tau)
        q = y + q - x_new
        x = x_new
        feas_aff = np.abs(A @ x - B).max()
        feas_ball = max(np.linalg.svd(x, compute_uv=False)[0] - tau, 0.0)
        if feas_aff < tol and feas_ball < tol * max(1.0, tau):
            break
    return x


def projected_gradient_spectral(
    C: np.ndarray,
    A: np.ndarray,
    B: np.ndarray,
    tau: float,
    iters: int = 30_000,
) -> tuple[np.ndarray, float]:
    """First-order reference solve of min ||C G||_F s.t. A G = B, ||G||_2 <= tau.

    Projected gradient with momentum (restarted on objective increase) on
    the squared objective.  Each step re-enters the feasible set through a
    Dykstra projection followed by an exact repair: project back onto the
    affine set, then blend toward the minimum-norm feasible point until the
    ball constraint holds, so every iterate is genuinely feasible and the
    incumbent objective is a valid upper bound throughout.  Entirely
    independent of the operator-splitting path it is used to check.
    """
    pinv = np.linalg.pinv(A)
    Gp = pinv @ B
    floor = float(np.linalg.svd(Gp, compute_uv=False)[0]) if Gp.size else 0.0
    if tau < floor:
        raise ValueError("radius below the feasibility floor")
    step = 1.0 / (2.0 * np.linalg.svd(C, compute_uv=False)[0] ** 2)
    hess = 2.0 * C.T @ C

    def repair(X):
        """Exactly feasible point near X: affine projection plus ball blend."""
        X = X - pinv @ (A @ X - B)
        norm = float(np.linalg.svd(X, compute_uv=False)[0])
        if norm <= tau:
            return X
        # The blend stays on the affine set; its norm is at most
        # theta*norm + (1-theta)*floor = tau.
        theta = (tau - floor) / (norm - floor)
        return theta * X + (1.0 - theta) * Gp

    def project(X):
        return repair(_project_intersection(X, pinv, A, B, tau))

    G = project(Gp)
    best = G
    best_obj = float(np.linalg.norm(C @ G))
    momentum = G.copy()
    t_acc = 1.0
    prev_obj = best_obj
    stall = 0
    for _ in range(iters):
        G_new = project(momentum - step * (hess @ momentum))
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2))
        momentum = G_new + ((t_acc - 1.0) / t_next) * (G_new - G)
        obj = float(np.linalg.norm(C @ G_new))
        if obj > prev_obj:
            # Restart the momentum sequence when it overshoots.
            momentum = G_new.copy()
            t_next = 1.0
        prev_obj = obj
        G, t_acc = G_new, t_next
        if obj < best_obj * (1.0 - 1e-12):
            best, best_obj = G_new, obj
            stall = 0
        else:
            stall += 1
            if stall > 1500:
                break
    return best, best_obj


def _affine_basis(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm solution of A G = B and an orthonormal nullspace basis of A."""
    U, s, Vt = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > max(A.shape) * np.finfo(float).eps * s[0]))
    return (Vt[:rank].T / s[:rank]) @ (U[:, :rank].T @ B), Vt[rank:].T


def barrier_spectral(
    C: np.ndarray,
    A: np.ndarray,
    B: np.ndarray,
    tau: float,
    rel_gap: float = 1e-12,
    L: int = 1,
) -> tuple[np.ndarray, float]:
    """Interior-point reference solve of min ||C G||_F s.t. ||G||_2 <= tau on an affine set.

    With ``L`` = 1 the set is A G = B.  With ``L`` > 1, G is the causal
    L x L grid of (cols x k) blocks of the coupled problem, B being
    (n x k): block (i, i) meets A G = B, blocks below the diagonal meet
    A G = 0 and blocks above it are zero.  Either way G = G_p + M(z), G_p
    the block-diagonal stack of the minimum-norm block and M an isometry
    onto the free blocks' nullspace parts (N e_a e_c^T placed in each block
    on or below the diagonal).

    Log-barrier path following with damped Newton steps in z: minimise
    t ||C G||_F^2 - log det(tau^2 I - G'G) for growing t.  Every iterate
    lies strictly inside the ball and on the affine set, so the returned
    objective bounds the optimum from above, and it exceeds the optimal
    squared objective by at most (G's column count) / t.  Needs room
    between the feasibility floor and the radius, since it starts from G_p.
    """
    block, N = _affine_basis(A, B)
    Gp = np.kron(np.eye(L), block)
    (cols, d), k = N.shape, block.shape[1]
    ncols = Gp.shape[1]
    if float(np.linalg.svd(Gp, compute_uv=False)[0]) >= tau:
        raise ValueError("radius at or below the feasibility floor")
    # Column q of M is vec(G) (row-major) of the q-th free coordinate.
    units = []
    for i in range(L):
        for j in range(i + 1):
            for a in range(d):
                for c in range(k):
                    E = np.zeros_like(Gp)
                    E[i * cols : (i + 1) * cols, j * k + c] = N[:, a]
                    units.append(E.ravel())
    M = np.array(units).T
    CtC = C.T @ C
    quad = np.kron(CtC, np.eye(ncols))

    def point(z):
        return Gp + (M @ z).reshape(Gp.shape)

    def slack_factor(G):
        """Cholesky factor of tau^2 I - G'G, or None outside the open ball."""
        try:
            return np.linalg.cholesky(tau**2 * np.eye(ncols) - G.T @ G)
        except np.linalg.LinAlgError:
            return None

    def merit(z, t):
        G = point(z)
        Lc = slack_factor(G)
        if Lc is None:
            return np.inf
        return t * float(np.linalg.norm(C @ G)) ** 2 - 2.0 * float(np.log(np.diag(Lc)).sum())

    z = np.zeros(M.shape[1])
    f0 = float(np.linalg.norm(C @ Gp)) ** 2
    t = ncols / max(f0, 1e-12)
    for _ in range(40):
        for _ in range(200):
            G = point(z)
            Li = np.linalg.inv(slack_factor(G))
            Si = Li.T @ Li
            P = G @ Si
            grad = M.T @ (2.0 * (t * (CtC @ G) + P)).ravel()
            # Hessian on row-major vec(G): the quadratic gives t C'C (x) I and
            # the barrier's second derivative along dG is
            # 2 dG S^-1 + 2 G S^-1 (dG'G + G'dG) S^-1.
            hess_G = 2.0 * (
                t * quad
                + np.kron(np.eye(len(G)) + P @ G.T, Si)
                + np.einsum("ia,bk->ikba", P, P).reshape(G.size, G.size)
            )
            step = -np.linalg.lstsq(M.T @ hess_G @ M, grad, rcond=None)[0]
            decrement = -float(grad @ step)
            if decrement <= 1e-14:
                break
            # Backtrack until the merit drops enough and the point stays inside.
            current, alpha = merit(z, t), 1.0
            while merit(z + alpha * step, t) > current - 0.25 * alpha * decrement:
                alpha *= 0.5
                if alpha < 1e-12:
                    break
            if alpha < 1e-12:
                break
            z = z + alpha * step
        f = float(np.linalg.norm(C @ point(z))) ** 2
        if ncols / t <= rel_gap * max(f, 1e-300):
            break
        t *= 10.0
    G = point(z)
    return G, float(np.linalg.norm(C @ G))


def coupled_quad_step(
    C: np.ndarray, A: np.ndarray, L: int, cols: int, n: int, V: np.ndarray | None, rho: float
) -> np.ndarray:
    """argmin ||C G||^2 + (rho/2)||G - V||^2 over the causal affine set.

    Reference for the coupled solver's step: one block column at a time, in
    the explicit reduced basis I_k (x) N of the free blocks, through the
    eigendecomposition of the reduced Gram.  ``V=None`` gives the
    minimum-norm unconstrained minimizer (pseudo-inverse of the Gram).
    """
    pinv, null = _affine_basis(A, np.eye(A.shape[0]))
    G = np.zeros((cols * L, n * L))
    for jb in range(L):
        rows = slice(jb * cols, L * cols)
        csel = slice(jb * n, (jb + 1) * n)
        ccols = C[:, rows]
        k = L - jb
        basis = np.kron(np.eye(k), null)
        CB = ccols @ basis
        lam, W = np.linalg.eigh(CB.T @ CB)
        part = np.zeros((k * cols, n))
        part[:cols] = pinv
        rhs = -basis.T @ (ccols.T @ (ccols @ part))
        if V is not None:
            rhs = rhs + 0.5 * rho * (basis.T @ V[rows, csel])
            z = W @ ((W.T @ rhs) / (lam + 0.5 * rho)[:, None])
        else:
            cutoff = max(lam.size, 1) * np.finfo(float).eps * max(lam.max(initial=0.0), 0.0)
            inv = np.where(lam > cutoff, 1.0 / np.maximum(lam, 1e-300), 0.0)
            z = W @ (inv[:, None] * (W.T @ rhs))
        G[rows, csel] = part + basis @ z
    return G


def coupled_dual_bound(C: np.ndarray, A: np.ndarray, L: int, cols: int, n: int, tau: float, lam: np.ndarray) -> float:
    """Lower bound on the coupled problem's squared optimum from a multiplier ``lam`` of G = Y.

    The Fenchel dual of the splitting, in the original coordinates, one
    block column j (block rows j..L-1, C_j their columns of C) at a time:
    G0_j minimizes ||C_j G_j|| on the block column's affine set, and the
    free part of lam_j (its nullspace part in every block, P_N lam_j) is
    replaced by the least-norm x with A_j x = 0 and C_j x = C_j P_N lam_j,
    its projection onto what C_j sees, x = P_N C_j^T y for the least-norm
    y; all three from ``kkt_equality_ls``.  With lam' the multiplier so
    changed, the dual at s lam' is
    least + s (sum_j <lam'_j, G0_j> - tau ||lam'||_*) - s^2 ||y||^2 / 4,
    maximized in s >= 0, the nuclear norm from an SVD.
    """
    _, null = _affine_basis(A, np.eye(A.shape[0]))
    lam = lam.copy()
    least = lin = quad = 0.0
    for j in range(L):
        k = L - j
        rows, csel = slice(j * cols, L * cols), slice(j * n, (j + 1) * n)
        Cj, Aj = C[:, rows], np.kron(np.eye(k), A)
        zero = np.zeros((k * A.shape[0], n))
        rhs = zero.copy()
        rhs[: A.shape[0]] = np.eye(n)
        G0, f = kkt_equality_ls(Cj, Aj, rhs)
        PN = np.kron(np.eye(k), null @ null.T)
        free = PN @ lam[rows, csel]
        x = kkt_equality_ls(np.eye(k * cols), np.vstack([Aj, Cj]), np.vstack([zero, Cj @ free]))[0]
        y = kkt_equality_ls(np.eye(len(C)), PN @ Cj.T, x)[0]
        lam[rows, csel] += x - free
        least += f**2
        lin += float(np.vdot(lam[rows, csel], G0))
        quad += 0.25 * float(np.vdot(y, y))
    lin -= tau * float(np.linalg.svd(lam, compute_uv=False).sum())
    s = max(lin, 0.0) / (2.0 * quad) if quad > 0 else 0.0
    return least + s * lin - s * s * quad


def coupled_admm(
    C: np.ndarray, A: np.ndarray, L: int, cols: int, n: int, tau: float, rho: float, iters: int
) -> tuple[np.ndarray, list[float]]:
    """The coupled solver's ADMM in the original coordinates, from ``coupled_quad_step``.

    Starts at Y the ball projection of the closed form, U = 0, and runs
    ``iters`` over-relaxed (1.7) iterations: G the reference step at
    V = Y - U, Y the ball projection of 1.7 G - 0.7 Y + U, U the remainder.
    Every 50 iterations it reads the relative gap of the point below at
    the multiplier rho U (``coupled_dual_bound``).  If that gap did not at
    least halve since the previous check (always, at the first), and the
    primal residual r = ||G - Y|| and the dual one s = rho ||Y - Y_prev|| are
    more than 2x apart, rho is multiplied (U divided) by 2^k, k the integer
    nearest log2(r / s) clipped to [-6, 6].  Returns the affine projection
    of the last Y, blended toward the minimum-norm point until it is in the
    ball, and every rho the loop ran or ended with, the first one included.
    """
    pinv, null = _affine_basis(A, np.eye(A.shape[0]))
    G_part = np.kron(np.eye(L), pinv)
    mask = np.kron(np.tril(np.ones((L, L))), np.ones((cols, n)))
    projector = np.kron(np.eye(L), null @ null.T)
    floor = np.linalg.norm(G_part, 2)

    def point(Y):
        G = G_part + mask * (projector @ Y)
        norm = np.linalg.norm(G, 2)
        if norm > tau:
            theta = (tau - floor) / (norm - floor)
            G = theta * G + (1.0 - theta) * G_part
        return G

    Y = _project_ball(coupled_quad_step(C, A, L, cols, n, None, rho), tau)
    U = np.zeros_like(Y)
    rhos, last_gap = [rho], None
    for it in range(1, iters + 1):
        G = coupled_quad_step(C, A, L, cols, n, Y - U, rho)
        Q = 1.7 * G - 0.7 * Y + U
        Y_prev, Y = Y, _project_ball(Q, tau)
        U = Q - Y
        if it % 50 == 0:
            f2 = np.linalg.norm(C @ point(Y)) ** 2
            gap = max(f2 - coupled_dual_bound(C, A, L, cols, n, tau, rho * U), 0.0) / f2
            r, s = np.linalg.norm(G - Y), rho * np.linalg.norm(Y - Y_prev)
            if (last_gap is None or gap > 0.5 * last_gap) and (r > 2.0 * s or s > 2.0 * r):
                factor = 2.0 ** np.clip(np.rint(np.log2(r / s)), -6, 6)
                rho, U = factor * rho, U / factor
                rhos.append(rho)
            last_gap = gap
    return point(Y), rhos
