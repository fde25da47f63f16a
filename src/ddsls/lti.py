"""LTI system model, noisy rollouts, shared-input ensembles, and averaging.

The initial condition is embedded in the disturbance record: a trajectory of
horizon T stores a (T, n) noise array whose row 0 holds x(0) and whose row
t >= 1 holds the process noise injected between steps t-1 and t.  Averaging
trajectories that share an input therefore produces another valid trajectory
whose effective noise level shrinks with the ensemble size.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .blockops import as_matrix

__all__ = [
    "LtiSystem",
    "Trajectory",
    "Ensemble",
    "simulate",
    "generate_ensemble",
    "average",
    "save_trajectory_csv",
    "load_trajectory_csv",
    "save_ensemble",
    "load_ensemble",
]


@dataclass(frozen=True)
class LtiSystem:
    """x(t+1) = A x(t) + B u(t) + w(t) with w(t) ~ N(0, noise_std^2 I)."""

    A: np.ndarray
    B: np.ndarray
    noise_std: float = 0.0

    def __post_init__(self):
        A = as_matrix(self.A, "A")
        B = as_matrix(self.B, "B")
        if A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if B.shape[0] != A.shape[0]:
            raise ValueError("B row count must match A")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class Trajectory:
    """State/input/disturbance record over a horizon T.

    ``w[0]`` equals ``x[0]`` (initial-condition embedding) and ``w[t]`` for
    t >= 1 is the process noise entering the transition from t-1 to t.
    """

    x: np.ndarray
    u: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        x = as_matrix(self.x, "x")
        u = as_matrix(self.u, "u")
        w = as_matrix(self.w, "w")
        if not (x.shape[0] == u.shape[0] == w.shape[0]):
            raise ValueError("x, u, w must share the same horizon")
        if w.shape[1] != x.shape[1]:
            raise ValueError("w must have the state dimension")
        if not np.array_equal(w[0], x[0]):
            raise ValueError("w[0] must equal x[0] (initial-condition embedding)")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "w", w)

    @property
    def horizon(self) -> int:
        return self.x.shape[0]

    @property
    def state_dim(self) -> int:
        return self.x.shape[1]

    @property
    def input_dim(self) -> int:
        return self.u.shape[1]

    @property
    def w_process(self) -> np.ndarray:
        """Process-noise signal aligned to injection time.

        Row t holds the noise entering between steps t and t+1; the final
        row is zero because no transition leaves the last recorded state.
        """
        return np.vstack([self.w[1:], np.zeros((1, self.state_dim))])

    def dynamics_residual(self, sys: LtiSystem) -> float:
        """Max-norm violation of x(t+1) = A x(t) + B u(t) + w(t)."""
        pred = self.x[:-1] @ sys.A.T + self.u[:-1] @ sys.B.T + self.w[1:]
        return float(np.abs(self.x[1:] - pred).max(initial=0.0))


@dataclass(frozen=True)
class Ensemble:
    """N trajectories sharing one input signal, plus the seed that made them."""

    trajectories: list[Trajectory]
    seed: int | None = None
    shared_input: bool = field(default=True)

    def __post_init__(self):
        if not self.trajectories:
            raise ValueError("ensemble must be nonempty")
        u0 = self.trajectories[0].u
        if self.shared_input:
            for tr in self.trajectories[1:]:
                if not np.array_equal(tr.u, u0):
                    raise ValueError("trajectories do not share the input signal")

    def __len__(self) -> int:
        return len(self.trajectories)

    @property
    def horizon(self) -> int:
        return self.trajectories[0].horizon


def simulate(
    sys: LtiSystem,
    x0: np.ndarray,
    u: np.ndarray,
    noise: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> Trajectory:
    """Roll the system forward under an input signal.

    ``noise`` is the (T-1, n) array of process noises w(0..T-2); when absent
    it is sampled i.i.d. N(0, noise_std^2 I) from ``rng`` (zeros if neither
    is given).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    T = u.shape[0]
    n, m = sys.state_dim, sys.input_dim
    if u.shape[1] != m:
        raise ValueError(f"u has {u.shape[1]} columns, expected {m}")
    x0 = np.asarray(x0, dtype=float).reshape(n)
    if noise is None:
        if rng is not None and sys.noise_std > 0:
            noise = sys.noise_std * rng.standard_normal((T - 1, n))
        else:
            noise = np.zeros((T - 1, n))
    else:
        noise = np.asarray(noise, dtype=float).reshape(T - 1, n)

    x = np.empty((T, n))
    x[0] = x0
    for t in range(T - 1):
        x[t + 1] = sys.A @ x[t] + sys.B @ u[t] + noise[t]
    w = np.vstack([x0[None, :], noise])
    return Trajectory(x=x, u=u.copy(), w=w)


def generate_ensemble(
    sys: LtiSystem,
    T: int,
    N: int,
    seed: int,
    x0: np.ndarray | None = None,
    replay_input: bool = True,
) -> Ensemble:
    """Sample N trajectories with i.i.d. N(0, I) inputs and fresh noise.

    The first trajectory's input is replayed for every subsequent member so
    that averaging does not wash the excitation out; pass
    ``replay_input=False`` to draw independent inputs instead (diagnostics
    only).  Deterministic under the seed.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    n, m = sys.state_dim, sys.input_dim
    rng = np.random.default_rng(seed)
    x0 = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).reshape(n)

    if replay_input:
        u_all = np.broadcast_to(rng.standard_normal((T, m)), (N, T, m))
    else:
        u_all = rng.standard_normal((N, T, m))
    noise_all = sys.noise_std * rng.standard_normal((N, T - 1, n))

    # Batch rollout: one time loop advances all members together.
    x_all = np.empty((N, T, n))
    x_all[:, 0, :] = x0
    for t in range(T - 1):
        x_all[:, t + 1, :] = (
            x_all[:, t, :] @ sys.A.T + u_all[:, t, :] @ sys.B.T + noise_all[:, t, :]
        )
    trajectories = [
        Trajectory(
            x=x_all[i],
            u=np.array(u_all[i]),
            w=np.vstack([x0[None, :], noise_all[i]]),
        )
        for i in range(N)
    ]
    return Ensemble(trajectories=trajectories, seed=seed, shared_input=replay_input)


def average(ens: Ensemble) -> Trajectory:
    """Coordinate-wise mean trajectory; valid by superposition."""
    if not ens.shared_input:
        raise ValueError("averaging requires a shared input signal")
    x = np.mean([tr.x for tr in ens.trajectories], axis=0)
    u = np.mean([tr.u for tr in ens.trajectories], axis=0)
    w = np.mean([tr.w for tr in ens.trajectories], axis=0)
    return Trajectory(x=x, u=u, w=w)


# ---------------------------------------------------------------------------
# Serialization: one CSV per trajectory plus a JSON manifest per ensemble.

def _atomic_write(path: str, text: str) -> None:
    """Replace ``path`` by a file holding ``text``, never leaving a partial file.

    The text goes to a uniquely named temporary file in the target directory
    (so concurrent writers never share one), is flushed to disk, and then
    renamed over the target.  The result has mode 0644.
    """
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", prefix=os.path.basename(path) + ".")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.chmod(tmp, 0o644)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Rows are (t, x..., u..., w...); w in the initial-condition-embedded layout."""
    n, m = traj.state_dim, traj.input_dim
    header = (
        ["t"]
        + [f"x{i}" for i in range(n)]
        + [f"u{i}" for i in range(m)]
        + [f"w{i}" for i in range(n)]
    )
    lines = [",".join(header)]
    for t in range(traj.horizon):
        row = [str(t)] + [f"{v:.17g}" for v in (*traj.x[t], *traj.u[t], *traj.w[t])]
        lines.append(",".join(row))
    _atomic_write(path, "\n".join(lines) + "\n")


def load_trajectory_csv(path: str) -> Trajectory:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row[1:]] for row in reader]
    n = sum(1 for h in header if h.startswith("x"))
    m = sum(1 for h in header if h.startswith("u"))
    data = np.asarray(rows)
    return Trajectory(x=data[:, :n], u=data[:, n : n + m], w=data[:, n + m :])


def save_ensemble(ens: Ensemble, out_dir: str, sigma2: float | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    tr0 = ens.trajectories[0]
    manifest = {
        "n": tr0.state_dim,
        "m": tr0.input_dim,
        "T": tr0.horizon,
        "N": len(ens),
        "sigma2": sigma2,
        "seed": ens.seed,
    }
    for i, tr in enumerate(ens.trajectories):
        save_trajectory_csv(tr, os.path.join(out_dir, f"trajectory_{i:04d}.csv"))
    _atomic_write(os.path.join(out_dir, "manifest.json"), json.dumps(manifest, indent=2))


def load_ensemble(out_dir: str) -> tuple[Ensemble, dict]:
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    trajectories = [
        load_trajectory_csv(os.path.join(out_dir, f"trajectory_{i:04d}.csv"))
        for i in range(manifest["N"])
    ]
    return Ensemble(trajectories=trajectories, seed=manifest.get("seed")), manifest
