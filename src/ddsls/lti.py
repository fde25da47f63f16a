"""LTI system model, noisy rollouts, shared-input ensembles, averaging, and
the CSV/JSON writers every artifact goes through.

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
from dataclasses import dataclass

import numpy as np

from .blockops import _require_count, _require_finite, _require_nonnegative, as_matrix

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
        _require_nonnegative(noise_std=self.noise_std)
        _require_finite(noise_std=self.noise_std)
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
    A record that breaks this, or has non-finite or mismatched entries,
    raises ValueError.
    """

    x: np.ndarray
    u: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name, a in zip("xuw", _record_arrays(self.x, self.u, self.w, ndim=2)):
            object.__setattr__(self, name, a)

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
        return _process_noise(self.w)


def _process_noise(w: np.ndarray) -> np.ndarray:
    """Shift (..., T, n) embedded noise records to injection time (last row zero)."""
    out = np.zeros_like(w)
    out[..., :-1, :] = w[..., 1:, :]
    return out


def _record_arrays(x, u, w, ndim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The float arrays of a valid record: ``ndim``-D (..., T, n) states ``x`` and
    noise ``w`` under their (T, m) input ``u``.

    Raises ValueError unless the three share a horizon of at least one step,
    ``w`` has the shape of ``x``, every entry is finite and the noise embeds
    the initial condition (``w[..., 0, :] == x[..., 0, :]``).
    """
    x, w = np.asarray(x, dtype=float), np.asarray(w, dtype=float)
    u = as_matrix(u, "u")
    if x.ndim != ndim or 0 in x.shape[:-2]:
        raise ValueError(f"x must be a nonempty {ndim}-D record, got shape {x.shape}")
    _require_count(horizon=x.shape[-2])
    if w.shape != x.shape:
        raise ValueError(f"w must have the shape {x.shape} of x, got {w.shape}")
    if u.shape[0] != x.shape[-2]:
        raise ValueError("x, u, w must share the same horizon")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(w))):
        raise ValueError("x and w must have finite entries")
    if not np.array_equal(w[..., 0, :], x[..., 0, :]):
        raise ValueError("w[..., 0, :] must equal x[..., 0, :] (initial-condition embedding)")
    return x, u, w


@dataclass(frozen=True)
class Ensemble:
    """N trajectories under one shared input, stored stacked, plus their seed.

    ``x`` and ``w`` are (N, T, n): member i's states and its noise record in
    the initial-condition-embedded layout of :class:`Trajectory`.  ``u`` is
    the (T, m) input every member received.  The record passes the same
    check as a :class:`Trajectory` (shared horizon, matching shapes, finite
    entries, embedded initial condition) and at least one member; otherwise
    ValueError.
    """

    x: np.ndarray
    w: np.ndarray
    u: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        for name, a in zip("xuw", _record_arrays(self.x, self.u, self.w, ndim=3)):
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def w_process(self) -> np.ndarray:
        """(N, T, n) process-noise signals, aligned as :attr:`Trajectory.w_process`."""
        return _process_noise(self.w)


def simulate(
    sys: LtiSystem,
    x0: np.ndarray,
    u: np.ndarray,
    noise: np.ndarray | None = None,
) -> Trajectory:
    """Roll the system forward under an input signal.

    ``noise`` is the (T-1, n) array of process noises w(0..T-2); zeros when
    absent.  An ``x0`` or ``noise`` of the wrong size raises ValueError.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    T = u.shape[0]
    _require_count(horizon=T)
    n, m = sys.state_dim, sys.input_dim
    if u.shape[1] != m:
        raise ValueError(f"u has {u.shape[1]} columns, expected {m}")
    x0 = np.asarray(x0, dtype=float)
    if x0.size != n:
        raise ValueError(f"x0 must hold {n} states, got shape {x0.shape}")
    noise = np.zeros((T - 1, n)) if noise is None else np.asarray(noise, dtype=float)
    if noise.size != (T - 1) * n:
        raise ValueError(f"noise must hold {T - 1} x {n} process noises, got shape {noise.shape}")
    x0, noise = x0.reshape(n), noise.reshape(T - 1, n)

    x, w = _rollout(sys, x0[None, :], u, noise[None])
    return Trajectory(x=x[0], u=u.copy(), w=w[0])


def generate_ensemble(sys: LtiSystem, T: int, N: int, seed: int) -> Ensemble:
    """Sample N trajectories from the zero state under one i.i.d. N(0, I) input.

    Every member receives the same input, so that averaging does not wash
    the excitation out.  Deterministic under the seed: the input is drawn
    first, then the noise of all members.
    """
    _require_count(N=N, horizon=T)
    n, m = sys.state_dim, sys.input_dim
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((T, m))
    noise = sys.noise_std * rng.standard_normal((N, T - 1, n))
    x, w = _rollout(sys, np.zeros((N, n)), u, noise)
    return Ensemble(x=x, w=w, u=u, seed=seed)


def _rollout(sys: LtiSystem, x0: np.ndarray, u: np.ndarray, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, T, n) states and embedded noise records of N rollouts under one (T, m) input.

    ``x0`` is (N, n) and ``noise`` the (N, T-1, n) process noises.  One time
    loop advances all members together.
    """
    N, T = noise.shape[0], u.shape[0]
    u_all = np.broadcast_to(u, (N, T, u.shape[1]))
    x = np.empty((N, T, sys.state_dim))
    x[:, 0, :] = x0
    for t in range(T - 1):
        x[:, t + 1, :] = x[:, t, :] @ sys.A.T + u_all[:, t, :] @ sys.B.T + noise[:, t, :]
    return x, np.concatenate([x0[:, None, :], noise], axis=1)


def average(ens: Ensemble) -> Trajectory:
    """Coordinate-wise mean trajectory under the shared input; valid by superposition."""
    return Trajectory(x=ens.x.mean(axis=0), u=ens.u, w=ens.w.mean(axis=0))


# ---------------------------------------------------------------------------
# Serialization: every CSV and JSON artifact of the package goes through
# _write_csv and _write_json.  An ensemble is one CSV per member plus a JSON
# manifest.

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


def _csv_cell(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _write_csv(path: str, header: list[str], rows) -> None:
    """Comma-separated rows under a header.

    Floats carry 17 significant digits, None is written as ``nan`` and a
    bool as 0/1.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2, allow_nan=True) + "\n")


def save_trajectory_csv(traj: Trajectory, path: str) -> None:
    """Rows are (t, x..., u..., w...); w in the initial-condition-embedded layout."""
    n, m = traj.state_dim, traj.input_dim
    header = (
        ["t"]
        + [f"x{i}" for i in range(n)]
        + [f"u{i}" for i in range(m)]
        + [f"w{i}" for i in range(n)]
    )
    data = np.hstack([traj.x, traj.u, traj.w]).tolist()
    _write_csv(path, header, ([t, *row] for t, row in enumerate(data)))


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
    N, T, n = ens.x.shape
    manifest = {"n": n, "m": ens.u.shape[1], "T": T, "N": N, "sigma2": sigma2, "seed": ens.seed}
    for i in range(N):
        member = Trajectory(x=ens.x[i], u=ens.u, w=ens.w[i])
        save_trajectory_csv(member, os.path.join(out_dir, f"trajectory_{i:04d}.csv"))
    _write_json(os.path.join(out_dir, "manifest.json"), manifest)


def load_ensemble(out_dir: str) -> tuple[Ensemble, dict]:
    """Read an ensemble written by :func:`save_ensemble`.

    Raises ValueError when the member files do not all carry the same input.
    """
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    members = [
        load_trajectory_csv(os.path.join(out_dir, f"trajectory_{i:04d}.csv"))
        for i in range(manifest["N"])
    ]
    if not members:
        raise ValueError("ensemble must be nonempty")
    u = members[0].u
    if any(not np.array_equal(tr.u, u) for tr in members[1:]):
        raise ValueError("trajectories do not share the input signal")
    ens = Ensemble(
        x=np.stack([tr.x for tr in members]),
        w=np.stack([tr.w for tr in members]),
        u=u,
        seed=manifest.get("seed"),
    )
    return ens, manifest
