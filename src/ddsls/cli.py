"""Batch experiment driver.

Subcommands: simulate | synth | bounds | mpc | concentration | bootstrap.
Every command reads a JSON config (defaults reproduce the reference
experiment setup), is deterministic under (config, seed), writes CSV/JSON
artifacts with 17-significant-digit numbers, and exits nonzero with a
structured JSON error record on failure.  The ``mpc`` CSV columns are the
fields of ``TrialRecord`` after controller and N, which name the file.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
import traceback
from dataclasses import fields

import numpy as np

from . import analysis, lqg, synth
from .blockops import CostWeights, spectral_norm
from .experiments import TrialRecord, _bootstrap_budget, _noiseless_twin, _record, compare_controllers
from .lti import LtiSystem, _write_csv, _write_json, generate_ensemble, save_ensemble

DEFAULT_CONFIG = {
    "system": {
        "A": [[1.01, 0.01, 0.00], [0.01, 1.01, 0.01], [0.00, 0.01, 1.01]],
        "B": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "sigma2": 0.1,
    },
    "weights": {
        "Q": [[1e-3, 0.0, 0.0], [0.0, 1e-3, 0.0], [0.0, 0.0, 1e-3]],
        "R": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "terminal": "dare",
    },
    "horizons": {"L": 10, "T": 45, "H": 1000},
    "sampling": {"N": 100, "N_list": [8, 32, 128], "trials": 10, "seed": 0},
    "synthesis": {"mode": "robust", "eps": "bootstrap", "structure": "blockdiag"},
    "bounds": {"delta": 0.05},
    "output_dir": "ddsls_out",
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


def load_config(path: str | None, overrides: dict | None = None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        with open(path) as fh:
            cfg = _merge(cfg, json.load(fh))
    if overrides:
        cfg = _merge(cfg, overrides)
    return cfg


def _system(cfg: dict) -> LtiSystem:
    s = cfg["system"]
    return LtiSystem(
        A=np.asarray(s["A"], dtype=float),
        B=np.asarray(s["B"], dtype=float),
        noise_std=math.sqrt(s["sigma2"]),
    )


def _weights(cfg: dict, sys_: LtiSystem) -> CostWeights:
    w = cfg["weights"]
    Q = np.asarray(w["Q"], dtype=float)
    R = np.asarray(w["R"], dtype=float)
    terminal = w["terminal"]
    if isinstance(terminal, str):
        if terminal == "dare":
            QF = lqg.dare(sys_, Q, R)
        elif terminal == "state":
            QF = Q
        else:
            raise ValueError(f"unknown terminal weight spec {terminal!r}")
    else:
        QF = np.asarray(terminal, dtype=float)
    return CostWeights(q_state=Q, r_input=R, q_terminal=QF, horizon=cfg["horizons"]["L"])


def _trials(cfg: dict) -> int:
    trials = cfg["sampling"]["trials"]
    if trials < 1:
        raise ValueError(f"sampling.trials must be >= 1, got {trials}")
    return trials


def _out_dir(cfg: dict) -> str:
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(cfg: dict) -> dict:
    sys_ = _system(cfg)
    T = cfg["horizons"]["T"]
    N = cfg["sampling"]["N"]
    seed = cfg["sampling"]["seed"]
    ens = generate_ensemble(sys_, T, N, seed)
    out = _out_dir(cfg)
    save_ensemble(ens, out, sigma2=cfg["system"]["sigma2"])
    return {"output_dir": out, "N": N, "T": T, "seed": seed}


def _configured_record(cfg: dict, sys_: LtiSystem):
    """The configured ensemble and the Hankels of its average."""
    horizons, sampling = cfg["horizons"], cfg["sampling"]
    return _record(sys_, horizons["T"], sampling["N"], sampling["seed"], horizons["L"])


def _resolve_eps(cfg: dict, ens, data) -> float:
    spec = cfg["synthesis"]["eps"]
    if spec == "bootstrap":
        return _bootstrap_budget(ens, data.L)
    if spec == "true":
        return float(spectral_norm(data.hw))
    return float(spec)


def cmd_synth(cfg: dict) -> dict:
    sys_ = _system(cfg)
    weights = _weights(cfg, sys_)
    mode = cfg["synthesis"]["mode"]
    structure = cfg["synthesis"]["structure"]

    ens, data = _configured_record(cfg, sys_)
    if mode == "noiseless":
        data = _noiseless_twin(sys_, ens.u, data.L)
        result = synth.synth_robust(data, weights, 0.0, structure=structure)
    elif mode == "robust":
        result = synth.synth_robust(data, weights, _resolve_eps(cfg, ens, data), structure=structure)
    elif mode == "naive":
        result = synth.synth_robust(data, weights, 0.0, mode="naive", structure=structure)
    else:
        raise ValueError(f"unknown synthesis mode {mode!r}")

    out = _out_dir(cfg)
    summary = result.summary()
    summary["mode"] = mode
    summary["residuals"] = {"structure_max": synth.structure_residual(data, result.ghat)}
    _write_json(os.path.join(out, "synthesis.json"), summary)
    for name, op in (
        ("phi_x", result.responses.phi_x),
        ("phi_u", result.responses.phi_u),
        ("controller", result.controller),
    ):
        dense = op.dense
        _write_csv(os.path.join(out, f"{name}.csv"), [f"c{j}" for j in range(dense.shape[1])], dense.tolist())
    return summary


def _write_tail_table(path: str, params: analysis.TailParams, tgrid, norms=None) -> None:
    """Both tail bounds at every threshold t of ``tgrid``, after the empirical tail of ``norms`` if given."""
    header, rows = ["t", "matrix_bound", "lipschitz_bound"], []
    if norms is not None:
        header.insert(1, "empirical_tail")
    for t in map(float, tgrid):
        row = [t, analysis.tail_bound_matrix(t, params), analysis.tail_bound_lipschitz_at(t, params)]
        if norms is not None:
            row.insert(1, float(np.mean(norms >= t)))
        rows.append(row)
    _write_csv(path, header, rows)


def cmd_bounds(cfg: dict) -> dict:
    sys_ = _system(cfg)
    weights = _weights(cfg, sys_)
    L, T = cfg["horizons"]["L"], cfg["horizons"]["T"]
    seed = cfg["sampling"]["seed"]
    n = sys_.state_dim

    twin = _noiseless_twin(sys_, np.random.default_rng(seed).standard_normal((T, sys_.input_dim)), L)
    responses_star, terms = analysis._plant_terms(sys_, weights, T)
    gstar = lqg.recover_gstar(twin.hx, twin.hu, responses_star)
    toep = terms["toepnorm"]
    eps_max = analysis.eps_precondition(gstar.norm, L, toep)

    sigma2 = cfg["system"]["sigma2"]
    delta = cfg["bounds"]["delta"]
    nmin = analysis.sample_complexity(delta, gstar.norm, L, toep, n, T, sigma2)

    eps_grid = [0.0] + [eps_max * f for f in (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0)]
    rows = []
    for eps in eps_grid:
        bound = analysis.suboptimality_bound(analysis.BoundInputs(gstar_norm=gstar.norm, eps=eps, **terms))
        rows.append([eps, bound.value, bound.certified])
    out = _out_dir(cfg)
    _write_csv(os.path.join(out, "suboptimality_bounds.csv"), ["eps", "bound", "certified"], rows)

    params = analysis.TailParams(n=n, T=T, N=cfg["sampling"]["N"], sigma2=sigma2)
    tmax = 3.0 * analysis.lipschitz_shift(params) if sigma2 > 0 else 1.0
    _write_tail_table(os.path.join(out, "tail_bounds.csv"), params, np.linspace(0.0, tmax, 20))

    summary = {
        "gstar_norm": gstar.norm,
        "jstar": terms["jstar"],
        "toepnorm": toep,
        "obsnorm": terms["obsnorm"],
        "qhalf_frob": terms["qhalf_frob"],
        "eps_precondition": eps_max,
        "sample_complexity": {"delta": delta, "N_min": nmin},
    }
    _write_json(os.path.join(out, "bounds.json"), summary)
    return summary


def cmd_mpc(cfg: dict) -> dict:
    sys_ = _system(cfg)
    weights = _weights(cfg, sys_)
    results = compare_controllers(
        sys_,
        weights,
        N_list=cfg["sampling"]["N_list"],
        trials_per_N=_trials(cfg),
        seed=cfg["sampling"]["seed"],
        T=cfg["horizons"]["T"],
        mpc_horizon=cfg["horizons"]["H"],
    )
    out = _out_dir(cfg)
    columns = [f.name for f in fields(TrialRecord)][2:]  # controller and N name the file
    by_key: dict[tuple, list] = {}
    for r in results.records:
        by_key.setdefault((r.controller, r.N), []).append(r)
    for (ctrl, N), rows in by_key.items():
        _write_csv(
            os.path.join(out, f"mpc_{ctrl}_N{N}.csv"), columns, [[getattr(r, c) for c in columns] for r in rows]
        )
    _write_json(os.path.join(out, "mpc_summary.json"), results.summary)
    return results.summary


def cmd_concentration(cfg: dict) -> dict:
    sys_ = _system(cfg)
    n = sys_.state_dim
    T = cfg["horizons"]["T"]
    L = cfg["horizons"]["L"]
    N = cfg["sampling"]["N"]
    trials = _trials(cfg)
    seed = cfg["sampling"]["seed"]
    sigma2 = cfg["system"]["sigma2"]
    params = analysis.TailParams(n=n, T=T, N=N, sigma2=sigma2)

    seeds = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
    draws = np.stack([np.random.default_rng(int(s)).standard_normal((T, n)) for s in seeds])
    draws[:, -1, :] = 0.0  # as in Trajectory.w_process: no transition leaves the last recorded state
    norms = analysis.hankel_norms_of_signals(math.sqrt(sigma2 / N) * draws, L)
    out = _out_dir(cfg)
    tgrid = np.linspace(0.0, float(norms.max()) * 1.5, 10)
    _write_tail_table(os.path.join(out, "concentration.csv"), params, tgrid, norms)
    summary = {"trials": trials, "N": N, "mean_norm": float(norms.mean()), "max_norm": float(norms.max())}
    _write_json(os.path.join(out, "concentration.json"), summary)
    return summary


def cmd_bootstrap(cfg: dict) -> dict:
    ens, data = _configured_record(cfg, _system(cfg))
    summary = {
        "N": len(ens),
        "eps_bootstrap_noise": _bootstrap_budget(ens, data.L),
        "eps_bootstrap_deviation": _bootstrap_budget(ens, data.L, statistic="deviation"),
        "eps_realized": float(spectral_norm(data.hw)),
    }
    _write_json(os.path.join(_out_dir(cfg), "bootstrap.json"), summary)
    return summary


_COMMANDS = {
    "simulate": cmd_simulate,
    "synth": cmd_synth,
    "bounds": cmd_bounds,
    "mpc": cmd_mpc,
    "concentration": cmd_concentration,
    "bootstrap": cmd_bootstrap,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ddsls", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None, help="output directory")
        if name in ("mpc", "concentration"):
            p.add_argument("--trials", type=int, default=None)
        if name == "synth":
            p.add_argument("--mode", type=str, default=None, choices=["noiseless", "robust", "naive"])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides: dict = {}
    if args.seed is not None:
        overrides.setdefault("sampling", {})["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        overrides.setdefault("sampling", {})["trials"] = args.trials
    if args.out is not None:
        overrides["output_dir"] = args.out
    if getattr(args, "mode", None) is not None:
        overrides.setdefault("synthesis", {})["mode"] = args.mode
    try:
        cfg = load_config(args.config, overrides)
        summary = _COMMANDS[args.command](cfg)
        print(json.dumps(summary, default=str))
        return 0
    except Exception as exc:  # pragma: no cover - exercised via CLI tests
        record = {
            "error": type(exc).__name__,
            "message": str(exc),
            "command": args.command,
            "traceback": traceback.format_exc().splitlines()[-3:],
        }
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
