"""Robust synthesis at library defaults on the nine default inputs.

The inputs are the reference plant and weights of the CLI's default
configuration (graph Laplacian + 1.01 I, B = I, sigma^2 = 0.1, Q = 1e-3 I,
R = I, DARE terminal weight, L = 10, T = 45) recorded through
``experiments._record`` at N in {8, 32, 128} and seeds 1-3, with eps the
realized noise Hankel norm ||hw||_2.  Each input runs ``synth_robust``
with its default solver settings for each structure, and prints one JSON
line: wall time, inner solves and iterations, the final solve's status and
gap, ``search_gap``, gamma, h and jhat/J*, the realized cost of the
controller over the optimal one.  After them it prints one JSON line per
structure with its totals over the nine inputs: final solves "optimal",
inner solves, iterations, the largest final gap and the median wall time.

    PYTHONPATH=src python scripts/default_inputs.py

Run with ``OPENBLAS_NUM_THREADS=1`` for steadier times.
"""

from __future__ import annotations

import json
import statistics
import time

from ddsls import cli, experiments, lqg, sls, synth
from ddsls.blockops import spectral_norm


def run_input(structure: str, N: int, seed: int, max_iter: int = 10_000) -> dict:
    """One default input's synthesis and its figures; ``max_iter`` is the library default unless given."""
    cfg = cli.load_config(None)
    plant = cli._system(cfg)
    weights = cli._weights(cfg, plant)
    jstar = lqg.optimal_responses(plant, weights)[1]
    _, data = experiments._record(plant, cfg["horizons"]["T"], N, seed, weights.horizon)
    start = time.perf_counter()
    res = synth.synth_robust(data, weights, spectral_norm(data.hw), structure=structure, max_iter=max_iter)
    wall = time.perf_counter() - start
    search = res.search
    jhat = sls.sls_cost(sls.responses_from_controller(plant, res.controller), weights)
    return {
        "structure": structure,
        "N": N,
        "seed": seed,
        "wall_s": wall,
        "solves": len(search.grid),
        "iterations": sum(p.iterations for p in search.grid),
        "status": search.status,
        "gap": search.gap,
        "search_gap": search.search_gap,
        "gamma": res.gamma,
        "h": res.objective,
        "jhat_over_jstar": jhat / jstar,
    }


def totals(rows: list[dict]) -> dict:
    """One structure's totals over its inputs' rows."""
    return {
        "structure": rows[0]["structure"],
        "inputs": len(rows),
        "optimal": sum(row["status"] == "optimal" for row in rows),
        "solves": sum(row["solves"] for row in rows),
        "iterations": sum(row["iterations"] for row in rows),
        "max_gap": max(row["gap"] for row in rows),
        "median_wall_s": statistics.median(row["wall_s"] for row in rows),
    }


def main() -> None:
    by_structure = {"blockdiag": [], "full": []}
    for structure, rows in by_structure.items():
        for N in (8, 32, 128):
            for seed in (1, 2, 3):
                rows.append(run_input(structure, N, seed))
                print(json.dumps(rows[-1]), flush=True)
    for rows in by_structure.values():
        print(json.dumps(totals(rows)), flush=True)


if __name__ == "__main__":
    main()
