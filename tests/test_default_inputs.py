import json
import math

import pytest

from scripts.default_inputs import run_input, totals


@pytest.mark.parametrize("structure", ["blockdiag", "full"])
def test_one_input_prints_its_figures(structure):
    row = run_input(structure, N=8, seed=1, max_iter=60)
    assert (row["structure"], row["N"], row["seed"]) == (structure, 8, 1)
    assert row["status"] in ("optimal", "max-iter")
    assert row["solves"] >= 1 and row["iterations"] >= 0
    assert 0.0 < row["gamma"] < 1.0 and row["jhat_over_jstar"] >= 1.0
    assert all(math.isfinite(row[k]) for k in ("wall_s", "gap", "search_gap", "h"))
    json.dumps(row)


def test_totals_sum_one_structures_rows():
    rows = [
        {"structure": "full", "status": "optimal", "solves": 9, "iterations": 100, "gap": 1e-8, "wall_s": 1.0},
        {"structure": "full", "status": "max-iter", "solves": 8, "iterations": 300, "gap": 3e-5, "wall_s": 3.0},
        {"structure": "full", "status": "optimal", "solves": 10, "iterations": 200, "gap": 9e-8, "wall_s": 2.0},
    ]
    expected = {
        "structure": "full",
        "inputs": 3,
        "optimal": 2,
        "solves": 27,
        "iterations": 600,
        "max_gap": 3e-5,
        "median_wall_s": 2.0,
    }
    assert totals(rows) == expected
