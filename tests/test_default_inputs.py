import json
import math

import pytest

from scripts.default_inputs import run_input


@pytest.mark.parametrize("structure", ["blockdiag", "full"])
def test_one_input_prints_its_figures(structure):
    row = run_input(structure, N=8, seed=1, max_iter=60)
    assert (row["structure"], row["N"], row["seed"]) == (structure, 8, 1)
    assert row["status"] in ("optimal", "max-iter")
    assert row["solves"] >= 1 and row["iterations"] >= 0
    assert 0.0 < row["gamma"] < 1.0 and row["jhat_over_jstar"] >= 1.0
    assert all(math.isfinite(row[k]) for k in ("wall_s", "gap", "search_gap", "h"))
    json.dumps(row)
