"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402


def test_smoke_mode_prints_the_metric_names_of_benchmark_json():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert sum(line.startswith("smoke ") and ": ok " in line for line in lines) == 8
    assert json.loads(lines[-1])["correct"] is True


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "budget", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_units_match_the_printed_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric["name"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert run.tail(list(range(281)))[1] == 96
    assert run.tail(list(range(100)))[1] == 90
    assert run.tail(list(range(12))) == (5.5, 50)


def test_self_time_subtracts_direct_children_and_busy_counts_outermost_only():
    S = tracer.Span
    spans = [
        S("a", 0.0, 10.0, -1, 0),
        S("b", 1.0, 4.0, 0, 0),
        S("b", 2.0, 3.0, 1, 0),  # nested call of the same layer
        S("c", 5.0, 9.0, 0, 0),
    ]
    assert tracer.self_seconds(spans) == [3.0, 2.0, 1.0, 4.0]
    assert tracer.outermost(spans) == [True, True, False, True]


def test_tracer_restores_every_name_it_replaced():
    import ddsls
    from ddsls import experiments, solver, synth

    before = (synth.gamma_search, experiments.synth_robust, ddsls.synth_robust, solver.BlockDiagonalProblem.solve)
    t = tracer.Tracer()
    t.install()
    try:
        assert synth.gamma_search is not before[0]
        assert experiments.synth_robust is ddsls.synth_robust is synth.synth_robust
    finally:
        t.uninstall()
    after = (synth.gamma_search, experiments.synth_robust, ddsls.synth_robust, solver.BlockDiagonalProblem.solve)
    assert after == before
