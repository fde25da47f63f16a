import json
import os
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ddsls import cli
from ddsls.experiments import TrialRecord

TINY = {
    "horizons": {"L": 4, "T": 20, "H": 60},
    "sampling": {"N": 8, "N_list": [8], "trials": 2, "seed": 5},
}


def write_config(tmp_path, extra=None):
    cfg = dict(TINY)
    if extra:
        cfg = cli._merge(cfg, extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return cli.main(args)


def test_simulate_outputs_and_determinism(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["N"] == 8 and manifest["T"] == 20
    files = sorted(os.listdir(out1))
    assert "trajectory_0000.csv" in files
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_synth_noiseless_reproduces_model_optimum(tmp_path, plant, bench_weights):
    cfg = write_config(
        tmp_path,
        {"horizons": {"L": 10, "T": 45}, "synthesis": {"mode": "noiseless"}},
    )
    out = tmp_path / "synth"
    assert run(["synth", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "synthesis.json").read_text())
    from ddsls.lqg import optimal_responses

    _, jstar = optimal_responses(plant, bench_weights)
    assert summary["objective"] == pytest.approx(jstar, rel=1e-6)
    assert summary["gamma"] == 0.0
    assert (out / "phi_x.csv").exists()
    assert (out / "controller.csv").exists()


def test_noiseless_synth_honours_structure(tmp_path, plant, bench_weights):
    cfg = write_config(
        tmp_path,
        {"horizons": {"L": 10, "T": 45}, "synthesis": {"mode": "noiseless", "structure": "full"}},
    )
    out = tmp_path / "synth"
    assert run(["synth", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "synthesis.json").read_text())
    from ddsls.lqg import optimal_responses

    _, jstar = optimal_responses(plant, bench_weights)
    assert (summary["mode"], summary["structure"], summary["gamma"]) == ("noiseless", "full", 0.0)
    assert summary["objective"] == pytest.approx(jstar, rel=1e-6)


@pytest.mark.parametrize("structure", ["blockdiag", "full"])
def test_structure_max_covers_every_block(tmp_path, monkeypatch, structure):
    real, seen = cli.synth.synth_robust, {}

    def spy(data, *args, **kwargs):
        res = real(data, *args, **kwargs)
        seen.update(data=data, ghat=res.ghat)
        return res

    monkeypatch.setattr(cli.synth, "synth_robust", spy)
    cfg = write_config(tmp_path, {"synthesis": {"eps": "true", "structure": structure}})
    out = tmp_path / structure
    assert run(["synth", "--config", cfg, "--out", str(out), "--mode", "robust"]) == 0
    summary = json.loads((out / "synthesis.json").read_text())
    data, G = seen["data"], seen["ghat"]
    cols, n = data.cols, data.n
    worst = 0.0
    for i in range(data.L):
        for j in range(data.L):
            blk = G[i * cols : (i + 1) * cols, j * n : (j + 1) * n]
            if j > i:
                worst = max(worst, float(np.abs(blk).max()))
            else:
                target = np.eye(n) if i == j else np.zeros((n, n))
                worst = max(worst, float(np.abs(data.h1x @ blk - target).max()))
    assert summary["residuals"]["structure_max"] == worst


def test_flags_only_on_the_commands_that_read_them(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bounds", "--mode", "robust"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode" in capsys.readouterr().err
    parser = cli.build_parser()
    for argv in (["simulate", "--trials", "3"], ["synth", "--trials", "3"], ["mpc", "--mode", "naive"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
    assert parser.parse_args(["synth", "--mode", "naive"]).mode == "naive"
    assert parser.parse_args(["mpc", "--trials", "3"]).trials == 3


def test_synth_robust_and_naive_modes(tmp_path):
    out = tmp_path / "robust"
    cfg = write_config(tmp_path, {"synthesis": {"eps": "true"}})
    assert run(["synth", "--config", cfg, "--out", str(out), "--mode", "robust"]) == 0
    summary = json.loads((out / "synthesis.json").read_text())
    assert 0.0 <= summary["gamma"] < 1.0
    # The blockdiag solve certifies its point: the gap is within the default tol.
    assert summary["status"] == "optimal" and 0.0 <= summary["gap"] <= 1e-7
    # One record per inner solve of the gamma search, the final solve last.
    assert len(summary["search"]) > 1
    assert (summary["search"][-1]["gamma"], summary["search"][-1]["status"]) == (summary["gamma"], summary["status"])
    # Every solve is feasible and certified: a float gap and a cut of three floats.
    for p in summary["search"]:
        assert type(p["gap"]) is float and [type(c) for c in p["cut"]] == [float] * 3

    out2 = tmp_path / "naive"
    assert run(["synth", "--config", cfg, "--out", str(out2), "--mode", "naive"]) == 0
    summary2 = json.loads((out2 / "synthesis.json").read_text())
    assert summary2["gamma"] is None
    # eps = 0: the closed form is the one solve.
    assert [p["gamma"] for p in summary2["search"]] == [0.0]


def test_bounds_outputs(tmp_path):
    cfg = write_config(tmp_path, {"horizons": {"L": 10, "T": 45}})
    out = tmp_path / "bounds"
    assert run(["bounds", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "bounds.json").read_text())
    assert summary["eps_precondition"] > 0
    assert summary["jstar"] > 0
    assert summary["sample_complexity"]["N_min"] >= 1

    rows = (out / "suboptimality_bounds.csv").read_text().strip().splitlines()
    header = rows[0].split(",")
    assert header == ["eps", "bound", "certified"]
    data = [list(map(float, r.split(","))) for r in rows[1:]]
    assert data[0][0] == 0.0 and data[0][1] == 0.0
    bounds = [r[1] for r in data]
    assert all(a <= b for a, b in zip(bounds, bounds[1:]))

    tail = (out / "tail_bounds.csv").read_text().strip().splitlines()
    assert tail[0].split(",") == ["t", "matrix_bound", "lipschitz_bound"]
    tail_data = [list(map(float, r.split(","))) for r in tail[1:]]
    for col in (1, 2):
        vals = [r[col] for r in tail_data]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_bounds_delta_sets_the_sample_size(tmp_path):
    nmin = {}
    for delta in (0.05, 0.001):
        cfg = write_config(tmp_path, {"horizons": {"L": 10, "T": 45}, "bounds": {"delta": delta}})
        out = tmp_path / f"bounds_{delta}"
        assert run(["bounds", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "bounds.json").read_text())["sample_complexity"]
        assert summary["delta"] == delta
        nmin[delta] = summary["N_min"]
    assert nmin[0.001] > nmin[0.05]


def test_mpc_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        {"horizons": {"L": 10, "T": 45, "H": 50}, "sampling": {"N_list": [16], "trials": 2}},
    )
    out = tmp_path / "mpc"
    assert run(["mpc", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "mpc_summary.json").read_text())
    assert "optimal@N=16" in summary
    assert (out / "mpc_optimal_N16.csv").exists()
    rows = (out / "mpc_naive_N16.csv").read_text().splitlines()
    assert rows[0].split(",") == [f.name for f in fields(TrialRecord)][2:]
    assert [r.split(",")[0] for r in rows[1:]] == ["0", "1"]


def test_concentration_outputs(tmp_path):
    cfg = write_config(tmp_path, {"sampling": {"trials": 200, "N": 50}})
    out = tmp_path / "conc"
    assert run(["concentration", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "concentration.csv").read_text().strip().splitlines()[1:]
    for row in rows:
        t, emp, mb, lb = map(float, row.split(","))
        assert emp <= mb + 1e-12
        assert emp <= lb + 1e-12


def test_concentration_noise_has_no_step_past_the_record(tmp_path, monkeypatch):
    # As in Trajectory.w_process and DataHankels.hw, an averaged record carries
    # no noise past its last step, so every drawn signal ends in a zero row.
    real, seen = cli.analysis.hankel_norms_of_signals, []

    def spy(signals, L):
        seen.append(np.array(signals))
        return real(signals, L)

    monkeypatch.setattr(cli.analysis, "hankel_norms_of_signals", spy)
    cfg = write_config(tmp_path, {"sampling": {"trials": 5}})
    assert run(["concentration", "--config", cfg, "--out", str(tmp_path / "conc")]) == 0
    assert seen and all(s.shape[1] == TINY["horizons"]["T"] and not s[:, -1].any() for s in seen)
    assert all(s[:, :-1].all() for s in seen)


def test_readme_example_config_is_the_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"Example config[^\n]*\n+```json\n(.*?)```", readme, re.S)
    assert block is not None
    assert json.loads(block.group(1)) == cli.DEFAULT_CONFIG


def test_bootstrap_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "boot"
    assert run(["bootstrap", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "bootstrap.json").read_text())
    assert summary["eps_bootstrap_noise"] > 0
    assert summary["eps_realized"] > 0


def test_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"synthesis": {"mode": "bogus"}}))
    code = run(["synth", "--config", str(bad), "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert record["command"] == "synth"


@pytest.mark.parametrize("command", ["concentration", "mpc"])
def test_rejects_fewer_than_one_trial(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert run([command, "--config", write_config(tmp_path), "--out", str(out), "--trials", "0"]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError" and "sampling.trials" in record["message"]
    assert not out.exists() or not os.listdir(out)


@pytest.mark.parametrize("command", ["simulate", "bounds"])
def test_rejects_a_negative_noise_variance(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {"system": {"sigma2": -0.1}})
    assert run([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError" and record["command"] == command
    assert record["message"] == "system.sigma2 must be nonnegative, got -0.1"


def test_loaded_config_does_not_share_the_defaults(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"horizons": {"L": 4}}))
    for cfg in (cli.load_config(None), cli.load_config(str(path)), cli.load_config(None, {"output_dir": "o"})):
        cfg["sampling"]["seed"] = 99
        cfg["system"]["A"][0][0] = 99.0
        cfg["weights"]["R"][1][1] = 99.0
    assert cli.DEFAULT_CONFIG["sampling"]["seed"] == 0
    assert cli.DEFAULT_CONFIG["system"]["A"][0][0] == 1.01
    assert cli.DEFAULT_CONFIG["weights"]["R"][1][1] == 1.0


def test_seed_override_changes_output(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    run(["simulate", "--config", cfg, "--out", str(out1), "--seed", "1"])
    run(["simulate", "--config", cfg, "--out", str(out2), "--seed", "2"])
    a = (out1 / "trajectory_0000.csv").read_text()
    b = (out2 / "trajectory_0000.csv").read_text()
    assert a != b
