"""Every public name the package declares resolves, and the runtime needs numpy only."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ddsls

MODULES = [
    "analysis",
    "blockops",
    "experiments",
    "hankel",
    "lqg",
    "lti",
    "sls",
    "solver",
    "synth",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"ddsls.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(ddsls.__file__).read_text())
    names = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    assert [n for n in names if not hasattr(ddsls, n)] == []


def test_names_the_benchmark_tracer_patches_stay_in_place():
    # perfbench/tracer.py wraps __init__ and solve through each problem
    # class's own __dict__, and stacked_cost_map and assemble_responses as
    # attributes of ddsls.synth; moving any of them (into a base class, or
    # behind another name) would silently drop its spans from traced runs.
    # Its solve spans read the iterations and status of each SolveReport,
    # its search spans the status of each GammaSearchResult, and the
    # workloads these fields of each SynthesisResult.
    from ddsls import synth
    from ddsls.solver import BlockDiagonalProblem, CoupledCausalProblem, GammaSearchResult, SolveReport

    for cls in (BlockDiagonalProblem, CoupledCausalProblem):
        assert {"__init__", "solve"} <= set(vars(cls))
    assert {"iterations", "status"} <= {f.name for f in dataclasses.fields(SolveReport)}
    assert "status" in {f.name for f in dataclasses.fields(GammaSearchResult)}
    read = {"ghat", "gamma", "objective", "eps", "responses", "controller", "mode"}
    assert read <= {f.name for f in dataclasses.fields(synth.SynthesisResult)}
    for name in ("stacked_cost_map", "assemble_responses"):
        fn = vars(synth)[name]
        assert inspect.isfunction(fn) and fn.__module__ == "ddsls.synth"


def test_each_search_setting_has_one_default():
    # gamma_search alone defaults the four search settings: both solve
    # methods require tol and max_iter, and synth_robust and the
    # default-input script forward **search to it.
    from ddsls.solver import BlockDiagonalProblem, CoupledCausalProblem, gamma_search
    from ddsls.synth import synth_robust
    from scripts.default_inputs import run_input

    settings = ("grid_points", "gamma_tol", "tol", "max_iter")
    path = (gamma_search, BlockDiagonalProblem.solve, CoupledCausalProblem.solve, synth_robust, run_input)
    defaults = {name: [fn.__qualname__ for fn in path if name in _defaults(fn)] for name in settings}
    assert defaults == {name: ["gamma_search"] for name in settings}
    for solve in path[1:3]:
        assert {"tol", "max_iter"} <= set(inspect.signature(solve).parameters)
    for fn in path[3:]:
        assert list(inspect.signature(fn).parameters.values())[-1].kind is inspect.Parameter.VAR_KEYWORD


def _defaults(fn) -> set:
    return {n for n, p in inspect.signature(fn).parameters.items() if p.default is not inspect.Parameter.empty}


# The documented verification and reconstruction API (README): called by
# users and tests, not by the library itself.
DOCUMENTED_ENTRY_POINTS = {
    "is_pe",
    "stacked_rank",
    "reconstruct",
    "load_ensemble",
    "achievability_residual",
    "expected_cost",
    "closed_loop",
    "hankel_decomposition_residual",
    "assemble_delta",
}


def test_every_library_definition_is_used_by_the_library():
    """Every function, class and non-dunder method of ``src/ddsls`` has a caller there.

    A definition counts as used when its name appears anywhere in the
    package (``__init__.py`` aside) as a name or an attribute, so code kept
    only for tests is caught.  Names are not resolved to their owners: a
    method that shares its name with another member (``dense``,
    ``horizon``) passes whoever uses that name.  The check is a lower bound
    on dead code, not a proof that none is left.
    """
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(ddsls.__file__).parent.glob("*.py"))
        if path.name != "__init__.py"
    }
    used = set(DOCUMENTED_ENTRY_POINTS)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = []  # (where, name)
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{file}:{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{file}:{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
                ]
    assert [where for where, name in defined if name not in used] == []


NUMPY_ONLY_SCRIPT = textwrap.dedent(
    """
    import sys
    import threading

    import numpy as np

    import ddsls
    import ddsls.cli
    from ddsls import (
        CostWeights, DataHankels, LtiSystem, MpcConfig, average, compare_controllers,
        generate_ensemble, mpc_run, recover_controller, responses_from_controller,
        spectral_norm, synth_robust,
    )

    plant = LtiSystem(A=np.diag([1.01, 0.9, 0.8]), B=np.eye(3), noise_std=0.1)
    weights = CostWeights(np.eye(3), np.eye(3), q_terminal=np.eye(3), horizon=4)
    data = DataHankels.from_trajectory(average(generate_ensemble(plant, 24, 16, seed=1)), 4)
    eps = spectral_norm(data.hw)
    for structure in ("blockdiag", "full"):
        res = synth_robust(data, weights, eps, structure=structure, grid_points=3,
                           gamma_tol=1e-2, tol=1e-4, max_iter=100)
    K = recover_controller(responses_from_controller(plant, res.controller))
    mpc_run(MpcConfig(horizon=50, plant=plant, controller=K, q_state=np.eye(3),
                      r_input=np.eye(3), seed=2))
    compare_controllers(plant, weights, N_list=[16], trials_per_N=1, seed=3, T=24,
                        mpc_horizon=50, bootstrap_resamples=50)
    print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    print(sorted(m for m in sys.modules if m.split(".")[0] == "concurrent"))
    print(threading.active_count())
    """
)


def test_runtime_never_imports_scipy():
    # A fresh interpreter runs every layer of the pipeline on the package
    # alone; scipy stays installed for the tests, so it must not be pulled in.
    src = Path(ddsls.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    scipy_modules, concurrent_modules, threads = proc.stdout.splitlines()
    assert scipy_modules == "[]"
    # Trials run serially: no executor is imported and no thread is started.
    assert concurrent_modules == "[]"
    assert threads == "1"
