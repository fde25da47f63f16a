"""Data-driven finite-horizon controller synthesis from trajectory libraries."""

from .blockops import (
    CostWeights,
    LtvOperator,
    block_downshift,
    matrix_rank,
    obs_stack,
    psd_sqrt,
    spectral_norm,
    toeplitz_stack,
)
from .hankel import (
    NotPersistentlyExciting,
    PeReport,
    build_hankel,
    first_block_row,
    is_pe,
    reconstruct,
    stacked_rank,
)
from .lti import (
    Ensemble,
    LtiSystem,
    Trajectory,
    average,
    generate_ensemble,
    simulate,
)
from .sls import (
    Perturbation,
    SystemResponsePair,
    achievability_residual,
    closed_loop,
    expected_cost,
    hankel_decomposition_residual,
    recover_controller,
    responses_from_controller,
    sls_cost,
)
from .lqg import GStar, RiccatiSolution, dare, optimal_responses, recover_gstar, riccati_finite
from .solver import (
    InfeasibleEpsilon,
    SolveReport,
    gamma_search,
)
from .synth import (
    DataHankels,
    SynthesisResult,
    assemble_delta,
    assemble_responses,
    synth_robust,
)
from .analysis import (
    BoundInputs,
    BoundValue,
    TailParams,
    bootstrap_epsilon,
    eps_precondition,
    sample_complexity,
    suboptimality_bound,
    tail_bound_lipschitz,
    tail_bound_matrix,
)
from .experiments import MpcConfig, RunStats, compare_controllers, mpc_run

__version__ = "0.1.0"
