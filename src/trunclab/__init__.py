"""Convergence laboratory for dimension truncation of parametric elliptic PDEs.

Estimates the L2 parameter-space truncation error of FEM solutions (and a
nonlinear functional of them) by randomly shifted rank-1 lattice cubature,
fits empirical convergence rates, and checks them against closed-form
theoretical bounds, for both affine and periodically transformed
parameterizations.
"""

from .field import (
    IDENTITY,
    PERIODIC,
    CoercivityError,
    DiffusionFieldSpec,
    Transform,
    b_sequence,
    coercivity_bounds,
    truncate,
)
from .fem import (
    Assembler,
    FemSolution,
    SolveError,
    TriangularMesh,
    build_unit_square_mesh,
    diff_norm,
    qoi_nl,
    solve,
)
from .lattice import (
    EvaluationError,
    LatticeFormatError,
    LatticeRule,
    estimate_truncation_errors,
    lattice_rule,
    load_builtin_vector,
    load_generating_vector,
)
from .theory import (
    ErrorTable,
    FitResult,
    TheoryParams,
    affine_theory_params,
    expected_rate,
    fit_rate,
    regularity_bound,
    stechkin_tail_bound,
    summability_exponent,
    taylor_order,
    truncation_upper_bound,
)
from .oracle import (
    ScalarModelSpec,
    certified_theory_params,
    default_oracle_spec,
    exact_l2_truncation_error,
)
from .experiment import (
    ExperimentConfig,
    PdeTruncationModel,
    config_from_json,
    config_to_json,
    paper_scale,
    predict_report,
    run_experiment,
)

__version__ = "0.1.0"
