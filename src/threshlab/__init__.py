"""Sparse and low-rank thresholding operators, their relative concavity,
iterative thresholding solvers with matching worst-case constructions, and a
sparse linear regression harness."""

from .adversarial import (
    ConcavityTooSmallError,
    ProxTrapInstance,
    TrapInstance,
    build_prox_trap,
    build_trap,
    default_prox_lambda_grid,
    sweep_prox_path,
)
from .concavity import (
    ConcavityQuery,
    ConcavityReport,
    DegenerateWitnessError,
    closed_form_gamma,
    concavity_ratio,
    empirical_concavity,
    gamma_hard,
    gamma_lq,
    gamma_optimal,
    gamma_reciprocal,
    gamma_shrink_class,
    kappa_max,
    lower_bound_witness,
)
from .lowrank import (
    LiftedOperator,
    MatrixConcavityQuery,
    MatrixObjective,
    build_matrix_trap,
    embed_diag,
    empirical_matrix_concavity,
    iterate_threshold_matrix,
    numerical_rank,
)
from .operators import (
    InvalidParameterError,
    InvalidSparsityError,
    RootNotBracketedError,
    ShrinkOutOfRangeError,
    ShrinkageFunction,
    ThresholdingOperator,
    hard_operator,
    lq_operator,
    parse_operator,
    prox_l1,
    reciprocal_operator,
    soft_operator,
)
from .regression import (
    DesignSpec,
    ErrorReport,
    InfeasibleSpecError,
    RegressionInstance,
    condition_scaling_experiment,
    fit_iterative,
    fit_lasso_baseline,
    generate_instance,
    loglog_slope,
    theorem6_bound_rhs,
    validate_lemma10,
)
from .solver import (
    ContractViolationError,
    Gram,
    IterateTrace,
    QuadraticObjective,
    StepRule,
    check_theorem1_bound,
    convergence_bound_rhs,
    iterate_prox,
    iterate_threshold,
    kkt_residual_l1,
    restricted_minimum_bruteforce,
)

__version__ = "0.1.0"
