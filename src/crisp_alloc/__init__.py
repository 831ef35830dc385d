"""Hierarchical and iterative shrinkage portfolio allocation.

A family of allocators controlled by one shrinkage intensity gamma in [0, 1]:
tree-based constructions (HRP, a Schur-complement continuum, and two
signal-aware variants) and an iterative Gauss-Seidel solver for the shrunk
system P_gamma w = mu, plus direction metrics, a synthetic covariance
laboratory, and a walk-forward Monte Carlo harness.
"""

from .analysis import (
    AdaptiveInputs,
    TrajectoryPoint,
    dir_bound_factors,
    gamma_star,
    kappa_eff,
    kappa_eff_linearized,
    perturbation_residual,
    shrinkage_kl,
    trajectory,
)
from .baselines import (
    ClusterStats,
    NodeRecord,
    a1_sum_norm_mvo,
    a2_flat_ivp_tree,
    cotton,
    cotton_kappa_product,
    direct_minvar,
    equal_weight,
    hrp,
)
from .core import (
    CorrelationMatrix,
    CovarianceMatrix,
    Signal,
    WeightVector,
    kappa,
    markowitz_direct,
    shrink,
    to_correlation,
)
from .dendrogram import Dendrogram, LinkageRule, balanced_tree, build_tree, corr_distance
from .errors import (
    AllocationError,
    ConditioningError,
    DegenerateInputError,
    DegenerateUniverseError,
    GenerationError,
    InfeasibleConstraintsError,
    InvalidCovarianceError,
    ParameterError,
    SchurBreakdownError,
    SingularCovarianceError,
)
from .experiments import (
    CellResult,
    ExperimentResult,
    ExperimentSpec,
    ExperimentTable,
    Inputs,
    MethodSpec,
    TrialRecord,
    allocate,
    export,
    nonmonotone_instance,
    preset,
    run_experiment,
    run_trial,
)
from .metrics import (
    DirectionReport,
    dir_diag,
    dir_error,
    direction_report,
    gross_leverage,
    sharpe,
    sign_match_fraction,
    signed_cosine,
)
from .signal_trees import hrp_mu, hrp_sigma_mu, hsp, solve_2x2
from .solver import (
    ConstraintSet,
    FactorModel,
    SolveReport,
    SweepDiagnostic,
    crisp_projected,
    crisp_solve,
    crisp_solve_stream,
    long_only_budget,
    sweeps_to_tolerance,
)
from .synthetic import (
    RegimeSpec,
    SignalSpec,
    gen_regime,
    gen_signal,
    psd_floor,
    sample_cov,
    sample_mean,
    sample_returns,
    sector_labels,
    worst_case_mu,
)

__version__ = "0.1.0"
