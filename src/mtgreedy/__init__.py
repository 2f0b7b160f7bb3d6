"""Greedy estimation of jointly sparse multi-task linear models.

The estimator grows a support of individual (feature, task) entries and
whole shared feature rows with forward steps, prunes it with recorded-reward
backward steps, and re-solves restricted least squares after every move.
"""

from .engine import (
    check_step_records,
    fit,
    gain_matrix,
    refit,
    verify_trace,
)
from .linalg import solve_least_squares
from .model import (
    FitReport,
    GreedyConfig,
    MultiTaskProblem,
    StepRecord,
    SupportPattern,
    Task,
    loss,
    residuals,
)
from .oracle import cost_oracle, exhaustive_best_fit, gain_oracle
from .diagnostics import (
    TheoremInputs,
    TruthPartition,
    beta_min,
    epsilon_lower_bound,
    error_bound,
    eta_lower_bound,
    gradient_bound_lambda,
    partition_supports,
    rep_constants,
    union_support_size,
)
from .experiments import (
    SweepConfig,
    SweepRow,
    SynthSpec,
    cross_validate,
    gen_synthetic,
    n_for_theta,
    run_sweep,
    sign_support_success,
    theta,
    transition_threshold,
    trial_seed,
)

__all__ = [
    "FitReport", "GreedyConfig", "MultiTaskProblem", "StepRecord", "SupportPattern",
    "SweepConfig", "SweepRow", "SynthSpec", "Task", "TheoremInputs",
    "TruthPartition",
    "beta_min", "check_step_records", "cost_oracle",
    "cross_validate", "epsilon_lower_bound", "error_bound", "eta_lower_bound",
    "exhaustive_best_fit", "fit", "gain_matrix", "gain_oracle",
    "gen_synthetic", "gradient_bound_lambda", "loss", "n_for_theta",
    "partition_supports", "refit", "rep_constants", "residuals",
    "run_sweep", "sign_support_success", "solve_least_squares",
    "theta", "transition_threshold", "trial_seed",
    "union_support_size", "verify_trace",
]
