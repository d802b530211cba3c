"""Regularized Cox partial-likelihood estimation in the proportional regime.

Solvers (COX-AMP and coordinate descent), replica-symmetric theory, and
estimation of the RS order parameters and generalization metrics from
data alone.
"""

from .experiment import ExperimentConfig, run_experiment
from .observables import (EstimationError, OrderParameterEstimate,
                          estimate_from_amp, estimate_from_cd,
                          estimate_tau_cd, field_residual_moments,
                          local_field, true_overlaps)
from .prox import (ElasticNetPenalty, g, g_ddot, g_dot, moreau_ddot_g,
                   moreau_dot_g, prox_enet, prox_enet_dot, prox_g)
from .rs import (OrderParameters, RsInconsistencyError,
                 RsNonConvergenceError, RsPopulation, enet_prior_moments,
                 rs_residuals_general, rs_rhs_enet, sample_population,
                 sample_prior, solve_lambda, solve_rs, solve_rs_path)
from .scalar import (lambert_w0, lambert_w0_exp, soft_threshold,
                     std_normal_pdf, std_normal_tail)
from .solvers import (FitDivergedError, FitResult, SolverConfig, fit_amp,
                      fit_cd, reg_path)
from .survival import (StepHazard, SurvivalDataset, harrell_c, nelson_aalen,
                       nelson_aalen_dataset, penalized_partial_likelihood,
                       rscv_c_index, rscv_predictors)
from .synthgen import (GeneratorSpec, SignalSpec, generate_dataset,
                       sample_design, sample_observations, sample_signal)

__version__ = "0.1.0"

__all__ = [
    "ElasticNetPenalty", "EstimationError", "ExperimentConfig",
    "FitDivergedError", "FitResult", "GeneratorSpec", "OrderParameterEstimate",
    "OrderParameters", "RsInconsistencyError", "RsNonConvergenceError",
    "RsPopulation", "SignalSpec", "SolverConfig", "StepHazard",
    "SurvivalDataset", "enet_prior_moments", "estimate_from_amp",
    "estimate_from_cd", "estimate_tau_cd", "field_residual_moments", "fit_amp",
    "fit_cd", "g", "g_ddot", "g_dot", "generate_dataset", "harrell_c",
    "lambert_w0", "lambert_w0_exp", "local_field", "moreau_ddot_g",
    "moreau_dot_g", "nelson_aalen", "nelson_aalen_dataset",
    "penalized_partial_likelihood", "prox_enet", "prox_enet_dot", "prox_g",
    "reg_path", "rs_residuals_general", "rs_rhs_enet", "rscv_c_index",
    "rscv_predictors", "run_experiment", "sample_design",
    "sample_observations", "sample_population", "sample_prior",
    "sample_signal", "soft_threshold", "solve_lambda", "solve_rs",
    "solve_rs_path", "std_normal_pdf", "std_normal_tail", "true_overlaps",
]
