"""Certified approximate machine unlearning.

Training and unlearning by projected noisy gradient descent, a Renyi
privacy accountant with calibration searches, the delete-to-descent
baseline, and a reproducible benchmark harness.
"""

from .accountant import (LsiTrace, RenyiBound, adjacency_bound_unbiased,
                         learn_epsilon0, lsi_cap, lsi_unlearn_trace, rdp_to_dp,
                         retrain_saving_lower_bound, unlearn_epsilon, unlearn_rate)
from .calibrate import (binary_search_sigma, converted_epsilon, find_min_k,
                        sequential_epsilon, sequential_k_schedule)
from .constants import (INFINITE, PRESETS, NoiseSchedule, Preset, ProblemConstants,
                        Regime, default_c0, get_preset, regime_for, validate_schedule)
from .d2d import (Thm28Calibration, d2d_sigma_thm9, d2d_sigma_thm28, d2d_train,
                  d2d_unlearn)
from .data import SyntheticSpec, load_dataset, make_synthetic, save_dataset
from .errors import (BudgetUnreachable, CalibrationInfeasible, CapOverflow,
                     CertUnlearnError, ConfigError, DatasetFormatError, InfeasibleBudget,
                     NoFeasibleSigma, VacuousBound)
from .objectives import (Dataset, Objective, UnlearningRequest, apply_request,
                         evaluate, logistic_objective, multiclass_objective,
                         objective_for, quadratic_objective)
from .pngd import InitSpec, make_rng, pngd_step, project_ball, train, unlearn

__version__ = "0.1.0"

__all__ = [
    "BudgetUnreachable", "CalibrationInfeasible", "CapOverflow", "CertUnlearnError",
    "ConfigError", "Dataset", "DatasetFormatError", "INFINITE",
    "InfeasibleBudget", "InitSpec", "LsiTrace", "NoFeasibleSigma",
    "NoiseSchedule", "Objective", "PRESETS", "Preset",
    "ProblemConstants", "Regime", "RenyiBound", "SyntheticSpec",
    "Thm28Calibration", "UnlearningRequest", "VacuousBound",
    "adjacency_bound_unbiased", "apply_request", "binary_search_sigma",
    "converted_epsilon",
    "d2d_sigma_thm28", "d2d_sigma_thm9", "d2d_train", "d2d_unlearn",
    "default_c0", "evaluate", "find_min_k", "get_preset", "learn_epsilon0",
    "load_dataset", "logistic_objective", "lsi_cap", "lsi_unlearn_trace",
    "make_rng", "make_synthetic", "multiclass_objective", "objective_for",
    "pngd_step", "project_ball", "quadratic_objective", "rdp_to_dp", "regime_for",
    "retrain_saving_lower_bound", "save_dataset", "sequential_epsilon",
    "sequential_k_schedule", "train", "unlearn", "unlearn_epsilon",
    "unlearn_rate", "validate_schedule",
]
