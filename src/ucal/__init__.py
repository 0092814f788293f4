"""Online multiclass forecasting under simultaneous proper-loss regret.

The library plays the sequential protocol (forecast a distribution, observe
a one-hot outcome), measures regret against the mean-of-outcomes benchmark
for any proper loss, estimates pucal/ucal over loss families by Monte
Carlo, and solves the binary squared-loss game exactly.
"""

import os

# Set before numpy is first imported.  ucal's largest BLAS call is a K-vector
# dot and its parallelism is its own worker processes, so an OpenBLAS thread
# pool would only spin; a value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .adversaries import (Adversary, Alternating, FixedSequence, GreedyAdaptive,
                          IidUniform)
from .core import (RngStream, mean_of_counts, one_hot, uniform_point,
                   validate_outcome, validate_simplex)
from .engine import (CalibrationEstimate, RegretRecord, Transcript, benchmark_cost,
                     check_high_prob_bound, estimate_calibration, exact_binomial_mad,
                     play_games, regret, run_game, run_trials, summarize,
                     sup_regret_mixture, write_csv)
from .forecasters import (FollowTheLeader, Forecaster, PerturbedLeaderGeometric,
                          PerturbedLeaderUniform, StaticForecaster)
from .losses import (CustomLoss, LossValidationReport, MixtureLoss, ProperLoss,
                     SphericalLoss, SquaredLoss, TsallisLoss, VShapedLoss,
                     check_concavity, check_hessian_growth, check_proper, check_range,
                     estimate_lipschitz, random_simplex_points, simplex_mesh)
from .minimax import (ClosedFormSequences, MinimaxTable, check_a_bounds, closed_form,
                      dp_value, optimal_q, structural_identity_error, value_lower_bound)

__version__ = "0.1.0"

__all__ = [
    "Adversary", "Alternating", "CalibrationEstimate", "ClosedFormSequences",
    "CustomLoss", "FixedSequence", "FollowTheLeader", "Forecaster", "GreedyAdaptive",
    "IidUniform", "LossValidationReport", "MinimaxTable", "MixtureLoss",
    "PerturbedLeaderGeometric", "PerturbedLeaderUniform", "ProperLoss", "RegretRecord",
    "RngStream", "SphericalLoss", "SquaredLoss", "StaticForecaster", "Transcript",
    "TsallisLoss", "VShapedLoss", "benchmark_cost", "check_a_bounds",
    "check_concavity", "check_high_prob_bound", "check_hessian_growth", "check_proper",
    "check_range", "closed_form", "dp_value", "estimate_calibration",
    "estimate_lipschitz", "exact_binomial_mad", "mean_of_counts", "one_hot",
    "optimal_q", "play_games", "random_simplex_points", "regret", "run_game",
    "run_trials", "simplex_mesh", "structural_identity_error", "summarize",
    "sup_regret_mixture", "uniform_point", "validate_outcome", "validate_simplex",
    "value_lower_bound", "write_csv",
]
