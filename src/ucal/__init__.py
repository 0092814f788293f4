"""Online multiclass forecasting under simultaneous proper-loss regret.

The library plays the sequential protocol (forecast a distribution, observe
a one-hot outcome), measures regret against the mean-of-outcomes benchmark
for any proper loss, estimates pucal/ucal over loss families by Monte
Carlo, and solves the binary squared-loss game exactly.  The exact solver,
``ucal.minimax``, loads on first use of it or of one of its names, so a
program that only plays games never loads it.
"""

import importlib
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
                     sup_regret_mixture)
from .forecasters import (FollowTheLeader, Forecaster, PerturbedLeaderGeometric,
                          PerturbedLeaderUniform, StaticForecaster)
from .losses import (CustomLoss, LossValidationReport, MixtureLoss, ProperLoss,
                     SphericalLoss, SquaredLoss, TsallisLoss, VShapedLoss,
                     check_concavity, check_hessian_growth, check_proper, check_range,
                     estimate_lipschitz, random_simplex_points, simplex_mesh)

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
    "value_lower_bound",
]


def __getattr__(name):
    """``minimax`` and its names in ``__all__``, the only ones not bound at import (PEP 562)."""
    if name == "minimax" or name in __all__:
        minimax = importlib.import_module(".minimax", __name__)  # binds ucal.minimax
        return minimax if name == "minimax" else getattr(minimax, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | {"minimax"})
