"""Online multiclass forecasting under simultaneous proper-loss regret.

The library plays the sequential protocol (forecast a distribution, observe
a one-hot outcome), measures regret against the mean-of-outcomes benchmark
for any proper loss, estimates pucal/ucal over loss families by Monte
Carlo, and solves the binary squared-loss game exactly.  ``import ucal``
loads no submodule: each one, and each name of ``__all__``, loads on its
first use (PEP 562), so a program loads only the modules it runs.  A
program that only plays games never loads ``ucal.minimax``, and one that
only solves the exact game loads ``ucal.core`` and ``ucal.minimax`` alone.
"""

import importlib
import os

# Set before numpy is first imported.  ucal's largest BLAS call is a K-vector
# dot and its parallelism is its own worker processes, so an OpenBLAS thread
# pool would only spin; a value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

# the submodule that defines each name of __all__
_HOME = {name: module for module, names in {
    "adversaries": ("Adversary", "Alternating", "FixedSequence", "GreedyAdaptive",
                    "IidUniform"),
    "core": ("RngStream", "mean_of_counts", "one_hot", "uniform_point", "validate_simplex"),
    "engine": ("CalibrationEstimate", "RegretRecord", "Transcript", "benchmark_cost",
               "check_high_prob_bound", "estimate_calibration", "exact_binomial_mad",
               "play_games", "regret", "run_game", "run_trials", "summarize",
               "sup_regret_mixture"),
    "forecasters": ("FollowTheLeader", "Forecaster", "PerturbedLeaderGeometric",
                    "PerturbedLeaderUniform", "StaticForecaster"),
    "losses": ("CustomLoss", "LossValidationReport", "MixtureLoss", "ProperLoss",
               "SphericalLoss", "SquaredLoss", "TsallisLoss", "VShapedLoss",
               "check_concavity", "check_hessian_growth", "check_proper", "check_range",
               "estimate_lipschitz", "random_simplex_points", "simplex_mesh"),
    "minimax": ("ClosedFormSequences", "MinimaxTable", "check_a_bounds", "closed_form",
                "dp_value", "optimal_q", "structural_identity_error", "value_lower_bound"),
}.items() for name in names}
_SUBMODULES = frozenset(_HOME.values())

__all__ = sorted(_HOME)


def __getattr__(name):
    """A submodule or a name of ``__all__``, loaded on first use and then bound here (PEP 562)."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)  # binds ucal.<name>
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
