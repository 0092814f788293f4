"""Online forecasters for the sequential outcome-prediction protocol.

Every forecaster is one batched rule: ``rule(counts, noise)`` maps a stack
of count vectors (n, K) and the hallucinated counts drawn for the same rows
(n, K) to forecasts (n, K).  ``noise(horizon, rng)`` draws the hallucinated
counts of a whole game as one (horizon, K) block, so a game engine can
forecast every round of an oblivious game in one call.  A forecaster holds
only K, the horizon T it was built for, and the constants derived from them;
it keeps no per-game state, so one instance serves any number of games.

``FollowTheLeader``        forecasts the running mean of past outcomes, the
                           simultaneous empirical risk minimizer for every
                           proper loss.  Deterministic.
``PerturbedLeaderGeometric``  adds fresh geometric hallucinated counts with
                           success probability q = min(1, sqrt(K/T)) before
                           normalizing.  The geometric support {1, 2, ...}
                           guarantees a positive denominator every round.
``PerturbedLeaderUniform`` adds uniform integer noise on {0, ..., floor(sqrt(T))},
                           falling back to the uniform forecast if all counts
                           and noise are zero.
``StaticForecaster``       always forecasts a fixed point (testing aid).
"""

from __future__ import annotations

import math

import numpy as np

from .core import row_sum, validate_integer, validate_simplex


def _normalize(totals: np.ndarray) -> np.ndarray:
    """Rows of integer ``totals`` divided by their sums; all-zero rows become uniform."""
    denom = row_sum(totals)[:, None]
    if denom.all():
        return totals / denom
    out = totals / np.maximum(denom, 1)
    out[denom[:, 0] == 0] = 1.0 / totals.shape[1]
    return out


class Forecaster:
    """K, the horizon, and the default (noiseless) ``noise`` shared by every rule."""

    name = "forecaster"

    def __init__(self, k: int, horizon: int):
        self.k = validate_integer(k, "K")
        self.horizon = validate_integer(horizon, "horizon")
        if self.k < 2:
            raise ValueError("need at least 2 outcomes")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    def noise(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        """Hallucinated counts for ``horizon`` rounds, shape (horizon, K); none by default."""
        return np.zeros((horizon, self.k), dtype=np.int64)

    def rule(self, counts: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Forecasts (n, K) from integer counts (n, K) and hallucinated counts (n, K)."""
        raise NotImplementedError


class FollowTheLeader(Forecaster):
    """Forecast the empirical mean of past outcomes (uniform on round 1)."""

    name = "ftl"

    def rule(self, counts, noise):
        return _normalize(counts)


class PerturbedLeaderGeometric(Forecaster):
    """Leader over true counts plus fresh geometric hallucinated counts.

    q is clipped to 1 when T < K, which makes the noise deterministically 1
    per outcome and the first forecast uniform.  The geometric support
    starts at 1, so the normalizer is at least K every round.
    """

    name = "ftpl-geometric"

    def __init__(self, k: int, horizon: int):
        super().__init__(k, horizon)
        self.q = min(1.0, math.sqrt(self.k / self.horizon))

    def noise(self, horizon, rng):
        return rng.geometric(self.q, size=(horizon, self.k))

    def rule(self, counts, noise):
        totals = counts + noise
        return totals / row_sum(totals)[:, None]


class PerturbedLeaderUniform(Forecaster):
    """Leader over true counts plus uniform noise on {0, ..., floor(sqrt(T))}."""

    name = "ftpl-uniform"

    def __init__(self, k: int, horizon: int):
        super().__init__(k, horizon)
        self.noise_max = int(math.isqrt(self.horizon))

    def noise(self, horizon, rng):
        return rng.integers(0, self.noise_max + 1, size=(horizon, self.k))

    def rule(self, counts, noise):
        return _normalize(counts + noise)


class StaticForecaster(Forecaster):
    """Always forecast the same point."""

    def __init__(self, point, horizon: int):
        point = validate_simplex(point)
        super().__init__(len(point), horizon)
        self.point = point
        self.name = "static:" + ",".join(f"{x:g}" for x in point)

    def rule(self, counts, noise):
        return np.tile(self.point, (len(counts), 1))
