"""Online forecasters for the sequential outcome-prediction protocol.

Every forecaster is one batched rule: ``rule(counts, noise)`` maps a stack
of count vectors (n, K) and the hallucinated counts drawn for the same rows
(n, K) to forecasts (n, K).  ``noise(horizon, rng)`` draws the hallucinated
counts of a whole game as one (horizon, K) block of bools, integers or
floats, so a game engine can forecast every round of an oblivious game in
one call.  The engine hands the rule that noise as float64, read from the
rows of the game's own block; integer noise is exact there below 2^53.  A
forecaster holds only K, the horizon T it was built for, and the constants
derived from them; it keeps no per-game state, so one instance serves any
number of games.

The base ``Forecaster.rule`` is the leader of Follow-the-Perturbed-Leader:
each row of ``counts + noise`` divided by its sum, an all-zero row
forecasting uniform.  It reads only its two arguments, never K or T, so
FTL and both FTPLs are that one rule and differ only in the law of their
noise, and an engine may step the games of several such forecasters, at
different horizons, in one call on their stacked rows:

``FollowTheLeader``        no noise: the running mean of past outcomes, the
                           simultaneous empirical risk minimizer for every
                           proper loss.  Deterministic.
``PerturbedLeaderGeometric``  fresh geometric hallucinated counts with
                           success probability q = min(1, sqrt(K/T)),
                           drawn as float64 by numpy's own inversion below
                           q = 1/3.  The geometric support {1, 2, ...}
                           guarantees a positive denominator every round.
``PerturbedLeaderUniform`` uniform integer noise on {0, ..., floor(sqrt(T))}.
``StaticForecaster``       always forecasts a fixed point (testing aid).

A subclass overrides ``noise`` for a new perturbation of the leader, or
``rule`` for a forecast that is not the leader, as ``StaticForecaster`` does;
an overriding rule may read ``self``, so it is called on its own games only.
"""

from __future__ import annotations

import math

import numpy as np

from .core import row_sum, validate_integer, validate_simplex


class Forecaster:
    """K, the horizon, no noise and the leader rule: Follow-the-Leader, unless overridden."""

    def __init__(self, k: int, horizon: int):
        self.k = validate_integer(k, "K")
        self.horizon = validate_integer(horizon, "horizon", 1)
        if self.k < 2:
            raise ValueError("need at least 2 outcomes")

    def noise(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        """Hallucinated counts, (horizon, K), finite and >= 0 for the leader; none by default."""
        return np.zeros((horizon, self.k), dtype=np.int64)

    @staticmethod
    def rule(counts: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Forecasts (n, K): each row of ``counts + noise`` over its sum; all-zero rows uniform.

        The engine passes int64 ``counts`` and float64 ``noise``; on integer
        noise below 2^53 that gives the bytes int64 noise would, since its
        sums are exact in any order.
        """
        totals = counts + noise
        denom = row_sum(totals)[:, None]
        if np.count_nonzero(denom) == len(denom):  # no all-zero row; cheaper than .all()
            return totals / denom
        out = totals / np.maximum(denom, 1)
        out[denom[:, 0] == 0] = 1.0 / totals.shape[1]
        return out


class FollowTheLeader(Forecaster):
    """The leader with no noise: the empirical mean of past outcomes (uniform on round 1)."""


class PerturbedLeaderGeometric(Forecaster):
    """The leader over true counts plus fresh geometric hallucinated counts.

    q is clipped to 1 when T < K, which makes the noise deterministically 1
    per outcome and the first forecast uniform.  The geometric support
    starts at 1, so the normalizer is at least K every round.  The noise is
    ``rng.geometric(q, (T, K))`` as float64, value for value and leaving
    ``rng`` in the same state.  Below q = 1/3 numpy inverts one standard
    exponential E a draw, ceil(E / -log1p(-q)); ``noise`` does the same on
    the whole block with log1p(-q) taken once.  From 1/3 up it keeps numpy's
    own sequential search, which reads other draws.
    """

    def __init__(self, k: int, horizon: int):
        super().__init__(k, horizon)
        self.q = min(1.0, math.sqrt(self.k / self.horizon))

    def noise(self, horizon, rng):
        if self.q >= 1 / 3:  # numpy's search branch
            return rng.geometric(self.q, size=(horizon, self.k)).astype(np.float64)
        draw = rng.standard_exponential((horizon, self.k))
        draw /= -math.log1p(-self.q)
        return np.ceil(draw, out=draw)


class PerturbedLeaderUniform(Forecaster):
    """The leader over true counts plus uniform noise on {0, ..., floor(sqrt(T))}."""

    def __init__(self, k: int, horizon: int):
        super().__init__(k, horizon)
        self.noise_max = int(math.isqrt(self.horizon))

    def noise(self, horizon, rng):
        return rng.integers(0, self.noise_max + 1, size=(horizon, self.k))


class StaticForecaster(Forecaster):
    """Always forecast the same point."""

    def __init__(self, point, horizon: int):
        point = validate_simplex(point)
        super().__init__(len(point), horizon)
        self.point = point

    def rule(self, counts, noise):
        return np.tile(self.point, (len(counts), 1))
