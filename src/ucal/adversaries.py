"""Outcome-sequence generators for the forecasting protocol.

An adversary produces the outcome of round t given the round index, the
forecasts of rounds 1..t-1, and a random generator.  Oblivious adversaries
(fixed sequences, i.i.d. draws, alternation) ignore the past forecasts, so
they also provide ``outcomes(horizon, rng)``, all T outcomes in one array,
drawn from the generator exactly as T successive ``next_outcome`` calls
would draw them.  ``GreedyAdaptive`` is the one adaptive stress-tester and
reads the past forecasts.

The engine plays the trials of an adaptive game in lockstep and asks for
the replies of all n games of a round in one ``next_outcomes`` call, with
the past forecasts stacked as (t-1, n, K) and one generator per game.  The
base class answers it with one ``next_outcome`` call per game, each with
that game's own generator, so a subclass that only defines ``next_outcome``
keeps its per-stream draws; ``GreedyAdaptive`` answers all n games from one
``ProperLoss.outcome_losses`` table.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import uniform_point, validate_outcome
from .losses import ProperLoss


class Adversary:
    name = "adversary"

    def __init__(self, k: int):
        if k < 2:
            raise ValueError("need at least 2 outcomes")
        self.k = int(k)

    def next_outcome(self, t: int, past_forecasts, rng: np.random.Generator) -> int:
        raise NotImplementedError

    def next_outcomes(self, t: int, past_forecasts: np.ndarray, rngs) -> np.ndarray:
        """Round-t outcomes (n,) of n games from their past forecasts (t-1, n, K)."""
        return np.array([self.next_outcome(t, past_forecasts[:, i], rng)
                         for i, rng in enumerate(rngs)], dtype=np.int64)


class FixedSequence(Adversary):
    """Replays a predetermined outcome sequence; errors when exhausted."""

    name = "fixed"

    def __init__(self, k: int, sequence):
        super().__init__(k)
        self.sequence = [validate_outcome(y, k) for y in sequence]

    @classmethod
    def from_file(cls, k: int, path) -> "FixedSequence":
        """Load a sequence of whitespace-separated 1-based outcome indices."""
        tokens = Path(path).read_text().split()
        indices = []
        for tok in tokens:
            value = int(tok)
            if not 1 <= value <= k:
                raise ValueError(f"outcome {value} in {path} out of range [1, {k}]")
            indices.append(value - 1)
        return cls(k, indices)

    def _exhausted(self, t):
        return ValueError(f"fixed sequence of length {len(self.sequence)} exhausted at round {t}")

    def next_outcome(self, t, past_forecasts, rng=None) -> int:
        if not 1 <= t <= len(self.sequence):
            raise self._exhausted(t)
        return self.sequence[t - 1]

    def outcomes(self, horizon, rng=None):
        if horizon > len(self.sequence):
            raise self._exhausted(len(self.sequence) + 1)
        return np.array(self.sequence[:horizon], dtype=np.int64)


class IidUniform(Adversary):
    """Independent uniform draws over the k outcomes."""

    name = "iid-uniform"

    def next_outcome(self, t, past_forecasts, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self.k))

    def outcomes(self, horizon, rng):
        return rng.integers(0, self.k, size=horizon)


class Alternating(Adversary):
    """Outcome 0 on odd rounds, outcome 1 on even rounds.

    Only outcomes 0 and 1 are ever played, whatever K is: for K > 2 the
    remaining outcomes never occur.  Acceptance criterion 4 (the FTPL pucal
    ceiling) plays this adversary at K = 5 and 10 and relies on that
    two-outcome sequence; its seeds and slacks were set against it.
    """

    name = "alternating"

    def next_outcome(self, t, past_forecasts, rng=None) -> int:
        return 0 if t % 2 == 1 else 1

    def outcomes(self, horizon, rng=None):
        return np.arange(horizon, dtype=np.int64) % 2


class GreedyAdaptive(Adversary):
    """Picks the outcome that was worst for the previous forecast.

    The protocol reveals the outcome simultaneously with the forecast, so a
    legal adaptive adversary cannot best-respond to the current forecast;
    this one uses the previous forecast as a proxy (the barycenter before
    any forecast exists).  Ties break toward the lowest index so runs are
    reproducible.
    """

    name = "greedy"

    def __init__(self, k: int, loss: ProperLoss):
        super().__init__(k)
        self.loss = loss

    def _worst(self, proxies) -> np.ndarray:
        """The outcome of largest loss for each proxy forecast, lowest index on ties."""
        return np.argmax(self.loss.outcome_losses(proxies), axis=-1)

    def next_outcome(self, t, past_forecasts, rng=None) -> int:
        if len(past_forecasts) == 0:
            return int(self._worst(uniform_point(self.k)))
        return int(self._worst(np.asarray(past_forecasts[-1], dtype=float)))

    def next_outcomes(self, t, past_forecasts, rngs):
        if len(past_forecasts) == 0:
            return self._worst(np.tile(uniform_point(self.k), (len(rngs), 1)))
        return self._worst(past_forecasts[-1])
