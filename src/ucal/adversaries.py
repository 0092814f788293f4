"""Outcome-sequence generators for the forecasting protocol.

Each adversary speaks one protocol.  An oblivious one (fixed sequences,
i.i.d. draws, alternation) does not see the forecasts and draws a game's T
outcomes in one ``outcomes(horizon, rng)`` call.  An adaptive one answers
``next_outcomes(t, past_forecasts, rngs)`` once a round for n games played
in lockstep, from their forecasts of rounds 1..t-1 stacked as (t-1, n, K)
and one generator per game; ``GreedyAdaptive`` answers all n with one
argmax of the loss's subgradient at their previous forecasts, the outcome
of largest loss without building the loss table.  n may fall between
rounds when a block holds games of several horizons: the games that have
ended drop out, always the last rows, so row i stays one game.  The
engine plays any adversary that has ``outcomes`` as one block, so one that
reacts to the forecasts subclasses ``Adversary`` or ``GreedyAdaptive``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import validate_integer, validate_outcome
from .losses import ProperLoss


class Adversary:
    """Base class: K outcomes; a subclass defines ``outcomes`` or ``next_outcomes``."""

    name = "adversary"

    def __init__(self, k: int):
        self.k = validate_integer(k, "K")
        if self.k < 2:
            raise ValueError("need at least 2 outcomes")

    def next_outcomes(self, t: int, past_forecasts: np.ndarray, rngs) -> np.ndarray:
        """Round-t outcomes (n,) of n games from their past forecasts (t-1, n, K).

        The reply is an integer array of exactly n indices in [0, K); the
        engine refuses any other dtype or shape rather than broadcast it.
        n may fall from one round to the next; the games that drop out are
        always the last rows, so per-game state is kept by row.
        ``past_forecasts`` is a strided view of the engine's game-major block:
        the rows of ``past_forecasts[-1]`` lie a game's length apart, and numpy
        steps such an (n, K) slice row by row in every op.  An adversary that
        runs several ops on it copies it with ``np.ascontiguousarray`` first,
        as ``GreedyAdaptive`` does.
        """
        raise NotImplementedError(f"{type(self).__name__} must define `outcomes` (oblivious) "
                                  "or `next_outcomes` (adaptive)")


class FixedSequence(Adversary):
    """Replays a predetermined outcome sequence, one read-only int64 array, to its end."""

    name = "fixed"

    def __init__(self, k: int, sequence):
        super().__init__(k)
        self.sequence = np.array([validate_outcome(y, k) for y in sequence], dtype=np.int64)
        self.sequence.flags.writeable = False

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

    def outcomes(self, horizon, rng=None):
        if horizon > len(self.sequence):
            raise ValueError(f"fixed sequence of length {len(self.sequence)} exhausted "
                             f"at round {len(self.sequence) + 1}")
        return self.sequence[:horizon]


class IidUniform(Adversary):
    """Independent uniform draws over the k outcomes."""

    name = "iid-uniform"

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

    def outcomes(self, horizon, rng=None):
        return np.arange(horizon, dtype=np.int64) % 2


class GreedyAdaptive(Adversary):
    """Picks the outcome that was worst for the previous forecast.

    The protocol reveals the outcome simultaneously with the forecast, so a
    legal adaptive adversary cannot best-respond to the current forecast;
    this one uses the previous forecast as a proxy (the barycenter before
    any forecast exists).  Every proper loss has the form
    loss(p, y) = f(p) + <g_p, e_y - p>, and f(p) - <g_p, p> is the same for
    every y, so the worst outcome is the argmax of the subgradient g_p: no
    loss table is built.  Ties break toward the lowest index of g, as at the
    barycenter and at the ``vshaped`` kinks p_i = 1/K (sign(0) = 0), so runs
    are reproducible.  The table's argmax picks the same outcome except
    where rounding merges two of its entries less than an ulp apart; there
    g picks the outcome of strictly larger exact loss, as outcome 1 of
    squared:1 at p = (0.20000000000000004, 0.2, 0.6), where the table reads
    [1.04, 1.04, 0.24].
    """

    name = "greedy"

    def __init__(self, k: int, loss: ProperLoss):
        super().__init__(k)
        self.loss = loss

    def next_outcomes(self, t, past_forecasts, rngs):
        """The outcome of largest subgradient entry at each game's proxy, lowest index on ties."""
        # a contiguous copy: numpy steps a strided (n, K) view row by row in every op below
        proxies = (np.ascontiguousarray(past_forecasts[-1]) if t > 1
                   else np.full((len(rngs), self.k), 1.0 / self.k))
        return self.loss.subgradient(proxies).argmax(axis=-1)
