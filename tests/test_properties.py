"""Exact properties of losses, regret and the pucal/ucal summary, up to rounding only.

No tolerance here stands for sampling noise: each bound is a few units in
the last place of the quantities summed.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from ucal import (FixedSequence, SphericalLoss, SquaredLoss, StaticForecaster, TsallisLoss,
                  VShapedLoss, mean_of_counts, regret, run_game, summarize)
from ucal.engine import Transcript

EPS = np.finfo(float).eps

#: the shipped losses that treat every outcome alike
SYMMETRIC_LOSSES = [VShapedLoss(), SquaredLoss(1.0), SquaredLoss(0.5), SphericalLoss(),
                    TsallisLoss(1.5), TsallisLoss(3.0)]


@st.composite
def games(draw):
    """(k, forecasts (T, k), outcomes (T,)): forecasts on a grid that hits 0 and 1/k exactly."""
    k = draw(st.integers(2, 5))
    weights = draw(st.lists(st.lists(st.integers(0, 6), min_size=k, max_size=k).filter(any),
                            min_size=1, max_size=20))
    outcomes = draw(st.lists(st.integers(0, k - 1), min_size=len(weights),
                             max_size=len(weights)))
    forecasts = np.array(weights, dtype=float)
    forecasts /= forecasts.sum(axis=1, keepdims=True)
    return k, forecasts, np.array(outcomes, dtype=np.int64)


def _ulps(values):
    """A few units in the last place per term of a sum of ``values``, each taken as at least 1."""
    return 8 * EPS * float(np.maximum(1.0, np.abs(values)).sum())


@given(games(), st.data())
def test_symmetric_losses_are_equivariant(game, data):
    # relabel outcome y as inverse[y] and forecast coordinate perm[j] as j, together
    k, forecasts, outcomes = game
    perm = np.array(data.draw(st.permutations(range(k))))
    inverse = np.argsort(perm)
    relabelled = Transcript(forecasts[:, perm], inverse[outcomes])
    original = Transcript(forecasts, outcomes)
    for loss in SYMMETRIC_LOSSES:
        before = loss.bivariate(forecasts, outcomes)
        after = loss.bivariate(forecasts[:, perm], inverse[outcomes])
        assert np.all(np.abs(after - before) <= 8 * EPS * np.maximum(1.0, np.abs(before)))
        assert abs(regret(relabelled, loss).regret - regret(original, loss).regret) \
            <= 2 * _ulps(before)


@given(st.integers(2, 5).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(st.integers(0, k - 1), min_size=1, max_size=60))))
def test_static_forecaster_at_the_mean_has_no_regret(case):
    k, outcomes = case
    horizon = len(outcomes)
    mean = mean_of_counts(np.bincount(outcomes, minlength=k))
    transcript = run_game(StaticForecaster(mean, horizon), FixedSequence(k, outcomes),
                          np.random.default_rng(0))
    for loss in SYMMETRIC_LOSSES:
        rec = regret(transcript, loss)
        assert abs(rec.regret) <= 2 * _ulps(loss.bivariate(transcript.forecasts, outcomes))


@given(st.integers(1, 30).flatmap(lambda trials: st.integers(1, 6).flatmap(
    lambda losses: st.lists(st.lists(st.floats(-1e6, 1e6), min_size=losses, max_size=losses),
                            min_size=trials, max_size=trials))))
def test_pucal_at_most_ucal(rows):
    # a max of means is at most the mean of maxes; the two means round apart by at most
    # (trials - 1) ulps of the largest |regret| each
    regrets = np.array(rows)
    trials = regrets.shape[0]
    est = summarize(regrets, [SquaredLoss()] * regrets.shape[1])
    assert est.pucal <= est.ucal + 2 * trials * EPS * np.abs(regrets).max()
