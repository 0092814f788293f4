import decimal
import fractions
import math
import os
import tracemalloc
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ucal import (Adversary, Alternating, CustomLoss, FixedSequence, FollowTheLeader,
                  Forecaster, GreedyAdaptive, IidUniform, MixtureLoss, PerturbedLeaderGeometric,
                  PerturbedLeaderUniform, ProperLoss, RngStream, SphericalLoss, SquaredLoss,
                  StaticForecaster, Transcript, TsallisLoss, VShapedLoss, benchmark_cost,
                  check_high_prob_bound, estimate_calibration, exact_binomial_mad,
                  mean_of_counts, play_games, random_simplex_points, regret, run_game,
                  run_trials, summarize, sup_regret_mixture)
from ucal import check_a_bounds, closed_form, dp_value, engine, value_lower_bound
from ucal.core import SIMPLEX_TOL, format_float, uniform_point
from ucal.engine import mixture_weight_grid


def _gen(seed, stream=0):
    return RngStream(seed, stream).generator()


class TestRunGame:
    def test_ftl_vs_alternating_unrolled(self):
        tr = run_game(FollowTheLeader(2, 4), Alternating(2), _gen(0))
        expected = np.array([[0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [2 / 3, 1 / 3]])
        np.testing.assert_allclose(tr.forecasts, expected)
        np.testing.assert_array_equal(tr.outcomes, [0, 1, 0, 1])
        np.testing.assert_array_equal(tr.final_counts, [2, 2])

    def test_static_forecasts_constant(self):
        tr = run_game(StaticForecaster([0.3, 0.7], 5), FixedSequence(2, [0, 1, 0, 0, 1]),
                      _gen(0))
        np.testing.assert_array_equal(tr.forecasts, np.tile([0.3, 0.7], (5, 1)))

    def test_same_seed_identical_transcripts(self):
        for _ in range(2):
            runs = [run_game(PerturbedLeaderGeometric(3, 50), IidUniform(3), _gen(42, 7))
                    for _ in range(2)]
        np.testing.assert_array_equal(runs[0].forecasts, runs[1].forecasts)
        np.testing.assert_array_equal(runs[0].outcomes, runs[1].outcomes)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            run_game(FollowTheLeader(2, 5), IidUniform(3), _gen(0))

    def test_adaptive_adversary_sees_only_past(self):
        class Recorder(Adversary):
            def __init__(self, k):
                super().__init__(k)
                self.lengths = []

            def next_outcomes(self, t, past_forecasts, rngs):
                self.lengths.append(len(past_forecasts))
                return np.full(len(rngs), (t - 1) % 2)

        adv = Recorder(2)
        run_game(FollowTheLeader(2, 6), adv, _gen(0))
        assert adv.lengths == [0, 1, 2, 3, 4, 5]

    def test_oblivious_subclass_is_played_as_one_block(self):
        class Watching(Alternating):  # has outcomes, so its reply is never asked
            def next_outcomes(self, t, past_forecasts, rngs):
                raise AssertionError("an oblivious adversary is not asked round by round")

        tr = run_game(FollowTheLeader(2, 6), Watching(2), _gen(0))
        assert tr.outcomes.tolist() == [0, 1] * 3

    def test_non_integer_oblivious_outcomes_refused(self):
        class Fractional(Adversary):
            def outcomes(self, horizon, rng):
                return np.full(horizon, 1.7)

        with pytest.raises(ValueError, match="indices in"):
            run_game(FollowTheLeader(3, 5), Fractional(3), _gen(0))

    def test_adversary_without_a_protocol_is_refused(self):
        with pytest.raises(NotImplementedError, match="`outcomes` .* or `next_outcomes`"):
            run_game(FollowTheLeader(2, 6), Adversary(2), _gen(0))


class RoundByRound(Adversary):
    """An adaptive reference that gives an oblivious adversary's outcomes one round at a time.

    ``reply(t, rng)`` is round t's outcome of the game drawing from ``rng``,
    written here independently of the adversary's ``outcomes``.
    """

    def __init__(self, k, reply):
        super().__init__(k)
        self.reply = reply
        self.calls = 0

    def next_outcomes(self, t, past_forecasts, rngs):
        self.calls += 1
        return np.array([self.reply(t, rng) for rng in rngs], dtype=np.int64)


def _oblivious_and_reference(name, k, horizon):
    """The shipped oblivious adversary ``name`` and its round-by-round reference."""
    if name == "iid-uniform":
        return IidUniform(k), RoundByRound(k, lambda t, rng: rng.integers(0, k))
    if name == "alternating":
        return Alternating(k), RoundByRound(k, lambda t, rng: (t - 1) % 2)
    sequence = _gen(99).integers(0, k, size=horizon).tolist()
    return FixedSequence(k, sequence), RoundByRound(k, lambda t, rng: sequence[t - 1])


FORECASTERS = {
    "ftl": FollowTheLeader,
    "ftpl-geometric": PerturbedLeaderGeometric,
    "ftpl-uniform": PerturbedLeaderUniform,
    "static": lambda k, horizon: StaticForecaster(np.arange(1, k + 1) / (k * (k + 1) / 2),
                                                  horizon),
}
OBLIVIOUS = ["alternating", "fixed", "iid-uniform"]
SHIPPED_LOSSES = [VShapedLoss(), SquaredLoss(1.0), SquaredLoss(0.5), SphericalLoss(),
                  TsallisLoss(1.5), TsallisLoss(3.0),
                  MixtureLoss(SquaredLoss(0.5), VShapedLoss(), 0.3)]


@pytest.mark.parametrize("path", ["block", "lockstep"])
@pytest.mark.parametrize("adversary", ["alternating", "iid-uniform"])
def test_final_counts_are_the_outcome_bincount(path, adversary):
    # at K = 5 alternating plays only outcomes 0 and 1, so minlength pads the top three
    k, horizon = 5, 33
    oblivious, reference = _oblivious_and_reference(adversary, k, horizon)
    games = play_games(PerturbedLeaderGeometric(k, horizon),
                       oblivious if path == "block" else reference,
                       [_gen(3, i) for i in range(4)])
    for game in games:
        counts = game.final_counts
        assert counts.dtype == np.int64 and counts.shape == (k,)
        assert np.array_equal(counts, np.bincount(game.outcomes, minlength=k))
        assert counts is game.final_counts  # derived once per transcript
    if adversary == "alternating":
        assert [game.final_counts.tolist() for game in games] == [[17, 16, 0, 0, 0]] * 4


class TestKernelMatchesRoundLoop:
    """The one-block kernel and the round loop give bit-identical transcripts."""

    @pytest.mark.parametrize("horizon", [1, 7, 256])
    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("adversary", OBLIVIOUS)
    @pytest.mark.parametrize("forecaster", sorted(FORECASTERS))
    def test_identical_transcripts(self, forecaster, adversary, k, horizon):
        kernel_adv, loop_adv = _oblivious_and_reference(adversary, k, horizon)
        f_kernel = FORECASTERS[forecaster](k, horizon)
        f_loop = FORECASTERS[forecaster](k, horizon)
        kernel = run_game(f_kernel, kernel_adv, _gen(31, horizon))
        loop = run_game(f_loop, loop_adv, _gen(31, horizon))
        assert loop_adv.calls == horizon
        assert np.array_equal(kernel.forecasts, loop.forecasts)
        assert np.array_equal(kernel.outcomes, loop.outcomes)
        assert np.array_equal(kernel.final_counts, loop.final_counts)
        kernel_regrets = [regret(kernel, loss).regret for loss in SHIPPED_LOSSES]
        loop_regrets = [regret(loop, loss).regret for loss in SHIPPED_LOSSES]
        assert np.array_equal(kernel_regrets, loop_regrets)
        if forecaster == "ftl" and adversary == "alternating" and k == 2 and horizon % 2 == 0:
            assert kernel_regrets[0] == horizon / 4  # vshaped, exactly

    def test_greedy_plays_round_by_round(self):
        loss = VShapedLoss()
        tr = run_game(FollowTheLeader(2, 6), GreedyAdaptive(2, loss), _gen(0))
        forecasts, outcomes = _reference_greedy_game(FollowTheLeader(2, 6), loss, 6, _gen(0))
        assert np.array_equal(tr.forecasts, forecasts)
        assert np.array_equal(tr.outcomes, outcomes)
        # by hand: the proxy is the previous forecast, and a tie (sign 0 at 1/2) picks outcome 0
        assert tr.outcomes.tolist() == [0, 0, 1, 1, 1, 0]

    def test_short_fixed_sequence_exhausted(self):
        with pytest.raises(ValueError, match="length 3 exhausted at round 4"):
            run_game(FollowTheLeader(2, 5), FixedSequence(2, [0, 1, 0]), _gen(0))


GREEDY_LOSSES = {
    "vshaped": VShapedLoss(), "squared": SquaredLoss(1.0), "squared-half": SquaredLoss(0.5),
    "spherical": SphericalLoss(), "tsallis-1.5": TsallisLoss(1.5),
    "mixture": MixtureLoss(SquaredLoss(0.5), VShapedLoss(), 0.3),
}


def _reference_greedy_game(forecaster, loss, horizon, rng):
    """The greedy game as a plain round loop, scoring each reply with ``bivariate``."""
    k = forecaster.k
    noise = forecaster.noise(horizon, rng)
    forecasts, outcomes = np.empty((horizon, k)), []
    counts = np.zeros(k, dtype=np.int64)
    for t in range(horizon):
        forecasts[t] = forecaster.rule(counts[None, :], noise[t:t + 1])[0]
        proxy = uniform_point(k) if t == 0 else forecasts[t - 1]
        outcomes.append(int(np.argmax(loss.bivariate(proxy, np.arange(k)))))
        counts[outcomes[-1]] += 1
    return forecasts, np.array(outcomes)


def _assert_block_equals_solo(make_forecaster, make_adversary, k, horizon, n=3):
    """Every game of a lockstep block of n equals the same game played alone."""
    block = play_games(make_forecaster(k, horizon), make_adversary(k),
                       [_gen(31, i) for i in range(n)])
    for i, game in enumerate(block):
        solo = run_game(make_forecaster(k, horizon), make_adversary(k), _gen(31, i))
        assert np.array_equal(game.forecasts, solo.forecasts)
        assert np.array_equal(game.outcomes, solo.outcomes)
        assert np.array_equal(game.final_counts, solo.final_counts)
        assert np.array_equal([regret(game, loss).regret for loss in SHIPPED_LOSSES],
                              [regret(solo, loss).regret for loss in SHIPPED_LOSSES])
    return block


class TestLockstepMatchesSolo:
    """A lockstep block of adaptive games gives each game its solo transcript."""

    @pytest.mark.parametrize("horizon", [1, 7, 256])
    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("loss", sorted(GREEDY_LOSSES))
    @pytest.mark.parametrize("forecaster", sorted(FORECASTERS))
    def test_greedy_block_equals_solo(self, forecaster, loss, k, horizon):
        greedy_loss = GREEDY_LOSSES[loss]
        block = _assert_block_equals_solo(FORECASTERS[forecaster],
                                          lambda k: GreedyAdaptive(k, greedy_loss), k, horizon)
        forecasts, outcomes = _reference_greedy_game(FORECASTERS[forecaster](k, horizon),
                                                     greedy_loss, horizon, _gen(31, 2))
        assert np.array_equal(block[2].forecasts, forecasts)
        assert np.array_equal(block[2].outcomes, outcomes)

    def test_recorder_sees_only_the_past(self):
        class Recorder(Adversary):
            shapes = []

            def next_outcomes(self, t, past_forecasts, rngs):
                self.shapes.append(past_forecasts.shape)
                return np.full(len(rngs), (t - 1) % 2)

        _assert_block_equals_solo(FollowTheLeader, Recorder, 2, 6)
        # one call a round for the block of three games, then three solo games
        assert Recorder.shapes[:6] == [(t, 3, 2) for t in range(6)]
        assert Recorder.shapes[6:] == [(t, 1, 2) for t in range(6)] * 3

    def test_adaptive_subclass_draws_from_its_own_stream(self):
        class Drawing(Adversary):
            def next_outcomes(self, t, past_forecasts, rngs):
                return np.array([1 if t > 1 and past_forecasts[-1, i, 0] > 0.6
                                 else rng.integers(0, self.k)
                                 for i, rng in enumerate(rngs)])

        block = _assert_block_equals_solo(PerturbedLeaderUniform, Drawing, 3, 64)
        assert len({tuple(game.outcomes) for game in block}) == 3

    def test_subclass_reply_is_honoured(self):
        class Contrarian(GreedyAdaptive):
            def next_outcomes(self, t, past_forecasts, rngs):
                return (super().next_outcomes(t, past_forecasts, rngs) + 1) % self.k

        def contrarian(k):
            return Contrarian(k, SquaredLoss())

        block = _assert_block_equals_solo(FollowTheLeader, contrarian, 3, 20)
        greedy = run_game(FollowTheLeader(3, 20), GreedyAdaptive(3, SquaredLoss()), _gen(0))
        assert block[0].outcomes[0] == 1 and greedy.outcomes[0] == 0

    def test_batched_greedy_replies_match_single_replies(self):
        past = _gen(8).dirichlet(np.ones(4), size=(5, 6))  # (t - 1, n, K)
        for loss in GREEDY_LOSSES.values():
            adv = GreedyAdaptive(4, loss)
            batched = adv.next_outcomes(6, past, [None] * 6)
            single = [int(np.argmax(loss.bivariate(past[-1, i], np.arange(4)))) for i in range(6)]
            assert batched.tolist() == single
            assert adv.next_outcomes(1, past[:0], [None] * 6).tolist() == [0] * 6

    def test_non_integer_reply_refused(self):
        class Fractional(Adversary):
            def next_outcomes(self, t, past_forecasts, rngs):
                return np.full(len(rngs), 1.7)

        with pytest.raises(ValueError, match="indices in"):
            run_game(FollowTheLeader(3, 5), Fractional(3), _gen(0))

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_reply_rejected(self, bad):
        class Bad(Adversary):
            def next_outcomes(self, t, past_forecasts, rngs):
                return np.full(len(rngs), bad if t == 4 else 0)

        with pytest.raises(ValueError, match="indices in"):
            play_games(FollowTheLeader(3, 8), Bad(3), [_gen(0, i) for i in range(2)])

    @pytest.mark.parametrize("reply", [lambda n: 1, lambda n: np.ones(1, dtype=np.int64),
                                       lambda n: np.ones(n + 1, dtype=np.int64)],
                             ids=["scalar", "one-entry", "one-too-long"])
    def test_wrong_shape_reply_refused(self, reply):
        # a scalar or one-entry reply would broadcast to every running game
        class WrongShape(Adversary):
            def next_outcomes(self, t, past_forecasts, rngs):
                return reply(len(rngs))

        with pytest.raises(ValueError, match=r"must be 5 indices in \[0, 3\)"):
            play_games(FollowTheLeader(3, 5), WrongShape(3), [_gen(0, i) for i in range(3)])


def _state(forecaster):
    """Every instance attribute of ``forecaster``, as plain values."""
    return {key: np.asarray(value).tolist() for key, value in vars(forecaster).items()}


class TestStatelessForecaster:
    """A forecaster keeps no per-game state: every game starts from zero counts."""

    @pytest.mark.parametrize("adversary", ["iid-uniform", "greedy"])
    @pytest.mark.parametrize("forecaster", sorted(FORECASTERS))
    def test_one_forecaster_plays_two_full_games(self, forecaster, adversary):
        k, horizon = 3, 40
        adv = IidUniform(k) if adversary == "iid-uniform" else GreedyAdaptive(k, SquaredLoss())
        f = FORECASTERS[forecaster](k, horizon)
        before = _state(f)
        games = [run_game(f, adv, _gen(7)) for _ in range(2)]
        assert np.array_equal(games[0].forecasts, games[1].forecasts)
        assert np.array_equal(games[0].outcomes, games[1].outcomes)
        blocks = [play_games(f, adv, [_gen(7, i) for i in range(3)]) for _ in range(2)]
        for first, second in zip(*blocks):
            assert np.array_equal(first.forecasts, second.forecasts)
            assert np.array_equal(first.outcomes, second.outcomes)
        losses = [VShapedLoss(), SquaredLoss(0.5)]
        runs = [run_trials(f, adv, losses, 3, 7) for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])
        assert runs[0].tolist() == [[regret(game, loss).regret for loss in losses]
                                    for game in blocks[0]]
        assert _state(f) == before

    def test_play_games_checks_horizon_and_k(self):
        f = FollowTheLeader(3, 8)
        with pytest.raises(ValueError, match="dimension mismatch"):
            play_games(f, IidUniform(2), [_gen(0)])
        assert [len(game.outcomes) for game in play_games(f, IidUniform(3), [_gen(0), _gen(1)])
                ] == [f.horizon] * 2
        for adversary in (IidUniform(3), GreedyAdaptive(3, SquaredLoss())):
            with pytest.raises(ValueError, match="at least one game"):
                play_games(f, adversary, [])


class TestGameSizeCap:
    def test_refused_before_any_draw(self):
        class NoDraw(PerturbedLeaderGeometric):
            def noise(self, horizon, rng):
                raise AssertionError("drew noise for an oversized game")

        horizon = engine.MAX_GAME_CELLS // 4 + 1
        with pytest.raises(ValueError, match="above the cap"):
            run_game(NoDraw(4, horizon), GreedyAdaptive(4, VShapedLoss()), _gen(0))
        with pytest.raises(ValueError, match="above the cap"):
            run_trials(NoDraw(4, horizon), IidUniform(4), [VShapedLoss()], 2, 0)

    def test_cap_is_inclusive(self):
        engine.check_game_size(2, engine.MAX_GAME_CELLS // 2)
        with pytest.raises(ValueError, match="above the cap"):
            engine.check_game_size(2, engine.MAX_GAME_CELLS // 2 + 1)

    def test_empty_game_refused(self):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            engine.check_game_size(2, 0)


class TestRegret:
    @pytest.mark.parametrize("horizon", [8, 100])
    def test_ftl_alternating_vshaped_exact_quarter(self, horizon):
        tr = run_game(FollowTheLeader(2, horizon), Alternating(2), _gen(0))
        assert regret(tr, VShapedLoss()).regret == pytest.approx(horizon / 4, abs=1e-9)
        assert benchmark_cost(tr, VShapedLoss()) == pytest.approx(0.0, abs=1e-12)

    def test_static_mean_zero_regret(self):
        seq = [0, 1, 1, 0, 1, 0]  # mean (1/2, 1/2)
        tr = run_game(StaticForecaster([0.5, 0.5], 6), FixedSequence(2, seq), _gen(0))
        for loss in (SquaredLoss(1.0), SphericalLoss(), TsallisLoss(1.5)):
            assert regret(tr, loss).regret == pytest.approx(0.0, abs=1e-9)

    def test_arithmetic_identity(self):
        tr = run_game(PerturbedLeaderGeometric(2, 64), IidUniform(2), _gen(1))
        for loss in (VShapedLoss(), SquaredLoss(0.5)):
            cost = float(np.sum(loss.bivariate(tr.forecasts, tr.outcomes)))
            assert regret(tr, loss).regret == cost - benchmark_cost(tr, loss)

    @pytest.mark.parametrize("outcomes, message", [
        ([], "empty history"),
        ([0.0, 1.0, 0.0, 1.0], "outcome index must be an integer"),
        ([0, 1, -1, 1], "outcome index out of range"),
        ([0, 1, 2, 1], "outcome index out of range"),
        # in the transcript's own shapes, not those of the one-game block regret scores
        ([0, 1, 0], r"outcomes \(3,\) do not match forecasts \(4, 2\)"),
        ([1], r"outcomes \(1,\) do not match forecasts \(4, 2\)")],
        ids=["empty", "float", "negative", "K", "shape-mismatch", "one-outcome"])
    def test_bad_transcript_refused(self, outcomes, message):
        # four forecasts, none when there is no outcome; [] is an empty int64 history
        forecasts = np.full((4 if outcomes else 0, 2), 0.5)
        tr = Transcript(forecasts, np.array(outcomes, dtype=None if outcomes else np.int64))
        for loss in SHIPPED_LOSSES:  # the benchmark reads the outcomes as regret does
            for measure in (regret, benchmark_cost):
                with pytest.raises(ValueError, match=message):
                    measure(tr, loss)

    def test_vshaped_benchmark_cost_identity(self):
        # realized counts n give benchmark cost -1/2 sum_i |n_i - T/K|
        horizon = 500
        tr = run_game(FollowTheLeader(3, horizon), IidUniform(3), _gen(2))
        expected = -0.5 * np.sum(np.abs(tr.final_counts - horizon / 3))
        assert benchmark_cost(tr, VShapedLoss()) == pytest.approx(expected, abs=1e-9)

    def test_benchmark_beats_any_fixed_point(self):
        horizon = 200
        tr = run_game(FollowTheLeader(3, horizon), IidUniform(3), _gen(3))
        rng = _gen(4)
        candidates = random_simplex_points(3, 1000, rng)
        for loss in (SquaredLoss(0.5), SphericalLoss(), VShapedLoss(), TsallisLoss(1.5)):
            best = benchmark_cost(tr, loss)
            costs = [benchmark_cost(tr, loss, point=p) for p in candidates]
            assert best <= min(costs) + 1e-9, loss.name

    @pytest.mark.parametrize("point, message", [([2.0, -1.0], "negative probability"),
                                                ([0.3, 0.3], "sum to"),
                                                ([[0.5, 0.5]], "1-d probability vector")])
    def test_point_off_the_simplex_refused(self, point, message):
        tr = run_game(FollowTheLeader(2, 8), Alternating(2), _gen(0))
        with pytest.raises(ValueError, match=message):
            benchmark_cost(tr, SquaredLoss(), point=point)


class TestEstimateCalibration:
    def test_static_mean_on_matching_sequence(self):
        seq = [0, 1] * 10
        est = estimate_calibration(StaticForecaster([0.5, 0.5], 20),
                                   FixedSequence(2, seq),
                                   [VShapedLoss(), SquaredLoss(0.5)],
                                   trials=3, base_seed=0)
        assert est.pucal == pytest.approx(0.0, abs=1e-9)
        assert est.ucal == pytest.approx(0.0, abs=1e-9)

    def test_singleton_family_pucal_equals_ucal(self):
        est = estimate_calibration(PerturbedLeaderGeometric(2, 128),
                                   IidUniform(2), [VShapedLoss()],
                                   trials=20, base_seed=5)
        assert est.pucal == pytest.approx(est.ucal, abs=1e-12)

    def test_pucal_at_most_ucal(self):
        losses = [VShapedLoss(), SquaredLoss(0.5), SphericalLoss()]
        est = estimate_calibration(PerturbedLeaderGeometric(2, 256),
                                   IidUniform(2), losses,
                                   trials=50, base_seed=6)
        assert est.pucal <= est.ucal + 3 * est.std_error + 1e-12
        assert set(est.per_loss_mean) == {loss.name for loss in losses}

    def test_sanity_band_for_ftpl(self):
        # mean vshaped regret sits between the binomial-deviation floor and
        # the 4*sqrt(KT) ceiling at modest scale
        horizon, trials = 1024, 100
        est = estimate_calibration(PerturbedLeaderGeometric(2, horizon),
                                   IidUniform(2), [VShapedLoss()],
                                   trials=trials, base_seed=7)
        floor = math.sqrt(horizon / 8) - 3 * est.std_error
        ceiling = 4 * math.sqrt(2 * horizon) + 3 * est.std_error
        assert floor <= est.pucal <= ceiling

    def test_only_the_soft_band_warning_is_not_an_error(self):
        # pyproject.toml's filterwarnings keep criterion 4's soft band a warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.warn("pucal in the soft band below 5*sqrt(KT): K=2 probe")
        assert len(caught) == 1
        with pytest.raises(UserWarning):
            warnings.warn("any other warning")

    def test_error_bars_name_their_estimates(self):
        regrets = np.array([[1.0, 5.0], [3.0, 2.0], [2.0, 8.0], [6.0, 1.0]])
        est = summarize(regrets, [VShapedLoss(), SquaredLoss()])
        assert est.pucal == 4.0 and est.ucal == 5.5 and est.trials == 4
        assert est.pucal_se == pytest.approx(np.std([5, 2, 8, 1], ddof=1) / 2, abs=1e-15)
        assert est.std_error == pytest.approx(np.std([5, 3, 8, 6], ddof=1) / 2, abs=1e-15)
        single = summarize(regrets[:1], [VShapedLoss(), SquaredLoss()])
        assert single.pucal_se == single.std_error == 0.0

    def test_summarize_needs_a_trial(self):
        with pytest.raises(ValueError, match="need at least one trial"):
            summarize(np.empty((0, 2)), [VShapedLoss(), SquaredLoss()])

    @pytest.mark.parametrize("regrets", [np.array([1.0, 2.0, 3.0]), np.ones((2, 3)),
                                         np.ones((2, 1)), np.ones((1, 2, 2))],
                             ids=["1-d", "three-columns", "one-column", "3-d"])
    def test_summarize_needs_one_column_per_loss(self, regrets):
        with pytest.raises(ValueError, match=r"regrets must have shape \(trials, 2\)"):
            summarize(regrets, [VShapedLoss(), SquaredLoss()])

    def test_summarize_needs_a_loss(self):
        with pytest.raises(ValueError, match="need at least one loss"):
            summarize(np.empty((3, 0)), [])

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            estimate_calibration(FollowTheLeader(2, 4), Alternating(2),
                                 [VShapedLoss()], trials=0, base_seed=0)
        with pytest.raises(ValueError):
            estimate_calibration(FollowTheLeader(2, 4), Alternating(2),
                                 [], trials=1, base_seed=0)


class TestMixtureSup:
    def _transcript(self, horizon=100):
        return run_game(FollowTheLeader(2, horizon), Alternating(2), _gen(0))

    def test_grid_contains_endpoints(self):
        grid = mixture_weight_grid(1 / 7)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert np.all(np.diff(grid) > 0)

    def test_grid_sup_equals_endpoint_max(self):
        tr = self._transcript()
        grid_sup, exact = sup_regret_mixture(tr, SquaredLoss(0.5), VShapedLoss(), eps=0.01)
        r1 = regret(tr, SquaredLoss(0.5)).regret
        r2 = regret(tr, VShapedLoss()).regret
        assert exact == max(r1, r2)
        assert grid_sup == exact  # affine in the weight, endpoints on the grid

    def test_ftl_alternating_dominated_by_step_loss(self):
        tr = self._transcript(horizon=100)
        grid_sup, _ = sup_regret_mixture(tr, SquaredLoss(0.5), VShapedLoss(), eps=0.01)
        assert grid_sup >= 100 / 4

    def test_identical_losses_weight_independent(self):
        tr = self._transcript()
        loss = SquaredLoss(0.5)
        grid_sup, exact = sup_regret_mixture(tr, loss, loss, eps=0.25)
        assert grid_sup == pytest.approx(exact, abs=1e-12)

    def test_mixture_loss_object_agrees_with_affine_regret(self):
        tr = self._transcript()
        l1, l2 = SquaredLoss(0.5), VShapedLoss()
        for w in (0.0, 0.3, 0.8, 1.0):
            direct = regret(tr, MixtureLoss(l1, l2, w)).regret
            affine = w * regret(tr, l1).regret + (1 - w) * regret(tr, l2).regret
            assert direct == pytest.approx(affine, abs=1e-9)

    def test_eps_validated(self):
        tr = self._transcript()
        with pytest.raises(ValueError):
            sup_regret_mixture(tr, SquaredLoss(), VShapedLoss(), eps=0.0)

    def test_grid_above_the_cap_refused_before_allocating(self):
        # 1e-13 would be 10^13 weights, 73 TiB; 2^-24 is one weight more than the cap
        tr = self._transcript()
        for eps, points in ((1e-13, 10 ** 13 + 1), (2.0 ** -24, 2 ** 24 + 1)):
            with pytest.raises(ValueError, match=f"grid of {points} weights, above the cap"):
                mixture_weight_grid(eps)
            with pytest.raises(ValueError, match="above the cap"):
                sup_regret_mixture(tr, SquaredLoss(), VShapedLoss(), eps=eps)


class TestHighProbBound:
    def test_all_zero_regrets(self):
        assert check_high_prob_bound(np.zeros(100), k=2, horizon=1024, delta=0.1) == 0.0

    def test_delta_one_threshold(self):
        # log(1/1) = 0, threshold collapses to 4*sqrt(KT)
        threshold = 4 * math.sqrt(2 * 1024)
        regrets = [threshold - 1, threshold + 1]
        assert check_high_prob_bound(regrets, k=2, horizon=1024, delta=1.0) == 0.5

    def test_counts_exceedances(self):
        threshold = 4 * math.sqrt(2 * 100) + math.sqrt(2 * 100 * math.log(10))
        regrets = [0.0, threshold + 0.1, threshold - 0.1, 2 * threshold]
        assert check_high_prob_bound(regrets, k=2, horizon=100, delta=0.1) == 0.5

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            check_high_prob_bound([0.0], k=2, horizon=10, delta=0.0)

    def test_needs_a_trial(self):
        with pytest.raises(ValueError, match="need at least one trial"):
            check_high_prob_bound([], k=2, horizon=10, delta=0.1)

    @pytest.mark.parametrize("k, horizon, message", [
        (-2, 10, "at least 2 outcomes"), (1, 10, "at least 2 outcomes"),
        (2.5, 10, "K must be an integer"), (2, -10, "horizon must be >= 1"),
        (2, 0, "horizon must be >= 1"), (2, 10.0, "horizon must be an integer"),
    ])
    def test_bad_k_or_horizon_refused(self, k, horizon, message):
        with pytest.raises(ValueError, match=message):
            check_high_prob_bound([0.0], k=k, horizon=horizon, delta=0.1)

    def test_numpy_integers_accepted(self):
        assert check_high_prob_bound([0.0], k=np.int64(2), horizon=np.int32(10), delta=0.1) == 0.0


class TestExactBinomialMad:
    def test_small_cases(self):
        assert exact_binomial_mad(4, 0.5) == pytest.approx(0.75, abs=1e-12)
        assert exact_binomial_mad(1, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_enumeration_oracle(self):
        # independent exact-rational enumeration for small T
        for n, p_num, p_den in [(6, 1, 2), (5, 1, 3), (9, 1, 4)]:
            p = fractions.Fraction(p_num, p_den)
            mad = sum(math.comb(n, k) * p ** k * (1 - p) ** (n - k)
                      * abs(fractions.Fraction(k) - n * p) for k in range(n + 1))
            assert exact_binomial_mad(n, float(p)) == pytest.approx(float(mad), abs=1e-12)

    def test_large_horizon_above_sqrt_bound(self):
        assert exact_binomial_mad(10_000, 0.5) >= math.sqrt(10_000 / 8)

    @pytest.mark.parametrize("p", [0.5, 0.2, 1 / 3, 0.1])
    @pytest.mark.parametrize("n", [10_001, 100_000])
    def test_lgamma_branch_matches_the_exact_form(self, n, p):
        # de Moivre's integer form on the float p = a/d at 50 digits; the exact big-integer
        # powers take seconds at n = 10^5.  C(n, m) keeps its leading 256 bits.
        context = decimal.Context(prec=50, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
        a, d = p.as_integer_ratio()
        m = n * a // d + 1
        comb = math.comb(n, m)
        shift = max(0, comb.bit_length() - 256)
        mad = decimal.Decimal(2 * m * (comb >> shift))
        for base, power in ((2, shift), (a, m), (d - a, n - m + 1), (d, -(n + 1))):
            mad = context.multiply(mad, context.power(decimal.Decimal(base), power))
        assert exact_binomial_mad(n, p) == pytest.approx(float(mad), rel=1e-9, abs=0)

    def test_domain(self):
        with pytest.raises(ValueError):
            exact_binomial_mad(0, 0.5)
        with pytest.raises(ValueError):
            exact_binomial_mad(10, 0.0)


class TestRunTrials:
    @pytest.mark.parametrize("adversary", [IidUniform(3), GreedyAdaptive(3, SphericalLoss())])
    def test_trial_range_and_blocks(self, adversary, monkeypatch):
        def run(trials):
            return run_trials(PerturbedLeaderUniform(3, 40), adversary,
                              SHIPPED_LOSSES, trials=trials, base_seed=4)

        whole = run(7)
        monkeypatch.setattr(engine, "BLOCK_CELLS", 2 * 40 * 3)  # lockstep blocks of 2
        assert np.array_equal(run(7), whole)

    def test_deterministic_per_trial_streams(self):
        a = run_trials(PerturbedLeaderGeometric(2, 32), IidUniform(2),
                       [VShapedLoss()], trials=5, base_seed=9)
        b = run_trials(PerturbedLeaderGeometric(2, 32), IidUniform(2),
                       [VShapedLoss()], trials=5, base_seed=9)
        np.testing.assert_array_equal(a, b)
        assert len(np.unique(a)) > 1  # trials genuinely differ


def _log_sum_exp_loss():
    """A ``CustomLoss`` through exp and log: minus log-sum-exp and its gradient."""
    def subgradient(p):
        weights = np.exp(p)
        return -weights / weights.sum(axis=-1, keepdims=True)

    return CustomLoss(lambda p: -np.log(np.exp(p).sum(axis=-1)), subgradient, "log-sum-exp")


class TestBlockScorer:
    """The trial path's scorer gives each game of a block its ``regret``, bit for bit."""

    LOSSES = SHIPPED_LOSSES + [_log_sum_exp_loss()]

    @staticmethod
    def _blocks(kind, k, horizon, n=5):
        """(forecasts, outcomes, counts) blocks of n games as the trial path plays them."""
        def rngs():
            return [_gen(17, i) for i in range(n)]

        if kind == "oblivious":
            return engine._play([PerturbedLeaderGeometric(k, horizon)], IidUniform(k), [rngs()])
        greedy = GreedyAdaptive(k, SquaredLoss())
        if kind == "adaptive":
            return engine._play([PerturbedLeaderUniform(k, horizon)], greedy, [rngs()])
        # a staircase: the games at `horizon` lie max T = horizon + 5 rows apart
        staircase = [FollowTheLeader(k, horizon + 5), PerturbedLeaderUniform(k, horizon)]
        return engine._play(staircase, greedy, [rngs(), rngs()])

    @pytest.mark.parametrize("horizon", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("k", [2, 3, 5, 10])  # at K = 10 numpy sums the K axis pairwise
    def test_equals_per_game_regret(self, k, horizon, monkeypatch):
        # the default budget, one game per chunk, and chunks of two games with a remainder
        budgets = (engine.SCORE_CELLS, 1, horizon * k, 2 * horizon * k + 1)
        for kind in ("oblivious", "adaptive", "staircase"):
            for forecasts, outcomes, counts in self._blocks(kind, k, horizon):
                alone = [Transcript(np.array(f), np.array(y)) for f, y in zip(forecasts, outcomes)]
                expected = [[regret(game, loss).regret for loss in self.LOSSES] for game in alone]
                for cells in budgets:
                    monkeypatch.setattr(engine, "SCORE_CELLS", cells)
                    assert np.array_equal(engine._score(forecasts, outcomes, counts, self.LOSSES),
                                          expected), (kind, cells)

    @pytest.mark.parametrize("horizon", [1, 2, 64, 129])
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_kernel_counts_are_final_counts(self, k, horizon):
        # the counts the scorer reads are the ones the kernel kept, each game's own
        for kind in ("oblivious", "adaptive", "staircase"):
            for forecasts, outcomes, counts in self._blocks(kind, k, horizon):
                assert counts.dtype == np.int64 and counts.shape == (len(outcomes), k), kind
                for game, (f, y) in enumerate(zip(forecasts, outcomes)):
                    assert np.array_equal(counts[game], Transcript(f, y).final_counts), (
                        kind, game)

    @pytest.mark.parametrize("horizon", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_regret_is_cost_minus_benchmark(self, k, horizon):
        # the formula written out per transcript, apart from the scorer ``regret`` goes through
        for kind in ("oblivious", "adaptive", "staircase"):
            for forecasts, outcomes, _ in self._blocks(kind, k, horizon):
                for f, y in zip(forecasts, outcomes):
                    game = Transcript(f, y)
                    for loss in self.LOSSES:
                        cost = float(np.sum(loss.bivariate(f, y)))
                        assert regret(game, loss).regret == cost - benchmark_cost(game, loss), (
                            kind, loss)


class TestTrialJobs:
    """``trial_jobs`` is pure: a plan of (horizons, trial range) jobs, no games played."""

    @given(st.lists(st.integers(1, 300), min_size=1, max_size=5, unique=True),
           st.integers(1, 40), st.integers(1, 3000), st.booleans())
    def test_cover_budget_cuts_and_cost_order(self, horizons, trials, cells, adaptive):
        adversary = GreedyAdaptive(3, SquaredLoss()) if adaptive else IidUniform(3)
        budget = "BLOCK_CELLS" if adaptive else "SCORE_CELLS"
        with unittest.mock.patch.object(engine, budget, cells):
            jobs = engine.trial_jobs(adversary, horizons, trials)
        for horizon in horizons:  # every trial at every horizon exactly once
            assert sorted(t for group, r in jobs if horizon in group for t in r) == list(
                range(trials))
        groups = list(dict.fromkeys(group for group, _ in jobs))
        assert [h for group in groups for h in group] == sorted(horizons, reverse=True)
        # one rule for both protocols; only one trial's cells differ: an adaptive block plays
        # sum(H) rows a trial, an oblivious one is filled whole, each game padded to the longest
        def trial(group):
            return 3 * sum(group) if adaptive else 3 * len(group) * group[0]

        for group, following in zip(groups, groups[1:]):  # as large as the budget allows
            assert trials * trial(group + (following[0],)) > cells
        for group in groups:  # several horizons share a group only while all trials fit
            assert len(group) == 1 or trials * trial(group) <= cells
        for group in groups:  # the fewest near-equal blocks within budget, or of one trial
            per_block = max(1, cells // trial(group))
            sizes = [len(r) for g, r in jobs if g == group]
            assert len(sizes) == -(-trials // per_block) and max(sizes) <= per_block
            assert max(sizes) - min(sizes) <= 1
        order = [(group[0], len(r)) for group, r in jobs]
        assert order == sorted(order, reverse=True)
        # against each horizon in its own blocks: as many rule calls, no more rounds
        solo = sum(h * -(-trials // max(1, cells // (3 * h))) for h in horizons)
        assert sum(sum(group) for group, _ in jobs) == solo
        assert sum(group[0] for group, _ in jobs) <= solo

    def test_benchmark_sweep_is_one_block(self):
        # 8 trials at 64, ..., 4096 are 56 games of 4096 rounds: one staircase, no pool
        horizons = [64 * 2 ** i for i in range(7)]
        jobs = engine.trial_jobs(GreedyAdaptive(3, SquaredLoss()), horizons, 8)
        assert jobs == [(tuple(reversed(horizons)), range(8))]

    def test_wide_block_plays_whole(self):
        # 4000 games of 64 rounds fit one block, which no worker count cuts
        jobs = engine.trial_jobs(GreedyAdaptive(3, SquaredLoss()), [64], 4000)
        assert jobs == [((64,), range(0, 4000))]

    @pytest.mark.parametrize("trials, blocks", [(7, 3), (2, 1), (5, 3)])
    def test_oblivious_trials_split_evenly(self, trials, blocks, monkeypatch):
        # one trial at (32, 16) is 2 * 32 * 3 = 192 cells: all trials share a block up to 85
        assert engine.trial_jobs(IidUniform(3), [16, 32], trials) == [((32, 16), range(trials))]
        # a budget of two trials: the group holds while all trials fit it, else each horizon
        # plays alone, in blocks of at most 385 // (32 * 3) = 4 trials, and 8 at T = 16
        monkeypatch.setattr(engine, "SCORE_CELLS", 2 * 192 + 1)
        jobs = engine.trial_jobs(IidUniform(3), [16, 32], trials)
        assert len(jobs) == blocks
        for group in {group for group, _ in jobs}:
            ranges = sorted((r.start, r.stop) for g, r in jobs if g == group)
            assert ranges == [(trials * i // len(ranges), trials * (i + 1) // len(ranges))
                              for i in range(len(ranges))]

    def test_blocks_are_cut_into_near_equal_sizes(self):
        # two blocks at T=64 play 4000 trials each, not 5461 and 2539
        jobs = engine.trial_jobs(GreedyAdaptive(3, SquaredLoss()), [64], 8000)
        assert jobs == [((64,), range(0, 4000)), ((64,), range(4000, 8000))]

    def test_bad_counts_rejected(self):
        for trials in (0, -1, 2.5):
            with pytest.raises(ValueError, match="trials must be"):
                engine.trial_jobs(IidUniform(3), [8], trials)


class ReadsEveryForecast(Adversary):
    """Plays the outcome of largest total forecast so far, and records what it was shown."""

    def __init__(self, k):
        super().__init__(k)
        self.calls = []

    def next_outcomes(self, t, past_forecasts, rngs):
        self.calls.append((t, past_forecasts.shape, len(rngs)))
        return past_forecasts.sum(axis=0).argmax(axis=-1) if t > 1 else np.zeros(len(rngs), int)


class DrawsEveryRound(Adversary):
    """Draws each game's outcome from its own stream every round, nudged by its last forecast."""

    def next_outcomes(self, t, past_forecasts, rngs):
        draws = np.array([rng.integers(0, self.k) for rng in rngs])
        if t > 1:
            draws[past_forecasts[-1, :, 0] > 0.6] = 1
        return draws


class GaussianLeader(Forecaster):
    """Softmax of counts plus Gaussian noise: a forecaster whose noise is not integer."""

    def noise(self, horizon, rng):
        return rng.normal(0.0, 2.0, size=(horizon, self.k))

    def rule(self, counts, noise):
        totals = counts + noise
        weights = np.exp(totals - totals.max(axis=1, keepdims=True))
        return weights / weights.sum(axis=1, keepdims=True)


class TestRunExperiment:
    LOSSES = [VShapedLoss(), SquaredLoss(0.5), SphericalLoss(), TsallisLoss(1.5)]
    HORIZONS = [1, 2, 7, 16, 33]

    @pytest.mark.parametrize("adversary", ["greedy:squared", "reads-every-forecast",
                                           "draws-every-round", "iid-uniform"])
    def test_staircase_equals_per_horizon_run_trials(self, adversary, monkeypatch):
        make = {"greedy:squared": lambda: GreedyAdaptive(3, SquaredLoss()),
                "reads-every-forecast": lambda: ReadsEveryForecast(3),
                "draws-every-round": lambda: DrawsEveryRound(3),
                "iid-uniform": lambda: IidUniform(3)}[adversary]
        # three rules (softmax, the leader, static) and int64 and float noise, so each running
        # horizon must step with its own
        forecasters = [GaussianLeader(3, 1), FollowTheLeader(3, 2),
                       PerturbedLeaderGeometric(3, 7), StaticForecaster([0.2, 0.3, 0.5], 16),
                       PerturbedLeaderUniform(3, 33)]
        expected = [run_trials(f, make(), self.LOSSES, 7, 5) for f in forecasters]
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        # one staircase of all five horizons; then 33 alone in 1-trial blocks, 16 alone in
        # blocks of 3, 2 and 2 trials, the group (7, 2) in one block, and 1 alone
        for cells in (engine.BLOCK_CELLS, 3 * 63):
            monkeypatch.setattr(engine, "BLOCK_CELLS", cells)
            for workers in (1, 2, 3):
                got = engine.run_experiment(forecasters, make(), self.LOSSES, 7, 5, workers)
                assert len(got) == len(expected)
                assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        if adversary != "iid-uniform":
            plan = engine.trial_jobs(make(), self.HORIZONS, 7)
            assert [group for group, _ in plan] == [(33,)] * 7 + [(16,)] * 3 + [(7, 2), (1,)]

    def test_adversary_sees_the_running_games(self):
        adversary = ReadsEveryForecast(3)
        forecasters = [FollowTheLeader(3, horizon) for horizon in self.HORIZONS]
        engine.run_experiment(forecasters, adversary, self.LOSSES, 4, 0)
        # one staircase: round t shows forecasts 1..t-1 of the 4 trials at every horizon >= t
        running = [4 * sum(h >= t for h in self.HORIZONS) for t in range(1, 34)]
        assert adversary.calls == [(t, (t - 1, n, 3), n) for t, n in zip(range(1, 34), running)]
        assert running == sorted(running, reverse=True)

    def test_float_noise_played_alike_on_both_paths(self):
        forecasters = [GaussianLeader(3, 9), PerturbedLeaderUniform(3, 5)]
        oblivious, reference = _oblivious_and_reference("iid-uniform", 3, 9)
        expected = [run_trials(f, oblivious, self.LOSSES, 4, 2) for f in forecasters]
        for forecaster, matrix in zip(forecasters, expected):  # one horizon, round by round
            assert np.array_equal(run_trials(forecaster, reference, self.LOSSES, 4, 2), matrix)
        # the staircase draws the float noise into its block's rows, as it does the int64 noise
        got = engine.run_experiment(forecasters, reference, self.LOSSES, 4, 2)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_bad_reply_names_the_horizon_of_its_game(self):
        class LastGameOutOfRange(Adversary):
            def next_outcomes(self, t, past_forecasts, rngs):
                reply = np.zeros(len(rngs), dtype=np.int64)
                reply[-1] = self.k
                return reply

        forecasters = [FollowTheLeader(3, 7), FollowTheLeader(3, 3)]
        with pytest.raises(ValueError, match="must be 3 indices"):
            engine.run_experiment(forecasters, LastGameOutOfRange(3), [VShapedLoss()], 2, 0)

    @pytest.mark.parametrize("forecasters, losses, trials, workers, seed, message", [
        ([], [VShapedLoss()], 2, 1, 0, "at least one forecaster"),
        (None, [], 2, 1, 0, "one loss"),
        (None, [VShapedLoss()], 2.5, 1, 0, "trials must be an integer"),
        (None, [VShapedLoss()], 2, 1.5, 0, "workers must be an integer"),
        (None, [VShapedLoss()], 0, 1, 0, "trials must be >= 1"),
        (None, [VShapedLoss()], 2, 0, 0, "workers must be >= 1"),
        # the stream reads a seed as one unsigned 64-bit word: 2^64 would replay seed 0
        (None, [VShapedLoss()], 2, 1, 2 ** 63, "seed must lie in"),
        (None, [VShapedLoss()], 2, 1, -2 ** 63 - 1, "seed must lie in"),
        (None, [VShapedLoss()], 2, 1, 2 ** 64, "seed must lie in"),
        (None, [VShapedLoss()], 2, 1, 1.5, "seed must be an integer"),
    ], ids=["no-forecaster", "no-loss", "fractional-trials", "fractional-workers",
            "no-trial", "no-worker", "seed-2^63", "seed-below-minus-2^63", "seed-2^64",
            "fractional-seed"])
    def test_bad_input_refused_before_any_game(self, forecasters, losses, trials, workers,
                                                seed, message):
        class NoDraw(PerturbedLeaderUniform):
            def noise(self, horizon, rng):
                raise AssertionError("played a game although the input was refused")

        forecasters = [NoDraw(3, 8), NoDraw(3, 4)] if forecasters is None else forecasters
        for adversary in (IidUniform(3), GreedyAdaptive(3, SquaredLoss())):
            with pytest.raises(ValueError, match=message):
                engine.run_experiment(forecasters, adversary, losses, trials, seed, workers)

    def test_repeated_horizon_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            engine.run_experiment([FollowTheLeader(2, 8), StaticForecaster([0.5, 0.5], 8)],
                                  Alternating(2), [VShapedLoss()], 2, 0)


def _count_blocks(monkeypatch) -> list:
    """Wrap ``engine._play`` so that each call appends its game count per horizon to a list."""
    games, play = [], engine._play

    def counted(forecasters, adversary, rngs):
        games.append([len(group) for group in rngs])
        return play(forecasters, adversary, rngs)

    monkeypatch.setattr(engine, "_play", counted)
    return games


class TestObliviousPieces:
    """An oblivious trial range is cut into blocks of whole trials, one ``_play`` call each."""

    LOSSES = [VShapedLoss(), SquaredLoss(0.5), SphericalLoss(), TsallisLoss(1.5)]

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("adversary", OBLIVIOUS)
    def test_piece_size_moves_no_bit(self, adversary, workers, monkeypatch):
        k, trials = 3, 7
        forecasters = [PerturbedLeaderUniform(k, 33), GaussianLeader(k, 16), FollowTheLeader(k, 7)]
        oblivious, _ = _oblivious_and_reference(adversary, k, 33)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for group in (forecasters[:1], forecasters):  # one horizon, then several
            expected = [[[regret(run_game(f, oblivious, _gen(5, i)), loss).regret
                          for loss in self.LOSSES] for i in range(trials)] for f in group]
            cells = len(group) * group[0].horizon * k  # one trial, padded to the longest
            # each horizon alone, a trial a block; (33,) alone and (16, 7) together; all
            # horizons, three trials a block; all horizons, every trial in one block
            for budget in (1, 33 * k, 3 * cells, trials * cells + 1):
                monkeypatch.setattr(engine, "SCORE_CELLS", budget)
                got = engine.run_experiment(group, oblivious, self.LOSSES, trials, 5, workers)
                assert [matrix.tolist() for matrix in got] == expected, budget

    def test_short_games_share_a_block(self, monkeypatch):
        # 4000 trials at K = 3, T = 64: at most 2^14 // (64 * 3) = 85 trials a block, not one
        # each, so 48 near-equal blocks, the larger first
        games = _count_blocks(monkeypatch)
        engine.run_experiment([PerturbedLeaderGeometric(3, 64)], IidUniform(3),
                              self.LOSSES[:3], 4000, 1)
        assert games == [[84]] * 16 + [[83]] * 32

    def test_long_games_play_one_per_block(self, monkeypatch):
        # mc-oblivious's games, K = 5 and T = 4096, are 20480 cells, above SCORE_CELLS
        games = _count_blocks(monkeypatch)
        engine.run_experiment([PerturbedLeaderGeometric(5, 4096)], IidUniform(5), self.LOSSES,
                              3, 1)
        assert games == [[1]] * 3

    def test_horizons_share_a_block_while_all_trials_fit(self, monkeypatch):
        # T = 64..4096 at K = 10, each game padded to its group's longest: 4096, 2048 and 1024
        # each alone, one game a block, as a trial of all seven would hold them at once; one
        # trial at (512, 256, 128) is 15360 cells, so one trial plays them in one block and 64
        # alone; two trials play 512 alone and (256, 128, 64), 2 * 7680 cells, in one block
        forecasters = [PerturbedLeaderGeometric(10, 64 << i) for i in reversed(range(7))]
        for trials, expected in ((1, [[1]] * 3 + [[1, 1, 1], [1]]),
                                 (2, [[1]] * 6 + [[2], [2, 2, 2]])):
            games = _count_blocks(monkeypatch)
            engine.run_experiment(forecasters, IidUniform(10), self.LOSSES, trials, 0)
            assert games == expected
            monkeypatch.undo()


@pytest.mark.parametrize("adversary", [IidUniform(3), GreedyAdaptive(3, SquaredLoss())],
                         ids=["oblivious", "adaptive"])
def test_one_play_call_per_job(adversary, monkeypatch):
    # a budget of 120 cells: blocks of one trial up to all nine, each at one horizon
    horizons, trials, losses = [33, 16, 7, 2], 9, [VShapedLoss(), SquaredLoss(0.5)]
    forecasters = [PerturbedLeaderUniform(3, h) for h in horizons]
    for budget in ("SCORE_CELLS", "BLOCK_CELLS"):
        monkeypatch.setattr(engine, budget, 120)
    plan = engine.trial_jobs(adversary, horizons, trials)
    assert len(plan) > len({group for group, _ in plan}) > 1
    games = _count_blocks(monkeypatch)
    engine.run_experiment(forecasters, adversary, losses, trials, 4)
    assert games == [[len(block)] * len(group) for group, block in plan]


@pytest.mark.parametrize("adversary, horizons, trials", [
    (IidUniform(3), [16 << i for i in range(7)], 20),  # 9 blocks, two of two horizons
    (GreedyAdaptive(3, SquaredLoss()), [16], 200),  # one block of more games than rounds
], ids=["oblivious-sweep", "wide-adaptive"])
def test_worker_count_moves_no_block(adversary, horizons, trials, monkeypatch, pool_sizes):
    # the pool maps in this process, so _count_blocks sees every block at every worker count
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    forecasters = [PerturbedLeaderUniform(3, h) for h in horizons]
    losses = [VShapedLoss(), SquaredLoss(0.5)]
    games = _count_blocks(monkeypatch)
    expected = engine.run_experiment(forecasters, adversary, losses, trials, 4)
    serial = list(games)
    assert serial == [[len(block)] * len(group)
                      for group, block in engine.trial_jobs(adversary, horizons, trials)]
    for workers in (2, 3):
        games.clear()
        got = engine.run_experiment(forecasters, adversary, losses, trials, 4, workers)
        # the same blocks, the same games in each; the stand-in pool plays worker 0's share
        # (blocks 0, workers, 2 * workers, ...) first, then worker 1's, and so on
        assert games == [serial[j] for i in range(workers)
                         for j in range(i, len(serial), workers)]
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    # a pool of min(workers, CPU count, jobs): none for the one block
    assert pool_sizes == ([2, 3] if len(serial) > 1 else [])


@pytest.mark.parametrize("workers, cpus", [(2, 4), (3, 4), (8, 3)])
def test_pool_takes_one_task_per_worker(workers, cpus, monkeypatch, pool_log):
    # 400 trials at K = 3, T = 64 are 5 blocks of 80; each worker's share goes to the pool as
    # one task, and it still plays each of its blocks in one _play call
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    forecasters, adversary = [PerturbedLeaderGeometric(3, 64)], IidUniform(3)
    losses = [VShapedLoss(), SquaredLoss(0.5)]
    expected = engine.run_experiment(forecasters, adversary, losses, 400, 4)
    games = _count_blocks(monkeypatch)
    got = engine.run_experiment(forecasters, adversary, losses, 400, 4, workers)
    size = min(workers, cpus)
    assert pool_log == {"sizes": [size], "tasks": [size]}
    assert sorted(games) == [[80]] * 5
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


class FloatNoiseLeader(PerturbedLeaderUniform):
    """The leader on uniform noise drawn as float64, which pools with int64 leader neighbours."""

    def noise(self, horizon, rng):
        return super().noise(horizon, rng).astype(np.float64)


class Int32NoiseLeader(PerturbedLeaderGeometric):
    """The leader on geometric noise drawn as int32, which pools with int64 leader neighbours."""

    def noise(self, horizon, rng):
        return super().noise(horizon, rng).astype(np.int32)


class IidByRound(Adversary):
    """``IidUniform``'s outcomes drawn one round at a time: an adaptive reference that pickles."""

    def next_outcomes(self, t, past_forecasts, rngs):
        return np.array([rng.integers(0, self.k) for rng in rngs], dtype=np.int64)


def _count_leader_calls(monkeypatch) -> list:
    """Wrap ``Forecaster.rule`` so that each call appends its row count to the returned list."""
    rows, leader = [], Forecaster.rule

    def counted(counts, noise):
        rows.append(len(counts))
        return leader(counts, noise)

    monkeypatch.setattr(Forecaster, "rule", staticmethod(counted))
    return rows


class TestPooledLeader:
    """A staircase round steps adjacent leader horizons in one ``Forecaster.rule`` call."""

    LOSSES = [VShapedLoss(), SquaredLoss(0.5), SphericalLoss()]

    def test_sweep_makes_one_leader_call_a_round(self, monkeypatch):
        # the benchmark sweep: FTPL-uniform vs greedy:squared, K = 3, T = 64..4096, 8 trials
        forecasters = [PerturbedLeaderUniform(3, 4096 >> i) for i in range(7)]
        rows = _count_leader_calls(monkeypatch)
        engine.run_experiment(forecasters, GreedyAdaptive(3, SquaredLoss()), self.LOSSES, 8, 7, 2)
        assert len(rows) == 4096
        # 8 trials at each horizon still running: 56 rows in rounds 1..64, 48 in 65..128, ...
        assert rows == [56] * 64 + [48] * 64 + [40] * 128 + [32] * 256 + [24] * 512 \
            + [16] * 1024 + [8] * 2048

    @pytest.mark.parametrize("reference", [False, True], ids=["greedy", "iid-round-by-round"])
    def test_leader_horizons_pool_whatever_their_noise_dtype(self, reference, monkeypatch):
        # every class keeps the leader rule; int64, float64 and int32 noise all lie in the rows
        forecasters = [PerturbedLeaderUniform(3, 33), FollowTheLeader(3, 16),
                       FloatNoiseLeader(3, 9), PerturbedLeaderGeometric(3, 7),
                       FollowTheLeader(3, 3), Int32NoiseLeader(3, 2), PerturbedLeaderUniform(3, 1)]
        if reference:  # expected from the block path, which has no round loop to pool in
            oracle, adversary = IidUniform(3), IidByRound(3)
        else:
            oracle = adversary = GreedyAdaptive(3, SquaredLoss())
        expected = [run_trials(f, oracle, self.LOSSES, 7, 5) for f in forecasters]
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        # 33 alone in two blocks, 16 alone, and one staircase of (9, 7, 3, 2, 1), all pooled;
        # then one staircase of every horizon, the budget the count sees
        for cells in (7 * 3 * 22, engine.BLOCK_CELLS):
            monkeypatch.setattr(engine, "BLOCK_CELLS", cells)
            for workers in (1, 2, 3):
                got = engine.run_experiment(forecasters, adversary, self.LOSSES, 7, 5, workers)
                assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        rows = _count_leader_calls(monkeypatch)
        engine.run_experiment(forecasters, adversary, self.LOSSES, 7, 5)
        # one call a round on the 7 trials of every running horizon: 49 rows, then 42, ...
        assert rows == [49, 42, 35] + [28] * 4 + [21] * 2 + [14] * 7 + [7] * 17

    def test_rule_that_reads_its_horizon_keeps_its_own_call(self, monkeypatch):
        seen = []

        class HorizonLeader(PerturbedLeaderUniform):
            """The leader plus 1/T on every count: a rule that reads its own horizon."""

            def rule(self, counts, noise):
                seen.append((self.horizon, len(counts)))
                totals = counts + noise + 1.0 / self.horizon
                return totals / totals.sum(axis=1, keepdims=True)

        forecasters = [PerturbedLeaderUniform(3, 64), FollowTheLeader(3, 48),
                       HorizonLeader(3, 32), PerturbedLeaderGeometric(3, 16)]
        greedy = GreedyAdaptive(3, SquaredLoss())
        expected = [run_trials(f, greedy, self.LOSSES, 5, 3) for f in forecasters]
        seen.clear()
        rows = _count_leader_calls(monkeypatch)
        got = engine.run_experiment(forecasters, greedy, self.LOSSES, 5, 3)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))
        assert seen == [(32, 5)] * 32  # its own call in every round it runs
        # (64, 48) pooled; 16 is not adjacent to them, so it gets a call of its own
        assert rows == [10, 5] * 16 + [10] * 32 + [5] * 16


@pytest.mark.parametrize("shape", [(9, 1), (8, 3), (9, 4)], ids=["T-1", "T-minus-1-K",
                                                                "T-K-plus-1"])
@pytest.mark.parametrize("adversary", [IidUniform(3), GreedyAdaptive(3, SquaredLoss())],
                         ids=["block", "lockstep"])
def test_misshapen_noise_refused(shape, adversary):
    class Misshapen(Forecaster):
        def noise(self, horizon, rng):
            return rng.integers(0, 3, size=shape)

    with pytest.raises(ValueError, match=r"noise must have shape \(T, K\) = \(9, 3\)"):
        run_game(Misshapen(3, 9), adversary, _gen(0))


@pytest.mark.parametrize("dtype", [np.complex128, object], ids=["complex", "object"])
@pytest.mark.parametrize("adversary", [IidUniform(3), GreedyAdaptive(3, SquaredLoss())],
                         ids=["block", "lockstep"])
def test_non_real_noise_refused(dtype, adversary):
    class NonReal(PerturbedLeaderUniform):
        def noise(self, horizon, rng):
            return super().noise(horizon, rng).astype(dtype)

    with pytest.raises(ValueError, match=f"noise must be bool, integer or float, got "
                                         f"{np.dtype(dtype)}"):
        play_games(NonReal(3, 9), adversary, [_gen(0, i) for i in range(3)])


@pytest.mark.parametrize("dtypes", [(np.int64, np.float64), (np.float64, np.int64),
                                    (np.int32, np.float32), (np.bool_, np.uint8)],
                         ids=["int64-first", "float64-first", "int32-float32", "bool-uint8"])
@pytest.mark.parametrize("adversary", [IidUniform(3), GreedyAdaptive(3, SquaredLoss())],
                         ids=["block", "lockstep"])
def test_noise_dtypes_mixed_across_a_block_play_as_int64(dtypes, adversary):
    class Leader(PerturbedLeaderUniform):
        """The leader on noise in {0, 1}, drawn in dtypes[0] for game 1 and dtypes[1] after."""

        def __init__(self, dtypes):
            super().__init__(3, 9)
            self.noise_max, self.dtypes, self.games = 1, dtypes, 0  # a range every dtype holds

        def noise(self, horizon, rng):
            self.games += 1
            return super().noise(horizon, rng).astype(self.dtypes[self.games > 1])

    mixed = play_games(Leader(dtypes), adversary, [_gen(0, i) for i in range(3)])
    games = play_games(Leader((np.int64, np.int64)), adversary, [_gen(0, i) for i in range(3)])
    for got, expected in zip(mixed, games):
        assert got.forecasts.tobytes() == expected.forecasts.tobytes()
        assert got.outcomes.tobytes() == expected.outcomes.tobytes()


class NegativeLeader(PerturbedLeaderUniform):
    """The leader on noise -(uniform) - 1: negative totals over a negative sum pass for forecasts."""

    def noise(self, horizon, rng):
        return -super().noise(horizon, rng) - 1


class NanLeader(PerturbedLeaderUniform):
    """The leader on all-NaN noise."""

    def noise(self, horizon, rng):
        return np.full((horizon, self.k), np.nan)


@pytest.mark.parametrize("forecaster, values", [(NegativeLeader, r"\[-\d+, -1\]"),
                                                (NanLeader, r"\[nan, nan\]")],
                         ids=["negative", "nan"])
@pytest.mark.parametrize("adversary", [IidUniform(3), GreedyAdaptive(3, SquaredLoss())],
                         ids=["block", "lockstep"])
def test_leader_noise_off_its_domain_refused(forecaster, values, adversary):
    message = f"the leader's noise must be finite and >= 0, got {forecaster.__name__} noise in "
    with pytest.raises(ValueError, match=message + values):
        run_game(forecaster(3, 8), adversary, _gen(0))
    # in a staircase, refused before any game is scored
    forecasters = [PerturbedLeaderUniform(3, 16), forecaster(3, 8), FollowTheLeader(3, 4)]
    with pytest.raises(ValueError, match=message + values):
        engine.run_experiment(forecasters, adversary, [SquaredLoss()], 3, 0)


@pytest.mark.parametrize("adversary", [IidUniform(3), GreedyAdaptive(3, SquaredLoss())],
                         ids=["block", "lockstep"])
def test_rule_of_its_own_may_read_negative_noise(adversary):
    # GaussianLeader's softmax takes any real noise, and its noise is often negative
    assert GaussianLeader(3, 8).noise(8, _gen(0)).min() < 0
    game = run_game(GaussianLeader(3, 8), adversary, _gen(0))
    assert np.allclose(game.forecasts.sum(axis=1), 1.0) and game.forecasts.min() > 0
    # beside it, a static point whose rows sum to 1 + 2^-52: on the simplex within its tolerance
    static = StaticForecaster([0.06, 0.57, 0.37], 6)
    assert static.point.sum() - 1 == 2.0 ** -52
    regrets = engine.run_experiment([GaussianLeader(3, 8), static, PerturbedLeaderUniform(3, 4)],
                                    adversary, [SquaredLoss()], 3, 0)
    assert all(np.isfinite(matrix).all() for matrix in regrets)


class Undivided(PerturbedLeaderUniform):
    """The leader's totals, ``counts + noise``, forecast without dividing by their sum."""

    def rule(self, counts, noise):
        return counts + noise


class NegativeRule(Forecaster):
    """Rows that sum to 1 with a negative entry."""

    def rule(self, counts, noise):
        return np.tile([1.5, -0.5, 0.0], (len(counts), 1))


class NanRule(Forecaster):
    """All-NaN forecasts."""

    def rule(self, counts, noise):
        return np.full((len(counts), 3), np.nan)


class SumsOffByTol(Forecaster):
    """Rows that sum to 1 + 4 * SIMPLEX_TOL, just off the simplex."""

    def rule(self, counts, noise):
        return np.tile([0.5 + 4 * SIMPLEX_TOL, 0.25, 0.25], (len(counts), 1))


@pytest.mark.parametrize("forecaster", [Undivided, NegativeRule, NanRule, SumsOffByTol])
@pytest.mark.parametrize("adversary", [IidUniform(3), GreedyAdaptive(3, SquaredLoss())],
                         ids=["block", "lockstep"])
def test_off_simplex_forecasts_refused(forecaster, adversary):
    message = f"{forecaster.__name__} forecasts at T=8 must be finite, >= 0 and sum to 1"
    with pytest.raises(ValueError, match=message):
        run_game(forecaster(3, 8), adversary, _gen(0))
    with pytest.raises(ValueError, match=message):
        run_trials(forecaster(3, 8), adversary, [SquaredLoss(0.5)], 3, 0)
    # in a staircase, named by its own horizon, whatever plays beside it
    forecasters = [PerturbedLeaderUniform(3, 16), forecaster(3, 8), FollowTheLeader(3, 4)]
    with pytest.raises(ValueError, match=message):
        engine.run_experiment(forecasters, adversary, [SquaredLoss()], 3, 0)


def test_off_simplex_check_reads_a_chunk_at_a_time():
    # 4 games of 2^16 rounds at K = 3: the row sums of the whole block would take 2 MiB
    forecasts = np.full((4, 1 << 16, 3), 1 / 3)
    tracemalloc.start()
    try:
        assert engine._on_simplex(forecasts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * engine.SCORE_CELLS  # 128 KiB
    rows = engine.SCORE_CELLS // 3
    for game, row in [(0, rows - 1), (0, rows), (2, 1 << 15), (3, (1 << 16) - 1)]:
        for bad in ([0.5, 0.5, 1e-6], [1.5, -0.5, 0.0], [np.nan] * 3):
            off = forecasts.copy()
            off[game, row] = bad
            assert not engine._on_simplex(off)
            assert not engine._on_simplex(off[:, :row + 1])  # a shorter horizon's view


@pytest.mark.parametrize("adversary", OBLIVIOUS)
def test_oblivious_staircase_equals_each_horizon_alone(adversary):
    # each horizon its own rule and noise: the leader on int64 and float noise, softmax, static
    k, trials = 3, 4
    forecasters = [PerturbedLeaderUniform(k, 33), GaussianLeader(k, 16), FollowTheLeader(k, 7),
                   StaticForecaster([0.2, 0.3, 0.5], 2), PerturbedLeaderGeometric(k, 1)]
    oblivious, reference = _oblivious_and_reference(adversary, k, 33)

    def rngs():
        return [_gen(6, i) for i in range(trials)]

    blocks = engine._play(forecasters, oblivious, [rngs() for _ in forecasters])
    assert [forecasts.shape for forecasts, _, _ in blocks] == [(trials, f.horizon, k)
                                                             for f in forecasters]
    for forecaster, (forecasts, outcomes, _) in zip(forecasters, blocks):
        for against in (oblivious, reference):  # its block alone, and round by round
            for game, alone in enumerate(play_games(forecaster, against, rngs())):
                assert forecasts[game].tobytes() == alone.forecasts.tobytes()
                assert outcomes[game].tobytes() == alone.outcomes.tobytes()


@pytest.mark.parametrize("adversary", [IidUniform(3), GreedyAdaptive(3, SquaredLoss())],
                         ids=["block", "lockstep"])
def test_transcripts_are_views_of_one_block(adversary):
    games = play_games(PerturbedLeaderGeometric(3, 9), adversary, [_gen(0, i) for i in range(3)])
    arrays = [array for game in games for array in (game.forecasts, game.outcomes)]
    block = arrays[0]
    while isinstance(block.base, np.ndarray):  # the array the block's views were cut from
        block = block.base
    assert block.size == 3 * 9 * (3 + 1)  # every game's forecasts and outcomes
    assert all(np.shares_memory(block, array) for array in arrays)


def test_sweep_replies_build_no_loss_table(monkeypatch):
    # the benchmark sweep: FTPL-uniform vs greedy:squared, K = 3, T = 64..4096, 8 trials
    tables, outcome_losses = [], ProperLoss.outcome_losses

    def counted(self, p):
        tables.append(np.shape(p))
        return outcome_losses(self, p)

    monkeypatch.setattr(ProperLoss, "outcome_losses", counted)
    SquaredLoss().outcome_losses([0.5, 0.5])
    assert tables == [(2,)]  # the wrapper sees the squared loss's table
    tables.clear()
    forecasters = [PerturbedLeaderUniform(3, 4096 >> i) for i in range(7)]
    rngs = [[_gen(7, trial) for trial in range(8)] for _ in forecasters]
    blocks = engine._play(forecasters, GreedyAdaptive(3, SquaredLoss()), rngs)
    assert [outcomes.shape for _, outcomes, _ in blocks] == [(8, 4096 >> i) for i in range(7)]
    assert tables == []


def test_format_float_twelve_significant_digits():
    assert format_float(0.123456789012345) == "0.123456789012"
    assert format_float(2500.0) == "2500"


def _horizon_set_to(horizon):
    """A forecaster whose ``horizon`` was set after it was made, past its own check."""
    forecaster = FollowTheLeader(2, 16)
    forecaster.horizon = horizon
    return forecaster


NON_INTEGER_HORIZON_CALLS = [
    (value_lower_bound, (10.5,)),
    (exact_binomial_mad, (20000.5, 0.5)),
    (dp_value, (8.0,)),
    (closed_form, (10.5,)),
    (check_a_bounds, (10.5,)),
    (run_trials, (_horizon_set_to(8.0), IidUniform(2), [SquaredLoss()], 2, 0)),
    (run_game, (_horizon_set_to(8.5), Alternating(2), _gen(0))),
]


@pytest.mark.parametrize("function, args", NON_INTEGER_HORIZON_CALLS,
                         ids=[function.__name__ for function, _ in NON_INTEGER_HORIZON_CALLS])
def test_non_integer_horizon_is_value_error(function, args):
    with pytest.raises(ValueError, match="must be an integer"):
        function(*args)


@given(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=60))
def test_regret_identity_property(bits):
    horizon = len(bits)
    tr = run_game(FollowTheLeader(2, horizon), FixedSequence(2, bits), _gen(0))
    loss = SquaredLoss(0.5)
    bench = benchmark_cost(tr, loss)
    cost = float(np.sum(loss.bivariate(tr.forecasts, tr.outcomes)))
    assert regret(tr, loss).regret == cost - bench
    # benchmark optimality against the uniform point
    assert bench <= benchmark_cost(tr, loss, point=[0.5, 0.5]) + 1e-12
