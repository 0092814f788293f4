import numpy as np
import pytest

from ucal import (Alternating, FixedSequence, FollowTheLeader, GreedyAdaptive, IidUniform,
                  MixtureLoss, PerturbedLeaderGeometric, PerturbedLeaderUniform, RngStream,
                  SphericalLoss, SquaredLoss, TsallisLoss, VShapedLoss, play_games)
from ucal.cli import make_loss

#: every loss that ``greedy:LOSS`` can name, at each of its scales, and two mixtures
GREEDY_SPECS = ["squared", "squared:0.5", "brier", "spherical", "vshaped", "tsallis:1.5",
                "tsallis:3", "tsallis:1.5,0.5"]
GREEDY_MIXTURES = {"mix-squared-vshaped": MixtureLoss(SquaredLoss(0.5), VShapedLoss(), 0.3),
                   "mix-spherical-tsallis": MixtureLoss(SphericalLoss(), TsallisLoss(3.0), 0.6)}


class TestAlternating:
    def test_parity(self):
        assert Alternating(2).outcomes(11).tolist() == [0, 1] * 5 + [0]

    def test_needs_two_outcomes(self):
        with pytest.raises(ValueError):
            Alternating(1)


class TestIidUniform:
    def test_frequencies(self):
        draws = IidUniform(4).outcomes(1_000_000, RngStream(21, 0).generator())
        freqs = np.bincount(draws, minlength=4) / draws.size
        np.testing.assert_allclose(freqs, 0.25, atol=0.002)


class TestFixedSequence:
    def test_replay(self):
        assert FixedSequence(2, [1, 0]).outcomes(2).tolist() == [1, 0]

    def test_exhausted(self):
        with pytest.raises(ValueError, match="length 2 exhausted at round 3"):
            FixedSequence(2, [1, 0]).outcomes(3)

    def test_from_file_one_based(self, tmp_path):
        path = tmp_path / "outcomes.txt"
        path.write_text("2 1\n1 2\n")
        adv = FixedSequence.from_file(2, path)
        assert adv.sequence.tolist() == [1, 0, 0, 1]

    @pytest.mark.parametrize("text, message", [
        ("1 3 2\n", "outcome 3 in .* out of range \\[1, 2\\]"),
        ("2 0", "outcome 0 in .* out of range"),
        ("1 x 3", "invalid literal for int\\(\\) with base 10: 'x'"),
        ("1 1.5", "invalid literal for int\\(\\) with base 10: '1.5'"),
        # tokens are read in file order: the first bad one is named, whatever the later ones are
        ("3 x", "outcome 3 in .* out of range \\[1, 2\\]"),
        ("1 99999999999999999999", "outcome 99999999999999999999 in .* out of range"),
        ("7 -99999999999999999999", "outcome 7 in .* out of range"),
    ], ids=["above-K", "zero", "word", "fraction", "range-before-word", "above-int64",
            "first-of-two"])
    def test_from_file_refusals_name_the_token(self, tmp_path, text, message):
        path = tmp_path / "outcomes.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            FixedSequence.from_file(2, path)

    @pytest.mark.parametrize("sequence, message", [
        ([0, 2], r"outcome index out of range: 2 is not in \[0, 2\)"),
        (np.array([1, -1]), r"outcome index out of range: -1 is not in \[0, 2\)"),
        ([0, 1.5], r"outcome index must be an integer, got dtype float64"),
        (["1"], r"outcome index must be an integer, got dtype <U1"),
        ((1.0, 0.0, True), r"outcome index must be an integer, got dtype float64"),
        (np.array([True, False]), r"outcome index must be an integer, got dtype bool"),
    ], ids=["above-K", "negative-array", "fraction", "string", "integral-floats-and-bool",
            "bool-array"])
    def test_validates_indices(self, sequence, message):
        with pytest.raises(ValueError, match=message):
            FixedSequence(2, sequence)

    @pytest.mark.parametrize("sequence", [[1, 0, 1], np.array([1, 0, 1], np.uint8)],
                             ids=["ints", "uint8"])
    def test_holds_one_read_only_int64_array(self, sequence):
        adv = FixedSequence(2, sequence)
        assert adv.sequence.dtype == np.int64 and not adv.sequence.flags.writeable
        assert adv.sequence.tolist() == [1, 0, 1]
        played = adv.outcomes(2)  # a slice of it, not a copy per game
        assert played.tolist() == [1, 0] and np.shares_memory(played, adv.sequence)
        with pytest.raises(ValueError, match="read-only"):
            played[0] = 0

    def test_caller_array_is_copied(self):
        given = np.array([0, 1])
        adv = FixedSequence(2, given)
        given[0] = 1
        assert adv.sequence.tolist() == [0, 1] and given.flags.writeable

    def test_empty_sequence_is_exhausted_at_round_one(self, tmp_path):
        path = tmp_path / "outcomes.txt"
        path.write_text("\n")
        for adv in (FixedSequence(2, []), FixedSequence.from_file(2, path)):
            assert adv.sequence.dtype == np.int64 and len(adv.sequence) == 0
            with pytest.raises(ValueError, match="length 0 exhausted at round 1"):
                adv.outcomes(1)


class TestGreedyAdaptive:
    def test_kicks_where_forecast_low(self):
        # vshaped: loss(p, e_2) = +1/2 when p_2 < 1/2, so outcome 2 hurts most
        adv = GreedyAdaptive(2, VShapedLoss())
        past = np.array([[[0.9, 0.1], [0.1, 0.9]]])  # (t - 1, n, K): one round, two games
        assert adv.next_outcomes(2, past, [None, None]).tolist() == [1, 0]

    def test_first_round_tie_breaks_low(self):
        adv = GreedyAdaptive(3, VShapedLoss())
        assert adv.next_outcomes(1, np.empty((0, 2, 3)), [None, None]).tolist() == [0, 0]

    def test_deterministic(self):
        adv = GreedyAdaptive(2, VShapedLoss())
        past = np.array([[[0.3, 0.7]]])
        assert adv.next_outcomes(2, past, [None]) == adv.next_outcomes(2, past, [None])

    def test_near_tie_picks_the_larger_exact_loss(self):
        # the table rounds loss(p, 0) and loss(p, 1) to one double, 1.04, and its argmax
        # says 0; loss(p, 1) is larger by 2 (p_0 - p_1), about 5.6e-17, and g_1 > g_0
        loss = SquaredLoss(1.0)
        p = np.array([0.20000000000000004, 0.2, 0.6])
        table = loss.outcome_losses(p)
        assert table[0] == table[1] and table.argmax() == 0
        assert loss.subgradient(p)[1] > loss.subgradient(p)[0]
        assert GreedyAdaptive(3, loss).next_outcomes(2, p[None, None], [None]).tolist() == [1]


def _forecasts(k):
    """Forecasts of FTL and both FTPLs against i.i.d. outcomes, as one (n, K) stack."""
    rngs = [RngStream(5, game).generator() for game in range(4)]
    return np.concatenate([game.forecasts for make in (FollowTheLeader, PerturbedLeaderGeometric,
                                                       PerturbedLeaderUniform)
                           for game in play_games(make(k, 300), IidUniform(k), rngs)])


def _ties_and_kinks(k):
    """Points with exactly equal coordinates, and points with coordinates at the kink 1/K."""
    rng = np.random.default_rng(k)
    ties = [np.full(k, 1.0 / k), np.eye(k)[0], np.eye(k)[-1]]
    for total in (2, 3, 7, 10, 64):  # count ratios: many coordinates repeat exactly
        ties += list(rng.multinomial(total, np.full(k, 1.0 / k), size=40) / total)
    ties.append(np.r_[0.5, 0.5, np.zeros(k - 2)])
    ties.append(np.r_[np.zeros(k - 2), 0.5, 0.5])
    kinks = rng.dirichlet(np.ones(k), size=200)
    kinks[:, 0] = 1.0 / k
    kinks[100:, -1] = 1.0 / k
    return np.concatenate([np.array(ties), kinks])


@pytest.mark.parametrize("k", [2, 3, 5, 10])
@pytest.mark.parametrize("loss", GREEDY_SPECS + sorted(GREEDY_MIXTURES))
def test_greedy_reply_is_the_table_argmax(loss, k):
    """The subgradient's argmax is the loss table's, lowest index on ties, away from 1-ulp ties."""
    loss = GREEDY_MIXTURES[loss] if loss in GREEDY_MIXTURES else make_loss(loss)
    adv = GreedyAdaptive(k, loss)
    points = np.concatenate([_forecasts(k), _ties_and_kinks(k)])
    reply = adv.next_outcomes(2, points[None], [None] * len(points))
    assert reply.tolist() == loss.outcome_losses(points).argmax(axis=-1).tolist()
    # round 1's proxy is the barycenter, where every outcome ties: the lowest index
    first = adv.next_outcomes(1, np.empty((0, 3, k)), [None] * 3)
    barycenters = np.full((3, k), 1.0 / k)
    assert first.tolist() == [0] * 3 == loss.outcome_losses(barycenters).argmax(axis=-1).tolist()


@pytest.mark.parametrize("make", [IidUniform, Alternating, lambda k: FixedSequence(k, [0]),
                                  lambda k: GreedyAdaptive(k, VShapedLoss())])
def test_non_integer_k_refused(make):
    for k in (2.7, 3.0, np.float64(2)):
        with pytest.raises(ValueError, match="K must be an integer"):
            make(k)
    adversary = make(np.int64(3))
    assert adversary.k == 3 and type(adversary.k) is int
