import numpy as np
import pytest

from ucal import Alternating, FixedSequence, GreedyAdaptive, IidUniform, RngStream, VShapedLoss


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
        assert adv.sequence == [1, 0, 0, 1]

    def test_from_file_out_of_range(self, tmp_path):
        path = tmp_path / "outcomes.txt"
        path.write_text("1 3 2\n")
        with pytest.raises(ValueError, match="out of range"):
            FixedSequence.from_file(2, path)

    def test_validates_indices(self):
        with pytest.raises(ValueError):
            FixedSequence(2, [0, 2])


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


@pytest.mark.parametrize("make", [IidUniform, Alternating, lambda k: FixedSequence(k, [0]),
                                  lambda k: GreedyAdaptive(k, VShapedLoss())])
def test_non_integer_k_refused(make):
    for k in (2.7, 3.0, np.float64(2)):
        with pytest.raises(ValueError, match="K must be an integer"):
            make(k)
    adversary = make(np.int64(3))
    assert adversary.k == 3 and type(adversary.k) is int
