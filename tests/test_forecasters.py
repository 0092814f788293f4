import numpy as np
import pytest

from ucal import (FollowTheLeader, Forecaster, GreedyAdaptive, IidUniform,
                  PerturbedLeaderGeometric, PerturbedLeaderUniform, RngStream, SphericalLoss,
                  SquaredLoss, StaticForecaster, TsallisLoss, mean_of_counts, run_game,
                  validate_simplex)
from ucal.core import row_sum


def _forecast(f, counts, rng=None):
    """The rule's forecast for one count vector and one fresh noise row."""
    return f.rule(np.asarray(counts, dtype=np.int64)[None, :], f.noise(1, rng))[0]


class TestSampleGeometric:
    """Geometric hallucinated counts, drawn by ``PerturbedLeaderGeometric.noise``."""

    def test_degenerate_q_one(self):
        # T < K clips q to 1, so every hallucinated count is exactly 1
        f = PerturbedLeaderGeometric(3, 2)
        noise = f.noise(10, RngStream(0, 0).generator())
        np.testing.assert_array_equal(noise, np.ones((10, 3)))

    def test_pmf_at_one(self):
        # P(m=1) = q; binomial 3-sigma band around 0.5 at 1e6 draws is ~0.0015
        f = PerturbedLeaderGeometric(2, 8)
        assert f.q == 0.5
        draws = f.noise(500_000, RngStream(11, 0).generator())
        assert draws.size == 1_000_000
        assert draws.min() >= 1
        assert np.mean(draws == 1) == pytest.approx(0.5, abs=0.002)

    def test_mean(self):
        # mean 1/q = 10; std of the sample mean is sqrt(1-q)/q/1000 ~ 0.0095
        f = PerturbedLeaderGeometric(2, 200)
        assert f.q == pytest.approx(0.1, abs=1e-15)
        draws = f.noise(500_000, RngStream(12, 0).generator())
        assert draws.mean() == pytest.approx(10.0, abs=0.1)

    def test_full_pmf_shape(self):
        f = PerturbedLeaderGeometric(9, 100)
        assert f.q == pytest.approx(0.3, abs=1e-15)
        draws = f.noise(22_222, RngStream(13, 0).generator())
        for m in range(1, 6):
            expected = 0.3 * 0.7 ** (m - 1)
            se = np.sqrt(expected * (1 - expected) / draws.size)
            assert np.mean(draws == m) == pytest.approx(expected, abs=4 * se + 1e-4)

    def test_block_equals_row_by_row_draws(self):
        f = PerturbedLeaderGeometric(5, 400)
        block = f.noise(64, RngStream(14, 0).generator())
        rng = RngStream(14, 0).generator()
        rows = np.concatenate([f.noise(1, rng) for _ in range(64)])
        np.testing.assert_array_equal(block, rows)


class TestFollowTheLeader:
    def test_first_round_uniform(self):
        f = FollowTheLeader(3, 10)
        np.testing.assert_allclose(_forecast(f, [0, 0, 0]), [1 / 3] * 3)

    def test_mean_of_past(self):
        f = FollowTheLeader(2, 10)
        np.testing.assert_allclose(_forecast(f, [3, 1]), [0.75, 0.25])

    def test_deterministic_no_rng(self):
        seq = [0, 1, 1, 0, 1]
        runs = []
        for _ in range(2):
            f = FollowTheLeader(2, len(seq))
            counts = np.zeros(2, dtype=np.int64)
            fc = []
            for y in seq:
                fc.append(_forecast(f, counts, None))
                counts[y] += 1
            runs.append(np.asarray(fc))
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_equals_mean_of_counts(self):
        rng = RngStream(5, 0).generator()
        f = FollowTheLeader(3, 200)
        counts = np.zeros(3, dtype=np.int64)
        for _ in range(200):
            counts[int(rng.integers(0, 3))] += 1
            np.testing.assert_allclose(_forecast(f, counts), mean_of_counts(counts), atol=1e-15)

    def test_grid_erm_oracle(self):
        # brute-force minimizer of the cumulative loss over a 1/100 mesh,
        # for three different proper losses: it must land within one mesh
        # cell of the mean forecast (the simultaneous empirical risk
        # minimizer), for every prefix of the sequence.
        rng = RngStream(17, 0).generator()
        seq = rng.integers(0, 2, size=40)
        mesh = np.stack([np.linspace(0, 1, 101), 1 - np.linspace(0, 1, 101)], axis=1)
        losses = [SquaredLoss(1.0), SphericalLoss(), TsallisLoss(1.5)]
        counts = np.zeros(2, dtype=np.int64)
        for y in seq:
            counts[y] += 1
            mean = counts / counts.sum()
            for loss in losses:
                per_outcome = loss.bivariate(mesh[:, None, :], np.arange(2))
                cumulative = per_outcome @ counts
                best = mesh[np.argmin(cumulative)]
                assert abs(best[0] - mean[0]) <= 0.01 + 1e-12, loss.name


class TestPerturbedLeaderGeometric:
    def test_q_clipped_when_horizon_small(self):
        # T <= K forces q = 1, noise is deterministically one per outcome
        f = PerturbedLeaderGeometric(3, 2)
        assert f.q == 1.0
        p = _forecast(f, [0, 0, 0], RngStream(0, 0).generator())
        np.testing.assert_allclose(p, [1 / 3] * 3)

    def test_q_value(self):
        f = PerturbedLeaderGeometric(2, 10_000)
        assert f.q == pytest.approx(np.sqrt(2 / 10_000))

    def test_valid_simplex_every_round(self):
        rng = RngStream(3, 0).generator()
        f = PerturbedLeaderGeometric(4, 300)
        counts = np.zeros(4, dtype=np.int64)
        for _ in range(300):
            validate_simplex(_forecast(f, counts, rng))
            counts[int(rng.integers(0, 4))] += 1

    def test_noise_mean(self):
        # mean of the hallucinated counts is 1/q = sqrt(T/K) ~ 70.7
        f = PerturbedLeaderGeometric(2, 10_000)
        rng = RngStream(8, 0).generator()
        draws = f.noise(50_000, rng)
        se = draws.std() / np.sqrt(draws.size)
        assert draws.mean() == pytest.approx(np.sqrt(10_000 / 2), abs=3 * se)

    def test_same_stream_identical_two_calls_differ(self):
        f = PerturbedLeaderGeometric(2, 100)
        p_a = _forecast(f, [0, 0], RngStream(9, 1).generator())
        p_b = _forecast(f, [0, 0], RngStream(9, 1).generator())
        np.testing.assert_array_equal(p_a, p_b)
        rng = RngStream(9, 1).generator()
        first, second = _forecast(f, [0, 0], rng), _forecast(f, [0, 0], rng)
        assert not np.array_equal(first, second)


class _ZeroRng:
    def integers(self, low, high, size=None):
        return np.zeros(size, dtype=np.int64)


class TestPerturbedLeaderUniform:
    def test_noise_range(self):
        f = PerturbedLeaderUniform(2, 100)
        assert f.noise_max == 10

    def test_noise_support_and_mean(self):
        # uniform on {0, ..., floor(sqrt(50))} = {0, ..., 7}: mean 3.5, variance 63/12
        f = PerturbedLeaderUniform(3, 50)
        draws = f.noise(40_000, RngStream(15, 0).generator())
        assert draws.shape == (40_000, 3)
        np.testing.assert_array_equal(np.unique(draws), np.arange(8))
        se = np.sqrt(63 / 12 / draws.size)
        assert draws.mean() == pytest.approx(3.5, abs=4 * se)

    def test_zero_denominator_fallback(self):
        f = PerturbedLeaderUniform(2, 100)
        np.testing.assert_allclose(_forecast(f, [0, 0], _ZeroRng()), [0.5, 0.5])

    def test_valid_simplex_every_round(self):
        rng = RngStream(4, 0).generator()
        f = PerturbedLeaderUniform(3, 200)
        counts = np.zeros(3, dtype=np.int64)
        for _ in range(200):
            validate_simplex(_forecast(f, counts, rng))
            counts[int(rng.integers(0, 3))] += 1


class TestStaticForecaster:
    def test_returns_fixed_point(self):
        f = StaticForecaster([0.2, 0.8], 10)
        np.testing.assert_array_equal(_forecast(f, [0, 0]), [0.2, 0.8])
        np.testing.assert_array_equal(_forecast(f, [1, 0]), [0.2, 0.8])

    def test_point_validated(self):
        with pytest.raises(ValueError):
            StaticForecaster([0.7, 0.4], 10)


def test_constructor_contracts():
    with pytest.raises(ValueError):
        FollowTheLeader(1, 10)
    with pytest.raises(ValueError):
        FollowTheLeader(2, 0)


@pytest.mark.parametrize("forecaster", [FollowTheLeader, PerturbedLeaderGeometric,
                                        PerturbedLeaderUniform])
@pytest.mark.parametrize("k, horizon, message", [
    (2.7, 10, "K must be an integer, got 2.7"),
    (5.0, 10, "K must be an integer, got 5.0"),
    (5, 10.5, "horizon must be an integer, got 10.5"),
    (np.float64(3), 10, "K must be an integer"),
])
def test_non_integer_size_refused(forecaster, k, horizon, message):
    with pytest.raises(ValueError, match=message):
        forecaster(k, horizon)


def test_numpy_integer_sizes_accepted():
    f = PerturbedLeaderGeometric(np.int64(5), np.int32(16))
    assert (f.k, f.horizon) == (5, 16)
    assert type(f.k) is int and type(f.horizon) is int
    with pytest.raises(ValueError, match="horizon must be an integer"):
        StaticForecaster([0.5, 0.5], 3.5)


LEADERS = [FollowTheLeader, PerturbedLeaderGeometric, PerturbedLeaderUniform]


def _normalize(totals):
    """The rule FTL and FTPL-uniform each applied before they shared one, as it was written."""
    denom = row_sum(totals)[:, None]
    if denom.all():
        return totals / denom
    out = totals / np.maximum(denom, 1)
    out[denom[:, 0] == 0] = 1.0 / totals.shape[1]
    return out


class TestOneLeader:
    """FTL and both FTPLs are one leader rule over counts plus noise, differing in the noise."""

    @pytest.mark.parametrize("n", [1, 63, 64, 4096])
    @pytest.mark.parametrize("k", [2, 3, 5, 10])
    def test_shared_rule_equals_the_forms_it_replaced(self, k, n):
        rng = RngStream(21, 1000 * k + n).generator()
        for zero_rows in (False, True):
            counts = rng.integers(1, 50, size=(n, k))
            if zero_rows:  # every third row, the first among them: round 1 of a game
                counts[::3] = 0
            ftl = FollowTheLeader(k, 64)
            noise = ftl.noise(n, rng)
            assert np.array_equal(ftl.rule(counts, noise), _normalize(counts))
            # geometric noise is at least 1, so no row can be all zero
            geometric = PerturbedLeaderGeometric(k, 64)
            noise = geometric.noise(n, rng)
            totals = counts + noise
            expected = totals / row_sum(totals)[:, None]
            assert np.array_equal(geometric.rule(counts, noise), expected)
            uniform = PerturbedLeaderUniform(k, 64)
            noise = uniform.noise(n, rng)
            if zero_rows:
                noise[::3] = 0
            assert np.array_equal(uniform.rule(counts, noise), _normalize(counts + noise))

    @pytest.mark.parametrize("n", [1, 63, 64, 4096])
    @pytest.mark.parametrize("k", [2, 3, 5, 8, 10])
    def test_float64_noise_gives_the_int64_bytes(self, k, n):
        # the engine hands the rule its noise as float64, from the rows of its block: integers
        # below 2^53 are exact there, and exact sums do not depend on their order, so K >= 8,
        # which numpy sums pairwise, agrees too
        rng = RngStream(22, 1000 * k + n).generator()
        for high in (1, 2 ** 20, 2 ** 40):
            counts = rng.integers(0, 1 << 24, size=(n, k))
            noise = rng.integers(0, high, size=(n, k), endpoint=True)
            counts[::3] = noise[::3] = 0  # all-zero rows, the first among them
            strided = np.empty((n, 2, k))[:, 0]  # rows apart, as the round loop reads them
            strided[:] = noise
            expected = Forecaster.rule(counts, noise).tobytes()
            assert Forecaster.rule(counts, noise.astype(np.float64)).tobytes() == expected
            assert Forecaster.rule(counts, strided).tobytes() == expected

    def test_leaders_hold_only_their_noise_law(self):
        assert isinstance(vars(Forecaster)["rule"], staticmethod)  # it reads nothing from self
        for cls in LEADERS:
            assert "rule" not in vars(cls)
            assert cls.rule is Forecaster.rule
        assert StaticForecaster.rule is not Forecaster.rule
        assert [set(vars(cls(3, 8))) for cls in LEADERS] == [
            {"k", "horizon"}, {"k", "horizon", "q"}, {"k", "horizon", "noise_max"}]

    def test_no_forecaster_has_a_name(self):
        for forecaster in [Forecaster(3, 8), StaticForecaster([0.2, 0.3, 0.5], 8)] + [
                cls(3, 8) for cls in LEADERS]:
            assert not hasattr(forecaster, "name")

    @pytest.mark.parametrize("adversary", [IidUniform(3), GreedyAdaptive(3, SquaredLoss())],
                             ids=["iid-uniform", "greedy"])
    def test_base_forecaster_is_follow_the_leader(self, adversary):
        base = run_game(Forecaster(3, 8), adversary, RngStream(4, 2).generator())
        ftl = run_game(FollowTheLeader(3, 8), adversary, RngStream(4, 2).generator())
        assert np.array_equal(base.forecasts, ftl.forecasts)
        assert np.array_equal(base.outcomes, ftl.outcomes)
