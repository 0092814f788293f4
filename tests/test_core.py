import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucal import RngStream, mean_of_counts, one_hot, uniform_point, validate_simplex
from ucal.core import outcome_indices, row_sum, validate_integer


class TestMeanOfCounts:
    def test_basic(self):
        np.testing.assert_allclose(mean_of_counts([3, 1]), [0.75, 0.25])

    def test_degenerate_vertex(self):
        np.testing.assert_allclose(mean_of_counts([0, 5]), [0.0, 1.0])

    def test_symmetric(self):
        np.testing.assert_allclose(mean_of_counts([2, 2, 2]), [1 / 3, 1 / 3, 1 / 3])

    def test_empty_history(self):
        with pytest.raises(ValueError, match="empty history"):
            mean_of_counts([0, 0, 0])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            mean_of_counts([3, -1])

    @pytest.mark.parametrize("counts, message", [
        ([[1, 2], [3, 4]], r"expected a 1-d count vector, got shape \(2, 2\)"),
        ([1.5, 2.0], "counts must be integers"),
    ], ids=["2-d", "non-integral-floats"])
    def test_malformed_counts_rejected(self, counts, message):
        with pytest.raises(ValueError, match=message):
            mean_of_counts(counts)

    def test_integral_float_counts_accepted(self):
        np.testing.assert_array_equal(mean_of_counts([1.0, 3.0]), [0.25, 0.75])

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=500)
           .map(lambda idx: (idx, 4)))
    def test_running_average_of_one_hots(self, case):
        indices, k = case
        counts = np.zeros(k, dtype=np.int64)
        total = np.zeros(k)
        for y in indices:
            counts[y] += 1
            total += one_hot(y, k)
            np.testing.assert_allclose(mean_of_counts(counts), total / counts.sum(),
                                       atol=1e-12)


class TestValidateSimplex:
    def test_accepts(self):
        np.testing.assert_allclose(validate_simplex([0.5, 0.5]), [0.5, 0.5])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            validate_simplex([0.7, 0.4])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            validate_simplex([-0.1, 1.1])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite entries"):
            validate_simplex([0.5, float("nan")])

    def test_renormalizes(self):
        p = validate_simplex([0.3 + 2e-13, 0.7])
        assert p.sum() == pytest.approx(1.0, abs=1e-15)

    def test_clips_tiny_negative(self):
        p = validate_simplex([-1e-13, 1.0])
        assert p[0] == 0.0 and p[1] == 1.0

    @given(st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=6))
    def test_normalized_vectors_accepted(self, weights):
        w = np.asarray(weights)
        p = validate_simplex(w / w.sum())
        assert p.min() >= 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_fractional_outcome_index_refused():
    with pytest.raises(ValueError, match="outcome index must be an integer, got dtype float64"):
        outcome_indices(1.5, 3)


class TestRngStream:
    def test_same_stream_same_draws(self):
        a = RngStream(123, 7).generator().random(100)
        b = RngStream(123, 7).generator().random(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(123, 7).generator().random(100)
        b = RngStream(123, 8).generator().random(100)
        c = RngStream(124, 7).generator().random(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_seed_ok(self):
        RngStream(-5, 0).generator().random()

    @pytest.mark.parametrize("seed, stream_id", [(-2 ** 63, 0), (2 ** 63 - 1, 5), (-1, -1),
                                                 (0, 2 ** 63 - 1), (np.int64(-7), np.uint8(3))])
    def test_streams_in_range_keep_their_draws(self, seed, stream_id):
        # each of seed and stream_id is one unsigned 64-bit word of the seed sequence
        words = [int(seed) % 2 ** 64, int(stream_id) % 2 ** 64]
        expected = np.random.default_rng(np.random.SeedSequence(words)).random(8)
        stream = RngStream(seed, stream_id)
        assert type(stream.seed) is int and type(stream.stream_id) is int
        np.testing.assert_array_equal(stream.generator().random(8), expected)

    @pytest.mark.parametrize("seed, stream_id", [(2 ** 63, 0), (-2 ** 63 - 1, 0), (2 ** 64, 0),
                                                 (0, 2 ** 64 - 1), (0, -2 ** 63 - 1)])
    def test_out_of_range_refused(self, seed, stream_id):
        # -1 and 2^64 - 1 would be one word, so the same stream
        with pytest.raises(ValueError, match=r"must lie in \[-2\^63, 2\^63\)"):
            RngStream(seed, stream_id)

    @pytest.mark.parametrize("seed, stream_id", [(1.5, 0), (2.0, 0), (0, "1"), (None, 0)])
    def test_non_integer_refused(self, seed, stream_id):
        with pytest.raises(ValueError, match="must be an integer"):
            RngStream(seed, stream_id)


def test_uniform_point():
    np.testing.assert_allclose(uniform_point(4), [0.25] * 4)


class TestValidateInteger:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_integers_pass_as_int(self, value):
        got = validate_integer(value, "n", 1)
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize("value", [2.7, 5.0, "3", None])
    def test_non_integer_refused_by_name(self, value):
        with pytest.raises(ValueError, match=f"n must be an integer, got {value!r}"):
            validate_integer(value, "n", 1)

    @pytest.mark.parametrize("value, low", [(0, 1), (-5, 1), (1, 2), (np.int64(0), 1)])
    def test_below_low_refused_by_name(self, value, low):
        with pytest.raises(ValueError, match=f"^n must be >= {low}$"):
            validate_integer(value, "n", low)

    @pytest.mark.parametrize("value, low", [(1, 1), (2, 2), (-7, None)])
    def test_low_is_inclusive_and_optional(self, value, low):
        assert validate_integer(value, "n", low) == value


def test_one_hot_bounds():
    np.testing.assert_array_equal(one_hot(1, 3), [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(one_hot(np.uint8(2), 3), [0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        one_hot(3, 3)
    with pytest.raises(ValueError, match="k must be an integer, got 2.5"):
        one_hot(0, 2.5)  # as uniform_point refuses it, not numpy's TypeError


@pytest.mark.parametrize("index, message", [
    (True, "must be an integer, got dtype bool"),
    (2.0, "must be an integer, got dtype float64"),
    (np.float64(1.0), "must be an integer, got dtype float64"),
    (-1, r"outcome index out of range: -1 is not in \[0, 3\)"),
    (3, r"outcome index out of range: 3 is not in \[0, 3\)"),
], ids=["bool", "integral-float", "numpy-float", "negative", "K"])
def test_one_hot_takes_the_one_outcome_rule(index, message):
    # one_hot(True, 3) once read True as 1 and filled every entry; 2.0 raised an IndexError
    with pytest.raises(ValueError, match=message):
        one_hot(index, 3)


@pytest.mark.parametrize("y, bad", [([0, 1, 3, -1], 3), ([[0, 1], [-2, 5]], -2),
                                    (np.array([2, 9], np.uint8), 9),
                                    (np.array([1, 2**64 - 1], np.uint64), 2**64 - 1)])
def test_out_of_range_names_first_bad_index(y, bad):
    with pytest.raises(ValueError, match=rf"outcome index out of range: {bad} is not in \[0, 3\)"):
        outcome_indices(y, 3)


def test_outcome_indices_are_int64_copying_only_to_cast():
    y = np.array([[2, 0], [1, 1]])
    assert outcome_indices(y, 3) is y  # int64 already: no copy
    assert outcome_indices(np.array([1, 0], np.uint16), 2).dtype == np.int64
    assert outcome_indices(np.array([], dtype=float), 2).dtype == np.int64  # an empty history


def _wide_floats(rng, shape):
    """Mixed-sign floats spanning 1e-8..1e8, with a tenth of the entries -0.0."""
    a = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8, 8, size=shape)
    a[rng.random(shape) < 0.1] = -0.0
    return a


def _same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


class TestRowSum:
    """``row_sum`` is ``a.sum(axis=-1)`` bit for bit, on both of its branches."""

    @pytest.mark.parametrize("k", range(1, 18))
    @pytest.mark.parametrize("lead", [(0,), (1,), (63,), (64,), (65,), (4096,), (48, 4096)])
    def test_equals_numpy_sum(self, k, lead):
        rng = np.random.default_rng(k * 1000 + sum(lead))
        a = _wide_floats(rng, lead + (k,))
        assert _same_bits(row_sum(a), a.sum(axis=-1))
        ints = rng.integers(-10**12, 10**12, size=lead + (k,))
        assert _same_bits(row_sum(ints), ints.sum(axis=-1))

    @pytest.mark.parametrize("k", [2, 5, 7, 9])
    def test_non_contiguous_views(self, k):
        a = _wide_floats(np.random.default_rng(k), (300, 2 * k))
        for view in (a[::3, ::2], a[:, ::-2], np.asfortranarray(a)[:, :k]):
            assert _same_bits(row_sum(view), view.sum(axis=-1))

    def test_rows_of_negative_zero_sum_to_positive_zero(self):
        a = np.full((100, 5), -0.0)
        assert _same_bits(row_sum(a), a.sum(axis=-1))
        assert not np.signbit(row_sum(a)).any()

    def test_other_dtypes_keep_numpys_sum_dtype(self):
        for dtype in (np.int32, np.bool_, np.float32):
            a = np.ones((100, 3), dtype=dtype)
            assert _same_bits(row_sum(a), a.sum(axis=-1))
