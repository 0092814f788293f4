import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ucal import (check_a_bounds, closed_form, dp_value, optimal_q,
                  structural_identity_error, value_lower_bound)
from ucal import cli, engine, minimax
from ucal.minimax import CHUNK_ROWS, CLOSED_FORM_MAX_HORIZON, _backward_step


def reference_dp(horizon):
    """The DP as a plain loop that evaluates all three branches on every state."""
    t = horizon
    n = np.arange(t + 1, dtype=float)
    layer = 2.0 * t * (n / t) * (n / t - 1.0)
    layers = [layer]
    max_gap = 0.0
    outer = 0
    for _ in range(t):
        v1 = layer[1:]
        v2 = layer[:-1]
        d = v1 - v2
        max_gap = max(max_gap, float(np.abs(d).max()))
        middle = d * d / 8.0 + (v1 + v2) / 2.0 + 0.5
        layer = np.where(d < -2.0, v2, np.where(d > 2.0, v1, middle))
        outer += int(np.sum(d < -2.0) + np.sum(d > 2.0))
        layers.append(layer)
    return float(layer[0]), max_gap, outer, layers


def reference_closed_form(horizon):
    """The u/v recurrences written element by element into numpy arrays."""
    t = horizon
    inv_t = 1.0 / t
    u = np.empty(t + 1)
    v = np.empty(t + 1)
    u_r = 0.0
    u[0] = v[0] = 0.0
    sum_u = 0.0
    comp = 0.0
    for r in range(t):
        a_r = u_r + inv_t
        y = u_r - comp
        tot = sum_u + y
        comp = (tot - sum_u) - y
        sum_u = tot
        m = r + 1
        v[m] = 0.5 * sum_u + float(m * (m + 1 - t)) / (2.0 * t)
        u_r = u_r + a_r * a_r
        u[m] = u_r
    return u, v, u[:t] + inv_t


def whole_array_closed_form(horizon):
    """``closed_form`` with its linear term over all T + 1 entries at once."""
    t = horizon
    inv_t = 1.0 / t
    u, sums = [0.0], [0.0]
    u_r = sum_u = comp = 0.0
    for _ in range(t):
        a_r = u_r + inv_t
        y = u_r - comp
        tot = sum_u + y
        comp = (tot - sum_u) - y
        sum_u = tot
        sums.append(sum_u)
        u_r = u_r + a_r * a_r
        u.append(u_r)
    u = np.array(u)
    m = np.arange(t + 1, dtype=np.int64)
    linear = m + (1 - t)
    linear *= m
    v = np.array(sums) * 0.5
    v += linear / (2.0 * t)
    return u, v, u[:t] + inv_t, float(v[t])


def whole_array_bounds(horizon, a):
    """``check_a_bounds`` with both bounds built over all T rounds at once."""
    t = horizon
    r = np.arange(t, dtype=float)
    upper = 1.0 / (t - r)
    lower = 1.0 / (t - r + math.log(t))
    max_upper = float(np.max(a - upper, initial=0.0))
    max_lower = float(np.max(lower - a, initial=0.0))
    return max(max_upper, 0.0), max(max_lower, 0.0)


CHUNK_EDGES = [1, 2, 3, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 5]


class TestDpValue:
    def test_single_round(self):
        # one round: forecaster plays (1/2, 1/2), pays 1/2, benchmark pays 0
        assert dp_value(1).value == pytest.approx(0.5, abs=1e-12)

    def test_two_rounds(self):
        # hand-unrolled: u_1 = 1/4, v_1 = 0, v_2 = 1/8 + 1/2 = 5/8
        assert dp_value(2).value == pytest.approx(0.625, abs=1e-12)

    def test_base_layer_formula(self):
        table = dp_value(4, keep_layers=True)
        assert table.value_at(1, 3, 0) == pytest.approx(-1.5, abs=1e-12)
        assert table.value_at(0, 4, 0) == 0.0
        assert table.value_at(2, 2, 0) == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize("horizon", [1, 2, 3, 7, 16, 33, 64])
    def test_matches_closed_form(self, horizon):
        assert dp_value(horizon).value == pytest.approx(closed_form(horizon).value, abs=1e-8)

    @pytest.mark.parametrize("horizon", [1, 5, 32, 100])
    def test_interior_branch_everywhere(self, horizon):
        table = dp_value(horizon)
        assert table.outer_branch_states == 0
        assert table.max_abs_gap <= 2.0 + 1e-9

    def test_horizon_limits(self):
        with pytest.raises(ValueError):
            dp_value(0)
        with pytest.raises(ValueError):
            dp_value(4097)

    def test_value_at_requires_layers(self):
        with pytest.raises(ValueError):
            dp_value(3).value_at(0, 0, 3)
        with pytest.raises(ValueError):
            dp_value(3, keep_layers=True).value_at(1, 1, 3)

    @pytest.mark.parametrize("state, message", [
        ((0, 9, -1), "r must be >= 0"),        # sums to T = 8, but r < 0
        ((9, -1, 0), "n2 must be >= 0"),
        ((1.5, 6.5, 0), "n1 must be an integer"),
        ((1, 7.0, 0), "n2 must be an integer"),
    ])
    def test_value_at_refuses_impossible_states(self, state, message):
        with pytest.raises(ValueError, match=message):
            dp_value(8, keep_layers=True).value_at(*state)

    def test_value_at_takes_numpy_counts(self):
        table = dp_value(8, keep_layers=True)
        assert table.value_at(np.int64(3), np.int32(5), np.int8(0)) == table.value_at(3, 5, 0)


class TestBackwardStep:
    @staticmethod
    def three_branch(v1, v2):
        d = v1 - v2
        if d < -2.0:
            return v2
        if d > 2.0:
            return v1
        return d * d / 8.0 + (v1 + v2) / 2.0 + 0.5

    def test_clamped_on_both_sides(self):
        # children differ by +5, -5, +0.5, -4.5, +2 (boundary), -2 (boundary)
        layer = np.array([0.0, 5.0, 0.0, 0.5, -4.0, -2.0, -4.0])
        nxt, gap, clamped = _backward_step(layer)
        expected = [self.three_branch(layer[i + 1], layer[i]) for i in range(len(layer) - 1)]
        assert nxt.tolist() == expected
        assert gap == 5.0
        assert clamped == 3
        assert expected[0] == 5.0 and expected[1] == 5.0 and expected[3] == 0.5

    def test_clamped_branch_is_the_sup(self):
        layer = np.array([3.0, -1.0, 6.0, 0.25])
        nxt, _, _ = _backward_step(layer)
        for i, value in enumerate(nxt):
            v1, v2 = layer[i + 1], layer[i]
            q = optimal_q(v1, v2)
            assert value == pytest.approx(v2 + (v1 - v2) * q - 2 * (q * q - q), abs=1e-12)

    def test_interior_layer(self):
        layer = np.array([0.0, 1.5, 1.0, -0.5, 0.75])
        nxt, gap, clamped = _backward_step(layer)
        assert nxt.tolist() == [self.three_branch(layer[i + 1], layer[i]) for i in range(4)]
        assert gap == 1.5 and clamped == 0

    def test_leaves_input_alone(self):
        layer = np.array([1.0, -3.0, 2.0])
        before = layer.copy()
        _backward_step(layer)
        np.testing.assert_array_equal(layer, before)


class TestDpMatchesReference:
    @pytest.mark.parametrize("horizon", [1, 2, 7, 64, 1000])
    def test_every_layer(self, horizon):
        value, gap, outer, layers = reference_dp(horizon)
        table = dp_value(horizon, keep_layers=True)
        assert table.value == value
        assert table.max_abs_gap == gap
        assert table.outer_branch_states == outer
        assert len(table.layers) == len(layers)
        for got, want in zip(table.layers, layers):
            assert np.array_equal(got, want)
        assert dp_value(horizon).value == value


class TestClosedForm:
    @pytest.mark.parametrize("horizon", [1, 2, 3, 500, 10_000])
    def test_matches_reference_loop(self, horizon):
        u, v, a = reference_closed_form(horizon)
        seqs = closed_form(horizon)
        assert np.array_equal(seqs.u, u)
        assert np.array_equal(seqs.v, v)
        assert np.array_equal(seqs.a, a)
        assert seqs.value == float(v[horizon])
        assert seqs.u.shape == (horizon + 1,) and seqs.a.shape == (horizon,)

    def test_empty_horizon_refused(self):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            closed_form(0)

    def test_horizon_cap(self, monkeypatch):
        with pytest.raises(ValueError, match="cap"):
            closed_form(CLOSED_FORM_MAX_HORIZON + 1)
        monkeypatch.setattr(minimax, "CLOSED_FORM_MAX_HORIZON", 8)
        assert closed_form(8).horizon == 8  # the cap is inclusive
        with pytest.raises(ValueError, match="cap"):
            closed_form(9)

    def test_initial_conditions(self):
        seqs = closed_form(10)
        assert seqs.u[0] == 0.0 and seqs.v[0] == 0.0
        assert seqs.a[0] == pytest.approx(1 / 10, abs=0)

    def test_two_round_sequences(self):
        seqs = closed_form(2)
        np.testing.assert_allclose(seqs.u, [0.0, 0.25, 0.8125])
        np.testing.assert_allclose(seqs.v, [0.0, 0.0, 0.625])
        assert seqs.value == 0.625

    @pytest.mark.parametrize("horizon", [1, 2, 100, 10_000])
    def test_value_is_half_sum_of_increments(self, horizon):
        seqs = closed_form(horizon)
        assert seqs.value == pytest.approx(0.5 * float(np.sum(seqs.a)), abs=1e-12)

    def test_recurrences_hold(self):
        t = 500
        seqs = closed_form(t)
        r = np.arange(t)
        np.testing.assert_array_equal(seqs.u[1:], seqs.u[:-1] + (seqs.u[:-1] + 1 / t) ** 2)
        v_step = seqs.u[:-1] / 2 + seqs.v[:-1] + (r + 1) / t - 0.5
        scale = np.maximum(1.0, np.abs(seqs.v[1:]))
        np.testing.assert_allclose(seqs.v[1:] / scale, v_step / scale, atol=1e-12)

    def test_increment_recurrence(self):
        seqs = closed_form(300)
        np.testing.assert_allclose(seqs.a[1:], seqs.a[:-1] + seqs.a[:-1] ** 2, atol=1e-15)


class TestChunkedEqualsWholeArray:
    """The chunked ``closed_form`` and ``check_a_bounds`` give the whole-array results bit for bit."""

    @pytest.mark.parametrize("horizon", CHUNK_EDGES)
    def test_closed_form(self, horizon):
        u, v, a, value = whole_array_closed_form(horizon)
        seqs = closed_form(horizon)
        assert np.array_equal(seqs.u, u)
        assert np.array_equal(seqs.v, v)
        assert np.array_equal(seqs.a, a)
        assert seqs.value == value

    @pytest.mark.parametrize("horizon", [h for h in CHUNK_EDGES if h >= 2])
    def test_check_a_bounds(self, horizon):
        seqs = closed_form(horizon)
        rng = np.random.default_rng(horizon)
        # violations of both signs, their worst in any chunk
        for a in (seqs.a, seqs.a * (1.0 + 1e-3 * rng.random(horizon)),
                  seqs.a * (1.0 - 0.5 * rng.random(horizon)), seqs.a * rng.uniform(0.5, 1.5, horizon)):
            perturbed = dataclasses.replace(seqs, a=a)
            assert check_a_bounds(horizon, perturbed) == whole_array_bounds(horizon, a)


class _Discard:
    def write(self, text):
        pass


class TestWorkingSet:
    def test_closed_form_and_bounds_hold_three_arrays(self):
        t = 1 << 18
        tracemalloc.start()
        try:
            seqs = closed_form(t)
            check_a_bounds(t, seqs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * (t + 1) + (1 << 20)  # u, v and a, plus one MiB

    def test_writer_peak_does_not_grow_with_horizon(self):
        peaks = []
        for t in (1 << 16, 1 << 18):
            seqs = closed_form(t)
            tracemalloc.start()
            try:
                minimax.write_sequences_csv(seqs, _Discard())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) <= 0.1 * (1 << 20)


class TestStructuralIdentity:
    @pytest.mark.parametrize("horizon", [3, 17, 64])
    def test_every_entry(self, horizon):
        table = dp_value(horizon, keep_layers=True)
        assert structural_identity_error(table) <= 1e-8

    def test_requires_layers(self):
        with pytest.raises(ValueError):
            structural_identity_error(dp_value(8))


class TestSandwichBounds:
    def test_no_violations(self):
        upper, lower = check_a_bounds(1000)
        assert upper <= 1e-12 and lower <= 1e-12

    def test_tight_at_start(self):
        seqs = closed_form(50)
        assert seqs.a[0] == pytest.approx(1 / 50, abs=0)  # upper bound 1/(T-0) is met

    def test_value_floor(self):
        for horizon in (100, 1000, 10_000):
            assert closed_form(horizon).value >= value_lower_bound(horizon)

    def test_requires_two_rounds(self):
        with pytest.raises(ValueError):
            check_a_bounds(1)

    @pytest.mark.parametrize("horizon", [0, -1, -100])
    def test_floor_needs_one_round(self, horizon):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            value_lower_bound(horizon)

    def test_floor_at_one_round(self):
        assert value_lower_bound(1) == pytest.approx(0.5 * math.log(2.0), abs=0)

    @pytest.mark.parametrize("horizon", [2, 3, 1000])
    def test_given_sequences(self, horizon):
        seqs = closed_form(horizon)
        assert check_a_bounds(horizon, seqs) == check_a_bounds(horizon)

    def test_sequences_of_another_horizon(self):
        with pytest.raises(ValueError):
            check_a_bounds(10, closed_form(11))


class TestGrowth:
    def test_doubling_adds_half_log_two(self):
        # logarithmic growth of the game value in the horizon
        floor = 0.5 * math.log(2) - 0.1
        for horizon in (64, 128, 256, 512, 1024):
            gap = dp_value(2 * horizon).value - dp_value(horizon).value
            assert gap >= floor


class TestOptimalQ:
    def test_symmetric(self):
        assert optimal_q(1.0, 1.0) == 0.5

    def test_boundary_of_interior_branch(self):
        assert optimal_q(3.0, 1.0) == 1.0

    def test_clamped(self):
        assert optimal_q(0.0, 4.0) == 0.0

    @given(st.floats(-10, 10), st.floats(-10, 10))
    def test_maximizes_adversary_payoff(self, v1, v2):
        # grid oracle for the one-dimensional quadratic program
        q_star = optimal_q(v1, v2)
        assert 0.0 <= q_star <= 1.0
        payoff = lambda q: v2 + (v1 - v2) * q - 2 * (q * q - q)
        grid = np.linspace(0, 1, 201)
        assert payoff(q_star) >= payoff(grid).max() - 1e-9


def _neighbours(values, steps=3):
    """``values`` and their first ``steps`` float64 neighbours on both sides."""
    values = np.asarray(values, dtype=float)
    out = [values]
    up, down = values, values
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


POWERS = np.array([float(f"1e{k}") for k in range(-25, 26)])
# Halfway between two 12-digit significands: exactly, or within the float64
# value's own error, where rounding the scaled value could go either way.
TIES = np.array([123456789012.5, 1234567890125.0, 999999999999.5, 100000000000.5,
                 1.000000000005e-3, 4.567890123455e7])
SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300,
                     np.inf, -np.inf, np.nan])
# %g switches from exponent to fixed notation at 1e-4, and back at 1e12;
# 1e11 is the last exponent with a point.  Values that round up across a
# switch (9.999999999995e-5, 999999999999.5) change their exponent.
SWITCHES = _neighbours([1e-4, 9.999999999995e-5, 9.99999999999e-5, 1e11, 99999999999.95,
                        1e12, 999999999999.4, 1e-5, 1e16, 1e22, 1e23, 1e33, 1e34, 1e-11,
                        1e-12], steps=5)


def _random_doubles(count, seed):
    rng = np.random.default_rng(seed)
    values = rng.uniform(1.0, 10.0, count) * 10.0 ** rng.integers(-30, 31, count)
    values[rng.random(count) < 0.5] *= -1.0
    values[::7] = np.round(values[::7], 3)  # short decimals: trailing zeros to strip
    return values


class TestCsvKernel:
    """The vectorized dump rows equal ``engine.format_float`` value by value, r included."""

    @staticmethod
    def rows_both_ways(values):
        values = np.asarray(values, dtype=float)
        values = np.concatenate([values, np.full(-values.size % 5, 1.0)])
        columns = values.reshape(5, -1)
        n = columns.shape[1]
        r = (np.arange(n) * 7919 % 10 ** 7).astype(float)  # zero, short and 7-digit integers
        got = minimax._csv_rows((r,) + tuple(columns))
        want = "".join(",".join([engine.format_float(r[i])]
                                + [engine.format_float(float(columns[c, i])) for c in range(5)])
                       + "\n" for i in range(n))
        # the %.12g text of an integral r below 10^12 is its %d text
        assert [engine.format_float(x) for x in r] == [str(int(x)) for x in r]
        return got, want

    @pytest.mark.parametrize("name, values", [
        ("specials", SPECIALS), ("ties", TIES), ("switches", SWITCHES),
        ("powers of ten", _neighbours(POWERS, steps=1)),
        ("random", _random_doubles(100_000, seed=20)),
        ("integers", np.arange(-50.0, 5000.0)),
    ])
    def test_rows_equal_per_value_formatting(self, name, values):
        got, want = self.rows_both_ways(values)
        assert got.splitlines(keepends=True) == want.splitlines(keepends=True)

    def test_significands_across_the_six_digit_split(self):
        # significand m = high * 10^6 + low: low of zero, of all nines, and with leading zeros
        high = np.array([100000, 123456, 999999], dtype=np.int64)
        low = np.array([0, 1, 10, 100000, 999999], dtype=np.int64)
        m = (high[:, None] * 10 ** 6 + low).ravel()
        m = np.concatenate([m, [10 ** 11, 10 ** 12 - 1]]).astype(float)
        assert (m >= 1e11).all() and (m < 1e12).all()
        values = np.concatenate([m * scale for scale in (1.0, 1e-11, 1e-20, 1e5)])
        got, want = self.rows_both_ways(np.concatenate([values, -values]))
        assert got == want
        _, _, certified = minimax._round_g12(m)
        assert certified.all()

    def test_fallback_takes_what_it_cannot_certify(self):
        uncertain = np.concatenate([SPECIALS, TIES, [1e-12, 1e34]])
        assert not minimax._round_g12(uncertain)[2].any()
        got, want = self.rows_both_ways(uncertain)
        assert got == want

    def test_most_values_take_the_fast_path(self):
        _, _, certified = minimax._round_g12(np.concatenate([SWITCHES, POWERS]))
        assert certified.mean() > 0.5
        m, exponent, certified = minimax._round_g12(np.array([1.5, -0.000123, 98765.4321e20]))
        assert certified.all()
        assert m.tolist() == [150000000000, 123000000000, 987654321000]
        assert exponent.tolist() == [0, -4, 24]

    def test_carry_into_a_new_digit(self):
        # 999999999999.6 rounds to 10^12: one more digit, exponent 12, exponent notation
        m, exponent, certified = minimax._round_g12(np.array([999999999999.6, 9.999999999996e-5]))
        assert certified.all() and m.tolist() == [10 ** 11] * 2
        assert exponent.tolist() == [12, -4]
        got, _ = self.rows_both_ways([999999999999.6, 9.999999999996e-5])
        assert got.split("\n")[0].split(",")[1:3] == ["1e+12", "0.0001"]


def test_benchmark_dump_bytes_pinned(tmp_path):
    """The T = 250000 dump the benchmark writes, byte for byte as ``%``-formatting gave it."""
    path = tmp_path / "seqs.csv"
    assert cli.main(["minimax", "--T", "250000", "--mode", "closed", "--output", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "63a0b81eea530f8a97d48c1691ec8614f1521ff13c6ca837d054153ebd7622f3"
