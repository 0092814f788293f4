import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ucal import (check_a_bounds, closed_form, dp_value, optimal_q,
                  structural_identity_error, value_lower_bound)
from ucal import minimax
from ucal.minimax import CLOSED_FORM_MAX_HORIZON, _backward_step


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
