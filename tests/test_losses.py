import itertools
import math
import re

import numpy as np
import pytest

from ucal import (CustomLoss, MixtureLoss, ProperLoss, RngStream, SphericalLoss,
                  SquaredLoss, TsallisLoss, VShapedLoss, check_concavity, check_hessian_growth,
                  check_proper, check_range, estimate_lipschitz, one_hot,
                  random_simplex_points, simplex_mesh, uniform_point)
from ucal.core import row_sum
from ucal.losses import validation_points

RNG = RngStream(2024, 0)


def shipped_losses():
    return [
        SquaredLoss(1.0),
        SquaredLoss(0.5),
        SphericalLoss(),
        VShapedLoss(),
        TsallisLoss(1.2),
        TsallisLoss(1.5),
        TsallisLoss(1.8),
        TsallisLoss(2.0),
        MixtureLoss(SquaredLoss(0.5), VShapedLoss(), 0.3),
        MixtureLoss(SphericalLoss(), TsallisLoss(1.5), 0.7),
    ]


class TestUnivariate:
    def test_squared(self):
        assert SquaredLoss(1.0).univariate([0.5, 0.5]) == pytest.approx(0.5)

    def test_vshaped_at_barycenter(self):
        assert VShapedLoss().univariate([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(0.0)

    def test_spherical_at_vertex(self):
        assert SphericalLoss().univariate([1.0, 0.0]) == pytest.approx(-1.0)


class TestSubgradient:
    def test_vshaped(self):
        np.testing.assert_allclose(VShapedLoss().subgradient([0.9, 0.1]), [-0.5, 0.5])

    def test_squared(self):
        np.testing.assert_allclose(SquaredLoss(1.0).subgradient([0.25, 0.75]), [-0.5, -1.5])

    def test_vshaped_sign_zero_at_kink(self):
        np.testing.assert_array_equal(VShapedLoss().subgradient([0.5, 0.5]), [0.0, 0.0])

    def test_tsallis_finite_at_boundary(self):
        g = TsallisLoss(1.5).subgradient([0.0, 1.0])
        assert np.all(np.isfinite(g))
        assert g[0] == 0.0


class TestBivariate:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_vshaped_extremes(self, k):
        loss = VShapedLoss()
        assert loss.bivariate(one_hot(0, k), 0) == pytest.approx(-(k - 1) / k, abs=1e-12)
        face = np.full(k, 1.0 / (k - 1))
        face[0] = 0.0
        assert loss.bivariate(face, 0) == pytest.approx((k - 1) / k, abs=1e-12)

    def test_squared_zero_at_match(self):
        assert SquaredLoss(1.0).bivariate([1.0, 0.0], 0) == pytest.approx(0.0)

    def test_tsallis_closed_form(self):
        # bivariate equals -c*((1-a) sum p^a + a p_y^(a-1)) for any alpha
        rng = RNG.generator()
        for alpha in (1.2, 1.5, 1.8, 2.0):
            loss = TsallisLoss(alpha)
            pts = random_simplex_points(3, 50, rng)
            for y in range(3):
                direct = -loss.scale * ((1 - alpha) * np.sum(pts ** alpha, axis=1)
                                        + alpha * pts[:, y] ** (alpha - 1))
                np.testing.assert_allclose(loss.bivariate(pts, y), direct, atol=1e-12)

    def test_tsallis_spot_value_matches_shifted_squared(self):
        # alpha=2, scale=1/2: equals 0.5*||p-y||^2 - 0.5 pointwise
        loss = TsallisLoss(2.0, 0.5)
        assert loss.bivariate([0.5, 0.5], 0) == pytest.approx(-0.25)
        rng = RNG.generator()
        pts = random_simplex_points(2, 100, rng)
        ys = rng.integers(0, 2, size=100)
        shifted = SquaredLoss(0.5).bivariate(pts, ys) - 0.5
        np.testing.assert_allclose(loss.bivariate(pts, ys), shifted, atol=1e-12)

    @pytest.mark.parametrize("y", [1.7, 1.0, [0.0, 1.5], True])
    def test_non_integer_outcome_refused(self, y):
        with pytest.raises(ValueError, match="must be an integer"):
            SquaredLoss().bivariate([0.2, 0.8], y)

    @pytest.mark.parametrize("y", [2, np.array([0, 1, 2]), -1])
    def test_outcome_index_out_of_range_refused(self, y):
        with pytest.raises(ValueError, match="outcome index out of range"):
            SquaredLoss().bivariate([0.2, 0.8], y)

    @pytest.mark.parametrize("p_shape, y_shape", [((4, 2), (3,)), ((2, 4, 2), (3, 4)),
                                                   ((4, 2), (4, 1, 2))])
    def test_outcomes_that_do_not_broadcast_refused(self, p_shape, y_shape):
        points = np.full(p_shape, 0.5)
        outcomes = np.zeros(y_shape, dtype=np.int64)
        custom = CustomLoss(lambda p: 1.0 - np.sum(p * p, axis=-1), lambda p: -2.0 * p)
        for loss in shipped_losses() + [custom]:
            with pytest.raises(ValueError, match=re.escape(
                    f"outcomes {y_shape} do not broadcast against forecasts {p_shape}")):
                loss.bivariate(points, outcomes)

    @pytest.mark.parametrize("y", [1, np.int32(1), np.array([1], dtype=np.uint8)])
    def test_any_integer_dtype_taken(self, y):
        table = SquaredLoss().outcome_losses([0.2, 0.8])
        assert np.all(SquaredLoss().bivariate([0.2, 0.8], y) == table[1])

    def test_vectorized_matches_scalar(self):
        rng = RNG.generator()
        pts = random_simplex_points(4, 20, rng)
        ys = rng.integers(0, 4, size=20)
        for loss in shipped_losses():
            batch = loss.bivariate(pts, ys)
            single = [float(loss.bivariate(p, int(y))) for p, y in zip(pts, ys)]
            np.testing.assert_allclose(batch, single, atol=1e-14)


def savage_form(loss, points, y):
    """loss(p, y) computed here from the loss's own forms, independently of the loss layer.

    f(p) + g_y - <g, p> from ``univariate`` and ``subgradient``, in that order;
    -p_y / ||p|| for the spherical score; the weighted sum of the two
    components for a mixture.
    """
    if isinstance(loss, MixtureLoss):
        w = loss.weight
        return w * savage_form(loss.loss1, points, y) + (1 - w) * savage_form(loss.loss2, points, y)
    if isinstance(loss, SphericalLoss):
        return -points[..., y] / np.sqrt((points * points).sum(axis=-1))
    g = loss.subgradient(points)
    return loss.univariate(points) + g[..., y] - (g * points).sum(axis=-1)


def table_form(loss, points):
    """The (..., K) table written out: (f(p) + g) - <g, p>, -p / ||p|| or the affine mix."""
    if isinstance(loss, MixtureLoss):
        w = loss.weight
        return w * table_form(loss.loss1, points) + (1 - w) * table_form(loss.loss2, points)
    if isinstance(loss, SphericalLoss):
        return -points / np.sqrt(row_sum(points * points))[..., None]
    g = loss.subgradient(points)
    return (loss.univariate(points)[..., None] + g) - row_sum(g * points)[..., None]


class TestOutcomeLosses:
    """The per-outcome table equals its formula, and its entries the Savage form, exactly."""

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 10, 16])
    def test_table_equals_savage_form(self, k):
        rng = RNG.generator()
        # random points, vertices and kinks; 70 and 68 rows take row_sum's column adds
        # below K = 8, one row numpy's reduce, and K >= 8 its pairwise sums
        points = _points_with_kinks(k, 70, rng)
        edges = np.vstack([uniform_point(k), one_hot(0, k), one_hot(k - 1, k)])
        custom = CustomLoss(lambda p: 1.0 - np.sum(p * p, axis=-1), lambda p: -2.0 * p)
        for loss in shipped_losses() + [custom]:
            for stack in (points, points[:68].reshape(4, 17, k), points[:1], points[2], edges):
                table = loss.outcome_losses(stack)
                assert table.shape == stack.shape, loss
                assert table.tobytes() == table_form(loss, stack).tobytes(), loss
                for y in range(k):
                    expected = savage_form(loss, stack, y)
                    assert np.array_equal(table[..., y], expected), loss
                    assert np.array_equal(loss.bivariate(stack, y), expected), loss
            every_outcome = [savage_form(loss, edges[0], y) for y in range(k)]
            assert np.array_equal(loss.bivariate(edges[0], np.arange(k)), every_outcome), loss


def _points_with_kinks(k, n, rng):
    """n points: random ones, the vertices and points with coordinates exactly 1/K (the
    step-shaped loss's kinks), in turn."""
    points = random_simplex_points(k, n, rng)
    points[1::3] = np.eye(k)[np.arange(1, n, 3) % k]
    kinked = points[2::3]
    kinked[:, 0] = 1.0 / k
    kinked[:, 1:] *= (1.0 - 1.0 / k) / kinked[:, 1:].sum(axis=-1, keepdims=True)
    points[-1] = uniform_point(k)
    return points


class TestBivariateIsTableEntry:
    """``bivariate(p, y)`` is entry y of ``outcome_losses(p)``, bit for bit, without the table."""

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 10])
    def test_every_loss_and_broadcast_shape(self, k):
        rng = RNG.generator()
        n, horizon = 4, 33  # 132 rows: row_sum's whole-column adds below K = 8
        custom = CustomLoss(lambda p: 1.0 - np.sum(p * p, axis=-1), lambda p: -2.0 * p)
        points = _points_with_kinks(k, n * horizon, rng)
        outcomes = rng.integers(0, k, size=(n, horizon))
        cases = [(points[0], outcomes[0]),                      # (K,) with y (n,)
                 (points[2], outcomes[0]),                      # a kink
                 (points[:horizon], 1),                         # (n, K) with a scalar y
                 (points.reshape(n, horizon, k), outcomes)]     # (n, T, K) with (n, T)
        for loss in shipped_losses() + [custom]:
            for p, y in cases:
                table = loss.outcome_losses(p)
                y_axis = np.broadcast_to(y, np.broadcast_shapes(np.shape(y), p.shape[:-1]))
                expected = np.take_along_axis(np.broadcast_to(table, y_axis.shape + (k,)),
                                              y_axis[..., None], axis=-1)[..., 0]
                got = loss.bivariate(p, y)
                assert np.shape(got) == expected.shape, loss
                assert np.asarray(got).tobytes() == expected.tobytes(), loss


class TestCustomLossNonFinite:
    # log(p) is -inf on the simplex boundary; a rule like it must fail loudly
    # instead of feeding inf/nan regrets downstream
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_univariate_rule(self, bad):
        loss = CustomLoss(lambda p: np.where(p[..., 0] > 0.5, bad, 0.0), lambda p: 0.0 * p,
                          name="bad-form")
        assert loss.univariate(np.array([0.2, 0.8])) == 0.0
        with pytest.raises(ValueError, match="bad-form.*univariate.*non-finite"):
            loss.univariate(np.array([[0.2, 0.8], [0.9, 0.1]]))
        with pytest.raises(ValueError, match="univariate"):
            loss.bivariate(np.array([0.9, 0.1]), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_subgradient_rule(self, bad):
        loss = CustomLoss(lambda p: np.zeros(p.shape[:-1]),
                          lambda p: np.where(p > 0.5, bad, 0.0))
        np.testing.assert_array_equal(loss.subgradient(np.array([0.5, 0.5])), [0.0, 0.0])
        with pytest.raises(ValueError, match="subgradient.*non-finite"):
            loss.subgradient(np.array([0.9, 0.1]))
        with pytest.raises(ValueError, match="subgradient"):
            loss.outcome_losses(np.array([0.9, 0.1]))

    def test_log_form_at_a_vertex(self):
        # entropy-style rule: finite in the interior, -inf at a vertex
        with np.errstate(divide="ignore", invalid="ignore"):
            entropy = CustomLoss(lambda p: -np.sum(p * np.log(p), axis=-1),
                                 lambda p: -np.log(p) - 1.0, name="entropy")
            assert np.isfinite(entropy.bivariate(np.array([0.3, 0.7]), 1))
            with pytest.raises(ValueError, match="entropy"):
                entropy.bivariate(np.array([1.0, 0.0]), 0)

class TestExpectedValueIdentity:
    # sum_i p_i * loss(p, e_i) must equal the univariate form: the
    # subgradient correction vanishes in expectation under p itself.
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_all_losses(self, k):
        rng = RNG.generator()
        pts = random_simplex_points(k, 200, rng)
        outcomes = np.arange(k)
        for loss in shipped_losses():
            per_outcome = loss.bivariate(pts[:, None, :], outcomes)
            expected = np.sum(pts * per_outcome, axis=1)
            np.testing.assert_allclose(expected, loss.univariate(pts), atol=1e-9)


class TestProperness:
    def test_no_violations_for_shipped_losses(self):
        rng = RNG.generator()
        pairs = (random_simplex_points(3, 10_000, rng), random_simplex_points(3, 10_000, rng))
        for loss in shipped_losses():
            report = check_proper(loss, pairs, tol=1e-9)
            assert report.properness_violations == 0, loss.name

    def test_identity_pair_zero_slack(self):
        p = np.array([[0.2, 0.5, 0.3]])
        report = check_proper(VShapedLoss(), (p, p.copy()), tol=0.0)
        assert report.properness_violations == 0
        assert report.max_violation == 0.0

    def test_detects_improper_loss(self):
        # convex "univariate form" f(p) = +||p||^2 cannot induce a proper loss;
        # hand check at p=(0.9,0.1), p'=(0.5,0.5):
        #   lhs = f(p) = 0.82, rhs = 0.9*0.5 + 0.1*0.5 = 0.5, gap 0.32
        improper = CustomLoss(lambda p: np.sum(p * p, axis=-1),
                              lambda p: 2.0 * p, name="convex-form")
        pair = (np.array([[0.9, 0.1]]), np.array([[0.5, 0.5]]))
        report = check_proper(improper, pair, tol=1e-9)
        assert report.properness_violations == 1
        assert report.max_violation == pytest.approx(0.32, abs=1e-12)

    def test_pair_arrays_of_different_shapes_refused(self):
        with pytest.raises(ValueError, match="pair arrays must have identical shapes"):
            check_proper(SquaredLoss(), (np.full((2, 3), 1 / 3), np.full((3, 3), 1 / 3)))

    def test_improper_found_by_random_sampling(self):
        improper = CustomLoss(lambda p: np.sum(p * p, axis=-1),
                              lambda p: 2.0 * p, name="convex-form")
        rng = RNG.generator()
        pairs = (random_simplex_points(2, 1000, rng), random_simplex_points(2, 1000, rng))
        assert check_proper(improper, pairs, tol=1e-9).properness_violations > 0
        assert check_concavity(improper, pairs, tol=1e-9) > 0


class TestConcavity:
    def test_shipped_losses_concave(self):
        rng = RNG.generator()
        pairs = (random_simplex_points(3, 2000, rng), random_simplex_points(3, 2000, rng))
        for loss in shipped_losses():
            assert check_concavity(loss, pairs, tol=1e-9) == 0, loss.name


class TestBoundedness:
    @pytest.mark.parametrize("loss", [VShapedLoss(), SphericalLoss(),
                                      TsallisLoss(1.2), TsallisLoss(1.5),
                                      TsallisLoss(1.8), TsallisLoss(2.0)])
    def test_within_unit_range(self, loss):
        rng = RNG.generator()
        pts = validation_points(3, rng, n_random=5000)
        lo, hi, ok = check_range(loss, pts, tol=1e-9)
        assert ok
        assert lo >= -1.0 - 1e-9 and hi <= 1.0 + 1e-9

    def test_brier_in_unit_interval(self):
        rng = RNG.generator()
        pts = validation_points(3, rng, n_random=5000)
        lo, hi, ok = check_range(SquaredLoss(0.5), pts, tol=1e-9)
        assert ok and lo >= -1e-9 and hi <= 1.0 + 1e-9

    def test_unscaled_squared_flagged_range(self):
        # scale 1 exceeds [-1, 1]; the declared bound records that fact
        loss = SquaredLoss(1.0)
        assert loss.range_bound == (0.0, 2.0)
        rng = RNG.generator()
        pts = validation_points(2, rng, n_random=5000)
        lo, hi, ok = check_range(loss, pts, tol=1e-9)
        assert ok and hi > 1.0

    @pytest.mark.parametrize("alpha, scale", [(1.5, 2.0), (1.5, 0.1), (2.5, 0.2), (3.0, 5.0),
                                              (1.1, 1.0)])
    def test_scaled_tsallis_declares_alpha_times_scale(self, alpha, scale):
        # the values lie in scale * [-1, alpha - 1], inside scale * [-alpha, alpha]
        loss = TsallisLoss(alpha, scale)
        assert loss.range_bound == (-alpha * scale, alpha * scale)
        lo, hi, ok = check_range(loss, validation_points(3, RNG.generator(), n_random=5000))
        assert ok and lo >= -scale - 1e-9 and hi <= scale * (alpha - 1) + 1e-9

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
    def test_default_tsallis_declares_unit_range(self, alpha):
        assert TsallisLoss(alpha).range_bound == (-1.0, 1.0)


class TestMixture:
    def test_affine_identity_exact(self):
        rng = RNG.generator()
        l1, l2 = SquaredLoss(0.5), VShapedLoss()
        for w in (0.0, 0.25, 0.5, 1.0):
            mix = MixtureLoss(l1, l2, w)
            pts = random_simplex_points(3, 200, rng)
            ys = rng.integers(0, 3, size=200)
            lhs = mix.bivariate(pts, ys)
            rhs = w * l1.bivariate(pts, ys) + (1 - w) * l2.bivariate(pts, ys)
            np.testing.assert_array_equal(lhs, rhs)

    def test_weight_validated(self):
        with pytest.raises(ValueError):
            MixtureLoss(SquaredLoss(), VShapedLoss(), 1.5)


class TestHessianGrowth:
    GRID = np.linspace(0.001, 0.999, 999)

    def test_tight_constant_passes(self):
        assert check_hessian_growth(TsallisLoss(1.5), self.GRID, c=0.75)

    def test_small_constant_fails(self):
        # at p=0.001: 0.75 * 0.001^(-0.5) ~ 23.7 > 0.01 * 1000 = 10
        assert not check_hessian_growth(TsallisLoss(1.5), self.GRID, c=0.01)

    def test_alpha_two_constant_second_derivative(self):
        assert check_hessian_growth(TsallisLoss(2.0), self.GRID, c=2.0)

    def test_boundary_point_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            check_hessian_growth(TsallisLoss(1.5), [0.0, 0.5], c=1.0)

    def test_alpha_above_two_refused(self):
        with pytest.raises(ValueError, match=r"alpha must lie in \(1, 2\]"):
            check_hessian_growth(TsallisLoss(2.5), self.GRID, c=1.0)

    def test_wrong_loss_rejected(self):
        with pytest.raises(TypeError):
            check_hessian_growth(SquaredLoss(), self.GRID, c=1.0)


class TestLipschitzEstimate:
    def test_spherical_below_sqrt_k(self):
        rng = RNG.generator()
        est = estimate_lipschitz(SphericalLoss(), k=4, samples=30_000, rng=rng)
        assert est <= 2.0 + 1e-5
        assert est > 1.0  # the estimate is not vacuous

    def test_brier_below_two(self):
        rng = RNG.generator()
        est = estimate_lipschitz(SquaredLoss(0.5), k=2, samples=30_000, rng=rng)
        assert est <= 2.0 + 1e-5

    def test_vshaped_diverges(self):
        rng = RNG.generator()
        est = estimate_lipschitz(VShapedLoss(), k=2, samples=30_000, rng=rng)
        assert est >= 1e3

    def test_needs_a_sample(self):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            estimate_lipschitz(SquaredLoss(), k=3, samples=0, rng=RNG.generator())

    def test_one_point_simplex_has_no_pairs(self):
        # every sampled pair is the single point [1.0], so no quotient is defined
        assert estimate_lipschitz(SquaredLoss(), k=1, samples=30, rng=RNG.generator()) == 0.0


class TestConstruction:
    def test_tsallis_requires_alpha_above_one(self):
        with pytest.raises(ValueError, match="alpha"):
            TsallisLoss(0.5)
        with pytest.raises(ValueError, match="alpha"):
            TsallisLoss(1.0)

    def test_squared_scale_positive(self):
        with pytest.raises(ValueError):
            SquaredLoss(0.0)

    def test_tsallis_scale_positive(self):
        with pytest.raises(ValueError, match="scale must be positive"):
            TsallisLoss(1.5, scale=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("make, parameter", [
        (lambda x: SquaredLoss(x), "scale"),
        (lambda x: TsallisLoss(1.5, x), "scale"),
        (lambda x: TsallisLoss(x), "alpha"),
        (lambda x: TsallisLoss(x, 0.5), "alpha"),
    ])
    def test_non_finite_parameter_refused(self, make, parameter, value):
        with pytest.raises(ValueError, match=f"{parameter} must be finite"):
            make(value)

    def test_tsallis_default_scale(self):
        assert TsallisLoss(1.5).scale == pytest.approx(1 / 1.5)


@pytest.mark.parametrize("call, message", [
    (lambda: simplex_mesh(2.5, 10), "k must be an integer, got 2.5"),
    (lambda: simplex_mesh(3, 10.0), "resolution must be an integer, got 10.0"),
    (lambda: simplex_mesh(0, 10), "k must be >= 1"),
    (lambda: simplex_mesh(3, 0), "resolution must be >= 1"),
    (lambda: uniform_point(2.5), "k must be an integer, got 2.5"),
    (lambda: uniform_point(0), "k must be >= 1"),
    (lambda: estimate_lipschitz(SquaredLoss(), k=3, samples=9.5, rng=RNG.generator()),
     "samples must be an integer, got 9.5"),
], ids=["mesh-k-fraction", "mesh-resolution-float", "mesh-k-zero", "mesh-resolution-zero",
        "barycenter-k-fraction", "barycenter-k-zero", "lipschitz-samples-fraction"])
def test_bad_count_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_repr_names_class_and_spec():
    assert repr(SquaredLoss(0.5)) == "<SquaredLoss squared:0.5>"


def test_scalar_forecast_refused():
    with pytest.raises(ValueError, match="forecast must have at least one axis"):
        SquaredLoss().univariate(0.5)


@pytest.mark.parametrize("rule", ["univariate", "subgradient"])
def test_base_loss_has_no_form(rule):
    with pytest.raises(NotImplementedError):
        getattr(ProperLoss(), rule)(uniform_point(3))


def test_simplex_mesh_covers_simplex():
    mesh = simplex_mesh(3, 10)
    assert mesh.shape == (66, 3)  # C(12, 2) grid points
    np.testing.assert_allclose(mesh.sum(axis=1), 1.0)
    assert mesh.min() >= 0.0


@pytest.mark.parametrize("k, resolution", [(1, 1), (1, 7), (2, 1), (2, 4), (3, 10), (3, 50),
                                           (4, 6), (5, 8)])
def test_simplex_mesh_is_every_grid_point_in_lexicographic_order(k, resolution):
    brute = [point for point in itertools.product(range(resolution + 1), repeat=k)
             if sum(point) == resolution]  # product enumerates lexicographically
    mesh = simplex_mesh(k, resolution)
    assert mesh.dtype == np.float64
    assert mesh.tobytes() == (np.array(brute, dtype=float) / resolution).tobytes()
    assert mesh.shape == (math.comb(resolution + k - 1, k - 1), k)


def test_barycenter_loss_values():
    u = uniform_point(3)
    assert VShapedLoss().univariate(u) == pytest.approx(0.0)
    assert SphericalLoss().univariate(u) == pytest.approx(-1 / np.sqrt(3))
